import numpy as np
import pytest

from qdca.quantum_counting import PhaseRow, count_marked, grover_ladder, phase_distribution
from qdca.statevector import outcome_cdf
from qdca.toy_cipher import (AttackContext, ToyCipher, default_characteristic,
                             gen_pairs, make_characteristic,
                             DEFAULT_PLANTED_KEY)

# second planted instance with a nonzero true subkey, so tie-break-to-zero
# bugs cannot hide behind the stock instance's z = 0
ALT_KEY = 0x01
ALT_PLAINTEXT_DIFF = 0x1A
ALT_OUTPUT_DIFF = 0x40  # high nibble active


@pytest.fixture(scope="session")
def cipher():
    return ToyCipher()


@pytest.fixture(scope="session")
def planted(cipher):
    """Stock planted instance at n=6: (key, characteristic, pairs, context)."""
    key = DEFAULT_PLANTED_KEY
    ch = default_characteristic(cipher, key)
    pairs = gen_pairs(cipher, key, ch.plaintext_diff, 6)
    return key, ch, pairs, AttackContext(cipher, ch, pairs)


@pytest.fixture(scope="session")
def planted_alt(cipher):
    """Alternate planted instance (true subkey 1, high nibble attacked)."""
    ch = make_characteristic(cipher, ALT_KEY, ALT_PLAINTEXT_DIFF, ALT_OUTPUT_DIFF)
    pairs = gen_pairs(cipher, ALT_KEY, ch.plaintext_diff, 6)
    return ALT_KEY, ch, pairs, AttackContext(cipher, ch, pairs)


@pytest.fixture(scope="session")
def table_estimate():
    """One counting estimate of a table counted alone: its class size
    laddered, transformed, and drawn from the CDF of its distribution."""

    def estimate(marked, params, rng):
        m = np.count_nonzero(marked)
        ladder = grover_ladder(np.array([m]), params)
        probs, qft_gates = phase_distribution(ladder.columns[0], m, params)
        return count_marked(PhaseRow(outcome_cdf(probs), ladder.g_gates, qft_gates),
                            params, rng)

    return estimate
