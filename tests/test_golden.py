"""Seeded CLI outputs pinned byte for byte.

The files under tests/fixtures/golden/ were written by the gate-by-gate
counting circuit before the factored kernel replaced it; the n = 8 runs
(attack_k4n8, count_n8) by the factored kernel before the phase estimation
was reduced to the two index classes; the random-key runs (random_both_n5,
random_classical_n8), which redraw keys that carry no signal, before the pair
data became array columns; the quantum k = 8 run (attack_k8n8, with the
characteristic doc P' = 01, delta = 11; its quantum trial 0 recovers 90 and
trial 1 recovers c1) before the Grover steps ran on the two-class state; the
scaling sweep (scale_small) before its counting rows came from the counter's
lane ladder; the 16-bit run (attack_w16k4n16: the default pbox of a 16-bit
block, the characteristic doc P' = 80C8, delta = 2, and n = 16, so t+n+1 = 29;
quantum recovers 4 of 5 trials and classical 5 of 5) when the width limit
became the lane record's t+1+k alone; the random-key 16-bit run
(random_w16k4n14: the same doc at n = 14 with a fresh key per trial, so the
class-size memo meets new sizes and must evict; quantum recovers 8 of 20)
before every counter laddered class sizes through that memo.
Any change to the counting kernel, the search or the CSV writers that alters
a single output byte fails here, while the determinism check (two runs of the
same code) would not notice.
"""

from pathlib import Path

import pytest

from qdca.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

RUNS = {
    "attack_k4n6": (["attack", "-k", "4", "-n", "6", "-c", "4", "--trials", "20",
                     "--master-seed", "2024"], ("results.csv", "trace.csv")),
    "both_n5": (["attack", "--mode", "both", "-n", "5", "--trials", "4",
                 "--master-seed", "99"], ("results.csv", "trace.csv")),
    "count_n6": (["count", "-n", "6"], ("counts.csv",)),
    "attack_k4n8": (["attack", "-k", "4", "-n", "8", "-c", "4", "--trials", "3",
                     "--master-seed", "2024"], ("results.csv", "trace.csv")),
    "count_n8": (["count", "-n", "8"], ("counts.csv",)),
    "random_both_n5": (["attack", "--mode", "both", "--random-keys", "-n", "5",
                        "--trials", "20", "--master-seed", "2024"],
                       ("results.csv", "trace.csv")),
    "random_classical_n8": (["attack", "--mode", "classical", "--random-keys", "-n", "8",
                             "--trials", "50", "--master-seed", "2024"], ("results.csv",)),
    "attack_k8n8": (["attack", "-k", "8", "-n", "8", "--mode", "both", "--trials", "2",
                     "--master-seed", "2024", "--planted-key", "0x09",
                     "--config", str(FIXTURES / "k8_characteristic.json")],
                    ("results.csv", "trace.csv")),
    "attack_w16k4n16": (["attack", "--mode", "both", "-k", "4", "-n", "16", "--trials", "5",
                         "--master-seed", "2024", "--planted-key", "0x09",
                         "--config", str(FIXTURES / "w16_k4_characteristic.json")],
                        ("results.csv", "trace.csv")),
    "random_w16k4n14": (["attack", "-k", "4", "-n", "14", "--random-keys", "--trials", "20",
                         "--master-seed", "2024",
                         "--config", str(FIXTURES / "w16_k4_characteristic.json")],
                        ("results.csv", "trace.csv")),
    "scale_small": (["scale", "--search-bits", "4,6", "--counting-bits", "4,6,8",
                     "--seeds", "5", "--master-seed", "2024"], ("scale.csv",)),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_outputs_match_golden_bytes(name, tmp_path, capsys):
    argv, files = RUNS[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for fname in files:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), \
            f"{name}/{fname} differs from the golden file"
