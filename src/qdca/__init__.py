"""Quantum differential cryptanalysis of a toy SPN cipher, simulated exactly.

The attack recovers last-round key bits of a small substitution-permutation
cipher by counting "right pairs" per candidate subkey with phase estimation
over a Grover step, then locating the best candidate with a threshold
maximum-finding loop. A classical exhaustive attack provides ground truth
for every estimate, bound and counter.
"""

from .toy_cipher import (AttackContext, Characteristic, PairSet, ToyCipher,
                         codebook_pairs, default_characteristic,
                         difference_distribution_table, encrypt_codebook,
                         find_characteristic, gen_pairs, is_right_pair,
                         make_characteristic, measure_probability,
                         right_pair_counts, right_pair_table, true_subkey)
from .classical_dca import CountTable, classical_attack, count_table
from .statevector import (CorruptedStateError, GateCounters, Register, StateVector,
                          draw_outcome)
from .quantum_counting import (ClassLadders, CountEstimate, CountingParams,
                               coherent_counting_distribution,
                               counting_distribution, counting_error_bound,
                               grover_iteration, grover_ladder, profile_error_bound,
                               reference_counting_distribution)
from .max_finding import (ExactCounter, MaxFindingConfig,
                          MaxFindingResult, QuantumCounter, SearchBudget,
                          ThresholdState, find_max_subkey,
                          grover_search_marked)
from .attack import (AttackConfig, AttackResult, ConfigError,
                     run_classical_attack, run_count_report, run_quantum_attack,
                     run_scaling_report, run_trials)

__version__ = "0.1.0"
