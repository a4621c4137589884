#!/usr/bin/env python3
"""Regenerate digests.json: SHA-256 of the results.csv and trace.csv bytes that
`qdca attack` writes for the first 2**j trials of each attack workload at the
default master seed.

    python3 perfbench/make_digests.py

Run it only at a commit whose outputs are known to be right; the benchmark
then fails any later commit that changes one of these bytes.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

MAX_TRIALS = {"attack-k4n6": 128, "attack-k4n8": 8, "classical-random-keys": 8192}


def main() -> int:
    run.pin_environment()
    mods = run.import_qdca()
    cli, attack = mods["cli"], mods["attack"]
    table = {"master_seed": run.DEFAULT_SEED, "workloads": {}}
    for name, most in MAX_TRIALS.items():
        w = WORKLOADS[name]
        args = cli.build_parser().parse_args(
            ["attack", *w.attack_flags, "--master-seed", str(run.DEFAULT_SEED),
             "--trials", str(most)])
        results, trace = attack.run_trials(cli._config_from_args(args))
        entry = {}
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            for j in range(most.bit_length()):
                n = 1 << j
                paths = (Path(tmp) / "results.csv", Path(tmp) / "trace.csv")
                attack.write_results_csv(paths[0], results[:n])
                attack.write_trace_csv(paths[1], [r for r in trace if r["trial"] < n])
                entry[str(n)] = {key: hashlib.sha256(p.read_bytes()).hexdigest()
                                 for key, p in zip(("results", "trace"), paths)}
        table["workloads"][name] = entry
        print(f"{name}: {most} trials", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
