import os
import subprocess
import sys
from pathlib import Path

import pytest

PEAK_RSS = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


def _run(limit_mib, code):
    return subprocess.run([sys.executable, str(PEAK_RSS), str(limit_mib),
                           sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("limit, code, status", [
    (1024, "pass", 0),
    (32, "block = b'x' * (64 << 20)", 1),   # 64 MiB written: above the limit
    (1024, "raise SystemExit(3)", 3),        # the command's own failure wins
    # a limit that is not a positive finite number: the usage, and the
    # command (which would exit 3) never runs
    *[(bad, "raise SystemExit(3)", 2) for bad in ("abc", "", "0", "-5", "nan", "inf")],
])
def test_peak_rss_wrapper(limit, code, status):
    out = _run(limit, code)
    assert out.returncode == status
    if status == 2:
        assert out.stdout == "" and "LIMIT_MIB COMMAND" in out.stderr
    else:
        assert f"(limit {limit} MiB)" in out.stdout


PROFILE_TRIAL = PEAK_RSS.parent / "profile_trial.py"


def test_profile_trial_reports_the_counting_kernel():
    src = str(PEAK_RSS.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, str(PROFILE_TRIAL), "--trials", "2", "--top", "40"],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("total ") and "tottime" in lines[1]
    assert len(lines) == 2 + 40
    # the ladder runs once per run, in the warm-up trial; each profiled trial
    # transforms its own QFT block
    assert any("(phase_block)" in line for line in lines[2:])
