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
])
def test_peak_rss_wrapper(limit, code, status):
    out = _run(limit, code)
    assert out.returncode == status
    assert f"(limit {limit} MiB)" in out.stdout
