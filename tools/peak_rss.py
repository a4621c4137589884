"""Run a command and fail when its peak resident set exceeds a limit.

    python3 tools/peak_rss.py LIMIT_MIB COMMAND [ARG...]

Exits with the command's own status when it fails, 1 when it succeeded but
its peak RSS (getrusage RUSAGE_CHILDREN, the largest of the waited-for
children) is above LIMIT_MIB, and 0 otherwise. The peak is printed either way.
Without a command, or with a LIMIT_MIB that is not a positive finite number,
it prints this usage, runs nothing and exits 2.
"""

from __future__ import annotations

import math
import resource
import subprocess
import sys


def _limit_mib(text: str) -> float | None:
    """The limit, or None unless ``text`` is a positive finite number."""
    try:
        limit = float(text)
    except ValueError:
        return None
    return limit if math.isfinite(limit) and limit > 0 else None


def main(argv: list[str]) -> int:
    limit_mib = _limit_mib(argv[0]) if len(argv) >= 2 else None
    if limit_mib is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = subprocess.run(argv[1:], check=False).returncode
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024   # KiB on Linux
    print(f"peak RSS {peak_mib:.1f} MiB (limit {limit_mib:g} MiB)")
    if status:
        return status
    return 0 if peak_mib <= limit_mib else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
