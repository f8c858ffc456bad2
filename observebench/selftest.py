#!/usr/bin/env python3
"""Tiny-scale self-test of the observe() benchmark (2 scenes, seed 7, 1 pass).

    python3 observebench/selftest.py

For every workload, with its extra ops: each op passes every check against
digests pinned in digests.tsv, the traced pass gives the untraced results,
the replayed stage counts equal the untraced statistics, and a result with
one bogus row appended is counted as a failed op (by the pinned digest, and
on spatial-join by the SQL-free checker). Last, Q7 runs on a 2-scene world
(seed 2) whose camera sits on a lane edge, where the program's `st_contains`
misses boundary points (ROADMAP 4(b)): the SQL-free checker must report the
missing rows. Exits 0 when all of that holds.
"""
import signal
import sys

from build import BuildError, build
from run import run_jvm, stop_on_signal

SELFTEST_TIMEOUT_S = 900


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    try:
        build()
    except BuildError as e:
        print(f"observebench build failed: {e}", file=sys.stderr)
        return 2
    code, _ = run_jvm(["--selftest"], SELFTEST_TIMEOUT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
