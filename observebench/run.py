#!/usr/bin/env python3
"""Measure SpatialyzeWorld observe() calls on one workload.

    python3 observebench/run.py --workload trajectory --seed 7 --seconds 20 --trace 0

Builds the program and the benchmark from source (see build.py), then runs
one JVM with Spark as local[N], N = the CPUs this process may use. Prints
the benchmark's report, and as the last line one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.

Extra options: --scenes (default 4), --pin (run the workload's extra ops too
and write the first pass's digests to digests.tsv).
"""
import argparse
import os
import signal
import subprocess
import sys

from build import ROOT, BuildError, build, java_command

RUN_TIMEOUT_S = 170
PIN_TIMEOUT_S = 900  # --pin also runs every extra op


def run_jvm(args, timeout):
    """Run the benchmark JVM; relay its report; return (exit code, result line)."""
    env = dict(os.environ)
    env["SPARK_MASTER"] = f"local[{len(os.sched_getaffinity(0))}]"
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    env.pop("SPARK_LOCAL_DIRS", None)  # it would override spark.local.dir inside the checkout
    cmd = java_command("observebench.Main", args)
    result = None
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"observebench: timed out after {timeout} s", file=sys.stderr)
            return 1, None
        finally:
            # Also on a timeout or a signal: the JVM does not outlive this process.
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = line[len("RESULT "):]
        else:
            print(line)
    return proc.returncode, result


def stop_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scenes", type=int, default=4)
    ap.add_argument("--pin", action="store_true")
    a = ap.parse_args()
    try:
        build()
    except BuildError as e:
        print(f"observebench build failed: {e}", file=sys.stderr)
        return 2
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--scenes", str(a.scenes)]
    args += ["--pin"] * a.pin
    code, result = run_jvm(args, PIN_TIMEOUT_S if a.pin else RUN_TIMEOUT_S)
    if code != 0 or result is None:
        print(f"observebench: run failed (exit {code})", file=sys.stderr)
        return code or 1
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
