#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark and the
fannet CLI from source with dune, runs perfbench/bench.exe, and passes
its output through: the last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}. A copy of every
result is kept under .perfbench/results/ for perfbench/compare.py.
Workloads and metrics are defined in BENCHMARK.json.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
DEADLINE_S = 175  # a run, build included, must end within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    for needed in ("BENCHMARK.json", "dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")

    # The first run in a fresh checkout builds everything; later runs are
    # no-op builds of a second or so.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe", "./bin/fannet_cli.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    state = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(state, "tmp")
    results = os.path.join(state, "results")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    out = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    build_dir = os.path.join(ROOT, "_build", "default")
    cmd = [
        os.path.join(build_dir, "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spec", os.path.join(ROOT, "BENCHMARK.json"),
        "--fannet", os.path.join(build_dir, "bin", "fannet_cli.exe"),
        "--work-dir", work_dir,
        "--out", out,
    ]
    # Its own process group, so the daemons it starts go down with it
    # should it be killed.
    proc = subprocess.Popen(cmd, start_new_session=True)
    # A first build may take minutes; the run itself still gets its time.
    remaining = max(DEADLINE_S - (time.monotonic() - start), DEADLINE_S - 5)
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the run did not finish in time")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers of a failed run
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
