#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the simulator from source
(RelWithDebInfo, under $CARGO_TARGET_DIR or .bench_build), runs the
perfbench binary, checks the schedule digests against perfbench/digests.json
and prints one JSON object as the last line of standard output. Each
workload simulates its inputs a fixed number of times; --seconds (at most
140) only caps how long that may take.



    {"correct": true, "attempted": 1600, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics (spans go to
<build dir>/spans/<workload>-seed<N>.csv). The line before it, starting
with '# stamp', names the build and host the figures came from. The exit
status is 0 when every check passed, 1 when a check failed, 2 on a usage
error and 3 when the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "RelWithDebInfo"
# The binary stops starting new simulations once --seconds (counted from
# its start) would be overrun; the margin covers the cycle in flight and
# the checks after it, and the cap keeps a run within 180 s.
MAX_SECONDS = 140
RUN_MARGIN_S = 30


def strict_uint(limit):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or int(text) > limit:
            raise argparse.ArgumentTypeError(
                f"expected an integer in [0, {limit}], got {text!r}")
        return int(text)
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one workload of the repository benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=strict_uint(2**47 - 1))
    p.add_argument("--seconds", required=True, type=strict_uint(MAX_SECONDS))
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    names = known_workloads()
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; one of: "
                + ", ".join(names))
    return args


def known_workloads():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError, TypeError):
        fail("BENCHMARK.json is missing or malformed")


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; "
             "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    cache = bdir / "CMakeCache.txt"
    if cache.is_file():
        home = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$",
                         cache.read_text(errors="replace"), re.M)
        if not home or Path(home.group(1)).resolve() != BENCH_DIR:
            shutil.rmtree(bdir)  # configured for another checkout
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                     *generator, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark build failed")
    jobs = str(max(1, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(bdir), "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def source_digest():
    """sha256 over the simulator sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", BENCH_DIR) for p in d.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def recorded_digests(workload, seed):
    try:
        table = json.loads((BENCH_DIR / "digests.json").read_text())
    except (OSError, ValueError):
        fail("perfbench/digests.json is missing or not JSON")
    return table.get("digests", {}).get(workload, {}).get(str(seed))


def main(argv):
    args = parse_args(argv)
    bdir = build_dir()
    build(bdir)
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = bdir / "spans" / f"{args.workload}-seed{args.seed}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"the benchmark exited with status {proc.returncode}")
    report = json.loads(lines[-1])

    correct = report["correct"]
    failed = report["failed"]
    errors = list(report["errors"])
    metrics = report["metrics"]
    expected = recorded_digests(args.workload, args.seed)
    if expected is not None and expected != report["digests"]:
        correct = False
        failed = report["attempted"]
        errors.append(f"schedule digests {report['digests']} differ from the "
                      f"recorded {expected}")
        if "finished_jobs_frac" in metrics:
            metrics["finished_jobs_frac"]["value"] = 0.0
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)

    stamp = dict(report["stamp"])
    stamp.update(git_describe=git_describe(), source_digest=source_digest(),
                 nproc_os=os.cpu_count(), workload=args.workload,
                 seed=args.seed, instances=report["instances"],
                 cycles=report["cycles"], capped=report["capped"],
                 yardstick_s=report["yardstick_s"],
                 digests=report["digests"],
                 digests_recorded=expected is not None)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
