#!/usr/bin/env python3
"""Records the schedule digests the benchmark's correctness gate checks.

    python3 perfbench/record_digests.py [--seeds 0-31] [--workloads a,b]

Run from the root of a checkout. For every workload and seed it runs
perfbench/run.py with --seconds 1, which stops the run after its first
cycle (the digests do not depend on how many cycles a run makes), and
stores the per-input digests in perfbench/digests.json.
A pure speed-up must reproduce them bit for bit; re-record only for a
change that is meant to alter schedules, and say so in that change.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"


def seed_range(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return range(lo, hi + 1)


def write(table):
    """One line per workload and seed, seeds in numeric order."""
    blocks = []
    for w, by_seed in table["digests"].items():
        lines = [f"    {json.dumps(seed)}: {json.dumps(d)}" for seed, d in
                 sorted(by_seed.items(), key=lambda kv: int(kv[0]))]
        blocks.append(f"  {json.dumps(w)}: {{\n" + ",\n".join(lines)
                      + "\n  }")
    DIGESTS.write_text('{"digests": {\n' + ",\n".join(blocks) + "\n}}\n")


def main(argv):
    p = argparse.ArgumentParser(prog="perfbench/record_digests.py",
                                allow_abbrev=False)
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    p.add_argument("--workloads")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    table = {"digests": {}}
    if DIGESTS.is_file():
        table = json.loads(DIGESTS.read_text())
    # Record fresh: the gate must not compare a run against itself.
    for w in workloads:
        table["digests"].setdefault(w, {})
        for seed in args.seeds:
            table["digests"][w].pop(str(seed), None)
    write(table)

    for w in workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"{w} seed {seed}: run failed "
                         f"(status {proc.returncode})")
            stamp = json.loads(lines[-2].removeprefix("# stamp "))
            table["digests"][w][str(seed)] = stamp["digests"]
            print(f"{w} seed {seed}: {stamp['digests']}", file=sys.stderr)
    write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
