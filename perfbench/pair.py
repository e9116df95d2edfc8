#!/usr/bin/env python3
"""Paired parent/change comparison on the repository benchmark.

    python3 perfbench/pair.py --parent DIR --change DIR
        [--workloads stream_tetris] [--seed 1]
        [--held-out-seed N] [--out report.json]

DIR is the root of a checkout of each commit. Both sides run with the
run_seconds of the change side's BENCHMARK.json. There are always ten
pairs: pair i runs both sides on seed SEED+i and alternates which side
goes first. For every workload and end-to-end
metric it reports each side's median and quartiles and one verdict:

  gain        the change won at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beat every parent run
  same        none of the above

--held-out-seed N repeats the pairs on seeds N, N+1, ... and reports them
as a separate section, so a claim can be checked on seeds not used while
the change was written. Runs that fail their correctness check are
counted and listed; a side with failed runs never scores a gain.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# The 9-of-10 rule and the quartile spreads rest on ten pairs.
PAIRS = 10


def load_spec(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # Each side builds in its own checkout's .bench_build; a shared
    # CARGO_TARGET_DIR would make the two sides rebuild over each other.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with "
                           f"status {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """Compares two lists of per-pair values of one metric."""
    lower_better = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower_better else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    worse = (mc - mp) if lower_better else (mp - mc)
    worse_frac = worse / abs(mp) if mp else (float("inf") if worse > 0 else 0.0)
    parent_spread = (p3 - p1) / abs(mp) if mp else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if wins >= 9 and abs(mc - mp) > (p3 - p1) and worse < 0:
        result = "gain"
    elif worse_frac > metric["bound"]:
        result = "regression"
    elif parent_spread > metric["bound"] and not all_better:
        result = "unresolved"
    else:
        result = "same"
    return {"parent": {"median": mp, "q1": p1, "q3": p3},
            "change": {"median": mc, "q1": c1, "q3": c3},
            "wins": wins, "pairs": len(parent), "worse_frac": worse_frac,
            "parent_spread": parent_spread, "bound": metric["bound"],
            "verdict": result}


def run_section(args, spec, workloads, first_seed):
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    section = {}
    for w in workloads:
        values = {"parent": {m["name"]: [] for m in metrics},
                  "change": {m["name"]: [] for m in metrics}}
        failures = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                root = args.parent if side == "parent" else args.change
                results[side] = run_once(root, w, seed, seconds)
                print(f"  {w} seed {seed} {side}: "
                      + ("ok" if results[side]["correct"] else "FAILED"),
                      file=sys.stderr)
            for side, r in results.items():
                if not r["correct"]:
                    failures[side].append(seed)
                for m in metrics:
                    values[side][m["name"]].append(
                        r["metrics"][m["name"]]["value"])
        rows = {}
        for m in metrics:
            v = verdict(m, values["parent"][m["name"]],
                        values["change"][m["name"]])
            if failures["change"] and v["verdict"] == "gain":
                v["verdict"] = "same"
            rows[m["name"]] = v
        section[w] = {"metrics": rows, "failed_seeds": failures}
    return section


def print_section(title, section):
    print(f"== {title}")
    for w, data in section.items():
        print(f"-- {w}  failed runs: parent {data['failed_seeds']['parent']} "
              f"change {data['failed_seeds']['change']}")
        print(f"   {'metric':22} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'wins':>6} {'verdict'}")
        for name, v in data["metrics"].items():
            p, c = v["parent"], v["change"]
            ps = f"{p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
            cs = f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
            print(f"   {name:22} {ps:34} {cs:34} "
                  f"{v['wins']:>3}/{v['pairs']:<2} {v['verdict']}")


def main(argv):
    p = argparse.ArgumentParser(prog="perfbench/pair.py", allow_abbrev=False)
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--workloads")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--held-out-seed", type=int)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = load_spec(args.change)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        p.error(f"unknown workloads {unknown}; known: {names}")

    report = {"seconds": spec["run_seconds"], "pairs": PAIRS,
              "seed": args.seed, "sections": {}}
    report["sections"]["main"] = run_section(args, spec, workloads, args.seed)
    print_section(f"seeds {args.seed}..{args.seed + PAIRS - 1}",
                  report["sections"]["main"])
    if args.held_out_seed is not None:
        report["held_out_seed"] = args.held_out_seed
        held = run_section(args, spec, workloads, args.held_out_seed)
        report["sections"]["held_out"] = held
        print_section(f"held-out seeds {args.held_out_seed}.."
                      f"{args.held_out_seed + PAIRS - 1}", held)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
