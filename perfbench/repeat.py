"""Repeat benchmark runs to check that its figures are steady and its counts exact.

    python3 perfbench/repeat.py spread --workload detect-large --seeds 1-10
    python3 perfbench/repeat.py counts --seed 0

`spread` runs one workload once per seed, untraced, and prints each
end-to-end metric's interquartile range as a share of its median beside
the bound in BENCHMARK.json. `counts` makes two traced runs of every
workload with the same seed and checks that the exact counts agree.
Runs are sequential, so they do not compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench_stats import quartiles, spread
from bench_trace import EXACT_COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
                          timeout=180 + seconds)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args, config: dict) -> int:
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs = []
    for seed in seed_range(args.seeds):
        runs.append(bench(args.workload, seed, args.seconds, 0))
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)
    ok = True
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, med, q3 = quartiles(values)
        s = spread(values)
        steady = name == "setup_s" or s <= bound
        ok &= steady
        print(f"{args.workload} {name}: median {med:.6g} [Q1 {q1:.6g}, Q3 {q3:.6g}] "
              f"spread {s:.4f} bound {bound} ({s / bound:.2f} of bound)"
              f"{'' if steady else '  <-- above bound'}")
    return 0 if ok else 1


def cmd_counts(args, config: dict) -> int:
    ok = True
    for workload in [w["name"] for w in config["workloads"]]:
        first, second = (bench(workload, args.seed, args.seconds, 1) for _ in range(2))
        for name in EXACT_COUNTS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload} {name}: {first[name]!r} / {second[name]!r}"
                  f"{'' if same else '  <-- differs'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    cp = sub.add_parser("counts")
    cp.add_argument("--seed", type=int, default=0)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    for p in (sp, cp):
        p.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args()
    return cmd_spread(args, config) if args.mode == "spread" else cmd_counts(args, config)


if __name__ == "__main__":
    sys.exit(main())
