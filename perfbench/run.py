"""cascadev benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads (see bench_workloads.py and BENCHMARK.json for why each exists):
cli-small, detect-large and train; `all` runs each in its own process and
prints one row per workload. Each workload process is a single thread of
load; CASCADEV_THREADS is pinned to the number of usable CPUs.

--trace 0 measures untraced and reports the end-to-end metrics:
  setup_s      median over three fresh processes of the time from process
               start to the end of input building (imports included)
  peak_rss_mb  ru_maxrss of the measuring process
  ops_per_s    the workload's throughput: scenes through gen+run+eval for
               cli-small, scenes for detect-large, training steps for train
--trace 1 spends half the time untraced and half traced, and reports the
per-layer metrics plus trace_overhead (untraced over traced throughput).

Throughputs are work done over time taken, summed over rounds of identical
work; they do not depend on run length. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Results, with a machine
block, go to perfbench/out/; spans of a traced run too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cli-small", "detect-large", "train")
SETUP_TRIALS = 3
SUBPROCESS_TIMEOUT_S = 170

# Per-scene baseline from ROADMAP.md (2-core box, Python 3.11, NumPy 2.4),
# in ms: seed scoring, cascade, NMS.
ROADMAP_MS = {"cli-small": (50.0, 24.0, 11.0), "detect-large": (653.0, 230.0, 114.0)}

def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_block() -> dict:
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cascadev_threads": os.environ["CASCADEV_THREADS"],
        "git_commit": _git_commit(),
    }


def import_program():
    """Import cascadev from this checkout's src/, never from anywhere else."""
    init = os.path.join(SRC, "cascadev", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: {init} not found; run from the root of a cascadev checkout")
    sys.path.insert(0, SRC)
    import cascadev

    if os.path.dirname(os.path.dirname(os.path.abspath(cascadev.__file__))) != SRC:
        sys.exit(f"error: imported cascadev from {cascadev.__file__}, not {SRC}")
    return cascadev


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def make_workload(cv, name: str, seed: int, tag: str):
    from bench_workloads import WORKLOADS

    workdir = os.path.join(OUT, "work", f"{name}-s{seed}-{tag}-{os.getpid()}")
    return WORKLOADS[name](cv, seed, workdir, load_reference())


def setup_probe(name: str, seed: int) -> None:
    """Body of one set-up trial: import, build inputs, report ready."""
    cv = import_program()
    wl = make_workload(cv, name, seed, "probe")
    try:
        wl.setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


def time_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its inputs being built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up trial for {name} failed with exit code {code}")
    return elapsed


def measure(wl, ledger, seconds: float, first_round: int) -> list[dict]:
    """The successful ones of as many identical rounds as fit in `seconds` (at least one).

    A round is not started when, at the length of the one before it, it
    would end past the budget.
    """
    rounds = []
    r = first_round
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = wl.round(r, ledger)
        except Exception:  # a check that cannot run means outputs are not as expected
            ledger.failed_op(f"round {r} stopped:\n{traceback.format_exc()}")
            result = {"ok": False}
        r += 1
        if result["ok"]:
            rounds.append(result)
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            return rounds


def fmt(value: float) -> str:
    return f"{value:.6g}"


def row(name: str, metrics: dict[str, tuple[float, str]]) -> str:
    return f"{name:<13}| " + " | ".join(f"{k}={fmt(v)} {u}" for k, (v, u) in metrics.items())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from bench_stats import Ledger, median

    machine = machine_block()
    print("machine: " + json.dumps(machine))
    cv = import_program()
    setup_s = None if trace else median(time_setup(name, seed) for _ in range(SETUP_TRIALS))
    wl = make_workload(cv, name, seed, f"t{int(trace)}")
    ledger = Ledger()
    try:
        wl.setup()
        untraced = measure(wl, ledger, seconds / 2 if trace else seconds, 0)
        traced, tracer = [], None
        if trace and untraced:
            traced, tracer = run_traced(cv, wl, ledger, seconds / 2, len(untraced))
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = ledger.failed == 0 and bool(untraced) and (bool(traced) or not trace)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine, "rounds": len(untraced), "attempted": ledger.attempted,
              "failed": ledger.failed, "failed_frac": ledger.failed_frac,
              "results": wl.first, "round_seconds": [r["seconds"] for r in untraced],
              "notes": ledger.notes[:20]}
    metrics: dict[str, tuple[float, str]] = {}
    if untraced:
        rate, named = wl.summarize(untraced)
        if not trace:
            metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
                       "ops_per_s": (rate, "1/s")}
            result["named"] = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
                               "failed_frac": (ledger.failed_frac, "fraction"), **named}
            print(row(name, result["named"]))
    if trace and traced:
        metrics = traced_metrics(wl, untraced, traced, tracer, name, seed)
        result["traced_rounds"] = len(traced)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"results-{name}-s{seed}-t{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    for note in ledger.notes[:5]:
        print(f"failure: {note}", file=sys.stderr)
    return {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": result["metrics"]}


def run_traced(cv, wl, ledger, seconds: float, first_round: int):
    from bench_trace import Tracer, instrument

    tracer = Tracer()
    undo = instrument(tracer, cv)
    wl.tracer = tracer
    try:
        rounds = measure(wl, ledger, seconds, first_round)
    finally:
        wl.tracer = None
        undo()
    return rounds, tracer


def traced_metrics(wl, untraced, traced, tracer, name: str, seed: int) -> dict:
    from bench_trace import PER_LAYER, layer_metrics

    base_rate, _ = wl.summarize(untraced)
    traced_rate, _ = wl.summarize(traced)
    extra = {"trace_overhead": base_rate / traced_rate,
             "cli.nonzero_exits": tracer.counts.get("cli.nonzero_exits", 0.0)}
    if "artifact_kb" in traced[0]:
        extra["cli.artifact_kb_per_scene"] = traced[0]["artifact_kb"]
    values = layer_metrics(tracer, sum(r["ops"] for r in traced), extra)
    tracer.write(os.path.join(OUT, f"spans-{name}-s{seed}.csv"))
    units = {n: u for n, u, _ in PER_LAYER}
    print(f"per-layer metrics for {name}, per {wl.unit} over {len(traced)} traced rounds "
          f"(trace_overhead {values['trace_overhead']:.3f}: untraced {fmt(base_rate)} vs "
          f"traced {fmt(traced_rate)} {wl.unit}s/s)")
    for n, v in values.items():
        print(f"  {n:<34} {fmt(v):>12} {units[n]}")
    if name in ROADMAP_MS:
        got = (values["synth.seed_scoring.s"], values["cascade.run_cascade.s"],
               values["overlap.nms.s"])
        for label, ms, base in zip(("seed scoring", "cascade", "NMS"),
                                   (1000 * g for g in got), ROADMAP_MS[name]):
            flag = "  <-- more than 2x from baseline" if not 0.5 <= ms / base <= 2.0 else ""
            print(f"  baseline check {name} {label}: {ms:.1f} ms/scene traced vs ROADMAP "
                  f"{base:.0f} ms ({ms / base:.2f}x){flag}")
    return {n: (v, units[n]) for n, v in values.items()}


def run_all(args) -> dict:
    """Every workload in its own process; one table row per workload."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT_S + args.seconds)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        rows.extend(line for line in lines if line.startswith(f"{name} "))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    if rows:
        print("\n".join(["", "summary:"] + rows))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    # Pin the CLI's worker pool to the usable CPUs, which is also its default here.
    os.environ["CASCADEV_THREADS"] = str(_nproc())
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()  # fail fast, before any output, when the program is missing
    if args.workload == "all":
        out = run_all(args)
    else:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
