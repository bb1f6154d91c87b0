"""Benchmark for definetti: one workload for a fixed time, every output checked.

    python3 perfbench/run.py --workload {sweep,long_prefix,optimize} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; definetti is imported from its ``src``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (setup_s, ops_per_s, op_p50_ms, peak_rss_mb); with
``--trace 1`` each operation runs once untraced and once traced, and the
metrics are the per-layer ones.  Every output is checked by ``checker``, an
independent recomputation, outside the timed region.  See README.md.
"""

import os

# One compute thread: sweeps run serially and BLAS stays single-threaded, so
# the load is one process on one core.  Children inherit the setting.
os.environ.update(DEFINETTI_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse
import json
import resource
import shutil
import statistics
import sys
import time

from workloads import BENCH, ROOT, SRC, WORKLOADS, run_child

OUT = BENCH / "out"
SETUP_REPEATS = 9


def set_up(workload, seed, indir):
    """Cold set-ups, one at a time: (seconds each, startup ms each)."""
    seconds, startup = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        ok, text, _ = run_child([str(BENCH / "child.py"), "setup", workload.name,
                                 str(seed), str(indir), str(t0)])
        seconds.append((time.monotonic_ns() - t0) / 1e9)
        if not ok:
            raise SystemExit("set-up failed")
        startup.append(json.loads(text)["startup_ms"])
    return seconds, startup


def measure(workload, seed, seconds, indir, cli, tracer):
    """Whole rounds of operations until their busy time reaches ``seconds``."""
    res = {"attempted": 0, "failed": 0, "problems": [], "times": [], "traced": [],
           "rss": [], "gaps": []}
    busy, index = 0.0, 0
    while busy < seconds:
        for op in workload.round(seed, index):
            for traced in ([None] if tracer is None else [None, tracer]):
                if traced is not None:
                    traced.op = res["attempted"]
                res["attempted"] += 1
                start = time.perf_counter()
                ok, text, rss = workload.run(op, indir, cli, traced)
                elapsed = time.perf_counter() - start
                busy += elapsed
                if not ok:
                    res["failed"] += 1
                    continue
                res["traced" if traced else "times"].append(elapsed)
                if rss is not None:
                    res["rss"].append(rss)
                try:
                    problems, gap = workload.check(op, text, indir)
                except (ValueError, KeyError, TypeError) as exc:
                    problems, gap = [f"unreadable output: {exc!r}"], None
                res["problems"] += [f"{workload.name} {op}: {p}" for p in problems]
                if gap is not None:
                    res["gaps"].append(gap)
        index += 1
    return res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "definetti" / "__init__.py").is_file():
        print(f"error: no definetti package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    indir = OUT / f"{workload.name}-{args.seed}-{os.getpid()}"
    indir.mkdir()
    try:
        setup_seconds, startup = set_up(workload, args.seed, indir)
        sys.path.insert(0, str(SRC))
        from definetti import cli
        from spans import Tracer

        tracer = Tracer() if args.trace else None
        res = measure(workload, args.seed, args.seconds, indir, cli, tracer)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(indir, ignore_errors=True)

    for problem in res["problems"]:
        print(problem, file=sys.stderr)
    times = res["times"]
    if not times or (tracer is not None and not res["traced"]):
        print("error: every operation failed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1000.0,
            "peak_rss_mb": max(res["rss"]) if res["rss"] else self_rss,
        }
    else:
        tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
        metrics = tracer.layer_metrics(len(res["traced"]))
        metrics["cli.startup_ms"] = statistics.median(startup + tracer.startup_ms)
        metrics["optimizer.gap_max"] = max(res["gaps"], default=0.0)
        metrics["trace.overhead_pct"] = 100.0 * (sum(res["traced"]) / sum(times) - 1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
