"""Reference figures for README.md, measured once: python3 perfbench/reference.py

* the cold certify ladder: ``python -m definetti certify`` on a binary n=30
  law for k=16..20, wall time and peak RSS of the child (median of 3);
* the sweep workload's operation at DEFINETTI_THREADS=1 and =2 (3 each).
"""

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from workloads import SRC, WORKLOADS, run_child, run_cli

REPEATS = 3


def main() -> None:
    sys.path.insert(0, str(SRC))
    import definetti
    from definetti import cli

    ladder = WORKLOADS["long_prefix"]
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        ladder.write_inputs(definetti, 0, Path(tmp))
        for op in ladder.round(0, 0):
            times, rss = [], []
            for _ in range(REPEATS):
                start = time.perf_counter()
                ok, _, peak = run_child(["-m", "definetti", *ladder.argv(op, Path(tmp))])
                times.append(time.perf_counter() - start)
                rss.append(peak)
                if not ok:
                    raise SystemExit(f"certify k={op['k']} failed")
            print(f"certify n=30 k={op['k']}: {statistics.median(times):.2f} s, "
                  f"{statistics.median(rss):.0f} MB")

    sweep = WORKLOADS["sweep"]
    for threads in ("1", "2"):
        os.environ["DEFINETTI_THREADS"] = threads
        times = []
        for i in range(REPEATS):
            start = time.perf_counter()
            ok, _ = run_cli(cli, sweep.argv({"law_seed": i}, None), None)
            times.append(time.perf_counter() - start)
            if not ok:
                raise SystemExit("sweep failed")
        print(f"sweep m=3 n=12..16 k=2..8, DEFINETTI_THREADS={threads}: "
              + ", ".join(f"{t:.2f}" for t in times) + " s")


if __name__ == "__main__":
    main()
