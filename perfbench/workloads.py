"""The benchmark's three workloads: their inputs, one operation, its check.

Each workload is a closed loop of one operation at a time.  ``round`` gives a
fixed list of operations; a run attempts whole rounds only, so every run
holds the same mix of operation sizes whatever its length.

* sweep: ``definetti sweep`` in process on the seed's random_dirichlet laws
  with m=3, n=12..16, k=2..8 (35 certificates).  Endpoint selection
  dominates; the CLI builds the laws afresh in every operation, so no law
  memo is reused.
* long_prefix: ``python -m definetti certify`` in a fresh interpreter on
  binary n=30 laws, k=16..20.  The dense m^k prefix and mixture dominate and
  set peak memory; every operation starts cold.
* optimize: ``definetti optimize`` in process on a fixed set of small laws.
  The EM weight fit dominates, and one fit runs to max_iter with a 3 MB
  trace.  Fit cost varies 50x between laws of one shape (0.02-1.1 s), so a
  law set drawn from the seed would make throughput a function of the seed;
  the set is fixed and the seed rotates its order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def run_cli(cli, argv, tracer):
    """definetti's CLI in this process, stdout captured: (ok, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.installed():
                code = tracer.call("cli.main", cli.main, argv)
    return code == 0, buf.getvalue()


def run_child(args):
    """A child interpreter with the checkout's src on its path: (ok, stdout, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        with proc.stdout:
            out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode == 0, out.decode("utf-8"), usage.ru_maxrss / 1024.0


class InProcess:
    """A workload whose operation is one call of definetti's CLI in this process."""

    def run(self, op, indir, cli, tracer):
        ok, text = run_cli(cli, self.argv(op, indir), tracer)
        return ok, text, None


class Sweep(InProcess):
    name = "sweep"
    M, NS, KS = 3, range(12, 17), range(2, 9)

    def write_inputs(self, df, seed, indir):
        pass

    def round(self, seed, index):
        return [{"law_seed": seed}]

    def argv(self, op, indir):
        return ["sweep", "--kind", "random_dirichlet", "--alphabet-size", str(self.M),
                "--seed", str(op["law_seed"]),
                "--n", f"{self.NS[0]}..{self.NS[-1]}", "--k", f"{self.KS[0]}..{self.KS[-1]}"]

    def check(self, op, text, indir):
        rows = checker.parse_certificate_csv(text)
        cells = [(r["n"], r["k"]) for r in rows]
        want = [(n, k) for n in self.NS for k in self.KS]
        if cells != want:
            return [f"sweep cells {cells} differ from {want}"], None
        laws = {n: checker.dirichlet_law(op["law_seed"], self.M, n) for n in self.NS}
        return [p for r in rows for p in checker.check_certificate(laws[r["n"]], r)], None


class LongPrefix:
    name = "long_prefix"
    N, KS = 30, (16, 17, 18, 19, 20)

    def law_path(self, indir, k):
        return indir / f"binary_n{self.N}_k{k}.json"

    def write_inputs(self, df, seed, indir):
        for k in self.KS:
            df.save_law(df.random_dirichlet(seed * 100 + k, 2, self.N), self.law_path(indir, k))

    def round(self, seed, index):
        return [{"k": k} for k in self.KS]

    def argv(self, op, indir):
        return ["certify", "--law", str(self.law_path(indir, op["k"])), "--k", str(op["k"])]

    def run(self, op, indir, cli, tracer):
        if tracer is None:
            return run_child(["-m", "definetti", *self.argv(op, indir)])
        record = indir / "spans.json"
        record.unlink(missing_ok=True)
        ok, text, rss = run_child([str(BENCH / "child.py"), "certify", str(record),
                                   str(time.monotonic_ns()), *self.argv(op, indir)])
        if ok:
            tracer.absorb(json.loads(record.read_text(encoding="utf-8")), tracer.op)
        return ok, text, rss

    def check(self, op, text, indir):
        law = checker.law_from_file(self.law_path(indir, op["k"]))
        cert = checker.parse_certificate(json.loads(text))
        if cert["k"] != op["k"]:
            return [f"certificate for k={cert['k']}, asked for k={op['k']}"], None
        return checker.check_certificate(law, cert), None


class Optimize(InProcess):
    name = "optimize"
    #: (random_dirichlet seed, m, n, k, grid resolution).  The first fit stops
    #: at max_iter; the others converge after 150 to 90k iterations.
    LAWS = (
        (3, 2, 12, 4, 20),
        (3, 2, 8, 3, 12),
        (0, 3, 10, 3, 8),
        (2, 2, 12, 4, 12),
        (0, 2, 10, 3, 20),
        (3, 3, 8, 2, 10),
        (1, 3, 12, 4, 6),
        (0, 3, 9, 3, 6),
        (1, 2, 6, 2, 10),
    )

    def law_path(self, indir, i):
        return indir / f"law{i}.json"

    def write_inputs(self, df, seed, indir):
        for i, (law_seed, m, n, _, _) in enumerate(self.LAWS):
            df.save_law(df.random_dirichlet(law_seed, m, n), self.law_path(indir, i))

    def round(self, seed, index):
        start = seed % len(self.LAWS)
        return [{"law": (start + j) % len(self.LAWS)} for j in range(len(self.LAWS))]

    def argv(self, op, indir):
        _, _, _, k, grid = self.LAWS[op["law"]]
        return ["optimize", "--law", str(self.law_path(indir, op["law"])), "--k", str(k),
                "--grid-resolution", str(grid)]

    def check(self, op, text, indir):
        _, _, _, k, grid = self.LAWS[op["law"]]
        law = checker.law_from_file(self.law_path(indir, op["law"]))
        out = json.loads(text)
        cert = checker.parse_certificate(out["certificate"])
        problems = checker.check_certificate(law, cert)
        fit_problems, gap = checker.check_fit(law, k, grid, cert, out["fit"])
        return problems + fit_problems, gap


WORKLOADS = {w.name: w for w in (Sweep(), LongPrefix(), Optimize())}
