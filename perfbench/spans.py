"""Spans and counts around calls into definetti's modules, kept in memory.

The program is not changed: ``Tracer.installed`` replaces module attributes
with timing wrappers for the duration of a ``with`` block and puts the
originals back afterwards.  A span is (name, start_ns, end_ns, parent index,
operation id); a layer's self time is its spans' durations minus the parts
their child spans cover.  Wrappers are installed only where a caller looks the
function up, so each call is timed once.  A target the package no longer has
is skipped, and its metric then reads 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


def _prefix_entries(fn, args, kwargs, result):
    law = args[0]
    return {"core.prefix_entries": law.m ** law.n}


def _cmi_evals(fn, args, kwargs, result):
    law, k = args[0], args[1]
    return {"bounds.cmi_evals": k * (law.n - k + 1)}


def _atoms(fn, args, kwargs, result):
    return {"bounds.atoms": result.atom_count}


def _rendered(fn, args, kwargs, result):
    return {"serialize.bytes": len(result.encode("utf-8"))}


def _fit(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {
        "optimizer.iterations": result.iterations,
        "optimizer.max_iter_hits": int(result.iterations >= bound.arguments["max_iter"]),
    }


def _types(fn, args, kwargs, result):
    return {"core.types": len(result[-1])}


#: (module, attribute, span name, counter).  A module's entry is the name its
#: callers use, so a function imported by name into two modules appears twice.
TARGETS = (
    ("cli", "load_law", "cli.load_law", None),
    ("cli", "render_json", "serialize.render", _rendered),
    ("cli", "certificate_csv", "serialize.render", _rendered),
    ("cli", "certify", "bounds.certify", None),
    ("cli", "improve_certificate", "optimizer.improve_certificate", None),
    ("cli", "GeneratorSpec.build", "generators.law", None),
    ("optimizer", "certify", "bounds.certify", None),
    ("optimizer", "build_mixing_measure", "bounds.build_mixing_measure", _atoms),
    ("optimizer", "densify", "core.densify", _prefix_entries),
    ("optimizer", "fit_mixture_weights", "optimizer.fit_mixture_weights", _fit),
    ("bounds", "select_mstar", "bounds.select_mstar", _cmi_evals),
    ("bounds", "build_mixing_measure", "bounds.build_mixing_measure", _atoms),
    ("bounds", "mixture_dist", "bounds.mixture_dist", None),
    ("bounds", "densify", "core.densify", _prefix_entries),
    ("bounds", "relative_entropy", "info.relative_entropy", None),
    ("bounds", "total_variation", "info.total_variation", None),
    ("bounds", "tail_mi", "bounds.tail_mi", None),
)
#: The law's marginal table is memoized; only the call that builds it is a span.
MARGINAL_TABLE_USERS = ("core", "bounds", "info")

#: Per-layer time metrics: metric name -> span names whose self time it sums.
LAYERS = {
    "cli.main_ms": ("cli.main",),
    "cli.load_law_ms": ("cli.load_law",),
    "generators.law_ms": ("generators.law",),
    "serialize.render_ms": ("serialize.render",),
    "core.marginal_table_ms": ("core.marginal_table",),
    "core.densify_ms": ("core.densify",),
    "bounds.certify_ms": ("bounds.certify",),
    "bounds.select_mstar_ms": ("bounds.select_mstar",),
    "bounds.mixing_measure_ms": ("bounds.build_mixing_measure",),
    "bounds.tail_mi_ms": ("bounds.tail_mi",),
    "bounds.mixture_ms": ("bounds.mixture_dist",),
    "info.divergence_ms": ("info.relative_entropy", "info.total_variation"),
    "optimizer.improve_ms": ("optimizer.improve_certificate",),
    "optimizer.fit_ms": ("optimizer.fit_mixture_weights",),
}
COUNTS = (
    "core.types", "core.prefix_entries", "bounds.cmi_evals", "bounds.atoms",
    "optimizer.iterations", "optimizer.max_iter_hits", "serialize.bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self.startup_ms: list[float] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called ``name``."""
        return self._span(name, fn, None, args, kwargs)

    def _span(self, name, fn, counter, args, kwargs):
        rec = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[2] = perf_counter_ns()
        if counter is not None:
            self.counts.update(counter(fn, args, kwargs, result))
        return result

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self._span(name, fn, counter, args, kwargs)
        return traced

    def _wrap_marginal_table(self, fn):
        def traced(law):
            if getattr(law, "_marginals", None) is not None:
                return fn(law)
            return self._span("core.marginal_table", fn, _types, (law,), {})
        return traced

    @contextmanager
    def installed(self):
        """Trace calls into definetti inside the block."""
        saved = []
        try:
            for mod_name, attr, name, counter in TARGETS:
                owner = importlib.import_module(f"definetti.{mod_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is not None:
                    saved.append((owner, leaf, fn))
                    setattr(owner, leaf, self._wrap(name, fn, counter))
            for mod_name in MARGINAL_TABLE_USERS:
                owner = importlib.import_module(f"definetti.{mod_name}")
                fn = getattr(owner, "_marginal_table", None)
                if fn is not None:
                    saved.append((owner, "_marginal_table", fn))
                    setattr(owner, "_marginal_table", self._wrap_marginal_table(fn))
            yield self
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)

    def absorb(self, record, op):
        """Add what a traced child process recorded, as operation ``op``."""
        spans, counts = record["spans"], record["counts"]
        self.startup_ms.append(record["startup_ms"])
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, None if parent is None else base + parent, op])
        self.counts.update(counts)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += (end - start - child) / 1e6
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Self time and counts per operation, for every layer metric."""
        own = self.self_ms()
        out = {metric: sum(own.get(n, 0.0) for n in names) / ops
               for metric, names in LAYERS.items()}
        out.update({name: self.counts.get(name, 0) / ops for name in COUNTS})
        return out
