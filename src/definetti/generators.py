"""Canonical exchangeable-law families: the package's corpus and CLI inputs.

All generators return exact :class:`ExchangeableLaw` values computed in
closed form per type (no sampling of trajectories).  ``random_dirichlet`` is
the one stochastic family; it draws type-class masses from numpy's PCG64
generator, so a (seed, m, n, concentration) tuple reproduces the identical
law on every platform with the same numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import ExchangeableLaw, _type_table, enumerate_types

KINDS = ("iid", "iid_mixture", "polya", "urn", "diaconis_pair", "random_dirichlet")


def as_letter_dist(p, tol: float = 1e-12) -> np.ndarray:
    """Validate and return a letter distribution as a float vector."""
    arr = np.asarray(p, dtype=float).ravel()
    if arr.size < 1:
        raise ValueError("letter distribution must be nonempty")
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise ValueError("letter probabilities must be finite and nonnegative")
    if abs(fsum(arr.tolist()) - 1.0) > tol:
        raise ValueError("letter probabilities must sum to 1")
    out = arr.copy()
    out.flags.writeable = False
    return out


#: Largest components x types block of :func:`_component_table`.
TYPE_BLOCK_ENTRIES = 2**18


def _component_table(components, counts):
    """prod_a c_j[a]**T_a for each component j (rows) and type T (columns).

    ``counts`` holds one type vector per row, all of one length.  Yields the
    table in column blocks of at most ``TYPE_BLOCK_ENTRIES`` entries, in the
    order of ``counts``.  Powers come from the C library's ``pow`` and the
    products are taken one symbol at a time, so the values do not depend on
    numpy's SIMD kernels.
    """
    m = counts.shape[1]
    comps = [np.asarray(c, dtype=float).ravel().tolist() for c in components]
    if any(len(c) != m for c in comps):
        raise ValueError("component alphabet mismatch")
    exps = range(int(counts[0].sum()) + 1)
    flat = [x**e for c in comps for x in c for e in exps]
    powers = np.array(flat).reshape(len(comps), m, len(exps))
    step = max(1, TYPE_BLOCK_ENTRIES // len(comps))
    for lo in range(0, len(counts), step):
        part = counts[lo : lo + step]
        table = np.ones((len(comps), len(part)))
        for a in range(m):
            table *= powers[:, a, part[:, a]]
        yield table


def _mixture_masses(weights, components, counts) -> np.ndarray:
    """Per-sequence mixture probabilities q_T = sum_j w_j prod_a c_j[a]**T_a.

    Each q_T is an fsum over the components, so the values do not depend on
    the block size.
    """
    w = np.array(weights, dtype=float)[:, None]
    out = []
    for table in _component_table(components, counts):
        out += [fsum(col) for col in (w * table).T.tolist()]
    return np.array(out)


def iid_mixture(components, n: int) -> ExchangeableLaw:
    """Mixture of i.i.d. laws: q(T) = sum_j w_j prod_a Q_j(a)^{T_a}.

    ``components`` is a sequence of (weight, letter distribution) pairs.
    Mixtures are projective: the k-marginal equals the same mixture at
    length k.
    """
    components = list(components)
    if not components:
        raise ValueError("need at least one component")
    weights = [float(w) for w, _ in components]
    dists = [as_letter_dist(d) for _, d in components]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if abs(fsum(weights) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    m = dists[0].size
    masses = _mixture_masses(weights, dists, _type_table(m, n).counts)
    return ExchangeableLaw(m, n, dict(zip(enumerate_types(m, n), masses.tolist())))


def iid(dist, n: int) -> ExchangeableLaw:
    """Product law with a single letter distribution."""
    return iid_mixture([(1.0, dist)], n)


def polya(initial_counts, n: int) -> ExchangeableLaw:
    """Urn with reinforcement: draw a ball, put it back along with a copy.

    The per-sequence probability is a ratio of rising factorials and depends
    only on the type, so the law is exchangeable by construction.
    """
    counts = tuple(int(c) for c in initial_counts)
    if not counts or any(c < 1 for c in counts):
        raise ValueError("initial counts must be positive integers")
    total = sum(counts)
    m = len(counts)
    den = 1
    for j in range(n):
        den *= total + j
    q = {}
    for t in enumerate_types(m, n):
        num = 1
        for c, cnt in zip(counts, t):
            for j in range(cnt):
                num *= c + j
        q[t] = num / den
    return ExchangeableLaw(m, n, q)


def urn_without_replacement(counts, n: int) -> ExchangeableLaw:
    """Draw n balls without replacement from an urn with the given counts.

    Types that demand more of a symbol than the urn holds get probability
    exactly zero.  Requires n <= total ball count.
    """
    counts = tuple(int(c) for c in counts)
    if not counts or any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative integers")
    total = sum(counts)
    if total < 1:
        raise ValueError("urn must hold at least one ball")
    if n > total:
        raise ValueError(f"cannot draw {n} from an urn of {total}")
    m = len(counts)
    den = 1
    for j in range(n):
        den *= total - j
    q = {}
    for t in enumerate_types(m, n):
        if any(cnt > c for c, cnt in zip(counts, t)):
            q[t] = 0.0
            continue
        num = 1
        for c, cnt in zip(counts, t):
            for j in range(cnt):
                num *= c - j
        q[t] = num / den
    return ExchangeableLaw(m, n, q)


def diaconis_pair() -> ExchangeableLaw:
    """The exchangeable binary pair with no i.i.d.-mixture representation.

    Pr(0,1) = Pr(1,0) = 1/2; equivalently two draws without replacement from
    an urn with one ball of each color.
    """
    return urn_without_replacement((1, 1), 2)


def random_dirichlet(seed: int, m: int, n: int, concentration: float = 1.0) -> ExchangeableLaw:
    """Random point of the exchangeable polytope, reproducible from the seed.

    Type-class masses are drawn from a symmetric Dirichlet(concentration)
    over the type classes (PCG64 via numpy.random.default_rng) and then
    divided by the class sizes to give per-sequence probabilities.
    """
    if seed is None:
        raise ValueError("seed is mandatory for random_dirichlet")
    if not concentration > 0:
        raise ValueError("concentration must be positive")
    types = enumerate_types(m, n)
    rng = np.random.default_rng(int(seed))
    masses = rng.dirichlet(np.full(len(types), float(concentration)))
    q = dict(zip(types, (masses / _type_table(m, n).mult).tolist()))
    return ExchangeableLaw(m, n, q)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one generator invocation.

    Which fields are required depends on ``kind``; :meth:`build` validates
    and raises ValueError on anything inconsistent.  ``diaconis_pair`` fixes
    n = 2 and ignores a missing n.
    """

    kind: str
    n: int | None = None
    weights: tuple[float, ...] | None = None
    components: tuple[tuple[float, ...], ...] | None = None
    counts: tuple[int, ...] | None = None
    alphabet_size: int | None = None
    concentration: float | None = None
    seed: int | None = None

    def build(self) -> ExchangeableLaw:
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "diaconis_pair":
            if self.n not in (None, 2):
                raise ValueError("diaconis_pair has n = 2")
            return diaconis_pair()
        if self.n is None:
            raise ValueError("n is required")
        n = int(self.n)
        if self.kind == "iid":
            if not self.components or len(self.components) != 1:
                raise ValueError("iid needs exactly one component")
            return iid(self.components[0], n)
        if self.kind == "iid_mixture":
            if not self.components:
                raise ValueError("iid_mixture needs components")
            weights = self.weights
            if weights is None:
                weights = tuple(1.0 / len(self.components) for _ in self.components)
            if len(weights) != len(self.components):
                raise ValueError("weights and components must align")
            return iid_mixture(list(zip(weights, self.components)), n)
        if self.kind == "polya":
            if not self.counts:
                raise ValueError("polya needs counts")
            return polya(self.counts, n)
        if self.kind == "urn":
            if not self.counts:
                raise ValueError("urn needs counts")
            return urn_without_replacement(self.counts, n)
        # random_dirichlet
        if self.alphabet_size is None:
            raise ValueError("random_dirichlet needs alphabet_size")
        if self.seed is None:
            raise ValueError("random_dirichlet needs a seed")
        conc = 1.0 if self.concentration is None else float(self.concentration)
        return random_dirichlet(self.seed, int(self.alphabet_size), n, conc)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.n is not None:
            out["n"] = int(self.n)
        if self.weights is not None:
            out["weights"] = list(self.weights)
        if self.components is not None:
            out["components"] = [list(c) for c in self.components]
        if self.counts is not None:
            out["counts"] = list(self.counts)
        if self.alphabet_size is not None:
            out["alphabet_size"] = int(self.alphabet_size)
        if self.concentration is not None:
            out["concentration"] = float(self.concentration)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "GeneratorSpec":
        def opt_tuple(key, conv):
            value = obj.get(key)
            return None if value is None else tuple(conv(v) for v in value)

        return cls(
            kind=str(obj["kind"]),
            n=None if obj.get("n") is None else int(obj["n"]),
            weights=opt_tuple("weights", float),
            components=None
            if obj.get("components") is None
            else tuple(tuple(float(x) for x in comp) for comp in obj["components"]),
            counts=opt_tuple("counts", int),
            alphabet_size=None
            if obj.get("alphabet_size") is None
            else int(obj["alphabet_size"]),
            concentration=None
            if obj.get("concentration") is None
            else float(obj["concentration"]),
            seed=None if obj.get("seed") is None else int(obj["seed"]),
        )
