"""Exchangeable distributions on finite alphabets, stored per type class.

A distribution on length-n sequences over the alphabet {0, ..., m-1} is
exchangeable when every coordinate permutation leaves it invariant, which on a
finite alphabet means exactly that all sequences with the same symbol counts
(the same *type*) carry equal probability.  Laws are therefore stored as one
per-sequence probability per type vector; exchangeability is true by
construction and storage scales with the number of types instead of m**n.

Conventions used throughout the package:

* alphabet: a plain int ``m >= 1``; symbols are ``0..m-1``
* type vector: tuple of ``m`` nonnegative ints summing to the block length
* letter distribution: 1-D numpy array on the m-simplex
* dense joint: :class:`GenericJoint`, an array of shape ``(m,)*L``.  Its
  size grows as m**L, so only ``lemma1_decomposition`` and the tests use it;
  certification and the weight fit work on types throughout.

Derived tables are float arrays indexed in ``enumerate_types`` order.  The
index tables they need (the type vectors, the multiplicities and, for each
type and symbol a, the position of the type plus one a among the types one
longer) depend only on (m, L), so they are built once per (m, L) and shared
by every law (:func:`_type_table`).  ``law.q`` stays a dict keyed by type.

All operations are pure.  ``ExchangeableLaw`` instances are immutable after
construction; the private attributes only memoize derived tables (the
marginal table and the block entropies).  They are filled lazily without
locking, so a law is meant for one thread at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum, log
from pathlib import Path
import json

import numpy as np

from .serialize import render_json

#: Largest supported block length for exact multiplicity arithmetic.  Beyond
#: this the float conversion of multinomial coefficients starts to matter for
#: the certification tolerances, so it is an explicit error rather than a
#: silent loss of exactness.
MAX_LENGTH = 30

#: Largest number of types of one block length that :func:`enumerate_types`
#: will list.  Tables are built per type, so a request beyond this (m=10,
#: n=30 has about 2.1e8 types) is refused up front instead of running out of
#: time or memory.
MAX_TYPES = 10**5


class LawFormatError(ValueError):
    """A law file violates the schema or its normalization invariant."""


class UndefinedConditionalError(ValueError):
    """The conditioning event has probability zero."""


def _type_count(m: int, length: int) -> int:
    """Number of types of ``length`` over ``m`` symbols, refused beyond MAX_TYPES."""
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    count = math.comb(length + m - 1, m - 1)
    if count > MAX_TYPES:
        raise ValueError(
            f"m={m}, length={length} has {count} types, more than the supported "
            f"{MAX_TYPES}"
        )
    return count


@lru_cache(maxsize=None)
def enumerate_types(m: int, length: int) -> tuple[tuple[int, ...], ...]:
    """All count vectors of ``length`` items over ``m`` symbols.

    The order is lexicographic in the counts, is the canonical iteration
    order everywhere in this package, and is what makes serialized laws and
    reports byte-stable.
    """
    _type_count(m, length)
    if m == 1:
        return ((length,),)
    out = []
    for first in range(length + 1):
        for rest in enumerate_types(m - 1, length - first):
            out.append((first,) + rest)
    return tuple(out)


def multiplicity(counts) -> int:
    """Number of sequences in a type class: L! / prod(counts_a!), exact.

    Raises ValueError for negative counts or block lengths beyond
    :data:`MAX_LENGTH`.
    """
    counts = tuple(counts)
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    if total > MAX_LENGTH:
        raise ValueError(
            f"block length {total} exceeds the supported exact range "
            f"(L <= {MAX_LENGTH})"
        )
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def sequence_type(m: int, seq) -> tuple[int, ...]:
    """Type vector (symbol counts) of a sequence over {0..m-1}."""
    counts = [0] * m
    for s in seq:
        counts[s] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def _class_sizes(m: int, length: int) -> np.ndarray:
    """sizes[s, r] = number of types of length r over s symbols, r <= length."""
    return np.array(
        [[math.comb(r + s - 1, s - 1) if s else 0 for r in range(length + 1)]
         for s in range(m + 1)],
        dtype=np.int64,
    )


def _rank(counts: np.ndarray, length: int) -> np.ndarray:
    """Positions in ``enumerate_types(m, length)`` of the rows of ``counts``.

    The types before t are those whose first count is below t_0, plus the
    ones that share t_0 and precede the rest of t among the shorter types
    over the remaining symbols, so the position is
    sum_j N(m-j, r_j) - N(m-j, r_j - t_j), with r_j the length left after the
    first j counts and N(s, r) the number of types of length r over s symbols.
    """
    m = counts.shape[1]
    sizes = _class_sizes(m, length)
    rank = np.zeros(len(counts), dtype=np.intp)
    rest = np.full(len(counts), length, dtype=np.intp)
    for j in range(m - 1):
        rank += sizes[m - j, rest] - sizes[m - j, rest - counts[:, j]]
        rest -= counts[:, j]
    return rank


@dataclass(frozen=True, eq=False)
class TypeTable:
    """Index tables of the types of one length, in ``enumerate_types`` order.

    ``counts[i]`` is the i-th type vector, ``mult[i]`` its multiplicity as a
    float, and ``succ[i, a]`` the position of ``counts[i] + e_a`` among the
    types one longer.  The arrays are read-only: every law shares them.
    """

    counts: np.ndarray
    mult: np.ndarray
    succ: np.ndarray


@lru_cache(maxsize=None)
def _type_table(m: int, length: int) -> TypeTable:
    """The :class:`TypeTable` of (m, length), built from that of length - 1.

    Every type of a positive length is a successor of a shorter one, so the
    type vectors come from scattering the shorter table's vectors through
    its successor positions, without enumerating tuples.  Multiplicities are
    exact integers from one factorial table, converted to float once.
    Lengths beyond :data:`MAX_LENGTH` are refused, as in :func:`multiplicity`.
    """
    size = _type_count(m, length)
    if length > MAX_LENGTH:
        raise ValueError(
            f"block length {length} exceeds the supported exact range (L <= {MAX_LENGTH})"
        )
    units = np.eye(m, dtype=np.intp)
    if length == 0:
        counts = np.zeros((1, m), dtype=np.intp)
    else:
        prev = _type_table(m, length - 1)
        counts = np.empty((size, m), dtype=np.intp)
        for a in range(m):
            counts[prev.succ[:, a]] = prev.counts + units[a]
    succ = np.empty((size, m), dtype=np.intp)
    for a in range(m):
        succ[:, a] = _rank(counts + units[a], length + 1)
    fact = np.array([math.factorial(c) for c in range(length + 1)], dtype=object)
    mult = (math.factorial(length) // fact[counts].prod(axis=1)).astype(float)
    for arr in (counts, mult, succ):
        arr.flags.writeable = False
    return TypeTable(counts, mult, succ)


@lru_cache(maxsize=None)
def _type_index(m: int, length: int):
    """Types of ``length`` plus, per sequence in C order, its type's index."""
    types = enumerate_types(m, length)
    pos = {t: i for i, t in enumerate(types)}
    idx = np.empty(m**length, dtype=np.intp)
    for j, x in enumerate(np.ndindex(*((m,) * length))):
        idx[j] = pos[sequence_type(m, x)]
    return types, idx


class ExchangeableLaw:
    """An exchangeable distribution on A^n, one probability per type.

    ``q`` maps a type vector to the probability of *each single sequence* in
    that class, so the normalization invariant is
    ``sum_T multiplicity(T) * q[T] == 1``.  Types absent from ``q`` have
    probability zero.
    """

    __slots__ = ("m", "n", "q", "_marginals", "_entropies")

    def __init__(self, m: int, n: int, type_probs, *, tol: float = 1e-12,
                 validate: bool = True):
        self.m = int(m)
        self.n = int(n)
        if self.m < 1:
            raise ValueError("alphabet size must be >= 1")
        if not 0 <= self.n <= MAX_LENGTH:
            raise ValueError(f"n must be in [0, {MAX_LENGTH}]")
        if validate:
            q = {}
            for t in sorted(type_probs):
                key = tuple(int(c) for c in t)
                if len(key) != self.m or any(c < 0 for c in key) or sum(key) != self.n:
                    raise ValueError(f"invalid type vector {key} for m={m}, n={n}")
                p = float(type_probs[t])
                if not (p >= 0.0) or math.isinf(p):
                    raise ValueError(f"invalid probability {p} for type {key}")
                q[key] = p
            keys = np.array(list(q), dtype=np.intp).reshape(len(q), self.m)
            mult = _type_table(self.m, self.n).mult[_rank(keys, self.n)]
            total = fsum((mult * np.array(list(q.values()), dtype=float)).tolist())
            if abs(total - 1.0) > tol:
                raise ValueError(
                    f"type probabilities sum to {total!r}, off by more than {tol}"
                )
            self.q = q
        else:
            self.q = dict(type_probs)
        self._marginals = None
        self._entropies = None

    def seq_prob(self, t) -> float:
        """Probability of one sequence whose type is ``t``."""
        return self.q.get(tuple(t), 0.0)

    def __repr__(self) -> str:
        return f"ExchangeableLaw(m={self.m}, n={self.n}, {len(self.q)} stored types)"


@dataclass(frozen=True, eq=False)
class GenericJoint:
    """Dense joint distribution on A^L; ``probs`` has shape ``(m,)*L``."""

    m: int
    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != (self.m,) * arr.ndim:
            raise ValueError("probs must have shape (m,)*L")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError("joint distribution is not normalized")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def length(self) -> int:
        return self.probs.ndim


@dataclass(frozen=True, eq=False)
class BlockJoint:
    """Joint law of two disjoint coordinate blocks of an exchangeable law.

    ``joint[(Ta, Tb)]`` is the probability of one particular pair of
    sequences with types Ta and Tb; by exchangeability the same table is
    valid for *any* two disjoint blocks of sizes ``a`` and ``b``.
    """

    m: int
    a: int
    b: int
    joint: dict


def _marginal_table(law: ExchangeableLaw) -> list[np.ndarray]:
    """Per-sequence marginal probabilities for every block length 0..n.

    Entry L is a read-only array over ``enumerate_types(m, L)``.  A type's
    value is the sum of its m successors' values, added left to right in
    symbol order.
    """
    tbl = law._marginals
    if tbl is None:
        m, n = law.m, law.n
        tbl = [None] * (n + 1)
        tbl[n] = np.array([law.q.get(t, 0.0) for t in enumerate_types(m, n)], dtype=float)
        for length in range(n, 0, -1):
            prev, succ = tbl[length], _type_table(m, length - 1).succ
            cur = np.zeros(len(succ))
            for a in range(m):
                cur += prev[succ[:, a]]
            tbl[length - 1] = cur
        for row in tbl:
            row.flags.writeable = False
        law._marginals = tbl
    return tbl


def block_entropies(law: ExchangeableLaw) -> list[float]:
    """Block entropies H_L = H(X_1^L) for L = 0..n, in nats, memoized.

    Every sequence of a type T has the same probability q_L(T), so
    H_L = -sum_T multiplicity(T) q_L(T) log q_L(T).  By exchangeability every
    conditional information in the bound chain is a signed sum of these.
    """
    ent = law._entropies
    if ent is None:
        ent = []
        for length, row in enumerate(_marginal_table(law)):
            pos = row > 0.0
            p = row[pos]
            logs = np.array([log(x) for x in p.tolist()])
            terms = -_type_table(law.m, length).mult[pos] * p * logs
            ent.append(fsum(terms.tolist()))
        law._entropies = ent
    return ent


def marginal(law: ExchangeableLaw, k: int) -> ExchangeableLaw:
    """The law of any k of the n coordinates (the first k, say)."""
    if not 0 <= k <= law.n:
        raise ValueError(f"k must be in [0, {law.n}]")
    if k == law.n:
        return law
    row = _marginal_table(law)[k].tolist()
    return ExchangeableLaw(law.m, k, dict(zip(enumerate_types(law.m, k), row)), validate=False)


def single_letter_marginal(law: ExchangeableLaw) -> np.ndarray:
    """Distribution of one coordinate as a letter-distribution vector."""
    if law.n < 1:
        raise ValueError("law has no coordinates")
    return _marginal_table(law)[1][_type_table(law.m, 0).succ[0]]


def densify(law: ExchangeableLaw) -> GenericJoint:
    """Expand a law to its dense per-sequence array (small n only)."""
    types, idx = _type_index(law.m, law.n)
    vals = np.array([law.q.get(t, 0.0) for t in types])
    return GenericJoint(law.m, vals[idx].reshape((law.m,) * law.n))


def symmetrize(j: GenericJoint) -> ExchangeableLaw:
    """Average a dense joint over its permutation orbits.

    If an orbit's values are already all equal the shared value is reused
    bit-for-bit, so symmetrizing an exchangeable joint is exactly idempotent.
    """
    m, L = j.m, j.length
    types, idx = _type_index(m, L)
    flat = j.probs.ravel()
    q = {}
    for i, t in enumerate(types):
        vals = flat[idx == i]
        first = float(vals[0])
        if np.all(vals == vals[0]):
            q[t] = first
        else:
            q[t] = fsum(vals.tolist()) / multiplicity(t)
    return ExchangeableLaw(m, L, q)


def is_exchangeable(j: GenericJoint, tol: float = 1e-12) -> bool:
    """True iff no sequence deviates from its orbit average by more than tol."""
    m, L = j.m, j.length
    types, idx = _type_index(m, L)
    flat = j.probs.ravel()
    class_total = np.bincount(idx, weights=flat, minlength=len(types))
    class_size = _type_table(m, L).mult
    means = class_total / class_size
    return float(np.max(np.abs(flat - means[idx]))) <= tol


def block_joint(law: ExchangeableLaw, a: int, b: int) -> BlockJoint:
    """Exact joint law of two disjoint coordinate blocks of sizes a and b."""
    if a < 0 or b < 0 or a + b > law.n:
        raise ValueError("need a, b >= 0 and a + b <= n")
    m = law.m
    pairs = _type_table(m, a).counts[:, None, :] + _type_table(m, b).counts[None, :, :]
    vals = _marginal_table(law)[a + b][_rank(pairs.reshape(-1, m), a + b)].tolist()
    keys = ((ta, tb) for ta in enumerate_types(m, a) for tb in enumerate_types(m, b))
    return BlockJoint(m, a, b, dict(zip(keys, vals)))


def conditional_component(law: ExchangeableLaw, block_len: int, w_type) -> np.ndarray:
    """Law of one coordinate given that a disjoint block has type ``w_type``.

    This is the single-letter posterior-predictive distribution; it depends
    on the conditioning block only through its type.  Raises
    UndefinedConditionalError when the conditioning class has zero mass.
    """
    w = tuple(int(c) for c in w_type)
    if block_len < 0 or 1 + block_len > law.n:
        raise ValueError("need 0 <= block_len and 1 + block_len <= n")
    if len(w) != law.m or sum(w) != block_len or any(c < 0 for c in w):
        raise ValueError(f"invalid conditioning type {w}")
    tbl = _marginal_table(law)
    i = _rank(np.array([w], dtype=np.intp), block_len)[0]
    pw = tbl[block_len][i]
    if pw <= 0.0:
        raise UndefinedConditionalError(f"conditioning type {w} has zero probability")
    return tbl[1 + block_len][_type_table(law.m, block_len).succ[i]] / pw


def conditional_block(law: ExchangeableLaw, k: int, block_len: int, w_type) -> GenericJoint:
    """Joint law of k coordinates given a disjoint block of type ``w_type``.

    The result is exchangeable in its k coordinates (asserted by tests, true
    by construction).
    """
    w = tuple(int(c) for c in w_type)
    if k < 0 or block_len < 0 or k + block_len > law.n:
        raise ValueError("need k, block_len >= 0 and k + block_len <= n")
    if len(w) != law.m or sum(w) != block_len or any(c < 0 for c in w):
        raise ValueError(f"invalid conditioning type {w}")
    tbl = _marginal_table(law)
    pw = tbl[block_len][_rank(np.array([w], dtype=np.intp), block_len)[0]]
    if pw <= 0.0:
        raise UndefinedConditionalError(f"conditioning type {w} has zero probability")
    joined = _type_table(law.m, k).counts + np.array(w, dtype=np.intp)
    vals = tbl[k + block_len][_rank(joined, k + block_len)] / pw
    _, idx = _type_index(law.m, k)
    return GenericJoint(law.m, vals[idx].reshape((law.m,) * k))


# ---------------------------------------------------------------------------
# Law file format
# ---------------------------------------------------------------------------
#
# {"alphabet_size": m, "n": n,
#  "type_probs": [{"counts": [c_0, .., c_{m-1}], "seq_prob": q}, ...]}
#
# Types omitted from the list have probability zero.  The loader validates
# the normalization invariant to 1e-9 and rejects files beyond that.

FILE_NORM_TOL = 1e-9


def law_to_dict(law: ExchangeableLaw) -> dict:
    entries = []
    for t in enumerate_types(law.m, law.n):
        p = law.q.get(t, 0.0)
        if p != 0.0:
            entries.append({"counts": list(t), "seq_prob": p})
    return {"alphabet_size": law.m, "n": law.n, "type_probs": entries}


def law_to_json_text(law: ExchangeableLaw) -> str:
    return render_json(law_to_dict(law)) + "\n"


def law_from_dict(obj) -> ExchangeableLaw:
    if not isinstance(obj, dict):
        raise LawFormatError("law file must contain a JSON object")
    try:
        m = int(obj["alphabet_size"])
        n = int(obj["n"])
        entries = obj["type_probs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise LawFormatError(f"missing or malformed law field: {exc}") from exc
    if not isinstance(entries, list):
        raise LawFormatError("type_probs must be a list")
    q: dict[tuple[int, ...], float] = {}
    for entry in entries:
        try:
            counts = tuple(int(c) for c in entry["counts"])
            p = float(entry["seq_prob"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LawFormatError(f"malformed type_probs entry: {exc}") from exc
        if counts in q:
            raise LawFormatError(f"duplicate type {counts}")
        q[counts] = p
    try:
        return ExchangeableLaw(m, n, q, tol=FILE_NORM_TOL)
    except ValueError as exc:
        raise LawFormatError(str(exc)) from exc


def law_from_json_text(text: str) -> ExchangeableLaw:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LawFormatError(f"invalid JSON: {exc}") from exc
    return law_from_dict(obj)


def save_law(law: ExchangeableLaw, path) -> None:
    Path(path).write_text(law_to_json_text(law), encoding="utf-8")


def load_law(path) -> ExchangeableLaw:
    return law_from_json_text(Path(path).read_text(encoding="utf-8"))
