"""Mixture construction and numerical certification for exchangeable laws.

Given an exchangeable law on A^n and a prefix length k <= n-1, the pipeline

1. evaluates the summed conditional informations over every conditioning
   endpoint and picks the minimizing endpoint ``m_star``,
2. builds a finite mixing measure whose atoms are the single-letter
   conditional laws given each positive-probability conditioning type,
3. assembles the induced mixture of i.i.d. distributions on A^k, and
4. certifies the inequality chain

       D(prefix law || mixture)  <=  thm_bound
                                 <=  cor_bound_H   = c * H(X1)
                                 <=  cor_bound_logA = c * log m,

   with c = k(k-1)/(2(n-k+1)) and thm_bound the average of the tail
   informations I(X_1^{i-1}; X_k^n) over i = 1..k, plus the Pinsker
   total-variation bound tv <= sqrt(thm_bound/2).

A violation beyond tolerance raises :class:`CertificationError` carrying all
intermediate values; that exception is the package's alarm and should never
fire for a valid exchangeable input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import (
    ExchangeableLaw,
    GenericJoint,
    _marginal_table,
    block_entropies,
    block_joint,
    conditional_component,
    densify,
    enumerate_types,
    marginal,
    multiplicity,
    single_letter_marginal,
)
from .info import (
    entropy,
    mutual_information,
    relative_entropy,
    total_variation,
)


@dataclass(frozen=True, eq=False)
class MixingMeasure:
    """Finite mixing measure over letter distributions.

    One atom per conditioning type of length ``m_star - k`` with positive
    probability: the weight is that type class's mass, the component is the
    single-letter conditional law given the type.
    """

    m: int
    k: int
    m_star: int
    weights: tuple[float, ...]
    components: tuple[np.ndarray, ...]
    conditioning_types: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.weights:
            raise ValueError("weights and components must align and be nonempty")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @property
    def atom_count(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Certificate:
    """All certified and comparison quantities for one (law, k) pair.

    ``first_bound`` is only defined on binary alphabets and is None
    otherwise.  ``second_rate`` is a rate shape with constant 1, reported for
    comparison only; it is not a certified bound.  All information fields are
    in nats.
    """

    n: int
    k: int
    m_star: int
    D: float
    thm_bound: float
    cor_bound_H: float
    cor_bound_logA: float
    tv: float
    pinsker_tv: float
    df_tv_ref: float
    first_bound: float | None
    second_rate: float
    atom_count: int

    FIELDS = (
        "n", "k", "m_star", "D", "thm_bound", "cor_bound_H", "cor_bound_logA",
        "tv", "pinsker_tv", "df_tv_ref", "first_bound", "second_rate",
        "atom_count",
    )

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


class CertificationError(RuntimeError):
    """A certified inequality failed beyond tolerance.

    Carries the offending comparisons and every intermediate quantity so the
    failure can be diagnosed without rerunning.
    """

    def __init__(self, violations: list[str], details: dict):
        super().__init__("; ".join(violations))
        self.violations = violations
        self.details = details


def tail_mi(law: ExchangeableLaw, i: int, k: int) -> float:
    """I(X_1^{i-1}; X_k^n): information between a prefix and the tail block."""
    if not 1 <= i <= k <= law.n - 1:
        raise ValueError("need 1 <= i <= k <= n-1")
    if i == 1:
        return 0.0
    key = (i - 1, law.n - k + 1)
    value = law._block_mi.get(key)
    if value is None:
        value = mutual_information(block_joint(law, key[0], key[1]))
        law._block_mi[key] = value
    return value


def cond_mi_sum(law: ExchangeableLaw, k: int, mm: int) -> float:
    """sum_{i=1}^k I(X_1^{i-1}; X_i | block of length mm - k).

    With c = mm - k the sum telescopes to k H_{1+c} - (k-1) H_c - H_{k+c} in
    the block entropies, so each endpoint costs O(1) once they are known.
    """
    if not 1 <= k <= mm <= law.n:
        raise ValueError("need 1 <= k <= mm <= n")
    h = block_entropies(law)
    c = mm - k
    return max(0.0, fsum((k * h[1 + c], -(k - 1) * h[c], -h[k + c])))


#: Endpoint values within this margin of the incumbent minimum count as ties.
#: Absorbs float noise so exact-zero cases (i.i.d. laws) select the smallest
#: endpoint, which has the fewest atoms.
MSTAR_TIE_TOL = 1e-13


def select_mstar(law: ExchangeableLaw, k: int) -> tuple[int, float]:
    """Conditioning endpoint minimizing the summed conditional informations.

    Ties (within MSTAR_TIE_TOL) break to the smallest endpoint, so output is
    reproducible and atom counts stay minimal.  The achieved value is at most
    the average over all endpoints, which is itself the averaged
    tail-information bound.
    """
    if not 1 <= k <= law.n - 1:
        raise ValueError("need 1 <= k <= n-1")
    best_m, best_v = k, math.inf
    for mm in range(k, law.n + 1):
        v = cond_mi_sum(law, k, mm)
        if v < best_v - MSTAR_TIE_TOL:
            best_m, best_v = mm, v
    return best_m, best_v


def build_mixing_measure(law: ExchangeableLaw, k: int, m_star: int) -> MixingMeasure:
    """Mixing measure induced by conditioning on a block of m_star - k coords.

    Suffix assignments are grouped by type (the conditional law depends only
    on the type), so the atom count is bounded by the number of types of
    length m_star - k rather than by m**(m_star-k).
    """
    if not (1 <= k <= m_star <= law.n):
        raise ValueError("need 1 <= k <= m_star <= n")
    cond_len = m_star - k
    tbl = _marginal_table(law)
    weights = []
    comps = []
    wtypes = []
    for w in enumerate_types(law.m, cond_len):
        pseq = tbl[cond_len][w]
        if pseq <= 0.0:
            continue
        weights.append(multiplicity(w) * pseq)
        comps.append(conditional_component(law, cond_len, w))
        wtypes.append(w)
    return MixingMeasure(
        m=law.m,
        k=k,
        m_star=m_star,
        weights=tuple(weights),
        components=tuple(comps),
        conditioning_types=tuple(wtypes),
    )


def mixture_dist(mu: MixingMeasure, k: int) -> GenericJoint:
    """The mixture of k-fold products induced by a mixing measure."""
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = np.zeros((mu.m,) * k)
    for w, comp in zip(mu.weights, mu.components):
        block = comp
        for _ in range(k - 1):
            block = np.multiply.outer(block, comp)
        acc += w * block
    return GenericJoint(mu.m, acc)


def certify(law: ExchangeableLaw, k: int, tol: float = 1e-9) -> Certificate:
    """Run the full pipeline for (law, k) and certify the bound chain.

    The tolerance covers accumulated double-precision error at the supported
    sizes with a wide margin; a genuine violation means the input is not
    exchangeable or there is a bug, and raises CertificationError.
    """
    n = law.n
    if not 1 <= k <= n - 1:
        raise ValueError("k must satisfy 1 <= k <= n-1")
    m = law.m

    m_star, achieved = select_mstar(law, k)
    mu = build_mixing_measure(law, k, m_star)
    mixture = mixture_dist(mu, k)
    prefix = densify(marginal(law, k))
    D = relative_entropy(prefix.probs, mixture.probs)

    tails = [tail_mi(law, i, k) for i in range(1, k + 1)]
    thm_bound = fsum(tails) / (n - k + 1)
    h1 = entropy(single_letter_marginal(law))
    coef = k * (k - 1) / (2.0 * (n - k + 1))
    cor_bound_H = coef * h1
    cor_bound_logA = coef * math.log(m)

    tv = total_variation(prefix.probs, mixture.probs)
    pinsker_tv = math.sqrt(thm_bound / 2.0)
    df_tv_ref = k * (k - 1) / (2.0 * n)
    first_bound = 5.0 * k * k * math.log(n) / (n - k) if m == 2 else None
    second_rate = math.sqrt(k / math.sqrt(n)) * math.log(n / k)

    cert = Certificate(
        n=n, k=k, m_star=m_star, D=D, thm_bound=thm_bound,
        cor_bound_H=cor_bound_H, cor_bound_logA=cor_bound_logA, tv=tv,
        pinsker_tv=pinsker_tv, df_tv_ref=df_tv_ref, first_bound=first_bound,
        second_rate=second_rate, atom_count=mu.atom_count,
    )

    violations = []
    if not D <= thm_bound + tol:
        violations.append(f"D={D!r} exceeds thm_bound={thm_bound!r}")
    if not thm_bound <= cor_bound_H + tol:
        violations.append(f"thm_bound={thm_bound!r} exceeds cor_bound_H={cor_bound_H!r}")
    if not cor_bound_H <= cor_bound_logA + tol:
        violations.append(
            f"cor_bound_H={cor_bound_H!r} exceeds cor_bound_logA={cor_bound_logA!r}"
        )
    if not tv <= pinsker_tv + tol:
        violations.append(f"tv={tv!r} exceeds pinsker_tv={pinsker_tv!r}")
    if not D <= achieved + tol:
        violations.append(f"D={D!r} exceeds the summed conditional informations {achieved!r}")
    if not achieved <= thm_bound + 1e-10:
        violations.append(
            f"selected endpoint value {achieved!r} exceeds the average {thm_bound!r}"
        )
    if violations:
        raise CertificationError(
            violations,
            details={"certificate": cert.as_dict(), "achieved": achieved, "H1": h1},
        )
    return cert
