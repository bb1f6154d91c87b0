"""Convex weight optimization over a fixed component set, plus a tightness probe.

``fit_mixture_weights`` minimizes D(target || sum_j w_j C_j^k) over the
weight simplex by multiplicative (EM-type) updates: descent is monotone by
construction, iterates stay on the simplex without projection, and the
objective is convex in the weights so every interior start reaches the same
value.  Component locations are never optimized; that keeps the problem
convex and is out of scope by design.  The fit runs on the k-types, not on
the m**k sequences: the type is sufficient, so the objective and the EM
update are unchanged (Diaconis & Freedman 1980).

``adversarial_search`` is a seeded random-restart coordinate ascent over
type-class masses that tries to make the certified divergence large relative
to the alphabet-size bound.  It is a heuristic probe: its output ratios are
lower bounds on the worst case, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log

import numpy as np

from .bounds import Certificate, build_mixing_measure, certify
from .core import ExchangeableLaw, enumerate_types, marginal, multiplicity
from .generators import _component_table


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one multiplicative-update run.

    ``trace`` holds the objective after every iteration, starting with the
    initial value; it is nonincreasing (within 1e-12 per step).
    ``converged`` only says that one EM step improved by less than ``tol``.
    ``gap`` = log max_j sum_T t(T) C_j(T) / M_w(T) at the returned weights
    bounds the distance to the optimum: the divergence is at most ``gap``
    above the minimum over the simplex (Lindsay 1983).
    """

    weights: np.ndarray
    divergence: float
    iterations: int
    trace: tuple[float, ...]
    converged: bool
    gap: float

    def as_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "divergence": self.divergence,
            "iterations": self.iterations,
            "converged": self.converged,
            "gap": self.gap,
            "trace": list(self.trace),
        }


def component_grid(m: int, resolution: int) -> list[np.ndarray]:
    """All letter distributions with coordinates in multiples of 1/resolution."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return [
        np.array(t, dtype=float) / resolution for t in enumerate_types(m, resolution)
    ]


def fit_mixture_weights(
    target: ExchangeableLaw,
    components,
    max_iter: int = 100_000,
    tol: float = 1e-12,
    init_weights=None,
) -> FitResult:
    """Minimize D(target || mixture of k-fold products) over the weights.

    It runs on the k-types of ``target`` (k = ``target.n``), with masses
    t(T) = mult(T) q(T) and C_j(T) = mult(T) prod_a C_j[a]^T_a.  The update
    w_j <- w_j * sum_T t(T) C_j(T) / M_w(T) is the exact EM step for this
    objective, so the trace decreases monotonically and stops once an
    iteration improves by less than ``tol`` (or at ``max_iter``).

    If some target-support point is unreachable by every component the
    divergence is +inf for all weights; that is reported as a converged
    result, not an error.  An initial weight vector that zeroes out every
    component covering part of the support is rejected.
    """
    components = list(components)
    if not components:
        raise ValueError("need at least one component")
    if target.n < 1:
        raise ValueError("target must have at least one coordinate")
    types = enumerate_types(target.m, target.n)
    mult = np.array([multiplicity(t) for t in types], dtype=float)
    rows = mult * np.hstack(list(_component_table(components, types)))

    t = mult * np.array([target.seq_prob(u) for u in types])
    support = t > 0.0
    ts = t[support]
    rows_s = np.ascontiguousarray(rows[:, support])
    log_ts = np.log(ts)

    if init_weights is None:
        w = np.full(len(components), 1.0 / len(components))
    else:
        w = np.asarray(init_weights, dtype=float).copy()
        if w.shape != (len(components),) or (w < 0).any():
            raise ValueError("init_weights must be nonnegative, one per component")
        total = w.sum()
        if not total > 0:
            raise ValueError("init_weights must have positive mass")
        w /= total

    if np.any(rows_s.max(axis=0) == 0.0):
        # no weight vector can cover the target support
        frozen = w.copy()
        frozen.flags.writeable = False
        return FitResult(frozen, inf, 0, (inf,), True, 0.0)

    mix = w @ rows_s
    if np.any(mix == 0.0):
        raise ValueError("initial weights give an infinite objective; use an interior start")

    div = float(np.dot(ts, log_ts - np.log(mix)))
    trace = [max(0.0, div)]
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        w = w * (rows_s @ (ts / mix))
        w /= w.sum()
        mix = w @ rows_s
        new_div = float(np.dot(ts, log_ts - np.log(mix)))
        trace.append(max(0.0, new_div))
        decrease = div - new_div
        div = new_div
        if decrease < tol:
            converged = True
            break
    gap = log(float(np.max(rows_s @ (ts / mix))))
    w = w.copy()
    w.flags.writeable = False
    return FitResult(w, max(0.0, div), iterations, tuple(trace), converged, gap)


def improve_certificate(
    law: ExchangeableLaw,
    k: int,
    grid_resolution: int = 10,
    max_iter: int = 100_000,
    tol: float = 1e-12,
    atoms_only: bool = False,
) -> tuple[Certificate, FitResult]:
    """Certify, then re-optimize the mixing weights over atoms plus a grid.

    Two deterministic starts are run: one at the constructed atom weights
    (grid weights zero, so the result can only improve on the certificate)
    and one uniform over all components (multiplicative updates never leave
    a zero weight, so this start is what actually exercises the grid).  The
    better final divergence wins, with the feasible start winning ties.
    """
    cert = certify(law, k)
    mu = build_mixing_measure(law, k, cert.m_star)
    components = list(mu.components)
    if not atoms_only:
        components += component_grid(law.m, grid_resolution)
    target = marginal(law, k)

    init = np.zeros(len(components))
    init[: mu.atom_count] = mu.weights
    feasible = fit_mixture_weights(target, components, max_iter, tol, init_weights=init)
    if atoms_only:
        return cert, feasible
    uniform = fit_mixture_weights(target, components, max_iter, tol)
    best = feasible if feasible.divergence <= uniform.divergence else uniform
    return cert, best


def adversarial_search(
    m: int,
    n: int,
    k: int,
    seed: int,
    restarts: int = 20,
    steps: int = 60,
) -> tuple[ExchangeableLaw, float]:
    """Search for laws where the certified divergence approaches its bound.

    Random-restart greedy coordinate ascent over type-class masses with a
    decaying step size; the objective is certify(law, k).D divided by the
    alphabet-size bound.  Every visited point is a valid exchangeable law
    and is certified, so the returned ratio is a sound lower bound on the
    worst-case ratio.  Deterministic given the seed; restart streams are
    independent, so any evaluation order returns the same answer.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if restarts < 1 or steps < 0:
        raise ValueError("need restarts >= 1 and steps >= 0")
    types = enumerate_types(m, n)
    mults = [multiplicity(t) for t in types]
    denom = k * (k - 1) / (2.0 * (n - k + 1)) * log(m)

    def as_law(masses: np.ndarray) -> ExchangeableLaw:
        q = {t: float(g) / mult for t, g, mult in zip(types, masses, mults)}
        return ExchangeableLaw(m, n, q)

    def ratio_of(masses: np.ndarray) -> float:
        cert = certify(as_law(masses), k)
        return cert.D / denom if denom > 0 else 0.0

    best_ratio = -1.0
    best_masses = None
    for r in range(restarts):
        rng = np.random.default_rng((int(seed), r))
        masses = rng.dirichlet(np.ones(len(types)))
        current = ratio_of(masses)
        for step in range(steps):
            idx = int(rng.integers(len(types)))
            move = rng.uniform(-1.0, 1.0) * 0.5 * (0.93**step)
            proposal = masses.copy()
            proposal[idx] = max(0.0, proposal[idx] + move)
            total = proposal.sum()
            if not total > 0:
                continue
            proposal /= total
            value = ratio_of(proposal)
            if value > current:
                masses, current = proposal, value
        if current > best_ratio:
            best_ratio, best_masses = current, masses
    return as_law(best_masses), best_ratio
