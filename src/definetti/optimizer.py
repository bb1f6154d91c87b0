"""Convex weight optimization over a fixed component set, plus a tightness probe.

``fit_mixture_weights`` minimizes D(target || sum_j w_j C_j^k) over the
weight simplex by constrained Newton steps (Wang 2007), each followed by a
line search that accepts only a strictly positive decrease, so descent is
monotone.  It stops once Lindsay's (1983) gap, a bound on the distance to
the optimum, is at most ``tol``.  The objective is convex in the weights, so
every start reaches the same value.  Component locations are never
optimized; that keeps the problem convex and is out of scope by design.  The
fit runs on the k-types, not on the m**k sequences: the type is sufficient,
so the objective and its gradient are unchanged (Diaconis & Freedman 1980).

``adversarial_search`` is a seeded random-restart coordinate ascent over
type-class masses that tries to make the certified divergence large relative
to the alphabet-size bound.  It is a heuristic probe: its output ratios are
lower bounds on the worst case, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isnan, log

import numpy as np

from .bounds import Certificate, build_mixing_measure, certify
from .core import ExchangeableLaw, _type_table, enumerate_types, marginal
from .generators import _component_table


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one weight fit.

    ``gap`` = log max_j sum_T t(T) C_j(T) / M_w(T) at the returned weights
    bounds the distance to the optimum: the divergence is at most ``gap``
    above the minimum over the simplex (Lindsay 1983).  ``converged`` means
    exactly ``gap <= tol``.  ``trace`` holds the objective before the first
    iteration and after each one (``iterations + 1`` values); every
    iteration lowers it by a strictly positive amount, so it never rises,
    and it stays level only where that amount is below the rounding of the
    value or the value is 0.
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


#: Weight, relative to the largest model entry, of the NNLS row for sum(y) = 1.
#: Every weight from 1 to 1e4 converged on the test corpus; from 1e5 on, the
#: row's rounding (eps * weight**2) hides entering components.
SUM_ROW_WEIGHT = 100.0
#: Armijo constant: a step must realize this share of its predicted decrease.
ARMIJO = 1.0 / 3.0
#: Halvings of the step before the line search gives up.
MAX_HALVINGS = 60


def _passive_lstsq(a: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    z = np.zeros(a.shape[1])
    z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
    return z


def _nnls(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """argmin ||a y - b|| over y >= 0, by Lawson and Hanson's active-set method.

    It starts from the feasible point ``x`` (nonnegative), with the passive
    set being the support of ``x``.
    """
    n = a.shape[1]
    x = x.copy()
    passive = x > 0.0
    tol = 10 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * max(a.shape)
    entering = None
    for _ in range(3 * n):
        z = _passive_lstsq(a, b, passive)
        if entering is not None and z[entering] <= 0.0:
            break  # its gradient was rounding noise
        while (z[passive] <= 0.0).any():
            blocked = passive & (z <= 0.0)
            ratio = x[blocked] / (x[blocked] - z[blocked])
            x += ratio.min() * (z - x)
            x[np.flatnonzero(blocked)[np.argmin(ratio)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
            z = _passive_lstsq(a, b, passive)
        x = z
        free = ~passive
        grad = a.T @ (b - a @ x)
        if not free.any() or grad[free].max() <= tol:
            break
        entering = int(np.argmax(np.where(free, grad, -inf)))
        passive[entering] = True
    return x


def _support_step(a: np.ndarray, r: np.ndarray, w: np.ndarray, support) -> np.ndarray:
    """Newton step from ``w`` to the model minimizer among weights on ``support``.

    With a w = r, the model ||a (w + d) - 2 r|| is ||a d - r||, minimized over
    steps d with sum(d) = 0 that zero every weight off ``support``; ``a`` has
    one column per component.  Least squares on the columns of ``support``
    centered by their mean gives the minimum-norm such step, which keeps a
    step across a flat face of the objective short.
    """
    off = w.copy()
    off[support] = 0.0
    moved = off.sum()
    cols = a[:, support]
    mean = cols.mean(axis=1)
    e = np.linalg.lstsq(cols - mean[:, None], r + a @ off - moved * mean, rcond=None)[0]
    step = -off
    step[support] = moved / len(support) + e - e.mean()
    return step


def _newton_steps(a: np.ndarray, root_t: np.ndarray, w: np.ndarray):
    """Candidate steps from ``w`` for the quadratic model of the objective.

    The model is ||a y - 2 sqrt(t)|| over the weight simplex, with
    a[T, j] = sqrt(t(T)) C_j(T) / M_w(T) (Wang 2007).  NNLS with a heavily
    weighted row for sum(y) = 1, started from w, picks the support, and the
    step to it is then solved with the sum constraint exact; if that drives a
    weight below zero, the step goes to the normalized NNLS solution instead.
    The second candidate, generated only if the first is refused, keeps the
    current support: on a face where the objective is flat it is much
    shorter, so its decrease stays above rounding.
    """
    row = SUM_ROW_WEIGHT * max(1.0, float(np.abs(a).max()))
    x = _nnls(np.vstack([a, np.full(a.shape[1], row)]), np.append(2.0 * root_t, row), w)
    support = np.flatnonzero(x > 0.0)
    step = _support_step(a, root_t, w, support)
    if (w[support] + step[support] < 0.0).any():
        step = x / x.sum() - w
    yield step
    yield _support_step(a, root_t, w, np.flatnonzero(w > 0.0))


def _line_search(step, grad, rows, mix, t):
    """(alpha, decrease) of the longest halving of ``step`` that passes Armijo's test.

    The decrease sum_T t(T) log1p(alpha (step @ rows)(T) / M(T)) is computed
    from the step itself, so its rounding scales with the step, not with
    the objective; only a strictly positive value is accepted.  Returns None
    if no halving lowers the objective.
    """
    slope = float(grad @ step)
    change = (step @ rows) / mix
    alpha = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_HALVINGS):
            decrease = float(np.dot(t, np.log1p(alpha * change)))
            if decrease > 0.0 and decrease >= ARMIJO * alpha * slope:
                return alpha, decrease
            alpha /= 2.0
    return None


def _check_stop_rule(max_iter, tol) -> None:
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if isnan(tol):
        raise ValueError("tol must not be NaN")


def fit_mixture_weights(
    target: ExchangeableLaw,
    components,
    max_iter: int = 100_000,
    tol: float = 1e-12,
    init_weights=None,
) -> FitResult:
    """Minimize D(target || mixture of k-fold products) over the weights.

    It runs on the k-types of ``target`` (k = ``target.n``), with masses
    t(T) = mult(T) q(T) and C_j(T) = mult(T) prod_a C_j[a]^T_a.  Each
    iteration is a constrained Newton step (Wang 2007): the quadratic model
    of the objective at w is the least-squares problem
    ||sqrt(t) (sum_j y_j C_j / M_w - 2)|| over the simplex, solved by NNLS
    (Lawson & Hanson 1974).  A backtracking (Armijo) line search toward its
    solution accepts only a strictly positive decrease
    sum_T t(T) log1p((M_new(T) - M_w(T)) / M_w(T)), computed from the step.

    The fit stops once ``gap`` <= ``tol``; ``converged`` is exactly that
    test at the returned weights, so the divergence is then at most ``tol``
    above the minimum over the simplex.  A fit that is not ``converged``
    stopped for one of two reasons, and its ``gap`` still bounds the
    distance to the optimum:

    * ``max_iter`` iterations were run;
    * no step along the Newton directions lowers the objective by an amount
      above rounding (``iterations`` is then below ``max_iter``).

    If some target-support point is unreachable by every component the
    divergence is +inf for all weights; that is reported with gap 0, not as
    an error.  An initial weight vector that zeroes
    out every component covering part of the support is rejected, as are a
    negative ``max_iter`` and a NaN ``tol`` (a negative ``tol`` is allowed and
    never converges).
    """
    _check_stop_rule(max_iter, tol)
    components = list(components)
    if not components:
        raise ValueError("need at least one component")
    if target.n < 1:
        raise ValueError("target must have at least one coordinate")
    table = _type_table(target.m, target.n)
    rows = table.mult * np.hstack(list(_component_table(components, table.counts)))

    types = enumerate_types(target.m, target.n)
    t = table.mult * np.array([target.seq_prob(u) for u in types])
    support = t > 0.0
    ts = t[support]
    rows_s = np.ascontiguousarray(rows[:, support])
    root_ts = np.sqrt(ts)

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
        return FitResult(frozen, inf, 0, (inf,), 0.0 <= tol, 0.0)

    mix = w @ rows_s
    if np.any(mix == 0.0):
        raise ValueError("initial weights give an infinite objective; use an interior start")

    div = max(0.0, float(np.dot(ts, np.log(ts) - np.log(mix))))
    trace = [div]
    grad = rows_s @ (ts / mix)
    gap = log(float(grad.max()))
    iterations = 0
    while gap > tol and iterations < max_iter:
        for step in _newton_steps((rows_s * (root_ts / mix)).T, root_ts, w):
            accepted = _line_search(step, grad, rows_s, mix, ts)
            if accepted is not None:
                break
        else:
            break
        alpha, decrease = accepted
        iterations += 1
        w = np.maximum(w + alpha * step, 0.0)
        mix = w @ rows_s
        div = max(0.0, div - decrease)
        trace.append(div)
        grad = rows_s @ (ts / mix)
        gap = log(float(grad.max()))
    w.flags.writeable = False
    return FitResult(w, div, iterations, tuple(trace), gap <= tol, gap)


def improve_certificate(
    law: ExchangeableLaw,
    k: int,
    grid_resolution: int = 10,
    max_iter: int = 100_000,
    tol: float = 1e-12,
    atoms_only: bool = False,
) -> tuple[Certificate, FitResult]:
    """Certify, then re-optimize the mixing weights over atoms plus a grid.

    The fit starts at the constructed atom weights, with the grid weights
    zero.  Newton steps can move mass onto any component, so this one start
    reaches the optimum over atoms plus grid, and since every step lowers
    the objective the result can only improve on the certificate.
    ``max_iter`` and ``tol`` are checked before certifying.
    """
    _check_stop_rule(max_iter, tol)
    cert = certify(law, k)
    mu = build_mixing_measure(law, k, cert.m_star)
    components = list(mu.components)
    if not atoms_only:
        components += component_grid(law.m, grid_resolution)
    init = np.zeros(len(components))
    init[: mu.atom_count] = mu.weights
    return cert, fit_mixture_weights(marginal(law, k), components, max_iter, tol, init)


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
    mults = _type_table(m, n).mult
    denom = k * (k - 1) / (2.0 * (n - k + 1)) * log(m)

    def as_law(masses: np.ndarray) -> ExchangeableLaw:
        return ExchangeableLaw(m, n, dict(zip(types, (masses / mults).tolist())))

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
