"""Independent type-level recomputation of definetti's outputs.

Nothing here imports definetti.  Every quantity is recomputed from the law's
top type masses by hypergeometric thinning: the block of the first L
coordinates of an exchangeable law on A^n has type law

    P_L(S) = sum_T P_n(T) * prod_a C(T_a, S_a) / C(n, L),

and from the block laws follow

* the block entropies H_L = -sum_S P_L(S) log q_L(S), q_L(S) = P_L(S)/mult(S),
* thm_bound = sum_{i=1..k} (H_{i-1} + H_{n-k+1} - H_{i+n-k}) / (n-k+1),
* each endpoint's summed conditional informations
  k H_{1+c} - (k-1) H_c - H_{k+c} for a conditioning block of length c,
* the atoms for an endpoint m_star (one per positive type W of length
  c = m_star - k: weight P_c(W), letter law q_{c+1}(W + e_a) / q_c(W)),
* D and tv between the k-prefix and a mixture of i.i.d. laws, as sums over
  k-types weighted by their multiplicities.

``check_certificate`` and ``check_fit`` return a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from math import comb, fsum, log, sqrt

import numpy as np

#: Agreement with the recomputation: |reported - ref| <= ABS_TOL + REL_TOL*|ref|.
ABS_TOL = 1e-10
REL_TOL = 1e-9
#: Slack on the certified inequalities (the package's own default tolerance).
CHAIN_TOL = 1e-9
#: m_star must attain the minimum endpoint value to within this.
ENDPOINT_TOL = 1e-12
#: A fit's weights must sum to 1 to within this.
SIMPLEX_TOL = 1e-10
#: A fit's trace may rise by at most this per iteration.
TRACE_TOL = 1e-12

CERT_FIELDS = (
    "n", "k", "m_star", "D", "thm_bound", "cor_bound_H", "cor_bound_logA",
    "tv", "pinsker_tv", "df_tv_ref", "first_bound", "second_rate", "atom_count",
)
INT_FIELDS = ("n", "k", "m_star", "atom_count")


@lru_cache(maxsize=None)
def types(m: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Count vectors of ``length`` items over ``m`` symbols, lexicographic."""
    return tuple(
        c for c in itertools.product(range(length + 1), repeat=m) if sum(c) == length
    )


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """C(t, s) for 0 <= s, t <= n, as floats (exact up to n = 30)."""
    return np.array([[comb(t, s) for s in range(n + 1)] for t in range(n + 1)], dtype=float)


def mult(counts) -> int:
    """Number of sequences with the given symbol counts."""
    out, left = 1, sum(counts)
    for c in counts:
        out *= comb(left, c)
        left -= c
    return out


class TypeLaw:
    """An exchangeable law given by its top type masses P_n(T)."""

    def __init__(self, m: int, n: int, seq_probs: dict):
        self.m, self.n = m, n
        self.top = types(m, n)
        self.mass = np.array([mult(t) * seq_probs.get(t, 0.0) for t in self.top])
        self._blocks: dict[int, tuple] = {}
        self._H = None

    def block(self, length: int):
        """(types, type masses P_L, per-sequence probabilities q_L) of a block."""
        if length not in self._blocks:
            low = types(self.m, length)
            top_arr = np.array(self.top)
            low_arr = np.array(low).reshape(len(low), self.m)
            binom = _binomials(self.n)
            kernel = np.ones((len(self.top), len(low)))
            for a in range(self.m):
                kernel *= binom[top_arr[:, a][:, None], low_arr[:, a][None, :]]
            masses = self.mass @ kernel / comb(self.n, length)
            seq = masses / np.array([mult(s) for s in low], dtype=float)
            self._blocks[length] = (low, masses, seq)
        return self._blocks[length]

    def entropies(self) -> list[float]:
        """H_0 .. H_n of the sequence laws of the blocks."""
        if self._H is None:
            self._H = []
            for length in range(self.n + 1):
                _, masses, seq = self.block(length)
                self._H.append(fsum(
                    -p * log(s) for p, s in zip(masses.tolist(), seq.tolist()) if p > 0.0
                ))
        return self._H

    def thm_bound(self, k: int) -> float:
        H, n = self.entropies(), self.n
        tails = [H[i - 1] + H[n - k + 1] - H[i + n - k] for i in range(1, k + 1)]
        return fsum(tails) / (n - k + 1)

    def endpoint_values(self, k: int) -> dict[int, float]:
        """m_star -> summed conditional informations, for m_star = k..n."""
        H = self.entropies()
        return {
            k + c: k * H[1 + c] - (k - 1) * H[c] - H[k + c]
            for c in range(self.n - k + 1)
        }

    def atoms(self, k: int, m_star: int) -> tuple[np.ndarray, np.ndarray]:
        """Weights and letter laws of the mixing measure for endpoint m_star."""
        c = m_star - k
        low, masses, seq = self.block(c)
        nxt_types, _, nxt_seq = self.block(c + 1)
        where = {t: i for i, t in enumerate(nxt_types)}
        weights, comps = [], []
        for w, p, s in zip(low, masses.tolist(), seq.tolist()):
            if p <= 0.0:
                continue
            weights.append(p)
            comps.append([
                nxt_seq[where[w[:a] + (w[a] + 1,) + w[a + 1:]]] / s for a in range(self.m)
            ])
        return np.array(weights), np.array(comps).reshape(len(weights), self.m)

    def _columns(self, k: int, comps: np.ndarray) -> np.ndarray:
        """Per-sequence probability of each k-type under each i.i.d. component."""
        low = np.array(self.block(k)[0]).reshape(-1, self.m)
        return np.prod(comps[None, :, :] ** low[:, None, :], axis=2)

    def divergence(self, k: int, weights, comps) -> tuple[float, float]:
        """D and tv between the k-prefix and sum_j w_j comps_j^k."""
        low, masses, seq = self.block(k)
        mix = self._columns(k, np.asarray(comps, dtype=float)) @ np.asarray(weights, dtype=float)
        d_terms, tv_terms = [], []
        for t, p, s, x in zip(low, masses.tolist(), seq.tolist(), mix.tolist()):
            tv_terms.append(mult(t) * abs(s - x))
            if p > 0.0:
                if x <= 0.0:
                    return math.inf, 0.5 * fsum(tv_terms)
                d_terms.append(p * (log(s) - log(x)))
        return max(0.0, fsum(d_terms)), 0.5 * fsum(tv_terms)

    def gap(self, k: int, weights, comps) -> float:
        """log max_j sum_x t(x) C_j(x) / M_w(x): a bound on D(w) - min_w D."""
        _, masses, _ = self.block(k)
        cols = self._columns(k, np.asarray(comps, dtype=float))
        mix = cols @ np.asarray(weights, dtype=float)
        keep = masses > 0.0
        return log(float(np.max((masses[keep] / mix[keep]) @ cols[keep])))


# ---------------------------------------------------------------------------
# laws, from a definetti law file or regenerated from a random_dirichlet seed
# ---------------------------------------------------------------------------

def law_from_file(path) -> TypeLaw:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    q = {tuple(e["counts"]): float(e["seq_prob"]) for e in obj["type_probs"]}
    return TypeLaw(int(obj["alphabet_size"]), int(obj["n"]), q)


def dirichlet_law(seed: int, m: int, n: int) -> TypeLaw:
    """The documented random_dirichlet law: type masses ~ Dirichlet(1) by PCG64."""
    top = types(m, n)
    masses = np.random.default_rng(seed).dirichlet(np.ones(len(top)))
    return TypeLaw(m, n, {t: float(g) / mult(t) for t, g in zip(top, masses)})


# ---------------------------------------------------------------------------
# reported outputs
# ---------------------------------------------------------------------------

def _real(value):
    if value is None or value == "":
        return None
    if value == "inf":
        return math.inf
    return float(value)


def parse_certificate(obj: dict) -> dict:
    """A certificate from definetti's JSON output, with reals as floats."""
    return {
        name: int(obj[name]) if name in INT_FIELDS else _real(obj[name])
        for name in CERT_FIELDS
    }


def parse_certificate_csv(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0].split(",") != list(CERT_FIELDS):
        raise ValueError("unexpected certificate CSV header")
    return [parse_certificate(dict(zip(CERT_FIELDS, line.split(",")))) for line in lines[1:]]


def _close(reported, ref) -> bool:
    if reported is None or ref is None:
        return reported is ref
    if math.isinf(ref) or math.isinf(reported):
        return reported == ref
    return abs(reported - ref) <= ABS_TOL + REL_TOL * abs(ref)


def check_certificate(law: TypeLaw, cert: dict) -> list[str]:
    """Problems with one certificate for ``law``; empty when it passes."""
    n, k, m = law.n, cert["k"], law.m
    if cert["n"] != n or not 1 <= k <= n - 1:
        return [f"certificate for (n={cert['n']}, k={k}) does not fit a law with n={n}"]
    m_star = cert["m_star"]
    ends = law.endpoint_values(k)
    if m_star not in ends:
        return [f"m_star={m_star} is not an endpoint in [{k}, {n}]"]
    problems = []
    lowest = min(ends.values())
    if ends[m_star] > lowest + ENDPOINT_TOL:
        problems.append(
            f"m_star={m_star} has value {ends[m_star]!r}, above the minimum {lowest!r}"
        )
    weights, comps = law.atoms(k, m_star)
    D, tv = law.divergence(k, weights, comps)
    thm = law.thm_bound(k)
    coef = k * (k - 1) / (2.0 * (n - k + 1))
    ref = {
        "D": D,
        "thm_bound": thm,
        "cor_bound_H": coef * law.entropies()[1],
        "cor_bound_logA": coef * log(m),
        "tv": tv,
        "pinsker_tv": sqrt(thm / 2.0),
        "df_tv_ref": k * (k - 1) / (2.0 * n),
        "first_bound": 5.0 * k * k * log(n) / (n - k) if m == 2 else None,
        "second_rate": sqrt(k / sqrt(n)) * log(n / k),
    }
    for name, value in ref.items():
        if not _close(cert[name], value):
            problems.append(f"{name}={cert[name]!r} but recomputed {value!r}")
    if cert["atom_count"] != len(weights):
        problems.append(f"atom_count={cert['atom_count']} but recomputed {len(weights)}")
    chain = [
        ("D", "thm_bound"), ("thm_bound", "cor_bound_H"),
        ("cor_bound_H", "cor_bound_logA"), ("tv", "pinsker_tv"),
    ]
    for lo, hi in chain:
        if not cert[lo] <= cert[hi] + CHAIN_TOL:
            problems.append(f"{lo}={cert[lo]!r} exceeds {hi}={cert[hi]!r}")
    return problems


def grid_components(m: int, resolution: int) -> np.ndarray:
    """Letter laws with coordinates in multiples of 1/resolution, lexicographic."""
    return np.array(types(m, resolution), dtype=float) / resolution


def check_fit(law: TypeLaw, k: int, grid: int, cert: dict, fit: dict) -> tuple[list[str], float]:
    """Problems with one ``optimize`` fit, and its certified suboptimality gap.

    The components are the certificate's atoms followed by the grid, the
    order ``definetti optimize`` documents.
    """
    _, atom_comps = law.atoms(k, cert["m_star"])
    comps = np.vstack([atom_comps, grid_components(law.m, grid)])
    w = np.array(fit["weights"], dtype=float)
    if w.shape != (len(comps),):
        return [f"{w.size} weights for {len(comps)} components"], math.nan
    problems = []
    if (w < 0.0).any() or abs(fsum(w.tolist()) - 1.0) > SIMPLEX_TOL:
        problems.append(f"weights are off the simplex (sum {fsum(w.tolist())!r})")
    trace = [_real(v) for v in fit["trace"]]
    if len(trace) != fit["iterations"] + 1:
        problems.append(f"trace has {len(trace)} values for {fit['iterations']} iterations")
    rises = [i for i in range(1, len(trace)) if trace[i] > trace[i - 1] + TRACE_TOL]
    if rises:
        problems.append(f"trace rises at iteration {rises[0]}")
    divergence = _real(fit["divergence"])
    D, _ = law.divergence(k, w, comps)
    if not _close(divergence, D):
        problems.append(f"fit divergence={divergence!r} but recomputed {D!r}")
    if trace and trace[-1] != divergence:
        problems.append(f"trace ends at {trace[-1]!r}, not at the divergence")
    if not divergence <= cert["D"] + ABS_TOL:
        problems.append(f"fit divergence={divergence!r} exceeds certificate D={cert['D']!r}")
    return problems, law.gap(k, w, comps)
