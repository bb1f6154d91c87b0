"""Tests for the benchmark's checker: python -m pytest perfbench -q

The checker must agree with brute-force sums over every sequence of A^n on
small laws, and must reject a certificate or a fit perturbed by 1e-6.
"""

import itertools
import sys
from math import fsum, log
from pathlib import Path

import numpy as np
import pytest

import checker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import definetti as df  # noqa: E402


def dense(law: checker.TypeLaw) -> np.ndarray:
    """Per-sequence probabilities of A^n, one entry per sequence."""
    m, n = law.m, law.n
    _, _, seq = law.block(n)
    where = {t: i for i, t in enumerate(law.top)}
    arr = np.empty((m,) * n)
    for x in itertools.product(range(m), repeat=n):
        arr[x] = seq[where[tuple(x.count(a) for a in range(m))]]
    return arr


def head(arr, length):
    return arr.sum(axis=tuple(range(length, arr.ndim))) if length < arr.ndim else arr


def entropy_d(p):
    return fsum(-v * log(v) for v in p.ravel().tolist() if v > 0.0)


def mi_d(joint):
    """I(U; V) of a 2-D joint array."""
    pu, pv = joint.sum(axis=1), joint.sum(axis=0)
    return fsum(
        v * log(v / (pu[r] * pv[c]))
        for (r, c), v in np.ndenumerate(joint) if v > 0.0
    )


def cmi_d(arr, i, c):
    """I(X_1^{i-1}; X_i | X_{i+1}^{i+c})."""
    m = arr.shape[0]
    j = head(arr, i + c).reshape(m ** (i - 1), m, m ** c)
    return fsum(mi_d(j[:, :, z] / j[:, :, z].sum()) * j[:, :, z].sum()
                for z in range(m ** c) if j[:, :, z].sum() > 0.0)


def mixture_d(arr, k, m_star):
    """Mixture of k-fold products, conditioning X_1 on each sequence of the last c coords."""
    m, n = arr.shape[0], arr.ndim
    c = m_star - k
    pair = arr.sum(axis=tuple(range(1, n - c))) if n - c > 1 else arr
    acc = np.zeros((m,) * k)
    for w in itertools.product(range(m), repeat=c):
        slab = pair[(slice(None),) + w]
        if slab.sum() > 0.0:
            comp = slab / slab.sum()
            block = comp
            for _ in range(k - 1):
                block = np.multiply.outer(block, comp)
            acc += slab.sum() * block
    return acc


def laws():
    yield checker.dirichlet_law(5, 2, 6)
    yield checker.dirichlet_law(8, 3, 5)
    urn = df.urn_without_replacement((2, 3), 5)  # zero-mass types
    yield checker.TypeLaw(2, 5, dict(urn.q))


@pytest.mark.parametrize("law", list(laws()), ids=["m2n6", "m3n5", "urn"])
def test_agrees_with_dense_sums(law):
    arr = dense(law)
    n, m = law.n, law.m
    H = law.entropies()
    for length in range(n + 1):
        assert H[length] == pytest.approx(entropy_d(head(arr, length)), abs=1e-13)
    for k in range(1, n):
        tails = [
            mi_d(arr.sum(axis=tuple(range(i - 1, k - 1))).reshape(m ** (i - 1), m ** (n - k + 1)))
            for i in range(1, k + 1)
        ]
        assert law.thm_bound(k) == pytest.approx(fsum(tails) / (n - k + 1), abs=1e-13)
        for m_star, value in law.endpoint_values(k).items():
            dense_value = fsum(cmi_d(arr, i, m_star - k) for i in range(1, k + 1))
            assert value == pytest.approx(dense_value, abs=1e-13)
            weights, comps = law.atoms(k, m_star)
            prefix, mix = head(arr, k), mixture_d(arr, k, m_star)
            D, tv = law.divergence(k, weights, comps)
            dense_D = fsum(p * log(p / q) for p, q in zip(prefix.ravel(), mix.ravel()) if p > 0)
            assert D == pytest.approx(dense_D, abs=1e-13)
            assert tv == pytest.approx(0.5 * np.abs(prefix - mix).sum(), abs=1e-13)
            cols = [np.prod(np.array([c[list(x)] for x in itertools.product(range(m), repeat=k)]), axis=1)
                    for c in comps]
            ratios = [fsum((prefix.ravel() * col / mix.ravel())[prefix.ravel() > 0]) for col in cols]
            assert law.gap(k, weights, comps) == pytest.approx(log(max(ratios)), abs=1e-13)


def test_regenerated_law_matches_package():
    law = df.random_dirichlet(17, 3, 7)
    mine = checker.dirichlet_law(17, 3, 7)
    assert [law.q[t] for t in mine.top] == pytest.approx(
        (mine.mass / [checker.mult(t) for t in mine.top]).tolist(), rel=1e-15)


def certified(seed=4, m=2, n=9, k=4):
    law = df.random_dirichlet(seed, m, n)
    return checker.dirichlet_law(seed, m, n), df.certify(law, k).as_dict()


@pytest.mark.parametrize("field", ["D", "thm_bound", "cor_bound_H", "cor_bound_logA", "tv",
                                   "pinsker_tv", "df_tv_ref", "first_bound", "second_rate"])
def test_rejects_perturbed_certificate(field):
    law, cert = certified()
    assert checker.check_certificate(law, cert) == []
    for delta in (1e-6, -1e-6):
        assert checker.check_certificate(law, dict(cert, **{field: cert[field] + delta}))


def test_rejects_wrong_endpoint_and_atoms():
    law, cert = certified()
    assert checker.check_certificate(law, dict(cert, atom_count=cert["atom_count"] + 1))
    for m_star in range(cert["k"], law.n + 1):
        if m_star != cert["m_star"]:
            assert checker.check_certificate(law, dict(cert, m_star=m_star))


def test_rejects_endpoint_above_minimum():
    law, cert = certified()
    ends = law.endpoint_values(cert["k"])
    other = max(ends, key=ends.get)
    D, tv = law.divergence(cert["k"], *law.atoms(cert["k"], other))
    consistent = dict(cert, m_star=other, D=D, tv=tv,
                      atom_count=len(law.atoms(cert["k"], other)[0]))
    assert [p for p in checker.check_certificate(law, consistent) if "above the minimum" in p]


def test_rejects_broken_chain():
    law, cert = certified()
    low = dict(cert, cor_bound_H=cert["thm_bound"] - 1e-6)
    assert any("exceeds cor_bound_H" in p for p in checker.check_certificate(law, low))


def fitted(seed=2, m=2, n=8, k=3, grid=6):
    law = df.random_dirichlet(seed, m, n)
    cert, fit = df.improve_certificate(law, k, grid_resolution=grid)
    fit = fit.as_dict()
    return checker.dirichlet_law(seed, m, n), k, grid, cert.as_dict(), fit


def test_fit_passes_and_reports_gap():
    law, k, grid, cert, fit = fitted()
    problems, gap = checker.check_fit(law, k, grid, cert, fit)
    assert problems == []
    assert 0.0 <= gap < 1e-4


def test_rejects_perturbed_fit():
    law, k, grid, cert, fit = fitted()
    weights = list(fit["weights"])
    weights[0] += 1e-6
    rising = [fit["trace"][0], fit["trace"][0] + 1e-6] + fit["trace"][2:]
    for bad in (
        dict(fit, weights=weights),
        dict(fit, divergence=fit["divergence"] + 1e-6),
        dict(fit, trace=rising),
    ):
        assert checker.check_fit(law, k, grid, cert, bad)[0]
    worse = dict(cert, D=fit["divergence"] - 1e-6)
    assert any("exceeds certificate D" in p for p in checker.check_fit(law, k, grid, worse, fit)[0])
