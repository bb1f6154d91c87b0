"""Weight fitting (constrained Newton steps, gap-certified stop) and the adversarial probe."""

import math

import numpy as np
import pytest

import definetti as df

import oracle as orc
from corpus import dirichlet_corpus, fixture_corpus


def test_component_grid_counts_and_values():
    grid = df.component_grid(2, 2)
    assert len(grid) == 3
    as_tuples = {tuple(g) for g in grid}
    assert as_tuples == {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)}
    assert len(df.component_grid(2, 100)) == 101
    assert len(df.component_grid(3, 10)) == 66  # C(12, 2)
    with pytest.raises(ValueError):
        df.component_grid(2, 0)


def test_fit_representable_target():
    q = np.array([0.3, 0.7])
    comps = [np.array([0.5, 0.5]), q, np.array([0.8, 0.2])]
    target = df.iid(q, 3)
    fit = df.fit_mixture_weights(target, comps)
    assert fit.divergence <= 1e-6
    assert fit.weights[1] >= 0.99  # weight concentrates on the true component
    assert fit.converged


def test_fit_single_component():
    target = df.iid((0.3, 0.7), 3)
    comp = np.array([0.5, 0.5])
    fit = df.fit_mixture_weights(target, [comp])
    assert fit.weights[0] == 1.0
    direct = orc.kl_d(orc.dense_from_law(target), orc.dense_iid_mixture([1.0], [comp], 3))
    assert fit.divergence == pytest.approx(direct, abs=1e-12)


def test_fit_unreachable_support_reports_infinity():
    target = df.diaconis_pair()
    fit = df.fit_mixture_weights(target, [np.array([1.0, 0.0])])
    assert fit.divergence == math.inf
    assert fit.converged
    assert fit.trace == (math.inf,)


def test_fit_diaconis_pair_grid_floor():
    # the pair is not an iid mixture: its best mixture divergence is log 2,
    # reached by concentrating on the fair coin, which is on the grid.
    target = df.diaconis_pair()
    fit = df.fit_mixture_weights(target, df.component_grid(2, 100))
    assert fit.divergence >= math.log(2) - 1e-12
    assert fit.divergence == pytest.approx(math.log(2), abs=1e-12)
    assert fit.converged and fit.gap <= 1e-12


def test_fit_traces_are_nonincreasing():
    for _, law in fixture_corpus()[:6]:
        target = df.marginal(law, 2)
        grid = df.component_grid(law.m, 6)
        fit = df.fit_mixture_weights(target, grid)
        for prev, nxt in zip(fit.trace, fit.trace[1:]):
            assert nxt <= prev + 1e-12
        assert abs(float(np.sum(fit.weights)) - 1.0) <= 1e-12


def test_fit_multi_start_consistency():
    law = df.polya((1, 1), 5)
    target = df.marginal(law, 2)
    grid = df.component_grid(2, 10)
    finals = []
    for seed in range(10):
        w0 = np.random.default_rng(seed).dirichlet(np.ones(len(grid)))
        finals.append(df.fit_mixture_weights(target, grid, init_weights=w0).divergence)
    assert max(finals) - min(finals) <= 1e-7


def test_fit_gap_is_nonnegative_and_bounds_the_optimum():
    for _, law in fixture_corpus()[:6]:
        target = df.marginal(law, 2)
        grid = df.component_grid(law.m, 6)
        short = df.fit_mixture_weights(target, grid, max_iter=1)
        longer = df.fit_mixture_weights(target, grid)
        assert short.gap >= -1e-15
        # the gap certifies how far the short run can be from the optimum
        assert short.divergence - short.gap <= longer.divergence + 1e-12


def test_fit_gap_unreachable_support_and_as_dict_keys():
    fit = df.fit_mixture_weights(df.diaconis_pair(), [np.array([1.0, 0.0])])
    assert fit.gap == 0.0
    fit = df.fit_mixture_weights(df.iid((0.3, 0.7), 2), df.component_grid(2, 4))
    assert tuple(fit.as_dict()) == (
        "weights", "divergence", "iterations", "converged", "gap", "trace"
    )
    assert fit.as_dict()["gap"] == fit.gap


def test_fit_against_dense_em_and_dense_gap():
    # the oracle's EM over the m**k sequences, from the uniform start, cannot
    # beat the fit; its own gap at the fitted weights equals the fit's
    checked = 0
    for name, law in fixture_corpus():
        if law.n > 6 or law.m > 3:
            continue
        arr = orc.dense_from_law(law)
        for k in range(1, law.n):
            mu = df.build_mixing_measure(law, k, df.select_mstar(law, k)[0])
            comps = list(mu.components) + df.component_grid(law.m, 4)
            feasible = np.zeros(len(comps))
            feasible[: mu.atom_count] = mu.weights
            fit = df.fit_mixture_weights(df.marginal(law, k), comps, init_weights=feasible)
            dense = orc.marginal_d(arr, k)
            _, em_div = orc.em_fit_d(dense, comps, np.ones(len(comps)), 2000)
            assert fit.divergence <= max(0.0, em_div) + 1e-12, (name, k)
            assert orc.gap_d(dense, comps, fit.weights) == pytest.approx(fit.gap, abs=1e-12)
            checked += 1
    assert checked >= 50


def test_fit_stop_contract():
    # converged <=> gap <= tol, whatever stopped the fit
    law = df.polya((2, 1, 1), 5)
    target = df.marginal(law, 3)
    grid = df.component_grid(3, 5)
    for max_iter, tol in ((0, 1e-12), (1, 1e-12), (2, 1e-6), (100, 1e-12), (100, -1.0),
                          (0, math.inf)):
        fit = df.fit_mixture_weights(target, grid, max_iter=max_iter, tol=tol)
        assert fit.converged == (fit.gap <= tol), (max_iter, tol)
        assert len(fit.trace) == fit.iterations + 1 <= max_iter + 1
    # every iteration lowers the objective; the trace can stay level only at
    # 0 or on the last step, whose decrease can be below the value's rounding
    for _, law in fixture_corpus() + dirichlet_corpus(range(3)):
        cert, fit = df.improve_certificate(law, 2, grid_resolution=6)
        assert fit.converged and fit.gap <= 1e-12
        assert len(fit.trace) == fit.iterations + 1
        for i, (prev, nxt) in enumerate(zip(fit.trace, fit.trace[1:]), start=1):
            assert nxt < prev or (nxt == prev and (nxt == 0.0 or i == fit.iterations))
        assert fit.trace[-1] == fit.divergence


def test_fit_former_max_iter_law_converges():
    # an EM fit of this law ran into max_iter=100000 at divergence 4.468828e-4
    cert, fit = df.improve_certificate(df.random_dirichlet(3, 2, 12), 4, grid_resolution=20)
    assert fit.converged and fit.gap <= 1e-12
    assert fit.iterations <= 20
    assert fit.divergence <= 4.468828e-4
    assert fit.divergence <= cert.D


def test_fit_argument_errors():
    target = df.iid((0.5, 0.5), 2)
    with pytest.raises(ValueError):
        df.fit_mixture_weights(target, [])
    with pytest.raises(ValueError):
        df.fit_mixture_weights(target, [np.array([0.5, 0.5])], init_weights=[-1.0])
    with pytest.raises(ValueError):
        df.fit_mixture_weights(target, [np.array([0.5, 0.5])], init_weights=[0.0])
    with pytest.raises(ValueError):
        # interior start required when some support point is covered by only
        # a zero-weighted component
        df.fit_mixture_weights(
            target,
            [np.array([1.0, 0.0]), np.array([0.5, 0.5])],
            init_weights=[1.0, 0.0],
        )
    with pytest.raises(ValueError, match="component alphabet mismatch"):
        df.fit_mixture_weights(target, [np.array([0.2, 0.3, 0.5])])
    with pytest.raises(ValueError, match="at least one coordinate"):
        df.fit_mixture_weights(df.iid((0.5, 0.5), 0), [np.array([0.5, 0.5])])
    with pytest.raises(ValueError, match="max_iter"):
        df.fit_mixture_weights(target, [np.array([0.5, 0.5])], max_iter=-5)
    with pytest.raises(ValueError, match="NaN"):
        df.fit_mixture_weights(target, [np.array([0.5, 0.5])], tol=math.nan)
    with pytest.raises(ValueError, match="max_iter"):
        df.improve_certificate(df.polya((1, 1), 4), 2, max_iter=-1)


def test_improve_certificate_iid_and_k1():
    law = df.iid((0.3, 0.7), 6)
    cert, fit = df.improve_certificate(law, 2, grid_resolution=5)
    assert cert.D <= 1e-10 and fit.divergence <= 1e-10
    cert1, fit1 = df.improve_certificate(df.polya((1, 1), 5), 1, grid_resolution=5)
    assert cert1.D <= 1e-12 and fit1.divergence <= 1e-12


def test_improve_certificate_polya_regression():
    # strict improvement over the constructed mixture, frozen from the first run
    law = df.polya((1, 1), 6)
    cert, fit = df.improve_certificate(law, 2, grid_resolution=10)
    assert cert.D == pytest.approx(0.006624024717333775, rel=1e-9)
    assert fit.divergence < cert.D
    assert fit.divergence <= 1e-11


def test_improve_certificate_feasible_start_domination():
    for _, law in fixture_corpus():
        cert, fit = df.improve_certificate(law, 2, grid_resolution=4)
        assert fit.divergence <= cert.D + 1e-9


def test_improve_certificate_atoms_only_matches_certify():
    law = df.polya((2, 1), 5)
    cert, fit = df.improve_certificate(law, 2, atoms_only=True)
    assert fit.divergence <= cert.D + 1e-9


def test_adversarial_search_deterministic_and_sound():
    law1, ratio1 = df.adversarial_search(2, 4, 2, seed=3, restarts=3, steps=20)
    law2, ratio2 = df.adversarial_search(2, 4, 2, seed=3, restarts=3, steps=20)
    assert ratio1 == ratio2
    assert law1.q == law2.q
    assert 0.0 <= ratio1 <= 1.0 + 1e-9
    # the winner is itself a valid, certifiable law
    cert = df.certify(law1, 2)
    assert cert.D <= cert.cor_bound_logA + 1e-9
    # the search objective vanishes at any i.i.d. law
    iid_cert = df.certify(df.iid((0.3, 0.7), 4), 2)
    assert iid_cert.D / iid_cert.cor_bound_logA <= 1e-11


def test_adversarial_search_regression_floor():
    # frozen from the first recorded search output, re-verified by certify
    law, ratio = df.adversarial_search(2, 4, 2, seed=7, restarts=50, steps=60)
    assert ratio == pytest.approx(0.6456927245949159, abs=1e-9)
    cert = df.certify(law, 2)
    assert cert.D / cert.cor_bound_logA == pytest.approx(ratio, abs=1e-12)


def test_adversarial_search_validation():
    with pytest.raises(ValueError):
        df.adversarial_search(2, 4, 4, seed=1)
    with pytest.raises(ValueError):
        df.adversarial_search(2, 4, 2, seed=1, restarts=0)
