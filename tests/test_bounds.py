"""Mixture construction, endpoint selection, and the certified bound chain."""

import math

import numpy as np
import pytest

import definetti as df

import oracle as orc
from corpus import BERN_MIX, dirichlet_corpus, fixture_corpus


def test_tail_mi_trivia():
    law = df.polya((1, 1), 5)
    assert df.tail_mi(law, 1, 3) == 0.0
    iid_law = df.iid((0.3, 0.7), 5)
    for k in range(1, 5):
        for i in range(1, k + 1):
            assert df.tail_mi(iid_law, i, k) <= 1e-13


def test_tail_mi_mixture_entropy_gap_bound():
    # finite-mixture analog: I(prefix; tail) <= (i-1)(H(X1) - min_j H(Q_j))
    comps = BERN_MIX
    for n in (5, 7):
        law = df.iid_mixture(comps, n)
        h1 = df.entropy(df.single_letter_marginal(law))
        hmin = min(df.entropy(np.asarray(d)) for _, d in comps)
        for k in range(1, n):
            for i in range(1, k + 1):
                assert df.tail_mi(law, i, k) <= (i - 1) * (h1 - hmin) + 1e-10


def test_cond_mi_sum_trivia_and_oracle():
    iid_law = df.iid((0.25, 0.75), 5)
    assert df.cond_mi_sum(iid_law, 2, 2) <= 1e-13
    law = df.polya((1, 1), 5)
    for mm in range(1, 6):
        assert df.cond_mi_sum(law, 1, mm) == 0.0
    arr = orc.dense_from_law(law)
    for mm in range(2, 6):
        assert df.cond_mi_sum(law, 2, mm) == pytest.approx(
            orc.cond_mi_sum_d(arr, 2, mm), abs=1e-10
        )


def test_cond_mi_sum_every_endpoint_matches_oracle():
    laws = [law for _, law in fixture_corpus() if law.n <= 6 and law.m <= 3]
    laws += [law for _, law in dirichlet_corpus(range(3), ns=(4, 5, 6))]
    for law in laws:
        arr = orc.dense_from_law(law)
        for k in range(1, law.n + 1):
            for mm in range(k, law.n + 1):
                assert df.cond_mi_sum(law, k, mm) == pytest.approx(
                    orc.cond_mi_sum_d(arr, k, mm), abs=1e-12
                ), (law, k, mm)


@pytest.mark.parametrize("m, n", [(2, 30), (3, 20), (4, 14)])
def test_select_mstar_iid_ties_to_smallest_endpoint(m, n):
    # every endpoint is exactly 0 for i.i.d. laws, so block-entropy rounding
    # noise must stay under MSTAR_TIE_TOL at the largest supported sizes
    for p in ((1 / m,) * m, tuple(np.arange(1, m + 1) / (m * (m + 1) / 2))):
        law = df.iid(p, n)
        for k in range(1, n):
            assert df.select_mstar(law, k)[0] == k, (p, k)


def test_select_mstar_iid_and_k1():
    iid_law = df.iid((0.3, 0.7), 6)
    m_star, value = df.select_mstar(iid_law, 3)
    assert m_star == 3  # all values ~0; ties break to the smallest endpoint
    assert value <= 1e-13
    law = df.polya((1, 1), 6)
    _, v1 = df.select_mstar(law, 1)
    assert v1 == 0.0


def test_select_mstar_polya_frozen():
    # frozen from the first certified run, oracle-verified
    law = df.polya((1, 1), 5)
    m_star, value = df.select_mstar(law, 2)
    assert m_star == 5
    assert value == pytest.approx(0.013247458297286121, abs=1e-12)
    arr = orc.dense_from_law(law)
    d_star, d_value = orc.select_mstar_d(arr, 2)
    assert m_star == d_star
    assert value == pytest.approx(d_value, abs=1e-12)


def test_select_mstar_at_most_average():
    for _, law in fixture_corpus():
        n = law.n
        for k in range(1, n):
            _, achieved = df.select_mstar(law, k)
            avg = math.fsum(df.tail_mi(law, i, k) for i in range(1, k + 1)) / (n - k + 1)
            assert achieved <= avg + 1e-10


def test_build_mixing_measure_structure():
    law = df.polya((2, 1), 5)
    mu = df.build_mixing_measure(law, 2, 2)  # m_star == k: empty conditioning
    assert mu.atom_count == 1
    assert mu.weights[0] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(mu.components[0], df.single_letter_marginal(law), atol=1e-15)

    iid_law = df.iid((0.3, 0.7), 5)
    mu = df.build_mixing_measure(iid_law, 2, 4)
    for comp in mu.components:
        np.testing.assert_allclose(comp, [0.3, 0.7], atol=1e-13)
    assert abs(math.fsum(mu.weights) - 1.0) <= 1e-12
    # one atom per positive conditioning type
    assert mu.atom_count <= len(df.enumerate_types(2, 2))


def test_build_mixing_measure_polya_against_oracle():
    law = df.polya((1, 1), 4)
    m_star, _ = df.select_mstar(law, 2)
    mu = df.build_mixing_measure(law, 2, m_star)
    arr = orc.dense_from_law(law)
    c = m_star - 2
    for w_type, comp in zip(mu.conditioning_types, mu.components):
        wseq = []
        for sym, cnt in enumerate(w_type):
            wseq.extend([sym] * cnt)
        np.testing.assert_allclose(
            comp, orc.conditional_component_d(arr, c, tuple(wseq)), atol=1e-12
        )


def test_mixture_dist_shapes_and_exchangeability():
    single = df.MixingMeasure(
        m=2, k=3, m_star=3, weights=(1.0,),
        components=(np.array([0.3, 0.7]),), conditioning_types=((0, 0),),
    )
    got = df.mixture_dist(single, 3)
    q = np.array([0.3, 0.7])
    product = np.multiply.outer(np.multiply.outer(q, q), q)
    np.testing.assert_array_equal(got.probs, product)
    np.testing.assert_allclose(got.probs, df.densify(df.iid(q, 3)).probs, atol=1e-16)

    two = df.MixingMeasure(
        m=2, k=2, m_star=2, weights=(0.5, 0.5),
        components=(np.array([0.2, 0.8]), np.array([0.8, 0.2])),
        conditioning_types=((0, 0), (0, 0)),
    )
    pair = df.mixture_dist(two, 2)
    assert pair.probs[0, 1] == pair.probs[1, 0]
    assert df.is_exchangeable(pair, tol=1e-12)
    bary = df.mixture_dist(two, 1)
    np.testing.assert_allclose(bary.probs, [0.5, 0.5], atol=1e-15)


def test_certify_iid_and_k1_exact():
    for dist, m, n in [((0.3, 0.7), 2, 6), ((0.2, 0.3, 0.5), 3, 5)]:
        law = df.iid(dist, n)
        for k in range(1, n):
            cert = df.certify(law, k)
            assert cert.D <= 1e-12
            assert cert.thm_bound <= 1e-12
    for _, law in fixture_corpus():
        cert = df.certify(law, 1)
        assert cert.D <= 1e-12


def test_certify_frozen_formula_values():
    law = df.random_dirichlet(0, 2, 10)
    cert = df.certify(law, 3)
    assert cert.cor_bound_logA == pytest.approx(0.375 * math.log(2), abs=1e-15)
    assert cert.cor_bound_logA == pytest.approx(0.25993019270997947, abs=1e-12)
    cert2 = df.certify(law, 2)
    assert cert2.first_bound == pytest.approx(5 * 4 * math.log(10) / 8, abs=1e-15)
    assert cert2.first_bound == pytest.approx(5.756462732485115, abs=1e-12)
    assert cert2.df_tv_ref == pytest.approx(2 / 20, abs=1e-15)
    assert cert2.second_rate == pytest.approx(
        math.sqrt(2 / math.sqrt(10)) * math.log(5), abs=1e-15
    )

    ternary = df.random_dirichlet(1, 3, 5)
    assert df.certify(ternary, 2).first_bound is None


def test_certify_bound_chain_on_corpus():
    for name, law in fixture_corpus():
        for k in range(1, law.n):
            cert = df.certify(law, k)
            assert cert.D <= cert.thm_bound + 1e-9, name
            assert cert.thm_bound <= cert.cor_bound_H + 1e-9, name
            assert cert.cor_bound_H <= cert.cor_bound_logA + 1e-9, name
            assert cert.tv <= cert.pinsker_tv + 1e-9, name
            assert cert.atom_count >= 1


def test_constructed_mixtures_are_exchangeable():
    for name, law in fixture_corpus()[:8]:
        k = 2
        mu = df.build_mixing_measure(law, k, df.select_mstar(law, k)[0])
        assert df.is_exchangeable(df.mixture_dist(mu, k), tol=1e-12), name


def test_certify_rejects_bad_k():
    law = df.polya((1, 1), 4)
    for k in (0, 4, 5, -1):
        with pytest.raises(ValueError):
            df.certify(law, k)
    with pytest.raises(ValueError):
        df.certify(df.diaconis_pair(), 2)


def test_certification_alarm_carries_details():
    law = df.polya((1, 1), 4)
    with pytest.raises(df.CertificationError) as err:
        df.certify(law, 2, tol=-1.0)  # impossible tolerance trips the alarm
    assert err.value.violations
    details = err.value.details
    assert details["certificate"]["n"] == 4
    assert "achieved" in details and "H1" in details


def test_certified_D_matches_oracle():
    for name, law in fixture_corpus():
        if law.n > 5:
            continue
        arr = orc.dense_from_law(law)
        for k in range(1, law.n):
            cert = df.certify(law, k)
            assert cert.D == pytest.approx(
                orc.certify_D_d(arr, k, cert.m_star), abs=1e-12
            ), (name, k)


def test_extendability_trend():
    # fixed mixture process truncated at n: D nonincreasing in n at fixed k
    k = 2
    values = []
    for n in range(k + 1, 13):
        cert = df.certify(df.iid_mixture(BERN_MIX, n), k)
        values.append(cert.D)
    for prev, nxt in zip(values, values[1:]):
        assert nxt <= prev + 1e-10
    assert values[-1] <= values[0]


def test_mixture_of_iids_recovers_zero_divergence():
    # laws that are k-marginals of iid mixtures: the optimizer initialized at
    # the true mixture returns essentially zero divergence
    law = df.iid_mixture(BERN_MIX, 6)
    target = df.densify(df.marginal(law, 2))
    comps = [np.asarray(d) for _, d in BERN_MIX]
    fit = df.fit_mixture_weights(target, comps, init_weights=[0.5, 0.5])
    assert fit.divergence <= 1e-10


def test_certificate_as_dict_order():
    law = df.polya((1, 1), 4)
    cert = df.certify(law, 2)
    assert tuple(cert.as_dict()) == df.Certificate.FIELDS
