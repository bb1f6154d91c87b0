"""Generator families: exact values, exchangeability, reproducibility."""

import math

import numpy as np
import pytest

import definetti as df

import oracle as orc
from corpus import BERN_MIX


def test_iid_mixture_single_component_is_iid():
    got = df.iid_mixture([(1.0, (0.2, 0.8))], 4)
    want = df.iid((0.2, 0.8), 4)
    for t in df.enumerate_types(2, 4):
        assert got.seq_prob(t) == pytest.approx(want.seq_prob(t), abs=1e-16)


def test_iid_mixture_frozen_value():
    law = df.iid_mixture(BERN_MIX, 4)
    assert law.seq_prob((4, 0)) == pytest.approx((0.7**4 + 0.3**4) / 2, abs=1e-16)


def test_iid_mixture_projectivity():
    law = df.iid_mixture(BERN_MIX, 6)
    short = df.iid_mixture(BERN_MIX, 3)
    got = df.marginal(law, 3)
    for t in df.enumerate_types(2, 3):
        assert got.seq_prob(t) == pytest.approx(short.seq_prob(t), abs=1e-15)


def test_iid_mixture_against_oracle():
    weights = [w for w, _ in BERN_MIX]
    dists = [d for _, d in BERN_MIX]
    law = df.iid_mixture(BERN_MIX, 5)
    dense = orc.dense_iid_mixture(weights, dists, 5)
    np.testing.assert_allclose(df.densify(law).probs, dense, atol=1e-15)


def test_iid_mixture_values_are_libm_pow_products_bit_for_bit():
    # q(T) = fsum_j w_j prod_a pow(c_j[a], T_a), with C library powers taken
    # one symbol at a time: the bytes must not depend on numpy's SIMD kernels
    rng = np.random.default_rng(5)
    for m, n, count in ((2, 30, 4), (3, 20, 3)):
        dists = [tuple(rng.dirichlet(np.ones(m)).tolist()) for _ in range(count)]
        weights = rng.dirichlet(np.ones(count)).tolist()
        weights[-1] = 1.0 - math.fsum(weights[:-1])
        law = df.iid_mixture(list(zip(weights, dists)), n)
        single = df.iid(dists[0], n)
        for t in df.enumerate_types(m, n):
            terms = [w * math.prod(math.pow(x, e) for x, e in zip(d, t))
                     for w, d in zip(weights, dists)]
            assert law.seq_prob(t) == math.fsum(terms), (m, n, t)
            assert single.seq_prob(t) == math.prod(math.pow(x, e) for x, e in zip(dists[0], t))


def test_iid_mixture_validation():
    with pytest.raises(ValueError):
        df.iid_mixture([], 3)
    with pytest.raises(ValueError):
        df.iid_mixture([(0.7, (0.5, 0.5)), (0.7, (0.1, 0.9))], 3)
    with pytest.raises(ValueError):
        df.iid_mixture([(1.0, (0.5, 0.6))], 3)


def test_polya_small_values():
    law = df.polya((1, 1), 2)
    assert law.seq_prob((1, 1)) == pytest.approx(1 / 6, abs=1e-16)
    assert law.seq_prob((2, 0)) == pytest.approx(1 / 3, abs=1e-16)
    law3 = df.polya((1, 1), 3)
    assert law3.seq_prob((1, 2)) == pytest.approx(1 / 12, abs=1e-16)

    single = df.polya((5,), 4)
    assert single.seq_prob((4,)) == 1.0


def test_polya_against_oracle():
    for counts, n in [((1, 1), 5), ((2, 1), 4), ((1, 2, 1), 4)]:
        law = df.polya(counts, n)
        np.testing.assert_allclose(
            df.densify(law).probs, orc.dense_polya(counts, n), atol=1e-15
        )


def test_polya_validation():
    with pytest.raises(ValueError):
        df.polya((0, 1), 3)
    with pytest.raises(ValueError):
        df.polya((), 3)


def test_urn_diaconis_pair():
    pair = df.diaconis_pair()
    assert pair.m == 2 and pair.n == 2
    assert pair.seq_prob((1, 1)) == 0.5
    assert pair.seq_prob((2, 0)) == 0.0
    assert pair.seq_prob((0, 2)) == 0.0


def test_urn_values_and_point_mass():
    law = df.urn_without_replacement((2, 2), 4)
    assert law.seq_prob((2, 2)) == pytest.approx(1 / 6, abs=1e-16)
    for t in df.enumerate_types(2, 4):
        if t != (2, 2):
            assert law.seq_prob(t) == 0.0

    point = df.urn_without_replacement((3, 0), 3)
    assert point.seq_prob((3, 0)) == 1.0


def test_urn_against_oracle():
    for counts, n in [((2, 2), 4), ((3, 2), 4), ((2, 2, 2), 5)]:
        law = df.urn_without_replacement(counts, n)
        np.testing.assert_allclose(
            df.densify(law).probs, orc.dense_urn(counts, n), atol=1e-15
        )


def test_urn_range_error():
    with pytest.raises(ValueError):
        df.urn_without_replacement((2, 1), 4)
    with pytest.raises(ValueError):
        df.urn_without_replacement((0, 0), 0)


def test_random_dirichlet_deterministic():
    a = df.random_dirichlet(123, 3, 5)
    b = df.random_dirichlet(123, 3, 5)
    assert a.q == b.q  # bit-for-bit
    c = df.random_dirichlet(124, 3, 5)
    assert a.q != c.q


def test_random_dirichlet_validation():
    with pytest.raises(ValueError):
        df.random_dirichlet(None, 2, 4)
    with pytest.raises(ValueError):
        df.random_dirichlet(1, 2, 4, concentration=0.0)


def test_random_dirichlet_invariants_over_seeds():
    for seed in range(25):
        law = df.random_dirichlet(seed, 2, 5, concentration=0.7)
        total = math.fsum(df.multiplicity(t) * p for t, p in law.q.items())
        assert abs(total - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in law.q.values())


def test_generators_are_exchangeable_as_dense_fixed_points():
    laws = [
        df.polya((1, 1), 5),
        df.urn_without_replacement((3, 2), 4),
        df.iid_mixture(BERN_MIX, 6),
        df.random_dirichlet(9, 3, 4),
    ]
    for law in laws:
        dense = df.densify(law)
        assert df.is_exchangeable(dense, tol=1e-13)
        again = df.symmetrize(dense)
        assert again.q == {t: p for t, p in law.q.items()}


def test_generator_spec_round_trip_and_build():
    specs = [
        df.GeneratorSpec(kind="polya", n=4, counts=(1, 1)),
        df.GeneratorSpec(kind="urn", n=3, counts=(2, 2)),
        df.GeneratorSpec(kind="diaconis_pair"),
        df.GeneratorSpec(kind="iid", n=3, components=((0.3, 0.7),)),
        df.GeneratorSpec(
            kind="iid_mixture", n=4, components=((0.7, 0.3), (0.3, 0.7)),
            weights=(0.5, 0.5),
        ),
        df.GeneratorSpec(kind="random_dirichlet", n=4, alphabet_size=2, seed=5),
    ]
    for spec in specs:
        law = spec.build()
        assert law.n >= 2
        assert df.GeneratorSpec.from_dict(spec.to_dict()) == spec


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        df.GeneratorSpec(kind="nope", n=3).build()
    with pytest.raises(ValueError):
        df.GeneratorSpec(kind="polya", n=3).build()
    with pytest.raises(ValueError):
        df.GeneratorSpec(kind="iid_mixture", n=3).build()
    with pytest.raises(ValueError):
        df.GeneratorSpec(kind="random_dirichlet", n=3, alphabet_size=2).build()
    with pytest.raises(ValueError):
        df.GeneratorSpec(kind="diaconis_pair", n=3).build()
    with pytest.raises(ValueError):
        df.GeneratorSpec(kind="polya").build()  # n missing
