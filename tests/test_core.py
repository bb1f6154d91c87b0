"""Type-class core: enumeration, symmetrization, marginals, conditionals, file IO."""

import math

import numpy as np
import pytest

import definetti as df
from definetti.core import FILE_NORM_TOL, MAX_LENGTH, MAX_TYPES, _rank, _type_table

import oracle as orc
from corpus import fixture_corpus


def test_enumerate_types_basics():
    assert df.enumerate_types(2, 0) == ((0, 0),)
    assert df.enumerate_types(2, 2) == ((0, 2), (1, 1), (2, 0))
    assert len(df.enumerate_types(3, 4)) == 15  # C(6, 2)
    ts = df.enumerate_types(3, 5)
    assert list(ts) == sorted(ts)
    assert all(sum(t) == 5 and len(t) == 3 for t in ts)


def test_enumerate_types_errors():
    with pytest.raises(ValueError):
        df.enumerate_types(0, 3)
    with pytest.raises(ValueError):
        df.enumerate_types(2, -1)
    assert math.comb(30 + 5 - 1, 5 - 1) <= MAX_TYPES  # m=5, n=30 stays supported
    with pytest.raises(ValueError, match="types"):
        df.enumerate_types(10, 30)  # C(39, 9) ~ 2.1e8 types


@pytest.mark.parametrize("m", range(1, 7))
def test_type_tables_match_enumeration(m):
    # every length with at most ~5k types, from L = 0 (one type of all zeros)
    length = 0
    while length <= MAX_LENGTH and math.comb(length + m - 1, m - 1) <= 5000:
        types = df.enumerate_types(m, length)
        longer = df.enumerate_types(m, length + 1)
        table = _type_table(m, length)
        assert table.counts.tolist() == [list(t) for t in types]
        assert table.mult.tolist() == [float(df.multiplicity(t)) for t in types]
        assert table.succ.shape == (len(types), m)
        for t, row in zip(types, table.succ.tolist()):
            assert [longer[i] for i in row] == [
                t[:a] + (t[a] + 1,) + t[a + 1 :] for a in range(m)
            ]
        assert _rank(np.array(types), length).tolist() == list(range(len(types)))
        assert not (table.counts.flags.writeable or table.mult.flags.writeable
                    or table.succ.flags.writeable)
        length += 1
    assert length > 1


def test_block_entropies_iid_and_oracle():
    p = (0.2, 0.5, 0.3)
    law = df.iid(p, 6)
    h1 = df.entropy(np.array(p))
    for length, h in enumerate(df.block_entropies(law)):
        assert h == pytest.approx(length * h1, abs=1e-13)
    law = df.polya((2, 1, 1), 5)
    arr = orc.dense_from_law(law)
    for length, h in enumerate(df.block_entropies(law)):
        assert h == pytest.approx(orc.entropy_d(orc.marginal_d(arr, length)), abs=1e-13)


def test_multiplicity_values():
    assert df.multiplicity((2, 0)) == 1
    assert df.multiplicity((1, 1)) == 2
    assert df.multiplicity((3, 2, 2)) == 210  # 7!/(3! 2! 2!)
    assert df.multiplicity((0, 0, 0)) == 1
    assert sum(df.multiplicity(t) for t in df.enumerate_types(2, 10)) == 2**10


def test_multiplicity_range_error():
    with pytest.raises(ValueError):
        df.multiplicity((-1, 2))
    with pytest.raises(ValueError):
        df.multiplicity((20, 11))  # L = 31 > supported range
    df.multiplicity((20, 10))  # L = 30 is fine


def test_law_constructor_validation():
    df.ExchangeableLaw(2, 2, {(0, 2): 0.5, (2, 0): 0.5})  # valid: masses sum to 1
    with pytest.raises(ValueError):
        df.ExchangeableLaw(2, 2, {(0, 2): 0.6, (2, 0): 0.6})
    with pytest.raises(ValueError):
        df.ExchangeableLaw(2, 2, {(0, 3): 1.0})
    with pytest.raises(ValueError):
        df.ExchangeableLaw(2, 2, {(1, 1): -0.1, (2, 0): 0.6, (0, 2): 0.6})


def test_symmetrize_point_mass():
    probs = np.zeros((2, 2))
    probs[0, 1] = 1.0
    law = df.symmetrize(df.GenericJoint(2, probs))
    assert law.seq_prob((1, 1)) == 0.5
    assert law.seq_prob((2, 0)) == 0.0
    assert law.seq_prob((0, 2)) == 0.0


def test_symmetrize_diaconis_pair():
    probs = np.zeros((2, 2))
    probs[0, 1] = probs[1, 0] = 0.5
    law = df.symmetrize(df.GenericJoint(2, probs))
    assert law.seq_prob((1, 1)) == 0.5
    assert law.seq_prob((2, 0)) == 0.0


def test_symmetrize_idempotent_exactly():
    rng = np.random.default_rng(42)
    for _ in range(20):
        arr = rng.random((2, 2, 2))
        arr /= arr.sum()
        once = df.symmetrize(df.GenericJoint(2, arr))
        twice = df.symmetrize(df.densify(once))
        assert once.q == twice.q  # bit-for-bit


def test_is_exchangeable():
    assert df.is_exchangeable(df.densify(df.iid((0.25, 0.75), 3)))
    point = np.zeros((2, 2))
    point[0, 1] = 1.0
    assert not df.is_exchangeable(df.GenericJoint(2, point))
    rng = np.random.default_rng(1)
    for _ in range(10):
        arr = rng.random((3, 3))
        arr /= arr.sum()
        sym = df.symmetrize(df.GenericJoint(3, arr))
        assert df.is_exchangeable(df.densify(sym), tol=1e-14)


def test_marginal_full_is_identity():
    law = df.polya((1, 1), 4)
    assert df.marginal(law, 4) is law


def test_marginal_iid_stays_product():
    law = df.iid((0.2, 0.8), 6)
    small = df.iid((0.2, 0.8), 3)
    got = df.marginal(law, 3)
    for t in df.enumerate_types(2, 3):
        assert got.seq_prob(t) == pytest.approx(small.seq_prob(t), abs=1e-15)


def test_marginal_urn_2_2():
    law = df.urn_without_replacement((2, 2), 4)
    got = df.marginal(law, 2)
    assert got.seq_prob((2, 0)) == pytest.approx(1 / 6, abs=1e-15)
    assert got.seq_prob((0, 2)) == pytest.approx(1 / 6, abs=1e-15)
    assert got.seq_prob((1, 1)) == pytest.approx(1 / 3, abs=1e-15)


def test_marginal_consistency_chain():
    for _, law in fixture_corpus():
        for k2 in range(law.n + 1):
            mid = df.marginal(law, k2)
            for k1 in range(k2 + 1):
                direct = df.marginal(law, k1)
                via = df.marginal(mid, k1)
                for t in df.enumerate_types(law.m, k1):
                    assert via.seq_prob(t) == pytest.approx(direct.seq_prob(t), abs=1e-13)


def test_marginal_bounds_checked():
    law = df.polya((1, 1), 3)
    with pytest.raises(ValueError):
        df.marginal(law, 4)
    with pytest.raises(ValueError):
        df.marginal(law, -1)


def test_block_joint_degenerate_and_product():
    law = df.polya((1, 1), 4)
    bj = df.block_joint(law, 0, 2)
    zero = (0, 0)
    marg = df.marginal(law, 2)
    for t in df.enumerate_types(2, 2):
        assert bj.joint[(zero, t)] == pytest.approx(marg.seq_prob(t), abs=1e-15)

    iid_law = df.iid((0.4, 0.6), 5)
    bj = df.block_joint(iid_law, 2, 2)
    pa = df.marginal(iid_law, 2)
    for (ta, tb), v in bj.joint.items():
        assert v == pytest.approx(pa.seq_prob(ta) * pa.seq_prob(tb), abs=1e-14)


def test_block_joint_polya_pair():
    law = df.polya((1, 1), 4)
    bj = df.block_joint(law, 1, 1)
    one, zero = (0, 1), (1, 0)
    assert bj.joint[(zero, zero)] == pytest.approx(1 / 3, abs=1e-15)
    assert bj.joint[(one, one)] == pytest.approx(1 / 3, abs=1e-15)
    assert bj.joint[(zero, one)] == pytest.approx(1 / 6, abs=1e-15)
    assert bj.joint[(one, zero)] == pytest.approx(1 / 6, abs=1e-15)


def test_block_joint_marginalizes_back():
    for _, law in fixture_corpus():
        n = law.n
        for a, b in [(1, 1), (2, 1), (1, 2), (2, n - 2)]:
            if a + b > n:
                continue
            bj = df.block_joint(law, a, b)
            marg_a = df.marginal(law, a)
            for ta in df.enumerate_types(law.m, a):
                row = math.fsum(
                    df.multiplicity(tb) * bj.joint[(ta, tb)]
                    for tb in df.enumerate_types(law.m, b)
                )
                assert row == pytest.approx(marg_a.seq_prob(ta), abs=1e-13)


def test_conditional_component_trivial_cases():
    law = df.polya((2, 3), 5)
    np.testing.assert_allclose(
        df.conditional_component(law, 0, (0, 0)),
        df.single_letter_marginal(law),
        atol=1e-15,
    )
    iid_law = df.iid((0.25, 0.75), 5)
    for w in df.enumerate_types(2, 3):
        np.testing.assert_allclose(
            df.conditional_component(iid_law, 3, w), [0.25, 0.75], atol=1e-14
        )


def test_conditional_component_polya_posterior():
    law = df.polya((1, 1), 4)
    np.testing.assert_allclose(
        df.conditional_component(law, 2, (0, 2)), [0.25, 0.75], atol=1e-15
    )


def test_conditional_component_zero_probability_errors():
    law = df.urn_without_replacement((2, 2), 4)
    with pytest.raises(df.UndefinedConditionalError):
        df.conditional_component(law, 3, (3, 0))  # only two 0-balls exist
    with pytest.raises(ValueError):
        df.conditional_component(law, 2, (3, 0))  # not a type of length 2


def test_conditional_block_polya_frozen():
    law = df.polya((1, 1), 4)
    got = df.conditional_block(law, 2, 1, (0, 1))
    expect = np.array([[1 / 6, 1 / 6], [1 / 6, 1 / 2]])
    np.testing.assert_allclose(got.probs, expect, atol=1e-15)


def test_conditional_block_iid_and_total_probability():
    iid_law = df.iid((0.3, 0.7), 5)
    got = df.conditional_block(iid_law, 2, 2, (1, 1))
    np.testing.assert_allclose(got.probs, df.densify(df.iid((0.3, 0.7), 2)).probs, atol=1e-14)

    for _, law in fixture_corpus()[:8]:
        k, b = 2, 2
        if k + b > law.n:
            continue
        mix = np.zeros((law.m,) * k)
        wmarg = df.marginal(law, b)
        for w in df.enumerate_types(law.m, b):
            pw = df.multiplicity(w) * wmarg.seq_prob(w)
            if pw <= 0.0:
                continue
            mix += pw * df.conditional_block(law, k, b, w).probs
        np.testing.assert_allclose(mix, df.densify(df.marginal(law, k)).probs, atol=1e-12)


def test_conditional_block_zero_probability_errors():
    law = df.urn_without_replacement((2, 2), 4)
    with pytest.raises(df.UndefinedConditionalError):
        df.conditional_block(law, 1, 3, (3, 0))


def test_densify_matches_oracle():
    for _, law in fixture_corpus():
        if law.n > 6:
            continue
        np.testing.assert_allclose(
            df.densify(law).probs, orc.dense_from_law(law), atol=0
        )


def test_generic_joint_validation():
    with pytest.raises(ValueError):
        df.GenericJoint(2, np.array([[0.5, 0.6], [0.5, 0.5]]))  # not normalized
    with pytest.raises(ValueError):
        df.GenericJoint(2, np.full((3, 3), 1 / 9))  # shape mismatch
    with pytest.raises(ValueError):
        df.GenericJoint(2, np.array([[-0.1, 0.6], [0.25, 0.25]]))


def test_law_file_roundtrip_and_zero_omission(tmp_path):
    law = df.urn_without_replacement((2, 2), 4)
    path = tmp_path / "law.json"
    df.save_law(law, path)
    text = path.read_text()
    import json

    entries = json.loads(text)["type_probs"]
    assert all(e["seq_prob"] != 0 for e in entries)  # zero types omitted
    assert len(entries) < len(df.enumerate_types(2, 4))
    again = df.load_law(path)
    assert again.m == law.m and again.n == law.n
    for t in df.enumerate_types(2, 4):
        assert again.seq_prob(t) == law.seq_prob(t)
    df.save_law(again, tmp_path / "law2.json")
    assert (tmp_path / "law2.json").read_text() == text


def test_law_file_rejects_bad_input(tmp_path):
    with pytest.raises(df.LawFormatError):
        df.law_from_json_text("{not json")
    with pytest.raises(df.LawFormatError):
        df.law_from_json_text('{"alphabet_size": 2, "n": 2}')
    with pytest.raises(df.LawFormatError):
        df.law_from_json_text(
            '{"alphabet_size": 2, "n": 2, "type_probs": ['
            '{"counts": [1, 1], "seq_prob": 0.25},'
            '{"counts": [1, 1], "seq_prob": 0.25}]}'
        )
    # off normalization by more than the file tolerance
    bad = (
        '{"alphabet_size": 2, "n": 1, "type_probs": ['
        f'{{"counts": [1, 0], "seq_prob": 0.5}},'
        f'{{"counts": [0, 1], "seq_prob": {0.5 + 10 * FILE_NORM_TOL}}}]}}'
    )
    with pytest.raises(df.LawFormatError):
        df.law_from_json_text(bad)


def test_all_generated_laws_normalized():
    for name, law in fixture_corpus():
        total = math.fsum(df.multiplicity(t) * p for t, p in law.q.items())
        assert abs(total - 1.0) <= 1e-12, name
        assert all(p >= 0.0 for p in law.q.values()), name
