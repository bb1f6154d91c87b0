"""Acceptance gate: each criterion at its stated tolerance, one line per criterion.

The corpus is 100 random-Dirichlet seeds x m in {2,3} x n in {4..8} plus all
named Polya/urn/mixture fixtures (1016 laws).  Laws are shared across
criteria through module-scoped fixtures, so derived tables are computed once.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import definetti as df
from definetti.core import _type_index

import oracle as orc
from corpus import BERN_MIX, dirichlet_corpus, fixture_corpus

SLACK = 1e-9


def report(line):
    print(f"\n{line}", flush=True)


@pytest.fixture(scope="module")
def corpus():
    return fixture_corpus() + dirichlet_corpus(range(100))


@pytest.fixture(scope="module")
def certified(corpus):
    t0 = time.time()
    rows = []
    for name, law in corpus:
        for k in range(1, law.n):
            rows.append((name, law, k, df.certify(law, k)))
    return rows, time.time() - t0


def test_criterion_1_bound_chain(corpus, certified):
    rows, elapsed = certified
    assert len(corpus) >= 500
    for name, law, k, cert in rows:
        assert cert.D <= cert.thm_bound + SLACK, (name, k)
        assert cert.thm_bound <= cert.cor_bound_H + SLACK, (name, k)
        assert cert.cor_bound_H <= cert.cor_bound_logA + SLACK, (name, k)
    report(
        f"CRITERION 1: PASS - bound chain certified for {len(rows)} (law, k) "
        f"pairs over {len(corpus)} laws in {elapsed:.1f}s"
    )


def test_criterion_2_lemma_identities(corpus):
    rng = np.random.default_rng(2024)
    worst1 = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 4))
        length = int(rng.integers(2, 5))
        arr = rng.random((m,) * length)
        arr /= arr.sum()
        total, terms = df.lemma1_decomposition(df.GenericJoint(m, arr))
        worst1 = max(worst1, abs(total - math.fsum(terms)))
    assert worst1 <= 1e-11

    worst2 = 0.0
    for name, law in corpus:
        for k in range(1, law.n):
            for i in range(1, k + 1):
                lhs, rhs = df.lemma2_check(law, i, k)
                worst2 = max(worst2, abs(lhs - rhs))
    assert worst2 <= 1e-10
    report(
        "CRITERION 2: PASS - chain decomposition residual "
        f"{worst1:.2e} on 200 random joints; tail identity residual "
        f"{worst2:.2e} on the exchangeable corpus"
    )


def _dense_block(bj):
    _, idx_a = _type_index(bj.m, bj.a)
    _, idx_b = _type_index(bj.m, bj.b)
    types_a = df.enumerate_types(bj.m, bj.a)
    types_b = df.enumerate_types(bj.m, bj.b)
    vals = np.array([[bj.joint[(ta, tb)] for tb in types_b] for ta in types_a])
    return vals[np.ix_(idx_a, idx_b)]


def _type_representatives(w):
    seq = []
    for sym, cnt in enumerate(w):
        seq.extend([sym] * cnt)
    return (tuple(seq), tuple(reversed(seq)))


def test_criterion_3_oracle_equivalence(corpus):
    t0 = time.time()
    checked = 0
    worst = 0.0

    def track(delta):
        nonlocal worst
        worst = max(worst, abs(delta))

    for name, law in corpus:
        if law.n > 6 or law.m > 3:
            continue
        checked += 1
        arr = orc.dense_from_law(law)
        n, m = law.n, law.m
        for k in range(n + 1):
            track(np.max(np.abs(df.densify(df.marginal(law, k)).probs - orc.marginal_d(arr, k))))
        for a in range(n + 1):
            for b in range(n + 1 - a):
                track(np.max(np.abs(_dense_block(df.block_joint(law, a, b)) - orc.block_joint_d(arr, a, b))))
        for c in range(n):
            marg_c = df.marginal(law, c)
            for w in df.enumerate_types(m, c):
                if marg_c.seq_prob(w) <= 0.0:
                    continue
                for wseq in _type_representatives(w):
                    track(np.max(np.abs(
                        df.conditional_component(law, c, w)
                        - orc.conditional_component_d(arr, c, wseq)
                    )))
                    if 2 + c <= n:
                        track(np.max(np.abs(
                            df.conditional_block(law, 2, c, w).probs
                            - orc.conditional_block_d(arr, 2, c, wseq)
                        )))
        for c in range(n):
            for i in range(1, n - c + 1):
                track(df.conditional_mutual_information(law, i, c) - orc.cmi_d(arr, i, c))
        for k in range(1, n):
            for i in range(1, k + 1):
                track(df.tail_mi(law, i, k) - orc.mi_blocks_d(arr, i - 1, n - k + 1))
            m_star, value = df.select_mstar(law, k)
            d_star, d_value = orc.select_mstar_d(arr, k)
            assert m_star == d_star or abs(
                orc.cond_mi_sum_d(arr, k, m_star) - d_value
            ) <= 1e-12, (name, k)
            track(value - d_value)
            cert = df.certify(law, k)
            mu = df.build_mixing_measure(law, k, cert.m_star)
            # the per-sequence mixture values certify uses: Q_T / mult(T)
            _, masses = df.bounds._type_masses(law, mu, k)
            types, idx = _type_index(m, k)
            per_seq = masses / np.array([df.multiplicity(t) for t in types], dtype=float)
            track(np.max(np.abs(
                per_seq[idx].reshape((m,) * k) - orc.mixture_d(arr, k, cert.m_star)
            )))
            track(cert.D - orc.certify_D_d(arr, k, cert.m_star))
    assert checked >= 500
    assert worst <= 1e-12
    report(
        f"CRITERION 3: PASS - {checked} laws (n <= 6) match the dense oracle; "
        f"worst deviation {worst:.2e} in {time.time() - t0:.1f}s"
    )


def test_criterion_4_trivial_exactness(corpus, certified):
    rows, _ = certified
    for name, law, k, cert in rows:
        if k == 1:
            assert cert.D <= 1e-12, name
    count = 0
    for m, n in itertools.product((2, 3), range(4, 9)):
        dists = [(0.3, 0.7), (0.7, 0.3)] if m == 2 else [(0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3)]
        for dist in dists:
            law = df.iid(dist, n)
            for k in range(1, n):
                cert = df.certify(law, k)
                assert cert.D <= 1e-12
                assert cert.thm_bound <= 1e-12
                count += 1
    report(
        "CRITERION 4: PASS - k=1 exact on the whole corpus; "
        f"{count} i.i.d. certificates with D and thm_bound <= 1e-12"
    )


def test_criterion_5_pinsker(certified):
    rows, _ = certified
    for name, law, k, cert in rows:
        assert cert.pinsker_tv == math.sqrt(cert.thm_bound / 2.0)
        assert cert.tv <= cert.pinsker_tv + SLACK, (name, k)
    report(f"CRITERION 5: PASS - tv <= sqrt(thm_bound/2) + 1e-9 on {len(rows)} certificates")


def test_criterion_6_scaling_reproduction():
    k = 2
    ds = []
    for n in (4, 6, 8, 10, 12):
        cert = df.certify(df.iid_mixture(BERN_MIX, n), k)
        ds.append(cert.D)
        formula = k * (k - 1) / (2.0 * (n - k + 1)) * math.log(2)
        assert abs(cert.cor_bound_logA - formula) <= 1e-15
    assert all(b < a for a, b in zip(ds, ds[1:]))
    report(
        "CRITERION 6: PASS - D strictly decreasing over n in {4,6,8,10,12}: "
        + ", ".join(f"{d:.6f}" for d in ds)
    )


def test_criterion_7_optimizer_contract(corpus):
    t0 = time.time()
    gap_max = 0.0
    for name, law in corpus:
        cert, fit = df.improve_certificate(law, 2, grid_resolution=6)
        for prev, nxt in zip(fit.trace, fit.trace[1:]):
            assert nxt <= prev, name
        assert fit.divergence <= cert.D + SLACK, name
        assert fit.converged == (fit.gap <= 1e-12), name
        assert fit.gap <= 1e-7, name
        gap_max = max(gap_max, fit.gap)

    law = df.polya((1, 1), 6)
    target = df.marginal(law, 2)
    grid = df.component_grid(2, 10)
    finals = []
    for seed in range(10):
        w0 = np.random.default_rng(seed).dirichlet(np.ones(len(grid)))
        finals.append(df.fit_mixture_weights(target, grid, init_weights=w0).divergence)
    spread = max(finals) - min(finals)
    assert spread <= 1e-7
    report(
        f"CRITERION 7: PASS - monotone descent and feasible-start domination on "
        f"{len(corpus)} laws, largest gap {gap_max:.2e}; multi-start spread "
        f"{spread:.2e} ({time.time() - t0:.1f}s)"
    )


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "definetti", *args], capture_output=True, text=True
    )


def test_criterion_8_cli_determinism(tmp_path):
    law_path = str(tmp_path / "law.json")
    df.save_law(df.polya((1, 1), 6), law_path)
    commands = [
        ["generate", "--kind", "random_dirichlet", "--alphabet-size", "3",
         "--n", "5", "--seed", "11"],
        ["certify", "--law", law_path, "--k", "2", "--format", "csv"],
        ["compare", "--law", law_path, "--k", "3"],
        ["sweep", "--kind", "iid_mixture", "--components", "0.7,0.3;0.3,0.7",
         "--weights", "0.5,0.5", "--n", "5..8", "--k", "2,3"],
        ["optimize", "--law", law_path, "--k", "2", "--grid-resolution", "5"],
        ["search", "--alphabet-size", "2", "--n", "4", "--k", "2", "--seed", "3",
         "--restarts", "3", "--steps", "10"],
    ]
    for args in commands:
        first = _run_cli(args)
        second = _run_cli(args)
        assert first.returncode == 0, (args, first.stderr)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, args

    # every sweep row is byte-identical to certifying that cell on its own
    swept = _run_cli(commands[3]).stdout.splitlines()
    mix_flags = commands[3][1:7]  # --kind, --components and --weights
    lines = []
    for n in range(5, 9):
        path = str(tmp_path / f"mix{n}.json")
        gen = _run_cli(["generate", *mix_flags, "--n", str(n), "-o", path])
        assert gen.returncode == 0, gen.stderr
        for k in (2, 3):
            one = _run_cli(["certify", "--law", path, "--k", str(k), "--format", "csv"])
            assert one.returncode == 0, one.stderr
            header, row = one.stdout.splitlines()
            lines.append(row)
    assert swept == [header] + lines
    report(
        f"CRITERION 8: PASS - {len(commands)} commands byte-identical on rerun; "
        f"{len(lines)} sweep rows identical to per-cell certify --format csv"
    )


def test_criterion_9_diaconis_boundary(tmp_path):
    pair = df.diaconis_pair()
    with pytest.raises(ValueError):
        df.certify(pair, 2)
    law_path = str(tmp_path / "pair.json")
    df.save_law(pair, law_path)
    result = _run_cli(["certify", "--law", law_path, "--k", "2"])
    assert result.returncode == 2
    assert "k must satisfy" in result.stderr

    fit = df.fit_mixture_weights(pair, df.component_grid(2, 100))
    assert fit.divergence >= math.log(2) - 1e-12  # strictly positive floor
    assert fit.divergence == pytest.approx(math.log(2), abs=1e-12)
    assert fit.converged
    report(
        "CRITERION 9: PASS - pair rejected at k=2 (exit 2); best grid-mixture "
        f"divergence {fit.divergence:.9f} stays above the positive floor"
    )
