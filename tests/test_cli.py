"""CLI contract: exit codes, formats, determinism, round trips."""

import json
import math
import subprocess
import sys
import time

import pytest

import definetti as df
from definetti.cli import (
    certificate_csv,
    main,
    parse_certificate_csv,
)


def run_inproc(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(args):
    return subprocess.run(
        [sys.executable, "-m", "definetti", *args], capture_output=True, text=True
    )


@pytest.fixture
def polya_law_path(tmp_path):
    path = tmp_path / "polya.json"
    df.save_law(df.polya((1, 1), 6), path)
    return str(path)


def test_generate_writes_valid_law(tmp_path, capsys):
    out = tmp_path / "law.json"
    code, _, _ = run_inproc(
        ["generate", "--kind", "polya", "--counts", "1,1", "--n", "6", "-o", str(out)],
        capsys,
    )
    assert code == 0
    law = df.load_law(out)
    assert law.n == 6 and law.m == 2


def test_generate_diaconis_pair(capsys):
    code, out, _ = run_inproc(["generate", "--kind", "diaconis_pair"], capsys)
    assert code == 0
    law = df.law_from_json_text(out)
    assert law.seq_prob((1, 1)) == 0.5
    assert law.seq_prob((2, 0)) == 0.0


def test_generate_deterministic_bytes(tmp_path, capsys):
    args = [
        "generate", "--kind", "random_dirichlet", "--alphabet-size", "3",
        "--n", "5", "--seed", "11",
    ]
    code1, out1, _ = run_inproc(args, capsys)
    code2, out2, _ = run_inproc(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_invalid_spec_exits_2(capsys):
    code, out, err = run_inproc(["generate", "--kind", "polya", "--n", "4"], capsys)
    assert code == 2
    assert not out
    assert "error" in err


def test_certify_json_fields_and_exit_zero(polya_law_path, capsys):
    code, out, _ = run_inproc(
        ["certify", "--law", polya_law_path, "--k", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["k"] == 2
    assert payload["D"] <= payload["thm_bound"] + 1e-9


def test_certify_iid_small_divergence(tmp_path, capsys):
    path = tmp_path / "iid.json"
    df.save_law(df.iid((0.3, 0.7), 6), path)
    code, out, _ = run_inproc(["certify", "--law", str(path), "--k", "2"], capsys)
    assert code == 0
    assert json.loads(out)["D"] <= 1e-12


def test_certify_k_equal_n_exits_2(polya_law_path, capsys):
    code, _, err = run_inproc(["certify", "--law", polya_law_path, "--k", "6"], capsys)
    assert code == 2
    assert "k must satisfy" in err


def test_certify_missing_file_exits_2(capsys):
    code, _, err = run_inproc(["certify", "--law", "/nonexistent.json", "--k", "2"], capsys)
    assert code == 2
    assert err


def test_certify_csv_frozen_regression(polya_law_path, capsys):
    code, out, _ = run_inproc(
        ["certify", "--law", polya_law_path, "--k", "2", "--format", "csv"], capsys
    )
    assert code == 0
    # frozen from the first certified run (oracle-verified); the D and tv cells
    # were re-frozen when D and tv moved to sums over k-types, and the thm_bound
    # and pinsker_tv cells when the tail informations moved to block entropies
    # (each within 2e-15 of a 50-digit reference, see test_bounds)
    assert out == (
        "n,k,m_star,D,thm_bound,cor_bound_H,cor_bound_logA,tv,pinsker_tv,"
        "df_tv_ref,first_bound,second_rate,atom_count\n"
        "6,2,6,0.0066240247173338165,0.025876502007046453,0.13862943611198905,"
        "0.13862943611198905,0.05555555555555558,0.11374643292658995,"
        "0.16666666666666666,8.9587973461402743,0.99270826523090128,5\n"
    )


def test_sweep_csv_frozen_regression(capsys):
    code, out, _ = run_inproc(
        ["sweep", "--kind", "random_dirichlet", "--alphabet-size", "3",
         "--seed", "0", "--n", "9", "--k", "2..6"],
        capsys,
    )
    assert code == 0
    # frozen from the per-conditioning-type CMI implementation; its m_star
    # values lie strictly inside the endpoint range.  The D and tv cells were
    # re-frozen when they moved to sums over k-types, and the thm_bound and
    # pinsker_tv cells when the tail informations moved to block entropies
    # (each within 2e-15 of a 50-digit reference, see test_bounds); every other
    # cell is unchanged.
    assert out == (
        "n,k,m_star,D,thm_bound,cor_bound_H,cor_bound_logA,tv,pinsker_tv,df_tv_ref,first_bound,second_rate,atom_count\n"
        "9,2,6,0.0085991323399319738,0.057056599996449686,0.13654572195224529,0.13732653608351372,0.06445582275731998,0.16890322672531996,0.1111111111111111,,1.2280740519185027,15\n"
        "9,3,7,0.018853979484417086,0.13734108632550615,0.46815676097912667,0.47083383800061845,0.078374846071392973,0.26205064999490668,0.33333333333333331,,1.0986122886681098,15\n"
        "9,4,7,0.047565570601898359,0.24681550721589032,1.0923657756179623,1.0986122886681098,0.12370279533717352,0.35129439734778745,0.66666666666666663,,0.93638155725299765,10\n"
        "9,5,8,0.070090500044223944,0.39475160088206185,2.1847315512359247,2.1972245773362196,0.15248723940851294,0.44426996346932002,1.1111111111111112,,0.75882932142956894,10\n"
        "9,6,8,0.16254114942762032,0.59643893548582161,4.0963716585673584,4.1197960825054114,0.22517900595918389,0.54609474246041845,1.6666666666666667,,0.57341425495563925,6\n"
    )


def test_certify_oversized_law_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "alphabet_size": 10, "n": 30,
        "type_probs": [{"counts": [30] + [0] * 9, "seq_prob": 1.0}],
    }))
    code, out, err = run_inproc(["certify", "--law", str(path), "--k", "2"], capsys)
    assert code == 2
    assert not out
    assert "types" in err


def test_generate_oversized_exits_2_quickly(capsys):
    t0 = time.monotonic()
    code, out, err = run_inproc(
        ["generate", "--kind", "random_dirichlet", "--alphabet-size", "10",
         "--n", "30", "--seed", "0"],
        capsys,
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert not out
    assert "types" in err


def test_certify_largest_k_at_n30_exits_0(tmp_path, capsys):
    path = tmp_path / "binary30.json"
    df.save_law(df.random_dirichlet(0, 2, 30), path)
    code, out, _ = run_inproc(["certify", "--law", str(path), "--k", "29"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 29 and payload["D"] <= payload["thm_bound"]


def test_certify_m4_n30_mid_k_exits_0(tmp_path, capsys):
    path = tmp_path / "quaternary30.json"
    df.save_law(df.random_dirichlet(0, 4, 30), path)
    code, out, _ = run_inproc(["certify", "--law", str(path), "--k", "15"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 15 and payload["D"] <= payload["thm_bound"]


def test_certify_bits_conversion(polya_law_path, capsys):
    _, out_nats, _ = run_inproc(["certify", "--law", polya_law_path, "--k", "2"], capsys)
    _, out_bits, _ = run_inproc(
        ["certify", "--law", polya_law_path, "--k", "2", "--bits"], capsys
    )
    nats = json.loads(out_nats)
    bits = json.loads(out_bits)
    assert bits["D"] == pytest.approx(nats["D"] / math.log(2), rel=1e-15)
    assert bits["tv"] == nats["tv"]  # total variation is unitless


def test_compare_lists_all_bounds(polya_law_path, capsys):
    code, out, _ = run_inproc(["compare", "--law", polya_law_path, "--k", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value,note"
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"D", "thm_bound", "cor_bound_logA", "first_bound", "df_tv_ref"} <= names
    code, out, _ = run_inproc(
        ["compare", "--law", polya_law_path, "--k", "2", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert payload["units"] == "nats"
    assert payload["bounds"]["second_rate"]["note"].endswith("rate only")


def test_sweep_csv_and_trend(capsys):
    code, out, _ = run_inproc(
        [
            "sweep", "--kind", "iid_mixture",
            "--components", "0.7,0.3;0.3,0.7", "--weights", "0.5,0.5",
            "--n", "4..12", "--k", "2",
        ],
        capsys,
    )
    assert code == 0
    rows = parse_certificate_csv(out)
    assert [row["n"] for row in rows] == list(range(4, 13))
    ds = [row["D"] for row in rows]
    assert all(b < a for a, b in zip(ds, ds[1:]))  # extendability trend
    # byte-identical round trip
    assert certificate_csv(rows) == out


def test_sweep_law_file_mode(polya_law_path, capsys):
    code, out, _ = run_inproc(
        ["sweep", "--law", polya_law_path, "--k", "1..5"], capsys
    )
    assert code == 0
    rows = parse_certificate_csv(out)
    assert [row["k"] for row in rows] == [1, 2, 3, 4, 5]


def test_sweep_invalid_cells_exit_2(capsys):
    code, _, err = run_inproc(
        ["sweep", "--kind", "polya", "--counts", "1,1", "--n", "4..6", "--k", "5"],
        capsys,
    )
    assert code == 2
    assert "violates" in err
    code, _, err = run_inproc(
        ["sweep", "--kind", "polya", "--counts", "1,1", "--n", "6..4", "--k", "2"],
        capsys,
    )
    assert code == 2


def test_sweep_json_format(capsys):
    code, out, _ = run_inproc(
        ["sweep", "--kind", "polya", "--counts", "1,1", "--n", "4,5", "--k", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


def test_optimize_iid_and_flags(tmp_path, capsys):
    path = tmp_path / "iid.json"
    df.save_law(df.iid((0.3, 0.7), 6), path)
    code, out, _ = run_inproc(
        ["optimize", "--law", str(path), "--k", "2", "--grid-resolution", "5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["divergence"] <= 1e-10
    assert payload["fit"]["converged"] is True
    assert payload["certificate"]["D"] <= 1e-12

    code, _, err = run_inproc(
        ["optimize", "--law", str(path), "--k", "2", "--grid-resolution", "0"], capsys
    )
    assert code == 2
    assert "grid-resolution" in err


def test_optimize_rejects_pair_at_k2(tmp_path, capsys):
    path = tmp_path / "pair.json"
    df.save_law(df.diaconis_pair(), path)
    code, _, err = run_inproc(["optimize", "--law", str(path), "--k", "2"], capsys)
    assert code == 2
    assert "k must satisfy" in err


def test_optimize_rejects_bad_stop_rule(polya_law_path, capsys):
    for flags, message in ((["--max-iter", "-5"], "max_iter"), (["--tol", "nan"], "NaN")):
        code, out, err = run_inproc(
            ["optimize", "--law", polya_law_path, "--k", "2", *flags], capsys
        )
        assert code == 2, flags
        assert out == ""
        assert message in err
    code, out, _ = run_inproc(
        ["optimize", "--law", polya_law_path, "--k", "2", "--max-iter", "0"], capsys
    )
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["iterations"] == 0 and fit["converged"] is (fit["gap"] <= 1e-12)


def test_optimize_atoms_only_matches_certify(polya_law_path, capsys):
    code, out, _ = run_inproc(
        ["optimize", "--law", polya_law_path, "--k", "2", "--atoms-only"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["divergence"] <= payload["certificate"]["D"] + 1e-9


def test_search_report(capsys):
    args = [
        "search", "--alphabet-size", "2", "--n", "4", "--k", "2",
        "--seed", "3", "--restarts", "3", "--steps", "10",
    ]
    code, out, _ = run_inproc(args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["best_ratio"] <= 1.0 + 1e-9
    law = df.law_from_dict(payload["law"])
    assert law.n == 4
    code2, out2, _ = run_inproc(args, capsys)
    assert out2 == out


def test_cli_process_determinism(tmp_path):
    # a law-file sweep's rows are byte-identical to per-cell certify rows
    path = str(tmp_path / "polya.json")
    df.save_law(df.polya((1, 1), 6), path)
    swept = run_proc(["sweep", "--law", path, "--k", "1..5"])
    assert swept.returncode == 0, swept.stderr
    lines = []
    for k in range(1, 6):
        one = run_proc(["certify", "--law", path, "--k", str(k), "--format", "csv"])
        assert one.returncode == 0, one.stderr
        header, row = one.stdout.splitlines()
        lines.append(row)
    assert swept.stdout.splitlines() == [header] + lines

    gen_args = ["generate", "--kind", "random_dirichlet", "--alphabet-size", "2",
                "--n", "5", "--seed", "4"]
    a = run_proc(gen_args)
    b = run_proc(gen_args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_usage_error_exits_2():
    result = run_proc(["certify", "--k", "2"])  # missing --law
    assert result.returncode == 2
