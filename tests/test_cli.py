"""CLI contract: exit codes, formats, determinism, round trips."""

import json
import math
import os
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


def run_proc(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "definetti", *args],
        capture_output=True,
        text=True,
        env=env,
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
    # frozen from the first certified run (oracle-verified)
    assert out == (
        "n,k,m_star,D,thm_bound,cor_bound_H,cor_bound_logA,tv,pinsker_tv,"
        "df_tv_ref,first_bound,second_rate,atom_count\n"
        "6,2,6,0.0066240247173337749,0.025876502007046491,0.13862943611198905,"
        "0.13862943611198905,0.055555555555555608,0.11374643292659004,"
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
    # values lie strictly inside the endpoint range
    assert out == (
        "n,k,m_star,D,thm_bound,cor_bound_H,cor_bound_logA,tv,pinsker_tv,df_tv_ref,first_bound,second_rate,atom_count\n"
        "9,2,6,0.0085991323399320363,0.057056599996449693,0.13654572195224529,0.13732653608351372,0.064455822757320008,0.16890322672531999,0.1111111111111111,,1.2280740519185027,15\n"
        "9,3,7,0.018853979484417187,0.13734108632550587,0.46815676097912667,0.47083383800061845,0.078374846071392959,0.2620506499949064,0.33333333333333331,,1.0986122886681098,15\n"
        "9,4,7,0.047565570601898435,0.24681550721589018,1.0923657756179623,1.0986122886681098,0.12370279533717352,0.35129439734778733,0.66666666666666663,,0.93638155725299765,10\n"
        "9,5,8,0.070090500044224055,0.39475160088206185,2.1847315512359247,2.1972245773362196,0.15248723940851294,0.44426996346932002,1.1111111111111112,,0.75882932142956894,10\n"
        "9,6,8,0.1625411494276203,0.59643893548582183,4.0963716585673584,4.1197960825054114,0.22517900595918389,0.54609474246041856,1.6666666666666667,,0.57341425495563925,6\n"
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


def test_cli_process_determinism_and_threads(tmp_path):
    sweep_args = [
        "sweep", "--kind", "iid_mixture",
        "--components", "0.7,0.3;0.3,0.7", "--weights", "0.5,0.5",
        "--n", "5..8", "--k", "2,3",
    ]
    serial = run_proc(sweep_args, {"DEFINETTI_THREADS": "1"})
    parallel = run_proc(sweep_args, {"DEFINETTI_THREADS": "8"})
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout

    gen_args = ["generate", "--kind", "random_dirichlet", "--alphabet-size", "2",
                "--n", "5", "--seed", "4"]
    a = run_proc(gen_args)
    b = run_proc(gen_args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_usage_error_exits_2():
    result = run_proc(["certify", "--k", "2"])  # missing --law
    assert result.returncode == 2
