"""CLI contract: exit codes, formats, determinism, round trips."""

import json
import math
import subprocess
import sys
import time

import pytest

import definetti as df
from definetti import cli
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


@pytest.mark.parametrize(
    "m, ns, ks, expected",
    [
        (4, "8..10", "1..6", (
        "n,k,m_star,D,thm_bound,cor_bound_H,cor_bound_logA,tv,pinsker_tv,df_tv_ref,first_bound,second_rate,atom_count\n"
        "8,1,1,0,0,0,0,0,0,0,,1.2364433382989439,1\n"
        "8,2,5,0.016183462820525657,0.067492521386227258,0.19801848646065059,0.19804205158855578,0.085712326808604716,0.18370155332253899,0.125,,1.1657299587521543,20\n"
        "8,3,6,0.038594255877902099,0.15565102155753116,0.69306470261227715,0.69314718055994529,0.091746666770191873,0.27897224015798699,0.375,,1.0101399345682576,20\n"
        "8,4,6,0.098372495096718901,0.27074082640421127,1.6633552862694652,1.6635532333438687,0.1745046936548113,0.36792718464677987,0.75,,0.82429555886596273,10\n"
        "8,5,7,0.14867097573072061,0.42614174855638776,3.465323513061386,3.4657359027997265,0.20371695653959765,0.46159600764975628,1.25,,0.62490459324171233,10\n"
        "8,6,7,0.33526763715480928,0.6381646833080864,6.9306470261227719,6.9314718055994531,0.29034614477627929,0.56487373956844833,1.875,,0.41900183712914901,4\n"
        "9,1,1,0,0,0,0,0,0,0,,1.268568201195128,1\n"
        "9,2,6,0.010785842950648029,0.054031812733432355,0.17311977695717515,0.17328679513998632,0.069666113882355718,0.16436516165756104,0.1111111111111111,,1.2280740519185027,35\n"
        "9,3,6,0.037366406323709897,0.12481048969740047,0.59355352099602909,0.59412615476566732,0.099785669829357104,0.24981041781459043,0.33333333333333331,,1.0986122886681098,20\n"
        "9,4,7,0.06483840746666647,0.22005243728405663,1.3849582156574012,1.3862943611198906,0.1514209962269871,0.3317020027706018,0.66666666666666663,,0.93638155725299765,20\n"
        "9,5,7,0.14267495686396098,0.34683147950725746,2.7699164313148024,2.7725887222397811,0.21072820096276521,0.41643215504284575,1.1111111111111112,,0.75882932142956894,10\n"
        "9,6,8,0.19993218128484871,0.51428166458459135,5.1935933087152542,5.1986038541995896,0.2388142105390699,0.50709055630360111,1.6666666666666667,,0.57341425495563925,10\n"
        "10,1,1,0,0,0,0,0,0,0,,1.2948387525578149,1\n"
        "10,2,7,0.0079654249614260972,0.046555192706346164,0.15385963067962866,0.15403270679109896,0.059842792001556198,0.15256997199047093,0.10000000000000001,,1.2799388615267875,56\n"
        "10,3,7,0.027057010896076573,0.10536985740020571,0.51927625354374674,0.51986038541995894,0.082403783389790444,0.22953197751098398,0.29999999999999999,,1.1726740220076326,35\n"
        "10,4,8,0.046959945541820508,0.18483994252880423,1.1869171509571352,1.1882523095313346,0.12926165493169683,0.30400653161470415,0.59999999999999998,,1.0305362888434944,35\n"
        "10,5,8,0.097133240893950784,0.2897326103158695,2.3078944601944302,2.3104906018664844,0.17707842546832792,0.38061306488077201,1,,0.87158643652654877,20\n"
        "10,6,9,0.13552670789822543,0.42482168776747919,4.1542100283499739,4.1588830833596715,0.19859911194643143,0.46088050933375302,1.5,,0.70363640196352817,20\n"
        )),
        (6, "6..8", "1..5", (
        "n,k,m_star,D,thm_bound,cor_bound_H,cor_bound_logA,tv,pinsker_tv,df_tv_ref,first_bound,second_rate,atom_count\n"
        "6,1,1,0,0,0,0,0,0,0,,1.1448323573312271,1\n"
        "6,2,3,0.031064041065303982,0.090210373480976977,0.35824611363872266,0.358351893845611,0.10169612449903373,0.21237981716841289,0.16666666666666666,,0.99270826523090128,6\n"
        "6,3,4,0.087056675304653289,0.19657096905242177,1.3434229261452098,1.3438196019210413,0.16322490153441005,0.3135051586915451,0.5,,0.76709345241694571,6\n"
        "6,4,4,0.24896556075447962,0.34098974649202685,3.5824611363872263,3.5835189384561099,0.25365875476389205,0.41291024841485036,1,,0.51813826967636212,1\n"
        "6,5,5,0.43891434478697361,0.55277638033895116,8.9561528409680662,8.9587973461402743,0.33707495058849646,0.52572634532566043,1.6666666666666667,,0.26048649379433586,1\n"
        "7,1,1,0,0,0,0,0,0,0,,1.1963225063468355,1\n"
        "7,2,4,0.021406656511744761,0.075657362289639818,0.29845635569308526,0.29862657820467581,0.085137758214653358,0.19449596691145013,0.14285714285714285,,1.0892044200094042,21\n"
        "7,3,5,0.058178298860234012,0.16249662806935405,1.0744428804951069,1.0750556815368328,0.14037255904435283,0.28504089888062911,0.42857142857142855,,0.90224031127266913,21\n"
        "7,4,5,0.15069955937415025,0.27817398119766162,2.6861072012377676,2.6876392038420827,0.20703652096543138,0.3729436828783011,0.8571428571428571,,0.68809031325436987,6\n"
        "7,5,6,0.24369302899900974,0.43787070034471759,5.9691271138617061,5.9725315640935168,0.26321122190278767,0.46790527906015206,1.4285714285714286,,0.46255110970067931,6\n"
        "8,1,1,0,0,0,0,0,0,0,,1.2364433382989439,1\n"
        "8,2,5,0.017524767173066565,0.06964291937166199,0.25589012176155207,0.25596563846115067,0.078993909195357842,0.18660509019271418,0.125,,1.1657299587521543,56\n"
        "8,3,6,0.046069671948521927,0.15035796398730358,0.89561542616543222,0.89587973461402748,0.12721939246129174,0.27418785894647452,0.375,,1.0101399345682576,56\n"
        "8,4,6,0.11115393097435754,0.25609645967132094,2.1494770227970372,2.1501113630736657,0.17826846267581992,0.35783827329627621,0.75,,0.82429555886596273,21\n"
        "8,5,6,0.24098755053024717,0.3980795690057804,4.4780771308271614,4.4793986730701372,0.25820061119690113,0.44613875028166988,1.25,,0.62490459324171233,6\n"
        )),
    ],
    ids=["m4", "m6"],
)
def test_sweep_csv_frozen_beyond_ternary(m, ns, ks, expected, capsys):
    # frozen from commit 999d159, whose marginal tables were tuple-keyed
    # dicts, before they became arrays in enumerate_types order; the arrays
    # must reproduce every byte
    code, out, _ = run_inproc(
        ["sweep", "--kind", "random_dirichlet", "--alphabet-size", str(m),
         "--seed", "0", "--n", ns, "--k", ks],
        capsys,
    )
    assert code == 0
    assert out == expected


def test_main_repeated_in_one_process(polya_law_path, capsys):
    # main shares one parser across calls: a usage error must leave nothing
    # behind that changes a later call's output or exit code
    calls = [
        ["certify", "--k", "2"],  # missing --law
        ["certify", "--law", polya_law_path, "--k", "2", "--format", "csv"],
        ["sweep", "--kind", "polya", "--counts", "1,1", "--n", "5,6", "--k", "1..3"],
        ["optimize", "--law", polya_law_path, "--k", "2", "--grid-resolution", "4"],
    ]
    first = [run_inproc(argv, capsys)[:2] for argv in calls]
    assert [code for code, _ in first] == [2, 0, 0, 0]
    for _ in range(2):
        for argv, expected in zip(calls, first):
            assert run_inproc(argv, capsys)[:2] == expected, argv
    assert cli.build_parser() is cli.build_parser()


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


def test_generate_beyond_max_length_exits_2(capsys):
    code, out, err = run_inproc(
        ["generate", "--kind", "iid", "--components", "0.5,0.5", "--n", "1000"], capsys
    )
    assert code == 2
    assert not out
    assert "30" in err


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
