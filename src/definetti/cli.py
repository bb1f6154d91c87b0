"""Command-line front end: generate, certify, sweep, compare, optimize, search.

Exit codes: 0 on success (bounds certified), 1 when a certified bound is
violated beyond tolerance (the alarm; it should never fire for valid input),
2 on bad input or usage.  Reports go to stdout or --out; diagnostics go to
stderr.  Identical invocations produce byte-identical output.  Sweep cells
run one after another in one thread: the work is pure Python, so threads
would only contend for the interpreter lock and for the laws' memo tables.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .bounds import Certificate, CertificationError, certify
from .core import LawFormatError, law_to_dict, law_to_json_text, load_law
from .generators import GeneratorSpec, KINDS
from .optimizer import adversarial_search, improve_certificate
from .serialize import fmt_real, parse_real, render_json

CSV_COLUMNS = Certificate.FIELDS
INT_COLUMNS = ("n", "k", "m_star", "atom_count")
NAT_COLUMNS = ("D", "thm_bound", "cor_bound_H", "cor_bound_logA", "first_bound", "second_rate")

_COMPARE_NOTES = {
    "D": "certified relative entropy between the k-prefix law and the constructed mixture",
    "thm_bound": "averaged tail-information bound, certified",
    "cor_bound_H": "k(k-1)/(2(n-k+1)) * H(X1), certified",
    "cor_bound_logA": "k(k-1)/(2(n-k+1)) * log|A|, certified",
    "first_bound": "comparison bound 5 k^2 log(n)/(n-k), binary alphabets only",
    "second_rate": "comparison rate (k/sqrt(n))^(1/2) * log(n/k), constant 1, rate only",
    "tv": "total variation between the k-prefix law and the mixture",
    "pinsker_tv": "sqrt(thm_bound/2), certified total-variation bound",
    "df_tv_ref": "reference total-variation rate k(k-1)/(2n), not certified here",
}


def to_bits(cert_dict: dict) -> dict:
    """Display-only conversion of the nat-valued fields to bits."""
    out = dict(cert_dict)
    for key in NAT_COLUMNS:
        if out.get(key) is not None:
            out[key] = out[key] / math.log(2.0)
    return out


def certificate_csv_row(cert_dict: dict) -> str:
    cells = []
    for name in CSV_COLUMNS:
        value = cert_dict[name]
        cells.append(str(int(value)) if name in INT_COLUMNS else fmt_real(value))
    return ",".join(cells)


def certificate_csv(cert_dicts) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(certificate_csv_row(d) for d in cert_dicts)
    return "\n".join(lines) + "\n"


def parse_certificate_csv(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError("unrecognized certificate CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        row = {}
        for name, cell in zip(CSV_COLUMNS, cells):
            row[name] = int(cell) if name in INT_COLUMNS else parse_real(cell)
        rows.append(row)
    return rows


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> list[int]:
    """'4..12' (inclusive), '4,6,8' or '4'."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    if "," in text:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
        if not values:
            raise ValueError("empty range")
        return values
    return [int(text)]


def _parse_components(text: str) -> tuple[tuple[float, ...], ...]:
    comps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            comps.append(tuple(float(v) for v in chunk.split(",")))
    if not comps:
        raise ValueError("no components given")
    return tuple(comps)


def _spec_from_args(args) -> GeneratorSpec:
    if not args.kind:
        raise ValueError("--kind is required when no law file is given")
    return GeneratorSpec(
        kind=args.kind,
        n=getattr(args, "n_single", None),
        weights=tuple(float(v) for v in args.weights.split(",")) if args.weights else None,
        components=_parse_components(args.components) if args.components else None,
        counts=tuple(int(v) for v in args.counts.split(",")) if args.counts else None,
        alphabet_size=args.alphabet_size,
        concentration=args.concentration,
        seed=args.seed,
    )


def _add_generator_flags(cmd, n_as_range: bool) -> None:
    cmd.add_argument("--kind", choices=KINDS, help="generator family")
    cmd.add_argument("--counts", help="comma-separated counts (polya, urn)")
    cmd.add_argument(
        "--components",
        help="semicolon-separated letter distributions, e.g. '0.7,0.3;0.5,0.5'",
    )
    cmd.add_argument("--weights", help="comma-separated mixture weights")
    cmd.add_argument("--alphabet-size", type=int, help="alphabet size (random_dirichlet)")
    cmd.add_argument("--concentration", type=float, help="Dirichlet concentration")
    cmd.add_argument("--seed", type=int, help="generator seed")
    if not n_as_range:
        cmd.add_argument("--n", dest="n_single", type=int, help="sequence length")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and shared afterwards.

    Parsing does not change the parser, so in-process callers of
    :func:`main` build it once.
    """
    parser = argparse.ArgumentParser(
        prog="definetti",
        description="Exact mixture-representation certificates for exchangeable laws on finite alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an exchangeable law file")
    _add_generator_flags(gen, n_as_range=False)
    gen.add_argument("-o", "--out", help="output path (default stdout)")
    gen.set_defaults(func=cmd_generate)

    cert = sub.add_parser("certify", help="certify the bound chain for one (law, k)")
    cert.add_argument("--law", required=True, help="law file path")
    cert.add_argument("--k", type=int, required=True)
    cert.add_argument("--format", choices=("json", "csv"), default="json")
    cert.add_argument("--bits", action="store_true", help="display nat fields in bits")
    cert.add_argument("-o", "--out")
    cert.set_defaults(func=cmd_certify)

    cmp_cmd = sub.add_parser("compare", help="certify and list all bounds side by side")
    cmp_cmd.add_argument("--law", required=True)
    cmp_cmd.add_argument("--k", type=int, required=True)
    cmp_cmd.add_argument("--format", choices=("json", "csv"), default="csv")
    cmp_cmd.add_argument("--bits", action="store_true")
    cmp_cmd.add_argument("-o", "--out")
    cmp_cmd.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="certificates over a grid of (n, k)")
    _add_generator_flags(sweep, n_as_range=True)
    sweep.add_argument("--law", help="law file (fixes n; give --k only)")
    sweep.add_argument("--n", help="n range: '4..12', '4,6,8' or '6'")
    sweep.add_argument("--k", required=True, help="k range, same syntax")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--bits", action="store_true")
    sweep.add_argument("-o", "--out")
    sweep.set_defaults(func=cmd_sweep)

    opt = sub.add_parser("optimize", help="re-optimize mixing weights over atoms plus a grid")
    opt.add_argument("--law", required=True)
    opt.add_argument("--k", type=int, required=True)
    opt.add_argument("--grid-resolution", type=int, default=10)
    opt.add_argument("--atoms-only", action="store_true",
                     help="fit over the constructed atoms only (no grid)")
    opt.add_argument("--max-iter", type=int, default=100_000,
                     help="most Newton iterations of the weight fit (>= 0)")
    opt.add_argument("--tol", type=float, default=1e-12,
                     help="stop once the certified gap, a bound in nats on the fit's "
                          "distance to the best weights, is at most this")
    opt.add_argument("--format", choices=("json",), default="json")
    opt.add_argument("-o", "--out")
    opt.set_defaults(func=cmd_optimize)

    search = sub.add_parser("search", help="adversarial probe of the bound's tightness")
    search.add_argument("--alphabet-size", type=int, required=True)
    search.add_argument("--n", dest="n_single", type=int, required=True)
    search.add_argument("--k", type=int, required=True)
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--restarts", type=int, default=20)
    search.add_argument("--steps", type=int, default=60)
    search.add_argument("--format", choices=("json",), default="json")
    search.add_argument("-o", "--out")
    search.set_defaults(func=cmd_search)

    return parser


def cmd_generate(args) -> int:
    law = _spec_from_args(args).build()
    _emit(law_to_json_text(law), args.out)
    return 0


def cmd_certify(args) -> int:
    law = load_law(args.law)
    cert = certify(law, args.k).as_dict()
    if args.bits:
        cert = to_bits(cert)
    if args.format == "csv":
        _emit(certificate_csv([cert]), args.out)
    else:
        _emit(render_json(cert) + "\n", args.out)
    return 0


def cmd_compare(args) -> int:
    law = load_law(args.law)
    cert = certify(law, args.k).as_dict()
    if args.bits:
        cert = to_bits(cert)
    if args.format == "csv":
        lines = ["quantity,value,note"]
        for name in ("n", "k", "m_star", "atom_count"):
            lines.append(f"{name},{cert[name]},")
        for name, note in _COMPARE_NOTES.items():
            lines.append(f"{name},{fmt_real(cert[name])},{note}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {name: cert[name] for name in ("n", "k", "m_star", "atom_count")}
        payload["units"] = "bits" if args.bits else "nats"
        payload["bounds"] = {
            name: {"value": cert[name], "note": note}
            for name, note in _COMPARE_NOTES.items()
        }
        _emit(render_json(payload) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    k_values = _parse_range(args.k)
    if args.law:
        law = load_law(args.law)
        if args.n is not None and _parse_range(args.n) != [law.n]:
            raise ValueError("--n must match the law file's n")
        laws = {law.n: law}
        n_values = [law.n]
    else:
        if args.n is None:
            raise ValueError("--n is required when sweeping a generator")
        n_values = sorted(set(_parse_range(args.n)))
        spec = _spec_from_args(args)
        laws = {n: replace(spec, n=n).build() for n in n_values}
    if not n_values or not k_values:
        raise ValueError("empty sweep ranges")
    cells = [(n, k) for n in n_values for k in sorted(set(k_values))]
    for n, k in cells:
        if not 1 <= k <= n - 1:
            raise ValueError(f"cell (n={n}, k={k}) violates 1 <= k <= n-1")
    rows = [certify(laws[n], k).as_dict() for n, k in cells]
    if args.bits:
        rows = [to_bits(r) for r in rows]
    if args.format == "json":
        _emit(render_json({"rows": rows}) + "\n", args.out)
    else:
        _emit(certificate_csv(rows), args.out)
    return 0


def cmd_optimize(args) -> int:
    law = load_law(args.law)
    if args.grid_resolution < 1:
        raise ValueError("--grid-resolution must be >= 1")
    cert, fit = improve_certificate(
        law,
        args.k,
        grid_resolution=args.grid_resolution,
        max_iter=args.max_iter,
        tol=args.tol,
        atoms_only=args.atoms_only,
    )
    payload = {"certificate": cert.as_dict(), "fit": fit.as_dict()}
    _emit(render_json(payload) + "\n", args.out)
    return 0


def cmd_search(args) -> int:
    law, ratio = adversarial_search(
        args.alphabet_size,
        args.n_single,
        args.k,
        seed=args.seed,
        restarts=args.restarts,
        steps=args.steps,
    )
    payload = {
        "alphabet_size": args.alphabet_size,
        "n": args.n_single,
        "k": args.k,
        "seed": args.seed,
        "restarts": args.restarts,
        "steps": args.steps,
        "best_ratio": ratio,
        "law": law_to_dict(law),
    }
    _emit(render_json(payload) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, LawFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
