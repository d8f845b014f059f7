"""Command-line driver: build catalog algebras, run verification suites,
emit deterministic JSON or text reports, import/export structure constants.

Exit codes: 0 all passed, 1 at least one failure, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import acceptance as acc
from . import brackets as br
from . import jordan as jd
from . import lieclass as lc
from . import schouten as sch
from . import tkk as tk
from .report import Report, merge_reports, resolve_workers


class SystemExit2(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A rejected command line raises SystemExit2, so `main` prints it as
    one `error: ...` line and returns 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise SystemExit2(message)


def _size(hi: int):
    """An argparse type: an integer from 0 to the ceiling hi."""
    def size(text: str) -> int:
        if not re.fullmatch(r"\d+", text.strip()) or int(text) > hi:
            raise argparse.ArgumentTypeError(f"must be an integer from 0 to {hi}, got {text!r}")
        return int(text)
    return size


# what --t accepts: a plain integer, fraction (nonzero denominator) or decimal
RATIONAL = re.compile(r"[+-]?(\d+(/0*[1-9]\d*)?|\d*\.\d+|\d+\.)")

# flag groups: flag -> add_argument keywords; each size ceiling is above every
# value the battery and CI use, so a larger one exits 2 before anything is built
_SIZE = {"type": _size(8), "default": 0}
DEG = {"--deg": {"type": _size(8), "default": 3}}
FAMILY = {"--family": {}, "--m": _SIZE, "--n": _SIZE, "--t": {}, **DEG}
PAIRING = {"--kind": {"choices": ("h", "k"), "default": "h"},
           "--k": {"type": _size(4), "default": 0}, "--n": _SIZE}
WORKERS = {"--workers": {"type": int}}
SEED = {"--seed": {"type": int, "default": 0}}
GRADING = {"--type": {"dest": "ltype", "choices": ("sl", "so", "sp")},
           "--rank": {"type": _size(16)}}
REPORT = {"--format": {"choices": ("text", "json"), "default": "text"}, "--out": {}}


def _add(p, flags: dict):
    for flag, kwargs in flags.items():
        p.add_argument(flag, **kwargs)


def _spec(args) -> br.BracketSpec:
    return (br.BracketSpec.h_type if args.kind == "h" else br.BracketSpec.k_type)(
        args.k, args.n)


def _rule(check):
    """A bracket-rule suite: check(spec, D, deg) for D = spec.derivation()."""
    def run(args):
        spec = _spec(args)
        return check(spec, spec.derivation(), args.deg, workers=args.workers)
    return run


def _schouten(args) -> Report:
    pair = (sch.pairing_h_pair if args.kind == "h" else sch.pairing_k_pair)(args.k, args.n)
    return sch.check_s_conditions(pair)


def _tkk(args) -> Report:
    J = _build_algebra(args)
    real = tk.TKK(J)
    reports = [real.round_trip(), real.check_triple(), real.check_minimal()]
    return merge_reports("tkk", {"algebra": J.name}, reports)


def _semidirect(args) -> Report:
    J = _build_algebra(args)
    if J.is_total():
        return tk.check_semidirect(J, seed=args.seed)
    carrier = jd.build(args.family, m=args.m, n=args.n, deg=8 * args.deg)
    return tk.check_semidirect(J, carrier=carrier, seed=args.seed)


def _short_gradings(args) -> Report:
    if not args.ltype or args.rank is None:
        raise SystemExit2("short-gradings needs --type and --rank")
    if args.rank < 1:
        raise SystemExit2("--rank must be >= 1")
    # --rank is the matrix size: sl N, so N, sp N (N even)
    return lc.enumerate_short_gradings(lc.classical(args.ltype, args.rank), seed=args.seed)


# suite -> (the flags it reads besides --format and --out, its report; `all`
# runs the acceptance battery instead)
SUITES = {
    "jordan-identity": ({**FAMILY, **WORKERS},
                        lambda a: jd.check_jordan(_build_algebra(a), workers=a.workers)),
    "relation10": ({**FAMILY, **WORKERS},
                   lambda a: jd.check_relation10(_build_algebra(a), workers=a.workers)),
    "simple": ({**FAMILY, **SEED},
               lambda a: jd.check_simple_report(_build_algebra(a), seed=a.seed)),
    "bracket-jacobi": ({**PAIRING, **DEG, **WORKERS},
                       lambda a: br.check_jacobi(_spec(a), a.deg, workers=a.workers)),
    "bracket-leibniz": ({**PAIRING, **DEG, **WORKERS}, _rule(br.check_gen_leibniz)),
    "bracket-kmc": ({**PAIRING, **DEG, **WORKERS}, _rule(br.check_kmc)),
    "schouten": (PAIRING, _schouten),
    "tkk": (FAMILY, _tkk),
    "semidirect": ({**FAMILY, **SEED}, _semidirect),
    "short-gradings": ({**GRADING, **SEED}, _short_gradings),
    "iso": ({}, lambda a: acc.criterion_7_isomorphisms()),
    "hk-fragment": ({**PAIRING, **DEG}, lambda a: lc.build_hk(a.kind, a.k, a.n, a.deg)[2]),
    "all": (WORKERS, None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="jsalg",
        description="Exact verification suites for Jordan superalgebras, "
        "generalized Poisson brackets and the three-graded correspondence.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=("list",))

    p = sub.add_parser("build", help="build a catalog algebra and summarize it")
    _add(p, FAMILY)
    p.add_argument("--out")

    p = sub.add_parser("export", help="write a structure-constant JSON file")
    _add(p, FAMILY)
    p.add_argument("--out", required=True)

    p = sub.add_parser("import", help="validate a structure-constant JSON file")
    p.add_argument("--in", dest="path", required=True)

    p = sub.add_parser("tkk", help="emit the graded Lie algebra of a catalog entry")
    _add(p, FAMILY)
    p.add_argument("--out")

    verify = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="suite", required=True)
    for suite, (flags, _report) in SUITES.items():
        _add(verify.add_parser(suite), {**flags, **REPORT})
    return ap


def _build_algebra(args) -> jd.FiniteSuperAlgebra:
    if not args.family:
        raise SystemExit2("this command needs --family")
    t = None
    if args.t is not None:
        # Fraction also reads exponents, and 1e100000 is a 100001-digit integer
        if len(args.t) > 32 or not RATIONAL.fullmatch(args.t):
            raise SystemExit2("--t must be a rational number given as a plain integer, fraction "
                              f"or decimal of at most 32 characters, got {args.t[:40]!r}")
        t = Fraction(args.t)
    return jd.build(args.family, m=args.m, n=args.n, t=t, deg=args.deg)


def _write(payload: str, out) -> None:
    """payload and a newline, to the file out or else to stdout."""
    if out:
        with open(out, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _glue_negative_t(argv: list) -> list:
    """argparse reads a value like -3/7 as an option, so `--t -3/7` becomes
    `--t=-3/7` (-1 and -0.5 already parse as values)."""
    out = []
    for tok in argv:
        if out and out[-1] == "--t" and re.fullmatch(r"-\d+/\d+", tok):
            out[-1] = f"--t={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_negative_t(sys.argv[1:] if argv is None else list(argv)))
        if hasattr(args, "workers"):  # a bad --workers or JSALG_WORKERS exits 2 here
            resolve_workers(args.workers)
        if args.command == "catalog":
            print("family      parameters")
            print("--------    ----------")
            for tag, params, _builder in jd.FAMILIES:
                print(f"{tag:11s} {params}")
            return 0
        if args.command == "build":
            J = _build_algebra(args)
            ev, od = J.sdim()
            unit = J.find_unit()
            print(f"{J.name}: dim ({ev}|{od}), "
                  f"{'unital' if unit else 'non-unital'}, "
                  f"{'total' if J.is_total() else f'{len(J.out_of_span)} out-of-span pairs'}")
            if args.out:
                _write(_canonical(J.to_json_dict()), args.out)
            return 0
        if args.command == "export":
            _write(_canonical(_build_algebra(args).to_json_dict()), args.out)
            return 0
        if args.command == "import":
            with open(args.path) as f:
                try:
                    data = json.load(f)
                except RecursionError:
                    raise SystemExit2(f"{args.path}: JSON nested too deeply") from None
            J = jd.FiniteSuperAlgebra.from_json_dict(data)
            ev, od = J.sdim()
            print(f"ok: {J.name or 'algebra'} dim ({ev}|{od}), "
                  f"{len(J.table)} nonzero products")
            return 0
        if args.command == "tkk":
            J = _build_algebra(args)
            lie, triple = tk.tkk(J)
            d = lie.algebra.to_json_dict()
            d["grading"] = lie.grading
            _write(_canonical(d), args.out)
            return 0
        if args.command == "verify":
            if args.suite == "all":
                # JSON on stdout moves the pass/fail lines to stderr
                json_out = args.format == "json" and not args.out
                stream = sys.stderr if json_out else sys.stdout
                reports = acc.run_battery(workers=args.workers,
                                          echo=lambda line: print(line, file=stream))
                if args.out or json_out:
                    _write(_canonical([r.to_json_dict() for r in reports]), args.out)
                return 0 if all(r.passed for r in reports) else 1
            report = SUITES[args.suite][1](args)
            _write(report.to_json() if args.format == "json" else report.text(), args.out)
            return 0 if report.passed else 1
    except (SystemExit2, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crashed pool worker, a scale below its bound
        msg = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
