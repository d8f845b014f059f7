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


def _family_args(p):
    p.add_argument("--family", required=False)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--t", type=str, default=None)
    p.add_argument("--deg", "--max-degree", dest="deg", type=int, default=3)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jsalg",
        description="Exact verification suites for Jordan superalgebras, "
        "generalized Poisson brackets and the three-graded correspondence.",
    )
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=("list",))

    p = sub.add_parser("build", help="build a catalog algebra and summarize it")
    _family_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="write a structure-constant JSON file")
    _family_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("import", help="validate a structure-constant JSON file")
    p.add_argument("--in", dest="path", required=True)

    p = sub.add_parser("tkk", help="emit the graded Lie algebra of a catalog entry")
    _family_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        choices=(
            "jordan-identity", "relation10", "simple",
            "bracket-jacobi", "bracket-leibniz", "bracket-kmc",
            "schouten", "tkk", "semidirect", "short-gradings",
            "iso", "hk-fragment", "all",
        ),
    )
    _family_args(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--kind", choices=("h", "k"), default="h")
    p.add_argument("--type", dest="ltype", choices=("sl", "so", "sp"), default=None)
    p.add_argument("--rank", type=int, default=None)
    return ap


def _build_algebra(args) -> jd.FiniteSuperAlgebra:
    if not args.family:
        raise SystemExit2("this command needs --family")
    if args.m < 0 or args.n < 0:
        raise SystemExit2("--m and --n must be >= 0")
    t = None
    if args.t is not None:
        try:
            t = Fraction(args.t)
        except (ValueError, ZeroDivisionError):
            raise SystemExit2(f"--t must be a rational number, got {args.t!r}") from None
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


def _emit(report: Report, args) -> int:
    _write(report.to_json() if args.format == "json" else report.text(), args.out)
    return 0 if report.passed else 1


_POLY_SUITES = ("bracket-jacobi", "bracket-leibniz", "bracket-kmc", "schouten",
                "hk-fragment")


def _suite_report(args) -> Report:
    suite = args.suite
    workers = args.workers
    if suite in _POLY_SUITES and min(args.k, args.n, args.deg) < 0:
        raise SystemExit2("--k, --n and --deg must be >= 0")
    if suite == "jordan-identity":
        return jd.check_jordan(_build_algebra(args), workers=workers)
    if suite == "relation10":
        return jd.check_relation10(_build_algebra(args), workers=workers)
    if suite == "simple":
        return jd.check_simple_report(_build_algebra(args), seed=args.seed)
    if suite in ("bracket-jacobi", "bracket-leibniz", "bracket-kmc"):
        if args.kind == "h":
            spec = br.BracketSpec.h_type(args.k, args.n)
            D = br.DerivationD.zero(spec.m, spec.n)
        else:
            spec = br.BracketSpec.k_type(args.k, args.n)
            D = br.DerivationD.multiple_of_dt(spec.m, spec.n)
        if suite == "bracket-jacobi":
            return br.check_jacobi(spec, args.deg, workers=workers)
        if suite == "bracket-leibniz":
            return br.check_gen_leibniz(spec, D, args.deg, workers=workers)
        return br.check_kmc(spec, D, args.deg, workers=workers)
    if suite == "schouten":
        pair = (sch.pairing_h_pair if args.kind == "h" else sch.pairing_k_pair)(
            args.k, args.n
        )
        return sch.check_s_conditions(pair)
    if suite == "tkk":
        J = _build_algebra(args)
        real = tk.TKK(J)
        reports = [real.round_trip(), real.check_triple(), real.check_minimal()]
        return merge_reports("tkk", {"algebra": J.name}, reports)
    if suite == "semidirect":
        J = _build_algebra(args)
        if J.is_total():
            return tk.check_semidirect(J, seed=args.seed)
        carrier = jd.build(args.family, m=args.m, n=args.n, deg=8 * args.deg)
        return tk.check_semidirect(J, carrier=carrier, seed=args.seed)
    if suite == "short-gradings":
        if not args.ltype or args.rank is None:
            raise SystemExit2("short-gradings needs --type and --rank")
        if args.rank < 1:
            raise SystemExit2("--rank must be >= 1")
        # --rank is the matrix size: sl N, so N, sp N (N even)
        L = lc.classical(args.ltype, args.rank)
        return lc.enumerate_short_gradings(L, seed=args.seed)
    if suite == "iso":
        return acc.criterion_7_isomorphisms()
    if suite == "hk-fragment":
        _lie, _triple, rep = lc.build_hk(args.kind, args.k, args.n, args.deg)
        return rep
    raise SystemExit2(f"unknown suite {suite!r}")


class SystemExit2(Exception):
    pass


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
    args = ap.parse_args(_glue_negative_t(sys.argv[1:] if argv is None else list(argv)))
    if not args.cmd:
        ap.print_help()
        return 2
    try:
        if hasattr(args, "workers"):  # a bad --workers or JSALG_WORKERS exits 2 here
            resolve_workers(args.workers)
        if args.cmd == "catalog":
            print("family      parameters")
            print("--------    ----------")
            rows = [
                ("GLplus", "--m --n"),
                ("OSPplus", "--m --n  (n even)"),
                ("FORMplus", "--m --n  (n even)"),
                ("Pplus", "--n"),
                ("Qplus", "--n"),
                ("Dt", "--t"),
                ("Kalg", ""),
                ("Falg", ""),
                ("JPfinite", "--n"),
                ("JP", "--m --n --deg"),
                ("JCK", "--deg"),
                ("JS", "--deg"),
            ]
            for fam, params in rows:
                print(f"{fam:11s} {params}")
            return 0
        if args.cmd == "build":
            J = _build_algebra(args)
            ev, od = J.sdim()
            unit = J.find_unit()
            print(f"{J.name}: dim ({ev}|{od}), "
                  f"{'unital' if unit else 'non-unital'}, "
                  f"{'total' if J.is_total() else f'{len(J.out_of_span)} out-of-span pairs'}")
            if args.out:
                _write(_canonical(J.to_json_dict()), args.out)
            return 0
        if args.cmd == "export":
            _write(_canonical(_build_algebra(args).to_json_dict()), args.out)
            return 0
        if args.cmd == "import":
            with open(args.path) as f:
                data = json.load(f)
            J = jd.FiniteSuperAlgebra.from_json_dict(data)
            ev, od = J.sdim()
            print(f"ok: {J.name or 'algebra'} dim ({ev}|{od}), "
                  f"{len(J.table)} nonzero products")
            return 0
        if args.cmd == "tkk":
            J = _build_algebra(args)
            lie, triple = tk.tkk(J)
            d = lie.algebra.to_json_dict()
            d["grading"] = lie.grading
            _write(_canonical(d), args.out)
            return 0
        if args.cmd == "verify":
            if args.suite == "all":
                # JSON on stdout moves the pass/fail lines to stderr
                json_out = args.format == "json" and not args.out
                stream = sys.stderr if json_out else sys.stdout
                reports = acc.run_battery(workers=args.workers,
                                          echo=lambda line: print(line, file=stream))
                if args.out or json_out:
                    _write(_canonical([r.to_json_dict() for r in reports]), args.out)
                return 0 if all(r.passed for r in reports) else 1
            report = _suite_report(args)
            return _emit(report, args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crashed pool worker, a scale below its bound
        msg = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
