"""The benchmark's workloads: what each one builds at set-up and which jobs it
then runs, all through jsalg's public functions with ``workers=1``.

A job returns a jsalg ``Report``.  Certify jobs run on correct inputs and are
recorded by status and a digest of their certified span; refute jobs run on
a planted-defect input and are recorded by status, suite and the identity
that failed, not by the failing tuple, so a sound reduction that reports a
different first tuple still counts as correct.

Each workload has a ``full`` job list, sized to about ten seconds a pass on
a 2-core Python 3.11 box, and a ``smoke`` list of the same layer mix that
runs in about a second, for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import planted

MODULES = ("scalars", "superpoly", "report", "linalg", "brackets", "schouten",
           "jordan", "tkk", "lieclass")


def load_jsalg() -> SimpleNamespace:
    """Import jsalg afresh (dropping any loaded copy) and return its modules."""
    for name in [m for m in sys.modules if m == "jsalg" or m.startswith("jsalg.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"jsalg.{m}") for m in MODULES})


@dataclass
class Job:
    name: str
    kind: str  # "certify" | "refute"
    run: Callable  # () -> Report
    summary: Callable | None = None  # Report -> recorded part of a certify span


# -- recorded outcomes ----------------------------------------------------------

TUPLE_KEYS = ("orderedPairs", "tripleMultisets", "orderedTriples", "certifiedQuadruples",
              "certifiedTriples", "certifiedPairs", "pairs", "basisChecked")


def _count(span) -> int:
    if isinstance(span, list):
        return sum(_count(s) for s in span)
    if not isinstance(span, dict):
        return 0
    n = sum(v for k, v in span.items() if k in TUPLE_KEYS and isinstance(v, int))
    if isinstance(span.get("vertices"), list):
        n += len(span["vertices"])
    return n


def certified_tuples(report) -> int:
    """Tuples (pairs, triples, quadruples, basis elements, vertices) a passing
    report certifies, summed over its span; 0 for any other report."""
    return _count(report.certified_span) if report.status == "pass" else 0


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def observe(job: Job, report) -> dict:
    """The part of a job's report that the benchmark records and checks."""
    if job.kind == "refute":
        ce = report.counterexample or {}
        return {"status": report.status, "suite": report.suite,
                "identity": ce.get("identity") or ce.get("reason")}
    span = job.summary(report) if job.summary else report.to_json_dict()["certifiedSpan"]
    return {"status": report.status, "span": _digest(span),
            "tuples": certified_tuples(report)}


# -- brackets -----------------------------------------------------------------------

def _pointwise(js, pair, spec, polys, tag):
    """The biderivation bracket of an (a, c) pair against the built-in
    bracket, on every ordered pair of monomials."""
    bad = None
    for f in polys:
        for g in polys:
            if js.schouten.gpb_from_ac(pair, f, g) != js.brackets.bracket(spec, f, g):
                bad = {"monomials": [f.render(), g.render()]}
                break
        if bad:
            break
    return js.report.Report(f"schouten-gpb-pointwise[{tag}]", {}, {"pairs": len(polys) ** 2},
                            "pass" if bad is None else "fail", bad)


BRACKETS = {
    "full": {
        "deg": 3,
        "h": [(0, 5), (1, 1), (1, 2), (2, 0)],
        "k": [(0, 2), (0, 3), (1, 0)],
        "gauge_deg": 3,
        "schouten": [(0, 3), (1, 2), (1, 3)],
        "refute_leibniz": [(0, 3), (1, 0), (1, 1), (0, 4)],
        "refute_kmc": [(0, 3), (1, 0)],
    },
    "smoke": {
        "deg": 2,
        "h": [(0, 2)],
        "k": [(0, 1)],
        "gauge_deg": 1,
        "schouten": [(0, 3)],
        "refute_leibniz": [(0, 2)],
        "refute_kmc": [(0, 2)],
    },
}


def brackets(js, seed: int, size: str) -> list:
    """The polynomial side: bracket identity drivers, the gauge series path
    and the Schouten presentation; no table, linalg or TKK code runs."""
    cfg = BRACKETS[size]
    br, sp = js.brackets, js.superpoly
    deg = cfg["deg"]
    jobs = []
    for kind, params in (("h", cfg["h"]), ("k", cfg["k"])):
        for k, n in params:
            spec = getattr(br.BracketSpec, f"{kind}_type")(k, n)
            D = (br.DerivationD.zero(spec.m, spec.n) if kind == "h"
                 else br.DerivationD.multiple_of_dt(spec.m, spec.n))
            tag = f"{kind}_type({k},{n})"
            jobs += [
                Job(f"check_jacobi {tag}", "certify",
                    lambda s=spec: br.check_jacobi(s, deg, workers=1)),
                Job(f"check_gen_leibniz {tag}", "certify",
                    lambda s=spec, d=D: br.check_gen_leibniz(s, d, deg, workers=1)),
                Job(f"check_kmc {tag}", "certify",
                    lambda s=spec, d=D: br.check_kmc(s, d, deg, workers=1)),
            ]
    base = br.BracketSpec.h_type(1, 0)
    phi = sp.SuperPoly.one(base.m, base.n) + sp.SuperPoly.variable(base.m, base.n, sp.even_var(0))
    gauge = br.gauge_twist(base, phi)
    gdeg = cfg["gauge_deg"]
    jobs += [
        Job("check_jacobi gauge(h_type(1,0),1+x1)", "certify",
            lambda: br.check_jacobi(gauge, gdeg, workers=1)),
        Job("check_gen_leibniz gauge(h_type(1,0),1+x1)", "certify",
            lambda d=gauge.derivation(): br.check_gen_leibniz(gauge, d, gdeg, workers=1)),
    ]
    sdeg = 3 if size == "full" else 1
    for k, n in cfg["schouten"]:
        for kind in ("h", "k"):
            pair = getattr(js.schouten, f"pairing_{kind}_pair")(k, n)
            spec = getattr(br.BracketSpec, f"{kind}_type")(k, n)
            polys = [sp.SuperPoly(spec.m, spec.n, {m: Fraction(1)})
                     for m in sp.monomials_total_degree(spec.m, spec.n, sdeg)]
            tag = f"{kind}_pair({k},{n})"

            def run(pair=pair, spec=spec, polys=polys, tag=tag):
                return js.report.merge_reports(f"schouten[{tag}]", {}, [
                    js.schouten.check_s_conditions(pair),
                    _pointwise(js, pair, spec, polys, tag)])
            jobs.append(Job(f"schouten {tag}", "certify", run))
    # drivers are looked up at call time, so a traced run sees its wrappers
    for identity, params, fn in (("leibniz", cfg["refute_leibniz"], "check_gen_leibniz"),
                                 ("kmc", cfg["refute_kmc"], "check_kmc")):
        for k, n in params:
            spec = br.BracketSpec.k_type(k, n)
            D = planted.wrong_derivation(js, spec, identity)
            jobs.append(Job(f"{fn} planted-D k_type({k},{n})", "refute",
                            lambda s=spec, d=D, f=fn: getattr(br, f)(s, d, deg, workers=1)))
    return jobs


# -- tables: the structure-constant side and the structure checks -------------------

TABLES = {
    # name, jordan.build arguments, whether the table gets a verify-tkk job
    # (total unital tables only); every table gets planted defects
    "full": [
        ("osp(4,2)+", ("OSPplus",), {"m": 4, "n": 2}, False),
        ("gl(2,2)+", ("GLplus",), {"m": 2, "n": 2}, True),
        ("F", ("Falg",), {}, True),
        ("D_t(2)", ("Dt",), {"t": Fraction(2)}, True),
        ("JP(1,2)|deg3", ("JP",), {"m": 1, "n": 2, "deg": 3}, False),
        ("JCK|deg1", ("JCK",), {"deg": 1}, False),
    ],
    "smoke": [
        ("gl(1,1)+", ("GLplus",), {"m": 1, "n": 1}, True),
        ("D_t(2)", ("Dt",), {"t": Fraction(2)}, True),
        ("JP(1,1)|deg2", ("JP",), {"m": 1, "n": 1, "deg": 2}, False),
    ],
}
ASSEMBLE = {"full": ["gl(2,2)+"], "smoke": ["D_t(2)"]}
LIE_TABLES = {"full": ["F", "D_t(2)"], "smoke": ["D_t(2)"]}


def table_digest(alg) -> str:
    """sha256 of a canonical rendering of a structure-constant table."""
    entries = sorted([i, j, k, str(c)] for (i, j), vec in alg.table.items()
                     for k, c in vec.items())
    return hashlib.sha256(json.dumps(
        {"labels": alg.labels, "parities": alg.parities, "c": entries},
        separators=(",", ":")).encode()).hexdigest()


def _roundtrip(js, J):
    """The export/import path: table -> JSON dict -> text -> table."""
    J2 = js.jordan.FiniteSuperAlgebra.from_json_dict(json.loads(json.dumps(J.to_json_dict())))
    if not J2.same_table(J):
        raise RuntimeError(f"JSON round trip changed the table of {J.name}")
    return J2


def tables_tkk(js, seed: int, size: str) -> list:
    """The structure-constant side: int-scaled Jordan identity kernels,
    wide linalg flats and the TKK construction; no bracket code runs."""
    jd, tk, rp = js.jordan, js.tkk, js.report
    algebras = {}
    unital = []
    for name, args, kwargs, tkk_jobs in TABLES[size]:
        J = jd.build(*args, **kwargs)
        if not name.startswith("JCK"):  # Gauss-rational constants cannot be exported
            J = _roundtrip(js, J)
        algebras[name] = J
        if tkk_jobs:
            unital.append(name)
    lies = {name: tk.tkk(algebras[name])[0].algebra for name in LIE_TABLES[size]}
    jobs = []
    for name, J in algebras.items():
        jobs += [
            Job(f"check_jordan {name}", "certify", lambda J=J: jd.check_jordan(J, workers=1)),
            Job(f"check_relation10 {name}", "certify",
                lambda J=J: jd.check_relation10(J, workers=1)),
        ]
    for name in unital:
        def verify(J=algebras[name], name=name):
            real = tk.TKK(J)
            return rp.merge_reports(f"verify-tkk[{name}]", {}, [
                real.round_trip(), real.check_triple(), real.check_minimal()])
        jobs.append(Job(f"verify tkk {name}", "certify", verify))
    for name in ASSEMBLE[size]:
        def assemble(J=algebras[name], name=name):
            lie, _ = tk.tkk(J)
            g = lie.graded_dims()
            return rp.Report("tkk-assemble", {"algebra": name}, {
                "dim": lie.algebra.dim,
                "gradedDims": [[d, p, g[(d, p)]] for d, p in sorted(g)],
                "tableSha256": table_digest(lie.algebra)}, "pass")
        jobs.append(Job(f"assemble {name}", "certify", assemble))
    for name, L in lies.items():
        jobs.append(Job(f"check_lie_table Lie({name})", "certify",
                        lambda L=L: tk.check_lie_table(L, workers=1)))
    for name, J in algebras.items():
        bad = planted.perturb_table(J, seed)
        jobs += [
            Job(f"check_jordan planted {name}", "refute",
                lambda J=bad: jd.check_jordan(J, workers=1)),
            Job(f"check_relation10 planted {name}", "refute",
                lambda J=bad: jd.check_relation10(J, workers=1)),
        ]
    for name, L in lies.items():
        bad = planted.perturb_table(L, seed, anti=True)
        jobs.append(Job(f"check_lie_table planted Lie({name})", "refute",
                        lambda L=bad: tk.check_lie_table(L, workers=1)))
    return jobs


# -- structure ----------------------------------------------------------------------

STRUCTURE = {
    "full": {
        "simple": [("F", "falg", (), True), ("H(0,4)", "h04", (), True),
                   ("D_t(1)", "dt", (1,), True), ("D_t(2)", "dt", (2,), True),
                   ("D_t(-1)", "dt", (-1,), True), ("D_t(1/2)", "dt", (Fraction(1, 2),), True),
                   ("D_t(-3/7)", "dt", (Fraction(-3, 7),), True), ("K", "kalg", (), True),
                   ("D_t(0)", "dt", (0,), False), ("JS|deg0", "js", (0,), False),
                   ("H(0,3)", "h03", (), False)],
        "gradings": [("sl", 4), ("sl", 5), ("so", 5), ("so", 6), ("so", 7),
                     ("so", 8), ("sp", 4), ("sp", 6), ("sp", 8)],
        "semidirect_js": [(1, 8)],
        "ex71": [(0, 4), (0, 5), (1, 3)],
        "ex72": [(0, 3), (0, 4)],
        # flip_eta controls on larger doubles, so refute_s is not all milliseconds
        "ex71_refute_only": [(1, 4)],
        "ex72_refute_only": [(1, 3)],
        "witnesses": ["jp01_gl11", "form12_d1", "dt_inverse(2)", "dt_inverse(-3)"],
    },
    "smoke": {
        "simple": [("D_t(1)", "dt", (1,), True), ("D_t(0)", "dt", (0,), False)],
        "gradings": [("sl", 3), ("so", 5), ("sp", 4)],
        "semidirect_js": [],
        "ex71": [(0, 4)],
        "ex72": [],
        "ex71_refute_only": [],
        "ex72_refute_only": [],
        "witnesses": ["dt_inverse(2)"],
    },
}


def _simple_summary(report):
    return {"span": report.to_json_dict()["certifiedSpan"], "simple": report.details["simple"]}


def _gradings_summary(report):
    # the triples found depend on the sampling seed; the verdicts must not
    return [[v["vertex"], v["shortSubalgebra"], v["eigenDims"]]
            for v in report.certified_span["vertices"]]


def structure(js, seed: int, size: str) -> list:
    """Simplicity, short gradings, the semidirect split and isomorphisms:
    many small solves and ideal closures rather than a few wide flats."""
    cfg = STRUCTURE[size]
    jd, lc, tk = js.jordan, js.lieclass, js.tkk
    builders = {"falg": jd.falg,
                "h04": lambda: lc.h_zero_n_lie(4), "h03": lambda: lc.h_zero_n_lie(3),
                "dt": lambda t: jd.dt(Fraction(t)), "kalg": jd.kalg, "js": jd.build_js}
    jobs = []
    for name, fam, args, expected in cfg["simple"]:
        J = builders[fam](*args)
        jobs.append(Job(f"check_simple_report {name}", "certify",
                        lambda J=J, e=expected: jd.check_simple_report(J, expected=e, seed=seed),
                        _simple_summary))
    for fam, n in cfg["gradings"]:
        L = lc.classical(fam, n)
        L.structure()  # the lazy structure constants belong to set-up
        jobs.append(Job(f"enumerate_short_gradings {fam}{n}", "certify",
                        lambda L=L: lc.enumerate_short_gradings(L, seed=seed),
                        _gradings_summary))
    K = jd.kalg()
    jobs.append(Job("check_semidirect K", "certify", lambda: tk.check_semidirect(K, seed=seed)))
    for deg, carrier_deg in cfg["semidirect_js"]:
        J, C = jd.build_js(deg), jd.build_js(carrier_deg)
        jobs.append(Job(f"check_semidirect JS|deg{deg} in JS|deg{carrier_deg}", "certify",
                        lambda J=J, C=C: tk.check_semidirect(J, carrier=C, seed=seed)))
    witnesses = {"jp01_gl11": jd.witness_jp01_to_gl11, "form12_d1": jd.witness_form12_to_d1,
                 "dt_inverse(2)": lambda: jd.witness_dt_inverse(2),
                 "dt_inverse(-3)": lambda: jd.witness_dt_inverse(-3)}
    for name in cfg["witnesses"]:
        w = witnesses[name]()
        bad = planted.perturb_witness(w, seed)
        jobs += [Job(f"check_iso {name}", "certify", lambda w=w: jd.check_iso(w)),
                 Job(f"check_iso planted {name}", "refute", lambda w=bad: jd.check_iso(w))]
    for fn, key in (("example71_iso", "ex71"), ("example72_iso", "ex72")):
        for k, n in cfg[key]:
            jobs.append(Job(f"{fn}({k},{n})", "certify",
                            lambda f=fn, k=k, n=n: getattr(lc, f)(k, n, 3)))
        for k, n in cfg[key] + cfg[f"{key}_refute_only"]:
            jobs.append(Job(f"{fn}({k},{n}) flip_eta", "refute",
                            lambda f=fn, k=k, n=n: getattr(lc, f)(k, n, 3, flip_eta=True)))
    return jobs


def tables(js, seed: int, size: str) -> list:
    """Everything on structure-constant tables: the identity kernels and TKK
    (a few wide linalg flats) and the structure checks (many small solves
    and ideal closures); no bracket driver runs."""
    return tables_tkk(js, seed, size) + structure(js, seed, size)


WORKLOADS = {"brackets": brackets, "tables": tables}
