"""The table identity engine behind check_jordan, check_relation10 and
check_lie_table: golden reports, exact residuals, and the rules the three
checkers share.

The golden canonical JSON was recorded from the three checkers as they were
before they shared one oracle and one scan loop.  The one deliberate
difference is `residualCoords` of check_jordan on a table with
denominators: the old checker reported the residual times scale**3 (for the
planted gl(2,2)+ below, "-12" instead of "-3/2").
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from jsalg.jordan import (
    FiniteSuperAlgebra,
    build_jck,
    check_jordan,
    check_relation10,
    falg,
    glplus,
    jp,
)
from jsalg.lieclass import build_hk
from jsalg.tkk import check_lie_table, tkk

GOLDEN = json.loads(
    Path(__file__).with_name("golden_table_identities.json").read_text())


def planted(J, i, j, k, anti=False):
    """J with c_ij^k moved by +1 and mirrored onto c_ji^k with the sign of
    supercommutativity (or of anticommutativity), so the symmetry
    pre-checks still pass and the identity itself must catch it."""
    table = {key: dict(vec) for key, vec in J.table.items()}
    c = table[(i, j)][k] + 1
    table[(i, j)][k] = c
    sign = -1 if (J.parities[i] and J.parities[j]) else 1
    table.setdefault((j, i), {})[k] = c if sign * (-1 if anti else 1) > 0 else -c
    return FiniteSuperAlgebra(J.labels, J.parities, table, J.out_of_span,
                              name=f"{J.name}|planted")


@lru_cache(maxsize=None)
def table(name):
    builders = {
        "JP(1,2)|deg3": lambda: jp(1, 2, 3),
        "JCK|deg1": lambda: build_jck(1),
        "gl(2,2)+": lambda: glplus(2, 2),
        "F": falg,
        "Lie(F)": lambda: tkk(falg())[0].algebra,
        "K(3,3)|deg3": lambda: build_hk("k", 1, 3, 3)[0].algebra,
    }
    return builders[name]()


CASES = {
    **{f"{check.__name__} {name}": (check, name, None)
       for name in ("JP(1,2)|deg3", "JCK|deg1", "gl(2,2)+")
       for check in (check_jordan, check_relation10)},
    "check_lie_table Lie(F)": (check_lie_table, "Lie(F)", None),
    "check_lie_table K(3,3)|deg3": (check_lie_table, "K(3,3)|deg3", None),
    "check_jordan planted gl(2,2)+": (check_jordan, "gl(2,2)+", (0, 2, 2)),
    "check_relation10 planted gl(2,2)+": (check_relation10, "gl(2,2)+", (0, 2, 2)),
    "check_jordan planted F": (check_jordan, "F", (0, 3, 3)),
    "check_jordan planted JCK|deg1": (check_jordan, "JCK|deg1", (0, 1, 1)),
    "check_relation10 planted JP(1,2)|deg3": (check_relation10, "JP(1,2)|deg3", (0, 2, 2)),
    "check_lie_table planted Lie(F)": (check_lie_table, "Lie(F)", (0, 10, 0)),
    "check_lie_table planted K(3,3)|deg3": (check_lie_table, "K(3,3)|deg3", (0, 38, 0)),
}


def case_report(name, workers=1):
    check, alg, position = CASES[name]
    J = table(alg)
    if position is not None:
        J = planted(J, *position, anti=check is check_lie_table)
    return check(J, workers=workers)


# the reports are the same bytes at any worker count
@pytest.mark.parametrize("name, workers", [
    pytest.param(name, w, id=name if w == 1 else f"{name} on 2 workers")
    for w in (1, 2) for name in sorted(CASES)])
def test_golden_table_identity_reports(name, workers):
    assert case_report(name, workers).to_json() == GOLDEN[name]


def jordan_residual(J, a, b, c, x):
    """The residual check_jordan reports, in exact arithmetic on the table
    through FiniteSuperAlgebra.mul_vectors."""
    par = J.parities
    res: dict = {}
    for u, w, s_odd, pu in (((a, b), c, par[a] and par[c], par[a] + par[b]),
                            ((b, c), a, par[b] and par[a], par[b] + par[c]),
                            ((c, a), b, par[c] and par[b], par[c] + par[a])):
        s = -1 if s_odd else 1
        sw = -1 if (pu & 1 and par[w]) else 1
        uv = J.product(*u)
        t1 = J.mul_vectors(uv, J.product(w, x))
        t2 = J.mul_vectors({w: 1}, J.mul_vectors(uv, {x: 1}))
        for k, v in t1.items():
            res[k] = res.get(k, 0) + s * v
        for k, v in t2.items():
            res[k] = res.get(k, 0) - s * sw * v
    return {str(k): str(v) for k, v in res.items() if v}


@pytest.mark.parametrize("name", ["gl(2,2)+", "F", "JCK|deg1"])
def test_jordan_residual_coords_are_exact(name):
    r = case_report(f"check_jordan planted {name}")
    bad = planted(table(name), *CASES[f"check_jordan planted {name}"][2])
    assert not r.passed
    assert r.counterexample["residualCoords"] == jordan_residual(
        bad, *r.counterexample["indices"])
    if name == "gl(2,2)+":
        assert r.counterexample["residualCoords"] == {"2": "-3/2"}


def test_a_scan_with_nothing_certified_fails():
    empty = FiniteSuperAlgebra([], [], {})
    lone = FiniteSuperAlgebra(["x"], [0], {}, out_of_span={(0, 0)})
    for J in (empty, lone):
        r = check_lie_table(J)
        assert not r.passed
        assert r.certified_span["certifiedTriples"] == 0
        assert r.counterexample == {"reason": "no triple could be certified"}
    assert check_lie_table(lone).certified_span["skippedTriples"] == 1
    for check in (check_jordan, check_relation10):
        for J in (empty, lone):
            r = check(J)
            assert r.counterexample == {"reason": "no quadruple could be certified"}

