"""The table identity engine behind check_jordan, check_relation10 and
check_lie_table: golden reports, exact residuals, and the rules the three
checkers share; the Jordan kernel on per-pair multiplication maps against
the kernel it replaced, relation (10) from the Jordan scan, and the
one-pass symmetry pre-check.

The golden canonical JSON was recorded from the three checkers as they were
before they shared one oracle and one scan loop.  Two deliberate
differences: `residualCoords` of check_jordan on a table with denominators
(the old checker reported the residual times scale**3; for the planted
gl(2,2)+ below, "-12" instead of "-3/2"), and the `residualCoords` that the
failing relation (10) and Lie-table reports carry since every table report
gives its residual.

The references here do not run the kernel under test: `frac_mul` is a
product of coordinate vectors in Fractions over `FiniteSuperAlgebra.product`,
while `mul_vectors` and every scan accumulate ints through `_mul_into` over
the table oracle.  `mul_vectors` is checked against `frac_mul` on random
tables; the reported residuals of the three checkers against residuals
written out through `frac_mul`.

`reference_jordan_scan` below is the Jordan kernel that recomputed u o x
and u o (w o x) for every multiset; the pair-map kernel must give the same
counts, the same first failing tuple and the same residual.  The lemma of
`check_relation10` is checked on random supercommutative tables against
the Fraction residuals, and those residuals against the ones the two scans
report.
"""

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsalg.jordan import (
    FiniteSuperAlgebra,
    _jordan_scan,
    _mul_into,
    _relation10_scan,
    _table_report,
    build_jck,
    build_js,
    check_jordan,
    check_relation10,
    dt,
    falg,
    glplus,
    jp,
    jp_finite,
    kalg,
    ospplus,
)
from jsalg.lieclass import build_hk
from jsalg.report import scan
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
        "osp(2,2)+": lambda: ospplus(2, 2),
        "D_t(2)": lambda: dt(2),
        "K": kalg,
        "JP(0,2)": lambda: jp_finite(2),
        "JS|deg4": lambda: build_js(4),
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


def frac_mul(J, u, v):
    """u o v for coordinate vectors, in Fractions over J.product, without
    zero entries; None when a pair of nonzero coefficients is out of span."""
    out: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            if not (ci and cj):
                continue
            p = J.product(i, j)
            if p is None:
                return None
            for k, c in p.items():
                out[k] = out.get(k, 0) + Fraction(ci) * cj * c
    return {k: c for k, c in out.items() if c}


def _add(res, vec, s):
    for k, v in vec.items():
        res[k] = res.get(k, 0) + s * v


def jordan_residual(J, a, b, c, x):
    """The residual check_jordan reports, in Fractions through frac_mul."""
    par = J.parities
    res: dict = {}
    for u, w, s_odd, pu in (((a, b), c, par[a] and par[c], par[a] + par[b]),
                            ((b, c), a, par[b] and par[a], par[b] + par[c]),
                            ((c, a), b, par[c] and par[b], par[c] + par[a])):
        s = -1 if s_odd else 1
        sw = -1 if (pu & 1 and par[w]) else 1
        uv = J.product(*u)
        _add(res, frac_mul(J, uv, J.product(w, x)), s)
        _add(res, frac_mul(J, {w: 1}, frac_mul(J, uv, {x: 1})), -s * sw)
    return {str(k): str(v) for k, v in res.items() if v}


def relation10_residual(J, a, b, c, x):
    """K(c o x) - (-1)^{(p(a)+p(b))p(c)} c o K(x) - (-1)^{p(b)p(c)} v o x with
    K(y) = a o (b o y) - (-1)^{p(a)p(b)} b o (a o y) and v = a o (c o b) -
    (a o c) o b, in Fractions through frac_mul, for a tuple whose products
    stay in span."""
    p = J.parities

    def mul(u, v):
        return frac_mul(J, u, v)

    def K(y):
        out: dict = {}
        _add(out, mul({a: 1}, mul({b: 1}, y)), 1)
        _add(out, mul({b: 1}, mul({a: 1}, y)), 1 if p[a] and p[b] else -1)
        return out

    v: dict = {}
    _add(v, mul({a: 1}, J.product(c, b)), 1)
    _add(v, mul(J.product(a, c), {b: 1}), -1)
    res: dict = {}
    _add(res, K(J.product(c, x)), 1)
    _add(res, mul({c: 1}, K({x: 1})), 1 if ((p[a] + p[b]) & 1) and p[c] else -1)
    _add(res, mul(v, {x: 1}), 1 if p[b] and p[c] else -1)
    return {str(k): str(w) for k, w in res.items() if w}


def jacobi_residual(J, a, b, c):
    """a(bc) - (ab)c - (-1)^{p(a)p(b)} b(ac), in Fractions through frac_mul."""
    res: dict = {}
    _add(res, frac_mul(J, {a: 1}, J.product(b, c)), 1)
    _add(res, frac_mul(J, J.product(a, b), {c: 1}), -1)
    _add(res, frac_mul(J, {b: 1}, J.product(a, c)), 1 if J.parities[a] and J.parities[b] else -1)
    return {str(k): str(v) for k, v in res.items() if v}


RESIDUALS = {check_jordan: jordan_residual, check_relation10: relation10_residual,
             check_lie_table: jacobi_residual}


# a failing table report and the planted case it comes from
RESIDUAL_CASES = {
    **{name: f"check_jordan planted {name}" for name in ("gl(2,2)+", "F", "JCK|deg1")},
    **{f"relation10 {name}": f"check_relation10 planted {name}"
       for name in ("gl(2,2)+", "JP(1,2)|deg3")},
    **{f"lie-table {name}": f"check_lie_table planted {name}"
       for name in ("Lie(F)", "K(3,3)|deg3")},
}


@pytest.mark.parametrize("name", list(RESIDUAL_CASES))
def test_jordan_residual_coords_are_exact(name):
    """Every failing table report gives the exact residual of its tuple."""
    check, alg, position = CASES[RESIDUAL_CASES[name]]
    r = case_report(RESIDUAL_CASES[name])
    bad = planted(table(alg), *position, anti=check is check_lie_table)
    assert not r.passed
    assert r.counterexample["residualCoords"] == RESIDUALS[check](
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


# -- mul_vectors on the table oracle -------------------------------------------------

# small constants with denominators <= 7, so that sums cancel often
SMALL = st.builds(Fraction, st.sampled_from([-2, -1, -1, 0, 1, 1, 3]), st.integers(1, 7))


@st.composite
def parity_consistent_tables(draw):
    """A parity-consistent table of dimension <= 6, not necessarily
    supercommutative, with constants from SMALL and some pairs out of
    span."""
    dim = draw(st.integers(1, 6))
    par = draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    table, oos = {}, set()
    for i in range(dim):
        for j in range(dim):
            if draw(st.integers(0, 4)) == 0:
                oos.add((i, j))
                continue
            q = (par[i] + par[j]) & 1
            table[(i, j)] = {k: draw(SMALL) for k in range(dim)
                             if par[k] == q and draw(st.booleans())}
    return FiniteSuperAlgebra([f"e{i}" for i in range(dim)], par, table, oos)


@settings(max_examples=200, deadline=None)
@given(parity_consistent_tables(), st.data())
def test_mul_vectors_is_the_fraction_product(J, data):
    rows, scale = J.oracle
    for i in range(J.dim):
        for j in range(J.dim):
            prod = J.product(i, j)
            assert rows[i][j] == (None if prod is None
                                  else {k: c * scale for k, c in prod.items()})
    # vectors with zero entries; SMALL repeats values, so terms cancel
    vector = st.dictionaries(st.integers(0, J.dim - 1), SMALL, max_size=J.dim)
    for _ in range(4):
        u, v = data.draw(vector), data.draw(vector)
        got = J.mul_vectors(u, v)
        assert got == frac_mul(J, u, v)
        blocked = any((i, j) in J.out_of_span
                      for i, ci in u.items() if ci for j, cj in v.items() if cj)
        assert (got is None) == blocked
        if got is not None:
            assert all(isinstance(c, Fraction) and c for c in got.values())


# -- the Jordan kernel on per-pair maps ---------------------------------------------


def reference_jordan_scan(args):
    """sum over the cyclic terms (u, w) of (ab, c), (bc, a), (ca, b) of
    s (u o (w o x)) - s s' (w o (u o x)), s the Koszul sign of the cyclic
    shift and s' = (-1)^{p(u)p(w)}, on multisets a <= b <= c times all x,
    for a in [lo, hi); every product recomputed for every tuple."""
    (rows, par, dim), lo, hi = args
    unit = [{i: 1} for i in range(dim)]
    certified = skipped = 0
    for a in range(lo, hi):
        for b in range(a, dim):
            for c in range(b, dim):
                ab, bc, ca = rows[a][b], rows[b][c], rows[c][a]
                if ab is None or bc is None or ca is None:
                    skipped += dim
                    continue
                terms = []
                for u, w, odd, pu in ((ab, c, par[a] and par[c], par[a] + par[b]),
                                      (bc, a, par[b] and par[a], par[b] + par[c]),
                                      (ca, b, par[c] and par[b], par[c] + par[a])):
                    s = -1 if odd else 1
                    terms.append((u, w, s, -s if (pu & 1 and par[w]) else s))
                for x in range(dim):
                    res: dict = {}
                    for u, w, s, t in terms:
                        wx = rows[w][x]
                        if wx is None:
                            res = None
                            break
                        if not u:
                            continue
                        ux: dict = {}
                        if (wx and not _mul_into(res, rows, u, wx, s)
                                or not _mul_into(ux, rows, u, unit[x])
                                or ux and not _mul_into(res, rows, unit[w], ux, -t)):
                            res = None
                            break
                    if res is None:
                        skipped += 1
                        continue
                    certified += 1
                    if any(res.values()):
                        return certified, skipped, "jordan-identity", (a, b, c, x), res
    return certified, skipped, None, None, None


def outcome(worker, J, workers):
    """(certified, skipped, first tuple, residual without zeros) of a scan."""
    certified, skipped, fail = scan(worker, (J.oracle[0], J.parities, J.dim),
                                    J.dim, workers)
    if fail is None:
        return certified, skipped, None, None
    _identity, idx, res = fail
    return certified, skipped, idx, {k: v for k, v in res.items() if v}


KERNEL_CASES = {
    **{name: (name, None) for name in ("gl(2,2)+", "osp(2,2)+", "D_t(2)", "K", "F", "JP(0,2)",
                                       "JP(1,2)|deg3", "JCK|deg1", "JS|deg4")},
    **{f"{name} planted": (name, position) for name, position in (
        ("gl(2,2)+", (0, 2, 2)), ("F", (0, 3, 3)), ("JCK|deg1", (0, 1, 1)),
        ("JP(1,2)|deg3", (0, 2, 2)))},
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_pair_map_kernel_matches_the_reference(name, workers):
    alg, position = KERNEL_CASES[name]
    J = table(alg) if position is None else planted(table(alg), *position)
    got = outcome(_jordan_scan, J, workers)
    assert got == outcome(reference_jordan_scan, J, workers)
    assert (got[2] is None) == (position is None)
    if got[2] is None and not J.is_total():
        assert got[1] > 0


# -- relation (10) from two Jordan instances ----------------------------------------


def lemma_signs(pa, pb, pc, px):
    """(e1, e2) of R(a, b, c | x) = e1 Jor(b, c, x | a) + e2 Jor(a, c, x | b)."""
    e1 = -1 if (pa * (pb + pc + px) + pb * px) & 1 else 1
    e2 = 1 if (pb * (pc + px) + pa * px) & 1 else -1
    return e1, e2


@st.composite
def supercommutative_tables(draw):
    """A total, parity-consistent, supercommutative table of dimension <= 6
    with small rational constants: c_ij^k for i <= j, mirrored onto c_ji^k
    with the sign (-1)^{p(i)p(j)} (so e_i e_i = 0 for odd e_i)."""
    dim = draw(st.integers(1, 6))
    par = draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2]))
    table = {}
    for i in range(dim):
        for j in range(i, dim):
            if i == j and par[i]:
                continue
            q = (par[i] + par[j]) & 1
            vec = {k: draw(coeff) for k in range(dim)
                   if par[k] == q and draw(st.booleans())}
            table[(i, j)] = vec
            sign = -1 if par[i] and par[j] else 1
            table[(j, i)] = {k: sign * v for k, v in vec.items()}
    return FiniteSuperAlgebra([f"e{i}" for i in range(dim)], par, table)


def first_failure(worker, J):
    """(tuple, residual divided by scale**3) of a scan's first failure."""
    rows, scale = J.oracle
    fail = worker(((rows, J.parities, J.dim), 0, J.dim))
    if fail[2] is None:
        return None
    return fail[3], {str(k): str(Fraction(v, scale ** 3)) for k, v in fail[4].items() if v}


@settings(max_examples=120, deadline=None)
@given(supercommutative_tables(), st.data())
def test_relation10_residual_is_a_signed_sum_of_two_jordan_residuals(J, data):
    assert J.commutativity_defect() is None and J.parity_consistent()
    index = st.integers(0, J.dim - 1)
    quads = data.draw(st.lists(st.tuples(index, index, index, index), min_size=1, max_size=8))
    for a, b, c, x in quads:
        e1, e2 = lemma_signs(*(J.parities[t] for t in (a, b, c, x)))
        rhs: dict = {}
        _add(rhs, {k: Fraction(v) for k, v in jordan_residual(J, b, c, x, a).items()}, e1)
        _add(rhs, {k: Fraction(v) for k, v in jordan_residual(J, a, c, x, b).items()}, e2)
        assert relation10_residual(J, a, b, c, x) == {k: str(v) for k, v in rhs.items() if v}
    # the residuals above are the ones the two scans compute
    for worker, residual in ((_relation10_scan, relation10_residual),
                             (_jordan_scan, jordan_residual)):
        fail = first_failure(worker, J)
        if fail is not None:
            assert fail[1] == residual(J, *fail[0])
    # the lemma path gives the bytes of the relation (10) scan
    scanned = _table_report("jordan-relation10", J, 0.0, _relation10_scan, 1, "quadruple",
                            {"dim": J.dim, "quantifier": "ordered triples times all x"}, 3)
    assert check_relation10(J).to_json() == scanned.to_json()


def nilpotent_power_table():
    """e1 e1 = e2, e1 e2 = e3, e2 e2 = e4, e1 e3 = e5, all even: every
    product of three basis vectors but (e1 e1)(e1 e1) and e1 (e1 (e1 e1))
    is zero.  Relation (10) holds (at a = b = c = x = e1 both of its sides
    are 0), and the Jordan identity fails there: its residual is 3(e4 - e5),
    the defect of x^2 x^2 = x^3 x."""
    one = Fraction(1)
    table = {(0, 0): {1: one}, (0, 1): {2: one}, (1, 0): {2: one},
             (1, 1): {3: one}, (0, 2): {4: one}, (2, 0): {4: one}}
    return FiniteSuperAlgebra([f"e{i + 1}" for i in range(5)], [0] * 5, table,
                              name="x2x2-not-x3x")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_table_that_fails_jordan_gets_the_scanned_relation10_verdict(workers):
    J = nilpotent_power_table()
    jordan = check_jordan(J, workers=workers)
    assert not jordan.passed
    assert jordan.counterexample["indices"] == [0, 0, 0, 0]
    assert jordan.counterexample["residualCoords"] == {"3": "3", "4": "-3"}
    r = check_relation10(J, workers=workers)
    assert r.passed
    assert r.certified_span["certifiedQuadruples"] == 5 ** 4
    assert r.to_json() == _table_report(
        "jordan-relation10", J, 0.0, _relation10_scan, workers, "quadruple",
        {"dim": J.dim, "quantifier": "ordered triples times all x"}, 3).to_json()


def test_a_passing_jordan_scan_certifies_every_relation10_quadruple(monkeypatch):
    import jsalg.jordan as jd

    J = glplus(1, 1)
    scanned = check_relation10(J).to_json()
    monkeypatch.setattr(jd, "_relation10_scan", None)  # the lemma path never scans
    r = check_relation10(J)
    assert r.to_json() == scanned
    assert r.certified_span["certifiedQuadruples"] == 4 ** 4
    assert r.certified_span["skippedQuadruples"] == 0


# -- the symmetry pre-check ---------------------------------------------------------


def reference_symmetry_defect(J, sign):
    """The ordered loop over every basis pair."""
    for i in range(J.dim):
        for j in range(J.dim):
            a, b = J.product(i, j), J.product(j, i)
            if (a is None) != (b is None):
                return (i, j, -1)
            if a is None:
                continue
            s = -sign if (J.parities[i] and J.parities[j]) else sign
            for k in set(a) | set(b):
                if a.get(k, 0) != s * b.get(k, 0):
                    return (i, j, k)
    return None


@settings(max_examples=150, deadline=None)
@given(supercommutative_tables(), st.data())
def test_symmetry_precheck_matches_the_ordered_loop(J, data):
    table = {key: dict(vec) for key, vec in J.table.items()}
    oos = set()
    index = st.integers(0, J.dim - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        i, j, k = data.draw(st.tuples(index, index, index))
        kind = data.draw(st.sampled_from(("bump", "oos", "oos-pair")))
        if kind == "bump":
            table.setdefault((i, j), {})[k] = table.get((i, j), {}).get(k, 0) + 1
        else:
            oos |= {(i, j), (j, i)} if kind == "oos-pair" else {(i, j)}
    K = FiniteSuperAlgebra(J.labels, J.parities, table, oos)
    for sign in (1, -1):
        assert K._symmetry_defect(sign) == reference_symmetry_defect(K, sign)
