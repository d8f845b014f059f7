"""The three-graded construction, its inverse, and the semidirect split."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsalg.jordan import (
    FiniteSuperAlgebra,
    check_jordan,
    dt,
    falg,
    formplus,
    glplus,
    ideal_closure,
    jp_finite,
    kalg,
    build_js,
    jp,
    unital_identity_catalog,
    witness_jp01_to_gl11,
)
from jsalg.lieclass import build_hk
from jsalg.linalg import CoordSolver, solve_linear, vec_iadd
from jsalg import tkk as tk
from jsalg.tkk import (
    GradedLie,
    Sl2Triple,
    TKK,
    WOp,
    WTensor,
    _bracket,
    _cover_defects,
    _product_tensor,
    _tensor_bracket,
    _wop_bracket,
    _wop_from_left_mul,
    check_lie_table,
    check_minimal_table,
    check_semidirect,
    check_triple,
    inverse_product,
    matrix_apply,
    tkk,
    unital_extend,
)
from references import exp_ad, is_table_automorphism, matrix_compose


def graded_dims(T):
    """(dim g-1, dim g0, dim g1) of a realization."""
    return T.J.dim, len(T.g0.rows), len(T.g1.rows)


def test_lie_dt_dims_and_checks():
    real = TKK(dt(2))
    assert real.dims() == (9, 8)
    assert graded_dims(real) == (4, 9, 4)
    assert real.check_triple().passed
    assert real.check_minimal().passed
    assert real.round_trip().passed


def test_lie_gl11_is_small_quotient():
    # the even-size linear family lands on the (6|8)-dimensional quotient
    assert TKK(glplus(1, 1)).dims() == (6, 8)
    assert TKK(jp_finite(1)).dims() == (6, 8)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_lie_of_glplus_has_the_closed_form_dimension(m, n):
    """Lie(gl(m,n)+) is (p)sl(2m|2n): dimension 4(m+n)^2 - 1, less one more
    for the centre quotient when m = n."""
    L, _ = tkk(glplus(m, n))
    assert L.algebra.dim == 4 * (m + n) ** 2 - 1 - (m == n)


def test_lie_form12_matches_lie_d1():
    # the two sides of the shipped witness have matching graded dimensions
    a = TKK(formplus(1, 2))
    b = TKK(dt(1))
    assert a.dims() == b.dims() == (9, 8)
    assert graded_dims(a) == graded_dims(b)


def test_assembled_table_is_lie_and_triple_checks():
    L, triple = tkk(dt(2))
    assert check_lie_table(L.algebra).passed
    assert check_triple(L, triple).passed
    # doubling h breaks the eigenvalue condition
    bad = Sl2Triple(e=triple.e, h={k: 2 * v for k, v in triple.h.items()},
                    f=triple.f)
    assert not check_triple(L, bad).passed


def test_minimal_table_and_artificial_center():
    L, _ = tkk(dt(2))
    assert check_minimal_table(L).passed
    alg = L.algebra
    labels = alg.labels + ["z"]
    parities = alg.parities + [0]
    table = {k: dict(v) for k, v in alg.table.items()}
    from jsalg.jordan import FiniteSuperAlgebra

    bigger = FiniteSuperAlgebra(labels, parities, table, name="centered")
    r = check_minimal_table(GradedLie(bigger, L.grading + [0]))
    assert not r.passed
    assert any("transitivity" in f for f in r.counterexample["failures"])


def test_round_trip_reproduces_table():
    for J in (dt(2), falg(), kalg(), glplus(1, 1)):
        L, triple = tkk(J)
        if triple is None:
            continue
        back = inverse_product(L, triple)
        assert back.table == J.table
        assert back.parities == J.parities


def test_round_trip_with_swapped_elements_differs():
    J = dt(2)
    L, triple = tkk(J)
    swapped = Sl2Triple(e=triple.f, h=triple.h, f=triple.e)
    back = inverse_product(L, swapped)
    assert back.table != J.table  # degree -1 elements bracket to zero


def test_exp_ad_basics():
    L, triple = tkk(dt(2))
    dim = L.algebra.dim
    ident = {i: {i: Fraction(1)} for i in range(dim)}
    assert exp_ad(L, {}) == ident
    Ae = exp_ad(L, triple.e)
    assert is_table_automorphism(L, Ae)
    # exp(ad e) fixes e
    assert matrix_apply(Ae, triple.e) == triple.e
    Af = exp_ad(L, triple.f)
    assert is_table_automorphism(L, Af)
    # a degree-0 element is not nilpotent: rejected
    with pytest.raises(ValueError):
        exp_ad(L, triple.h)


def test_exp_ad_refuses_a_column_that_leaves_the_span():
    # K(1,3)|deg3: ad xi1 xi2 xi3 sends x1^2 out of span, which is not a zero column
    L, _triple, _rep = build_hk("k", 0, 3)
    assert (L.algebra.dim, len(L.algebra.out_of_span)) == (20, 83)
    with pytest.raises(ValueError, match="leaves the table span"):
        exp_ad(L, {L.algebra.labels.index("xi1 xi2 xi3"): Fraction(1)})


def test_identity_is_an_automorphism_of_a_truncated_table():
    # JP(1,1)|deg2 has 29 out-of-span pairs: they are skipped, not read as zero
    J = jp(1, 1, 2)
    L = GradedLie(J, [0] * J.dim)
    assert len(J.out_of_span) == 29
    assert is_table_automorphism(L, {i: {i: Fraction(1)} for i in range(J.dim)})
    assert not is_table_automorphism(L, {i: {i: Fraction(2)} for i in range(J.dim)})


def test_weyl_composition_swaps_grading():
    L, triple = tkk(dt(2))
    Ae = exp_ad(L, triple.e)
    A2f = exp_ad(L, {k: 2 * v for k, v in triple.f.items()})
    w = matrix_compose(Ae, matrix_compose(A2f, Ae))
    assert matrix_apply(w, triple.h) == {k: -v for k, v in triple.h.items()}
    # and it maps each degree eigenspace onto the opposite one
    for i, g in enumerate(L.grading):
        img = w.get(i, {})
        assert all(L.grading[k] == -g for k in img)


def test_simple_unital_input_gives_basis_generated_ideals():
    L, _ = tkk(dt(2))
    dim = L.algebra.dim
    for i in range(dim):
        assert ideal_closure(L.algebra, {i: Fraction(1)}).rank == dim


def test_unital_extend():
    Kt, had = unital_extend(kalg())
    assert not had
    assert Kt.sdim() == (2, 2)
    assert Kt.find_unit() == {0: Fraction(1)}
    ext, had = unital_extend(build_js(2))
    assert not had and ext.find_unit() is not None
    _same, had = unital_extend(dt(1))
    assert had is True


def test_nonunital_direct_construction_fails_third_condition():
    # the degree-1 piece contains the product tensor, which is not spanned
    # by its brackets with multiplications for the non-unital table
    # (recorded before [g0, g1] was tested on the generators alone)
    real = TKK(kalg())
    r = real.check_minimal()
    assert not r.passed
    assert r.counterexample == {"failures": ["[g0, g1] spans only 3 of 4 in g1"]}


def test_minimal_check_reports_a_g1_bracket_that_leaves_g1():
    # b c = c, c c = a: supercommutative but not Jordan, and [g0, g1] is not
    # inside the realized g1
    one = Fraction(1)
    table = {(1, 2): {2: one}, (2, 1): {2: one}, (2, 2): {0: one}}
    J = FiniteSuperAlgebra(["a", "b", "c"], [0, 0, 0], table, name="not-jordan")
    assert not check_jordan(J).passed
    r = TKK(J).check_minimal()
    assert r.counterexample == {"failures": ["[g0, g1] leaves g1"]}


def test_minimal_check_brackets_only_the_generators_with_g1(monkeypatch):
    real = TKK(glplus(1, 1))
    calls = []

    def counted(*args):
        calls.append(1)
        return _tensor_bracket(*args)

    monkeypatch.setattr(tk, "_tensor_bracket", counted)
    assert real.check_minimal().passed
    d, n0, n1 = real.J.dim, len(real.g0.rows), len(real.g1.rows)
    assert len(calls) == d * n1 < n0 * n1


def _supersymmetric(B, par) -> bool:
    """B(x, y) = (-1)^{p(x)p(y)} B(y, x) on every pair with a stored value."""
    return all(B.at(y, x) == ({k: -c for k, c in vec.items()} if par[x] and par[y] else vec)
               for (x, y), vec in B.vals.items())


def lemma_premise_defects(real) -> list:
    """The premises of `TKK.check_triple`'s lemma that fail on a
    realization: e = find_unit() is a two-sided unit, and every row of g1
    is supersymmetric."""
    J = real.J
    defects = []
    for x in range(J.dim):
        one = {x: Fraction(1)}
        if J.mul_vectors(real.unit, one) != one or J.mul_vectors(one, real.unit) != one:
            defects.append(f"e o {J.labels[x]} is not {J.labels[x]}")
    for i, (B, _) in enumerate(real.g1.rows):
        if not _supersymmetric(B, J.parities):
            defects.append(f"g1 row {i} is not supersymmetric")
    return defects


def test_lemma_premises_flag_a_g1_row_that_is_not_supersymmetric():
    # B(e0, e1) = e0 and every other value 0: ad h = ad(-id) sends B to
    # (x, y) -> (-1)^{p(x)p(y)} B(y, x), which is not B, so a realization
    # with this row in g1 would break check_triple's lemma
    real = TKK(dt(2))
    assert lemma_premise_defects(real) == []
    real.g1.rows.append((WTensor({(0, 1): {0: 1}}, frozenset(), 1), 0))
    n = len(real.g1.rows) - 1
    assert lemma_premise_defects(real) == [f"g1 row {n} is not supersymmetric"]


def test_triple_check_runs_no_bracket(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_triple computed a bracket")

    real = TKK(glplus(1, 1))
    for name in ("_bracket", "_tensor_bracket", "_wop_bracket"):
        monkeypatch.setattr(tk, name, refuse)
    assert real.check_triple().passed


def test_minimal_check_makes_no_bracket_with_degree_minus_one(monkeypatch):
    # [B, x] for B in g1 is WTensor.to_matrix; check_minimal needs none
    real = TKK(glplus(1, 1))
    calls = []
    to_matrix = WTensor.to_matrix

    def counted(self, x, win):
        calls.append(x)
        return to_matrix(self, x, win)

    monkeypatch.setattr(WTensor, "to_matrix", counted)
    assert real.check_minimal().passed
    assert calls == []


def test_canonical_triple_needs_a_unit():
    with pytest.raises(ValueError, match="no unit"):
        TKK(kalg()).check_triple()


def test_semidirect_kalg():
    r = check_semidirect(kalg())
    assert r.passed
    assert r.details["sDims"] == [3, 8, 3]
    assert r.details["sSimpleSampled"] is True


def test_semidirect_kalg_report_is_pinned():
    assert check_semidirect(kalg()).to_json() == (
        '{"certifiedSpan":{"carrierDim":4,"s0Certified":8,"s0ComputableSpan":8,'
        '"s1Certified":3,"s1ComputableSpan":3,"sMinus1":3,"window":4},'
        '"details":{"sDims":[3,8,3],"sSimpleSampled":true},'
        '"params":{"algebra":"K","seed":0},"status":"pass","suite":"tkk-semidirect"}'
    )


GOLDEN_SEMIDIRECT = json.loads(
    (Path(__file__).parent / "golden_semidirect.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN_SEMIDIRECT))
def test_semidirect_reports_are_pinned(case):
    # recorded before the brackets were shared through one memo per call;
    # the failing carriers keep their first failure
    J, _, carrier = case.partition(" in ")
    J = build_js(int(J.removeprefix("JS|deg")))
    carrier = build_js(int(carrier.removeprefix("JS|deg"))) if carrier else None
    assert check_semidirect(J, carrier=carrier).to_json() == GOLDEN_SEMIDIRECT[case]


@pytest.mark.parametrize("deg, carrier_deg", [(1, 1), (2, 2), (2, 3), (3, 4)])
def test_semidirect_carrier_too_small_for_degree0_fails(deg, carrier_deg):
    r = check_semidirect(build_js(deg), carrier=build_js(carrier_deg))
    assert r.status == "fail"
    assert r.counterexample["failures"] == ["carrier too small for the degree-0 span"]


@pytest.mark.parametrize("pos", [0, 3, 11], ids=["S-1", "S0", "S1"])
def test_outer_check_catches_an_inner_target(monkeypatch, pos):
    # an element of S acts on S by an inner derivation: planting it as a
    # target must be caught, next to the three real targets that pass
    outer = tk._outer_defects

    def planted(S, targets, bracket):
        assert [S[p][0] for p in (0, 3, 11)] == [-1, 0, 1]
        return outer(S, targets + [("planted", S[pos])], bracket)

    monkeypatch.setattr(tk, "_outer_defects", planted)
    r = check_semidirect(kalg())
    assert r.counterexample["failures"] == ["ad planted restricted to S is inner to S"]


def _table_digest(alg):
    entries = sorted([i, j, k, str(c)] for (i, j), vec in alg.table.items()
                     for k, c in vec.items())
    return hashlib.sha256(json.dumps(
        {"labels": alg.labels, "parities": alg.parities, "c": entries},
        separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("J, digest, triple", [
    (dt(2), "858b1aef6f3033220dcbafaac23fadbe534cd64dc818b47050acb23a3a82efd8",
     ({0: 1, 1: 1}, {4: -1, 5: -1}, {13: 1})),
    (glplus(1, 1), "4ef6f834b67ff81c1fc43fd589988038a70b865983abcfbee4f968b448c4d01c",
     ({0: 1, 3: 1}, {4: -1, 7: -1}, {10: 1})),
    # table scale 16, recorded before the realization ran on ints
    (falg(), "4e6fd13ab43acd3b1d2284c80116053f6367e5eb07f4d8fbed685fe7e439f53e",
     ({0: 1}, {10: -1}, {30: 1})),
], ids=["D_t(2)", "gl(1,1)+", "F"])
def test_assembled_tables_are_pinned(J, digest, triple):
    L, t = tkk(J)
    assert _table_digest(L.algebra) == digest
    assert (t.e, t.h, t.f) == triple


def test_semidirect_rejects_unital():
    with pytest.raises(ValueError):
        check_semidirect(dt(1))


def test_functoriality_of_the_shipped_witness():
    w = witness_jp01_to_gl11()
    src, tgt = w.source, w.target
    A, B = TKK(src), TKK(tgt)
    dim = src.dim
    phi = {i: w.image(i) for i in range(dim)}
    phi_cols = [w.image(i) for i in range(dim)]
    inv_solver = CoordSolver(phi_cols)
    phi_inv = {}
    for j in range(dim):
        sol = inv_solver.solve({j: Fraction(1)})
        phi_inv[j] = {i: c for i, c in enumerate(sol) if c}

    Ls, ts = A.assemble()
    Lt, tt = B.assemble()
    d = dim

    def conj(M):
        return matrix_compose(phi, matrix_compose(M, phi_inv))

    def transport(Bt):
        out = {}
        for x in range(dim):
            for y in range(dim):
                acc = {}
                for z, cz in phi_inv[x].items():
                    for t2, ct in phi_inv[y].items():
                        vec = Bt.get((z, t2))
                        if vec:
                            for k, c in vec.items():
                                for k2, c2 in phi[k].items():
                                    s = acc.get(k2)
                                    v = cz * ct * c * c2
                                    if s is None:
                                        if v:
                                            acc[k2] = v
                                    else:
                                        s = s + v
                                        if s:
                                            acc[k2] = s
                                        else:
                                            del acc[k2]
                if acc:
                    out[(x, y)] = acc
        return out

    images = []  # assembled source index -> assembled target vector
    for i in range(d):
        images.append(dict(phi[i]))
    for M, _p in A.g0.rows:
        coords = B.g0.coords(WOp(conj(M.cols), B.win, M.scale), d)
        assert coords is not None
        images.append(coords)
    for Bt, _p in A.g1.rows:
        coords = B.g1.coords(WTensor(transport(Bt.vals), frozenset(), Bt.scale),
                             d + len(B.g0.rows))
        assert coords is not None
        images.append(coords)

    def apply_map(vec):
        out = {}
        for i, c in vec.items():
            for k, x in images[i].items():
                s = out.get(k)
                v = c * x
                if s is None:
                    if v:
                        out[k] = v
                else:
                    s = s + v
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return out

    N = Ls.algebra.dim
    assert Lt.algebra.dim == N
    for i in range(N):
        for j in range(N):
            lhs = apply_map(Ls.algebra.product(i, j) or {})
            rhs = Lt.algebra.mul_vectors(images[i], images[j])
            assert lhs == rhs, (i, j)
    # the triple maps to the triple
    assert apply_map(ts.e) == tt.e
    assert apply_map(ts.h) == tt.h
    assert apply_map(ts.f) == tt.f


def test_assembled_jacobi_second_family():
    L, triple = tkk(glplus(1, 1))
    assert check_lie_table(L.algebra).passed
    assert check_triple(L, triple).passed
    assert check_minimal_table(L).passed


def _per_pair_bracket(M, pm, B, pb, par):
    """[M, B] computed pair by pair, with its validity rule spelled out."""
    s = -1 if (pm and pb) else 1
    vals, undefined = {}, set()
    for x in range(len(par)):
        for y in range(len(par)):
            mx, my, bxy = M.apply_basis(x), M.apply_basis(y), B.at(x, y)
            acc = None if None in (mx, my, bxy) else M.apply(bxy)
            sgn = -1 if (par[x] and par[y]) else 1
            for z, cz, w in [(z, cz, y) for z, cz in (mx or {}).items()] + [
                    (z, sgn * cz, x) for z, cz in (my or {}).items()]:
                bz = B.at(z, w)
                if acc is None or bz is None:
                    acc = None
                    break
                vec_iadd(acc, bz, -s * cz)
            if acc is None:
                undefined.add((x, y))
            elif acc:
                vals[(x, y)] = acc
    return vals, undefined


@pytest.mark.parametrize("J", [build_js(2), jp(1, 1, 2), kalg()], ids=lambda J: J.name)
def test_grouped_tensor_bracket_keeps_the_per_pair_rule(J):
    C, _ = unital_extend(J)
    par = C.parities
    rows, scale = C.oracle
    L = [_wop_from_left_mul(rows, scale, w) for w in range(C.dim)]
    P = _product_tensor(rows, scale)
    cases = [(L[a], par[a], P, 0) for a in range(C.dim)]
    cases += [(_wop_bracket(L[a], par[a], L[b], par[b]), (par[a] + par[b]) & 1, P, 0)
              for a in range(C.dim) for b in range(a, C.dim, 3)]
    for a in range(0, C.dim, 3):
        Ba = _tensor_bracket(L[a], par[a], P, 0, par)
        cases += [(L[w], par[w], Ba, par[a]) for w in range(C.dim)]
    partial = False
    for M, pm, B, pb in cases:
        T = _tensor_bracket(M, pm, B, pb, par)
        assert (T.vals, set(T.undefined)) == _per_pair_bracket(M, pm, B, pb, par)
        partial |= bool(T.undefined)
    assert partial == (not J.is_total())


# -- the Fraction realization, kept as the reference of the int one ------------------
#
# The realization of Lie(J) on Fraction entries, as it was before it moved to
# the int table oracle: operators and tensors hold the exact values.  The int
# realization, divided by its scales, must agree with it entry for entry,
# with the same domains and undefined pairs.


class RefOp:
    def __init__(self, cols, domain):
        self.cols = cols
        self.domain = domain

    def apply_basis(self, x):
        if x not in self.domain:
            return None
        return self.cols.get(x, {})

    def apply(self, vec):
        if not self.domain.issuperset(vec):
            return None
        return matrix_apply(self.cols, vec)

    def window_flat(self, win, dim):
        return {x * dim + r: v for x, col in self.cols.items() if x in win
                for r, v in col.items()}


class RefTensor:
    def __init__(self, vals, undefined):
        self.vals = vals
        self.undefined = undefined

    def at(self, x, y):
        if (x, y) in self.undefined:
            return None
        return self.vals.get((x, y), {})

    def has_window(self, win):
        return all(x not in win or y not in win for x, y in self.undefined)

    def window_flat(self, win, dim):
        return {(x * dim + y) * dim + k: v for (x, y), vec in self.vals.items()
                if x in win and y in win for k, v in vec.items()}

    def to_matrix(self, x, win):
        out = {}
        for y in win:
            vec = self.at(x, y)
            if vec is None:
                return None
            if vec:
                out[y] = dict(vec)
        return RefOp(out, win)


def ref_left_mul(carrier, a):
    cols, domain = {}, set()
    for x in range(carrier.dim):
        v = carrier.product(a, x)
        if v is None:
            continue
        domain.add(x)
        if v:
            cols[x] = dict(v)
    return RefOp(cols, frozenset(domain))


def ref_wop_bracket(M, pm, N, pn):
    s = -1 if (pm and pn) else 1
    cols, domain = {}, set()
    for x in N.domain & M.domain:
        a = M.apply(N.cols.get(x, {}))
        b = N.apply(M.cols.get(x, {}))
        if a is None or b is None:
            continue
        domain.add(x)
        col = dict(a) if a else {}
        if b:
            vec_iadd(col, b, -s)
        if col:
            cols[x] = col
    return RefOp(cols, frozenset(domain))


def ref_product_tensor(carrier):
    vals = {}
    for x in range(carrier.dim):
        for y in range(carrier.dim):
            v = carrier.product(x, y)
            if v:
                vals[(x, y)] = dict(v)
    return RefTensor(vals, carrier.out_of_span)


def ref_tensor_bracket(M, pm, B, pb, parities):
    s = 1 if (pm and pb) else -1
    out = {}
    for key, vec in B.vals.items():
        v = matrix_apply(M.cols, vec)
        if v:
            out[key] = v
    by_first = {}
    for (z, y), vec in B.vals.items():
        by_first.setdefault(z, []).append((y, vec))
    for x, col in M.cols.items():
        for z, cz in col.items():
            c = cz if s > 0 else -cz
            for y, vec in by_first.get(z, ()):
                acc = out.setdefault((x, y), {})
                vec_iadd(acc, vec, c)
                if not acc:
                    del out[(x, y)]
    for y, col in M.cols.items():
        py = parities[y]
        for z, cz in col.items():
            c = cz if s > 0 else -cz
            for x, vec in by_first.get(z, ()):
                acc = out.setdefault((x, y), {})
                vec_iadd(acc, vec, -c if (parities[x] and py) else c)
                if not acc:
                    del out[(x, y)]
    undefined = set(B.undefined)
    n = len(parities)
    outside = {x for x in range(n) if x not in M.domain}
    if outside:
        for x in outside:
            for y in range(n):
                undefined.add((x, y))
                undefined.add((y, x))
        for key, vec in B.vals.items():
            if not outside.isdisjoint(vec):
                undefined.add(key)
    holes = {}
    for z, y in B.undefined:
        holes.setdefault(y, set()).add(z)
    for y, zs in holes.items():
        for x, col in M.cols.items():
            if not zs.isdisjoint(col):
                undefined.add((x, y))
                undefined.add((y, x))
    if undefined:
        out = {k: v for k, v in out.items() if k not in undefined}
    return RefTensor(out, frozenset(undefined))


def ref_swapped(vec, pu, pv):
    if vec is None:
        return None
    if pu and pv:
        return dict(vec)
    return {k: -c for k, c in vec.items()}


def ref_bracket(u, v, win, par, dim):
    (du, a, pu), (dv, b, pv) = u, v
    if not -1 <= du + dv <= 1:
        return {}
    if du == -1 or (du, dv) == (1, 0):
        return ref_swapped(ref_bracket(v, u, win, par, dim), pv, pu)
    if dv == -1:
        if du == 0:
            return a.apply_basis(b)
        C = a.to_matrix(b, win)
        return None if C is None else C.window_flat(win, dim)
    if dv == 0:
        C = ref_wop_bracket(a, pu, b, pv)
        return C.window_flat(win, dim) if win <= C.domain else None
    C = ref_tensor_bracket(a, pu, b, pv, par)
    return C.window_flat(win, dim) if C.has_window(win) else None


def _over(vec, scale):
    return None if vec is None else {k: Fraction(c, scale) for k, c in vec.items()}


def _same_op(op, ref):
    assert op.domain == ref.domain
    assert {x: _over(col, op.scale) for x, col in op.cols.items()} == ref.cols


def _same_tensor(B, ref):
    assert B.undefined == ref.undefined
    assert {k: _over(vec, B.scale) for k, vec in B.vals.items()} == ref.vals


@st.composite
def supercommutative_tables(draw, total=None):
    """A random supercommutative table on 2-4 basis vectors: e_i o e_j has
    parity p(i) + p(j), coefficients n/q with |n| <= 3 and q <= 7, e_j o e_i
    = (-1)^{p(i)p(j)} e_i o e_j; some unordered pairs are out of span
    unless total."""
    dim = draw(st.integers(2, 4))
    par = draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    if total is None:
        total = draw(st.booleans())
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 7))
    table, oos = {}, set()
    for i in range(dim):
        for j in range(i, dim):
            if not total and draw(st.integers(0, 4)) == 0:
                oos |= {(i, j), (j, i)}
                continue
            if i == j and par[i]:
                continue  # e_i o e_i = -e_i o e_i for odd e_i
            p = (par[i] + par[j]) & 1
            vec = {k: c for k in range(dim) if par[k] == p and (c := draw(coeff))}
            table[(i, j)] = vec
            table[(j, i)] = vec if not (par[i] and par[j]) else {
                k: -c for k, c in vec.items()}
    return FiniteSuperAlgebra([f"e{i}" for i in range(dim)], par, table, oos)


@settings(max_examples=150, deadline=None)
@given(supercommutative_tables(), st.data())
def test_int_realization_matches_the_fraction_reference(J, data):
    rows, scale = J.oracle
    par, n = J.parities, J.dim
    L = [_wop_from_left_mul(rows, scale, a) for a in range(n)]
    R = [ref_left_mul(J, a) for a in range(n)]
    P, RP = _product_tensor(rows, scale), ref_product_tensor(J)
    _same_tensor(P, RP)
    ops = [(L[a], R[a], par[a]) for a in range(n)]
    for a in range(n):
        _same_op(*ops[a][:2])
        for b in range(a, n):
            ops.append((_wop_bracket(L[a], par[a], L[b], par[b]),
                        ref_wop_bracket(R[a], par[a], R[b], par[b]),
                        (par[a] + par[b]) & 1))
            _same_op(*ops[-1][:2])
    tensors = [(P, RP, 0)]
    for M, RM, pm in ops:
        tensors.append((_tensor_bracket(M, pm, P, 0, par),
                        ref_tensor_bracket(RM, pm, RP, 0, par), pm))
        _same_tensor(*tensors[-1][:2])
    M, RM, pm = data.draw(st.sampled_from(ops))
    B, RB, pb = data.draw(st.sampled_from(tensors[1:]))
    C, RC = _tensor_bracket(M, pm, B, pb, par), ref_tensor_bracket(RM, pm, RB, pb, par)
    _same_tensor(C, RC)
    assert C.scale == M.scale * B.scale
    # the one bracket of realized elements, on a window
    win = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    elems = ([((-1, x, par[x]),) * 2 for x in range(n)]
             + [((0, M, pm), (0, RM, pm)) for M, RM, pm in ops]
             + [((1, B, pb), (1, RB, pb)) for B, RB, pb in tensors])
    for _ in range(12):
        (u, ru), (v, rv) = data.draw(st.sampled_from(elems)), data.draw(st.sampled_from(elems))
        sc = (1 if u[0] == -1 else u[1].scale) * (1 if v[0] == -1 else v[1].scale)
        assert _over(_bracket(u, v, win, par, n), sc) == ref_bracket(ru, rv, win, par, n)


@settings(max_examples=100, deadline=None)
@given(supercommutative_tables(total=True))
def test_triple_and_cover_lemmas_hold_on_unital_tables(J):
    # check_triple and the [g-1, g1] half of check_minimal compute nothing;
    # this checks their lemmas' premises, and the bracket identity
    # [[L_a, P], x] = [L_a, L_x] - L_{a o x} of check_minimal's docstring,
    # on Jordan and non-Jordan tables alike
    J, _ = unital_extend(J)
    real = TKK(J)
    assert lemma_premise_defects(real) == []
    rows, s = J.oracle
    par, d, win = J.parities, J.dim, real.win
    for a in range(d):
        B = _tensor_bracket(real.L[a], par[a], real.P, 0, par)
        for x in range(d):
            want = _wop_bracket(real.L[a], par[a], real.L[x], par[x]).window_flat(win, d)
            for k, c in rows[a][x].items():
                vec_iadd(want, real.L[k].window_flat(win, d), -c)
            assert _bracket((1, B, par[a]), (-1, x, par[x]), win, par, d) == want


@settings(max_examples=100, deadline=None)
@given(supercommutative_tables(total=True))
def test_generator_cover_reports_what_the_full_cover_reports(J):
    # TKK.check_minimal brackets only the generators L_a with g1; the lemma
    # in its docstring says the full [g0, g1] cover gives the same report,
    # on Jordan and non-Jordan tables alike
    real = TKK(J)
    par, d, win = J.parities, J.dim, real.win
    g0, g1 = real.g0, real.g1
    failures = _cover_defects(
        g0.span, len(g0.rows), (_bracket((1, B, pb), (-1, x, par[x]), win, par, d)
                                for B, pb in g1.rows for x in range(d)), "[g-1, g1]", "g0")
    if not failures:
        failures = _cover_defects(
            g1.span, len(g1.rows), (_bracket((0, M, pm), (1, B, pb), win, par, d)
                                    for M, pm in g0.rows for B, pb in g1.rows),
            "[g0, g1]", "g1")
    r = real.check_minimal()
    assert (r.counterexample or {}).get("failures", []) == failures


@settings(max_examples=100, deadline=None)
@given(supercommutative_tables(total=True))
def test_table_minimality_agrees_with_the_realization(J):
    # check_minimal_table runs the realization's span cover on the
    # coordinate subspaces of the assembled table, so whenever tkk(J)
    # assembles both paths give one verdict
    try:
        L, _ = tkk(J)
    except ValueError:  # a bracket left the realized span
        return
    assert check_minimal_table(L).passed == TKK(J).check_minimal().passed


def test_table_minimality_failure_names_the_realization_line():
    # K is not unital: P is not spanned by the [L_a, P], in the table as in
    # the realization
    L, triple = tkk(kalg())
    assert triple is None
    r = check_minimal_table(L)
    assert r.counterexample == {"failures": ["[g0, g1] spans only 3 of 4 in g1"]}
    assert r.counterexample == TKK(kalg()).check_minimal().counterexample


def test_round_trip_lemma_holds_on_the_unital_catalog():
    # TKK.round_trip recomputes nothing: [f, x] = P(x, .) is L_x, whose
    # columns are the oracle rows P was read from, and g0 spans L_x
    for name, J in unital_identity_catalog():
        real = TKK(J)
        for x in range(J.dim):
            assert real.P.to_matrix(x, real.win).cols == real.L[x].cols, (name, x)
            assert real.g0.coords(real.L[x]) is not None, (name, x)
