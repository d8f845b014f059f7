"""The three-graded construction, its inverse, and the semidirect split."""

import hashlib
import json
from fractions import Fraction

import pytest

from jsalg.jordan import (
    dt,
    falg,
    formplus,
    glplus,
    ideal_closure,
    jp_finite,
    kalg,
    build_js,
    jp,
    witness_jp01_to_gl11,
)
from jsalg.linalg import CoordSolver, solve_linear, vec_iadd
from jsalg.tkk import (
    GradedLie,
    Sl2Triple,
    TKK,
    WOp,
    WTensor,
    _product_tensor,
    _tensor_bracket,
    _wop_bracket,
    _wop_from_left_mul,
    check_lie_table,
    check_minimal_table,
    check_semidirect,
    check_triple,
    exp_ad,
    inverse_product,
    is_table_automorphism,
    matrix_apply,
    matrix_compose,
    tkk,
    unital_extend,
)


def test_lie_dt_dims_and_checks():
    real = TKK(dt(2))
    assert real.dims() == (9, 8)
    assert real.graded_dims() == {-1: 4, 0: 9, 1: 4}
    assert real.check_triple().passed
    assert real.check_minimal().passed
    assert real.round_trip().passed


def test_lie_gl11_is_small_quotient():
    # the even-size linear family lands on the (6|8)-dimensional quotient
    assert TKK(glplus(1, 1)).dims() == (6, 8)
    assert TKK(jp_finite(1)).dims() == (6, 8)


def test_lie_form12_matches_lie_d1():
    # the two sides of the shipped witness have matching graded dimensions
    a = TKK(formplus(1, 2))
    b = TKK(dt(1))
    assert a.dims() == b.dims() == (9, 8)
    assert a.graded_dims() == b.graded_dims()


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
    real = TKK(kalg())
    r = real.check_minimal()
    assert not r.passed
    assert any("[g0, g1]" in f for f in r.counterexample["failures"])


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
], ids=["D_t(2)", "gl(1,1)+"])
def test_assembled_tables_are_pinned(J, digest, triple):
    L, t = tkk(J)
    assert _table_digest(L.algebra) == digest
    assert (t.e, t.h, t.f) == triple


def test_semidirect_rejects_unital():
    r = check_semidirect(dt(1))
    assert r.status == "error"


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
        coords = B.g0.coords(WOp(conj(M.cols), B.win), d)
        assert coords is not None
        images.append(coords)
    for Bt, _p in A.g1.rows:
        coords = B.g1.coords(WTensor(transport(Bt.vals), frozenset()),
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
    L = [_wop_from_left_mul(C, w) for w in range(C.dim)]
    P = _product_tensor(C)
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
