"""Catalog tables, the doubles, and the identity/simplicity/iso checkers."""

from fractions import Fraction

import pytest

from jsalg.brackets import BracketSpec
from jsalg.jordan import (
    FAMILIES,
    FiniteSuperAlgebra,
    _closure,
    build,
    build_jck,
    build_js,
    check_iso,
    check_jordan,
    check_relation10,
    check_simple,
    dt,
    falg,
    formplus,
    glplus,
    IsoWitness,
    jp,
    jp_finite,
    kalg,
    kkm_double,
    ospplus,
    pplus,
    qplus,
    witness_dt_inverse,
    witness_form12_to_d1,
    witness_jp01_to_gl11,
)


DIMS = [
    (lambda: glplus(2, 1), (5, 4)),
    (lambda: glplus(2, 2), (8, 8)),
    (lambda: ospplus(3, 2), (7, 6)),
    (lambda: formplus(2, 2), (3, 2)),
    (lambda: pplus(2), (4, 4)),
    (lambda: qplus(2), (4, 4)),
    (lambda: dt(2), (2, 2)),
    (lambda: kalg(), (1, 2)),
    (lambda: falg(), (6, 4)),
    (lambda: jp_finite(2), (4, 4)),
    (lambda: jp_finite(3), (8, 8)),
]


@pytest.mark.parametrize("thunk,want", DIMS)
def test_dimension_table(thunk, want):
    assert thunk().sdim() == want


def test_every_total_catalog_entry_is_supercommutative_and_consistent():
    for thunk, _ in DIMS:
        J = thunk()
        assert J.parity_consistent()
        assert J.commutativity_defect() is None


def test_units():
    for thunk in (lambda: glplus(1, 1), lambda: dt(1), lambda: falg(),
                  lambda: formplus(1, 2), lambda: pplus(2), lambda: qplus(2),
                  lambda: ospplus(2, 2), lambda: jp_finite(2)):
        J = thunk()
        e = J.find_unit()
        assert e is not None
        for j in range(J.dim):
            assert J.mul_vectors(e, {j: Fraction(1)}) == {j: Fraction(1)}
    assert kalg().find_unit() is None
    assert build_js(3).find_unit() is None


def test_jordan_identity_small_entries():
    for t in (1, 2, Fraction(-1, 2)):
        assert check_jordan(dt(t)).passed
    assert check_jordan(falg()).passed
    assert check_jordan(kalg()).passed


def test_relation10_small_entries():
    assert check_relation10(kalg()).passed
    assert check_relation10(glplus(1, 1)).passed


def test_checkers_fail_on_broken_tables():
    # non-commutative control
    bad = FiniteSuperAlgebra(
        ["a", "b"], [0, 0],
        {(0, 1): {0: Fraction(1)}},
        name="broken",
    )
    r = check_jordan(bad)
    assert not r.passed and r.counterexample["reason"] == "not supercommutative"
    # commutative but non-Jordan control: corrupt one structure constant of F
    J = falg()
    tbl = {k: dict(v) for k, v in J.table.items()}
    i = J.labels.index("a(x)a")
    tbl[(i, i)] = {0: Fraction(1, 3)}
    broken = FiniteSuperAlgebra(J.labels, J.parities, tbl, name="F-corrupt")
    assert not check_jordan(broken).passed
    assert not check_relation10(broken).passed


def test_corrupted_dt_is_jordan_but_not_simple():
    # drop the t-term of the odd product: the table becomes the degenerate one
    J = dt(0)
    assert check_jordan(J).passed
    assert not check_simple(J)


def test_simplicity_catalog_verdicts():
    assert check_simple(dt(2))
    assert not check_simple(dt(0))
    assert check_simple(kalg())
    assert not check_simple(formplus(1, 0))
    assert not check_simple(build_js(0))


def test_kkm_product_rules():
    spec = BracketSpec.diagonal(0, 2)
    J = kkm_double(spec, deg=2, name="JP(0,2)")
    lbl = J.labels.index
    one = lbl("1")
    xi1 = lbl("xi1")
    eta1 = lbl("eta*1")
    eta_xi1 = lbl("eta*xi1")
    # a o eta b = (-1)^{p(a)} eta(ab)
    assert J.product(xi1, eta1) == {eta_xi1: Fraction(-1)}
    assert J.product(eta1, xi1) == {eta_xi1: Fraction(1)}
    # eta 1 o eta 1 = 0 by antisymmetry
    assert J.product(eta1, eta1) == {}
    # eta xi1 o eta xi1 = -{xi1, xi1} = +1
    assert J.product(eta_xi1, eta_xi1) == {one: Fraction(1)}


def test_jp_contact_double_modified_bracket_value():
    J = jp(1, 0, 3)
    i = J.labels.index("eta*x1")
    j = J.labels.index("eta*x1^2")
    k = J.labels.index("x1^2")
    # eta t o eta t^2 = {t, t^2}_D = t^2
    assert J.product(i, j) == {k: Fraction(1)}


def test_jp_identities_certified():
    for m, n in [(1, 0), (1, 1), (2, 1)]:
        J = jp(m, n, 3)
        r = check_jordan(J)
        assert r.passed and r.certified_span["certifiedQuadruples"] > 0
        assert check_relation10(J).passed


def test_jck_frozen_products():
    J = build_jck(2)
    lbl = J.labels.index
    one = Fraction(1)
    i_i = lbl("x^0(x)i")
    i_j = lbl("x^0(x)j")
    i_1 = lbl("x^0(x)1")
    e_i = lbl("eta*x^0(x)i")
    e_x1 = lbl("eta*x^1(x)1")
    e_1 = lbl("eta*x^0(x)1")
    # real quaternion units: i o i = -1 and eta i o j = -eta k
    assert J.product(i_i, i_i) == {i_1: -one}
    assert J.product(e_i, i_j) == {lbl("eta*x^0(x)k"): -one}
    # eta(x (x) 1) o eta(1 (x) 1) = D(x) 1 - x D(1) = 1
    assert J.product(e_x1, e_1) == {i_1: one}
    assert check_jordan(J).passed
    assert all(type(c) is Fraction for vec in J.table.values() for c in vec.values())


def test_js_frozen_products():
    J = build_js(2)
    lbl = J.labels.index
    xi = lbl("x^0 xi")
    one = lbl("x^0")
    x1 = lbl("x^1")
    # xi o xi = 2 xi (even after the parity reversal)
    assert J.product(xi, xi) == {xi: Fraction(2)}
    assert J.parities[xi] == 0 and J.parities[one] == 1
    # 1 o 1 = 0
    assert J.product(one, one) == {}
    # x o xi = xi o x (sign +1: the reversed parities are odd/even)
    assert J.product(x1, xi) == J.product(xi, x1) == {x1: Fraction(1)}
    assert check_jordan(build_js(4)).passed


def test_osp_dimension_formula():
    for m, n in [(1, 2), (2, 2), (3, 2), (2, 4)]:
        J = ospplus(m, n)
        assert J.sdim() == (m * (m + 1) // 2 + n * (n - 1) // 2, m * n)
        assert check_jordan(J).passed


def test_iso_witnesses():
    assert check_iso(witness_jp01_to_gl11()).passed
    assert check_iso(witness_form12_to_d1()).passed
    assert check_iso(witness_dt_inverse(2)).passed
    assert check_iso(witness_dt_inverse(-3)).passed


def test_iso_negative_controls():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert not check_iso(IsoWitness(dt(2), dt(3), ident)).passed
    # parity-breaking map
    swap = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    r = check_iso(IsoWitness(dt(2), dt(2), swap))
    assert not r.passed and r.counterexample["reason"] == "parity not preserved"
    # non-invertible map
    zero = [[0] * 4 for _ in range(4)]
    r = check_iso(IsoWitness(dt(2), dt(2), zero))
    assert not r.passed


def test_iso_needs_total_tables():
    # a span of all dim^2 pairs would claim the 9 pairs that leave JS|deg2's span
    J = build_js(2)
    ident = [[int(i == j) for j in range(J.dim)] for i in range(J.dim)]
    with pytest.raises(ValueError, match="total"):
        check_iso(IsoWitness(J, J, ident))


def test_export_import_roundtrip():
    for J in (kalg(), falg(), dt(Fraction(-3, 7)), jp(1, 1, 2)):
        data = J.to_json_dict()
        back = FiniteSuperAlgebra.from_json_dict(data)
        assert back.same_table(J)
    assert len(kalg().to_json_dict()["basis"]) == 3


def test_import_rejects_parity_inconsistency():
    data = {
        "basis": [{"label": "a", "parity": 0}, {"label": "x", "parity": 1}],
        "c": [[0, 0, 1, 1, 1]],  # even o even -> odd
    }
    with pytest.raises(ValueError):
        FiniteSuperAlgebra.from_json_dict(data)


def test_jck_export_round_trip():
    J = build_jck(1)
    assert FiniteSuperAlgebra.from_json_dict(J.to_json_dict()).same_table(J)


def test_build_dispatcher():
    assert build("Dt", t=2).name == "D_t(2)"
    assert build("JPfinite", n=2).sdim() == (4, 4)
    assert build("JP", m=1, n=1, deg=2).name.startswith("JP(1,1)")
    assert build("dt", t=2).name == "D_t(2)"  # tags match in any letter case
    for tag, _params, _builder in FAMILIES:
        assert build(tag, m=1, n=2, t=2, deg=1).dim > 0, tag
    with pytest.raises(ValueError):
        build("nope")
    with pytest.raises(ValueError):
        build("Dt")


def test_sampled_simplicity_is_deterministic():
    a = check_simple(falg(), seed=0)
    b = check_simple(falg(), seed=0)
    assert a is True and b is True


def test_kkm_even_part_associative_regular_module():
    J = jp_finite(2)
    N = J.dim // 2
    one = Fraction(1)
    # the plain part is an associative subalgebra
    for a in range(N):
        for b in range(N):
            ab = J.product(a, b)
            for c in range(N):
                bc = J.product(b, c)
                lhs = J.mul_vectors(ab, {c: one})
                rhs = J.mul_vectors({a: one}, bc)
                assert lhs == rhs
    # right multiplication by the plain part on the eta part is the regular
    # module with the parity reversed: (eta b) o a = eta(b a)
    for b in range(N):
        for a in range(N):
            v = J.product(N + b, a)
            ba = J.product(b, a)
            assert v == {N + k: c for k, c in ba.items()}
            assert J.parities[N + b] == (J.parities[b] + 1) % 2


def test_explicit_zero_constants_are_dropped():
    # a stored 0 is no product: nothing may take it as a pivot or count it
    a = {"label": "a", "parity": 0}
    J = FiniteSuperAlgebra.from_json_dict({"basis": [a], "c": [[0, 0, 0, 0, 1]]})
    assert J.find_unit() is None
    assert J.to_json_dict()["c"] == []
    assert check_simple(J) is False
    assert J.table == {}
    # unital e, x with e e = e, e x = x e = x and a stored x x = 0 e
    e, x = {"label": "e", "parity": 0}, {"label": "x", "parity": 0}
    J = FiniteSuperAlgebra.from_json_dict({"basis": [e, x], "c": [
        [0, 0, 0, 1, 1], [0, 1, 1, 1, 1], [1, 0, 1, 1, 1], [1, 1, 0, 0, 1]]})
    assert J.find_unit() == {0: 1}
    d = J.to_json_dict()
    assert d["unit"] == 0 and [1, 1, 0, 0, 1] not in d["c"]
    assert (1, 1) not in J.table
    assert check_simple(J) is False  # span{x} is an ideal


def test_closure_skips_a_product_that_leaves_the_span_whole():
    # a o c = c o a = c, a o b out of span: a o (b + c) is not the partial sum c
    one = {2: Fraction(1)}
    J = FiniteSuperAlgebra(["a", "b", "c"], [0, 0, 0], {(0, 2): one, (2, 0): one},
                           {(0, 1)})
    rows = J.oracle[0]
    assert _closure(rows, {1: 1, 2: 1}).rank == 1
    assert _closure(rows, {0: 1}).rank == 2
