"""Polyvector fields, the odd bracket, and the biderivation construction."""

from fractions import Fraction

import pytest

from jsalg.brackets import BracketSpec, bracket
from jsalg.schouten import (
    ACPair,
    PolyVector,
    check_s_conditions,
    gpb_from_ac,
    pairing_h_pair,
    pairing_k_pair,
    schouten_bracket,
    wedge,
)
from jsalg.superpoly import SuperPoly, even_var, monomials_total_degree, mul, odd_var


def test_functions_bracket_to_zero():
    x1 = SuperPoly.variable(2, 0, even_var(0))
    x2 = SuperPoly.variable(2, 0, even_var(1))
    r = schouten_bracket(PolyVector.function(x1), PolyVector.function(x2))
    assert r.is_zero()


def test_vector_field_acts_on_function():
    one = SuperPoly.one(2, 0)
    x1 = SuperPoly.variable(2, 0, even_var(0))
    d1 = PolyVector.vector_field(2, 0, [(one, even_var(0))])
    r = schouten_bracket(d1, PolyVector.function(x1))
    assert r == PolyVector.function(one)


def test_bivector_against_function_frozen():
    # hand expansion of the odd product rule pins this value
    one = SuperPoly.one(2, 0)
    x1 = SuperPoly.variable(2, 0, even_var(0))
    x2 = SuperPoly.variable(2, 0, even_var(1))
    d1 = PolyVector.vector_field(2, 0, [(one, even_var(0))])
    d2 = PolyVector.vector_field(2, 0, [(one, even_var(1))])
    u = wedge(d1, d2)
    r = schouten_bracket(u, PolyVector.function(mul(x1, x2)))
    want = PolyVector.vector_field(2, 0, [(x1, even_var(0)), (-x2, even_var(1))])
    assert r == want


def _samples(m, n):
    one = SuperPoly.one(m, n)
    xs = SuperPoly.variable(m, n, even_var(0))
    xi1 = SuperPoly.variable(m, n, odd_var(0))
    xi2 = SuperPoly.variable(m, n, odd_var(1))
    d_even = PolyVector.vector_field(m, n, [(xi1, even_var(0)), (one, odd_var(1))])
    d_odd = PolyVector.vector_field(m, n, [(xs, odd_var(0))])
    return [
        PolyVector.function(xs + mul(xi1, xi2)),
        PolyVector.function(xi1),
        d_even,
        d_odd,
        wedge(PolyVector.vector_field(m, n, [(one, odd_var(0))]),
              PolyVector.vector_field(m, n, [(xi2, even_var(0))])),
        wedge(PolyVector.vector_field(m, n, [(one, even_var(0))]),
              PolyVector.vector_field(m, n, [(one, odd_var(1))])),
    ]


def test_antisymmetry_for_shifted_parity():
    cands = _samples(1, 2)
    for u in cands:
        for v in cands:
            if u.degree + v.degree > 4:
                continue
            lhs = schouten_bracket(u, v)
            rhs = schouten_bracket(v, u)
            s = -1 if ((u.parity() ^ 1) and (v.parity() ^ 1)) else 1
            assert (lhs + rhs.scale(s)).is_zero()


def test_jacobi_for_shifted_parity():
    cands = _samples(1, 2)[:4]

    def q(u):
        return (u.parity() + 1) & 1

    for u in cands:
        for v in cands:
            for w in cands:
                if u.degree + v.degree + w.degree > 4:
                    continue
                lhs = schouten_bracket(u, schouten_bracket(v, w))
                r1 = schouten_bracket(schouten_bracket(u, v), w)
                s = -1 if (q(u) and q(v)) else 1
                r2 = schouten_bracket(v, schouten_bracket(u, w)).scale(s)
                assert (lhs - r1 - r2).is_zero()


def test_degree_cap_enforced():
    one = SuperPoly.one(4, 0)
    d = [PolyVector.vector_field(4, 0, [(one, even_var(i))]) for i in range(4)]
    u = wedge(wedge(d[0], d[1]), d[2])
    with pytest.raises(ValueError):
        schouten_bracket(u, wedge(d[2], d[3]))
    with pytest.raises(ValueError):
        wedge(u, d[3]).parity()  # degree 4 polyvector cannot be built


def test_repeated_even_factor_dies_repeated_odd_survives():
    one = SuperPoly.one(1, 1)
    dx = PolyVector.vector_field(1, 1, [(one, even_var(0))])
    dxi = PolyVector.vector_field(1, 1, [(one, odd_var(0))])
    assert wedge(dx, dx).is_zero()
    assert not wedge(dxi, dxi).is_zero()


def test_s_conditions_for_paired_presentations():
    for k, n in [(0, 3), (1, 2), (1, 3)]:
        assert check_s_conditions(pairing_h_pair(k, n)).passed
        assert check_s_conditions(pairing_k_pair(k, n)).passed


def test_s_conditions_negative_control():
    m, n = 2, 0
    one = SuperPoly.one(m, n)
    x1 = SuperPoly.variable(m, n, even_var(0))
    pair = ACPair(m, n, ((one, even_var(0)),),
                  ((x1, even_var(0), even_var(1)),))
    assert not check_s_conditions(pair).passed


def test_gpb_single_pairing_term():
    m, n = 2, 0
    one = SuperPoly.one(m, n)
    pair = ACPair(m, n, (), ((one, even_var(0), even_var(1)),))
    p = SuperPoly.variable(m, n, even_var(0))
    q = SuperPoly.variable(m, n, even_var(1))
    assert gpb_from_ac(pair, p, q) == one


def test_gpb_empty_pair_is_zero():
    pair = ACPair(1, 1, (), ())
    f = SuperPoly.variable(1, 1, even_var(0))
    assert gpb_from_ac(pair, f, f).is_zero()


def test_gpb_contact_pair_derivation():
    pair = pairing_k_pair(0, 2)
    one = SuperPoly.one(1, 2)
    g = mul(SuperPoly.variable(1, 2, even_var(0)),
            SuperPoly.variable(1, 2, odd_var(0)))
    spec = BracketSpec.k_type(0, 2)
    assert gpb_from_ac(pair, one, g) == bracket(spec, one, g)


def test_gpb_agrees_with_builtin_brackets():
    for kind, k, n in [("h", 0, 3), ("h", 1, 2), ("k", 0, 2), ("k", 1, 1)]:
        pair = (pairing_h_pair if kind == "h" else pairing_k_pair)(k, n)
        spec = (BracketSpec.h_type if kind == "h" else BracketSpec.k_type)(k, n)
        monos = monomials_total_degree(spec.m, spec.n, 2)
        for m1 in monos:
            for m2 in monos:
                f = SuperPoly(spec.m, spec.n, {m1: Fraction(1)})
                g = SuperPoly(spec.m, spec.n, {m2: Fraction(1)})
                assert gpb_from_ac(pair, f, g) == bracket(spec, f, g)


def test_s_conditions_refuse_a_pair_whose_a_is_odd():
    m, n = 0, 2
    one = SuperPoly.one(m, n)
    bad = ACPair(m, n, ((one, odd_var(0)),), ())  # an odd derivation
    with pytest.raises(ValueError, match="a must be an even derivation"):
        check_s_conditions(bad)
    assert check_s_conditions(pairing_h_pair(1, 3)).passed
    assert check_s_conditions(pairing_k_pair(1, 2)).passed


def test_gpb_jacobi_reports_the_failing_identity():
    from jsalg.acceptance import _gpb_jacobi

    # an odd bivector (xi d/dx ^ d/dx) is symmetric on even functions
    xi = SuperPoly.variable(1, 1, odd_var(0))
    sym = ACPair(1, 1, (), ((xi, even_var(0), even_var(0)),))
    r = _gpb_jacobi(sym, BracketSpec(1, 1, "h"), 2, "sym")
    assert r.counterexample == {"identity": "antisymmetry", "indices": [2, 2]}
    # d/dxi ^ d/dx is antisymmetric but not Jacobi
    mixed = ACPair(1, 1, (), ((SuperPoly.one(1, 1), odd_var(0), even_var(0)),))
    r = _gpb_jacobi(mixed, BracketSpec(1, 1, "h"), 2, "mixed")
    assert r.counterexample == {"identity": "jacobi", "indices": [1, 1, 4]}
    # the h pair at (1, 1) has scale 2 (its odd block is 1/2) and passes
    r = _gpb_jacobi(pairing_h_pair(1, 1), BracketSpec.h_type(1, 1), 2, "h(1,1)")
    assert r.passed and r.certified_span == {"tripleMultisets": 9 * 10 * 11 // 6}
