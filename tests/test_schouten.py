"""Polyvectors on the doubled signature, the odd bracket, and the
biderivation construction."""

import random
from fractions import Fraction

import pytest

from jsalg.brackets import BracketSpec, bracket
from jsalg.schouten import (
    ACPair,
    check_s_conditions,
    gpb_from_ac,
    pairing_h_pair,
    pairing_k_pair,
    polyvector,
    render_polyvector,
    schouten_bracket,
)
from jsalg.superpoly import SuperPoly, even_var, monomials_total_degree, mul, odd_var
from references import PolyVector, _factor_key, _factor_var
from references import schouten_bracket as ref_bracket


def test_functions_bracket_to_zero():
    x1 = SuperPoly.variable(2, 0, even_var(0))
    x2 = SuperPoly.variable(2, 0, even_var(1))
    assert not schouten_bracket(2, polyvector(2, 0, [(x1, ())]), polyvector(2, 0, [(x2, ())]))


def test_vector_field_acts_on_function():
    one = SuperPoly.one(2, 0)
    x1 = SuperPoly.variable(2, 0, even_var(0))
    d1 = polyvector(2, 0, [(one, (even_var(0),))])
    assert schouten_bracket(2, d1, polyvector(2, 0, [(x1, ())])) == polyvector(2, 0, [(one, ())])


def test_bivector_against_function_frozen():
    # hand expansion of the odd product rule pins this value
    one = SuperPoly.one(2, 0)
    x1 = SuperPoly.variable(2, 0, even_var(0))
    x2 = SuperPoly.variable(2, 0, even_var(1))
    u = polyvector(2, 0, [(one, (even_var(0), even_var(1)))])
    r = schouten_bracket(2, u, polyvector(2, 0, [(mul(x1, x2), ())]))
    assert r == polyvector(2, 0, [(x1, (even_var(0),)), (-x2, (even_var(1),))])
    assert render_polyvector(2, r) == "(1 x1) d/dx1 + (-1 x2) d/dx2"


def _samples(m, n):
    one = SuperPoly.one(m, n)
    xs = SuperPoly.variable(m, n, even_var(0))
    xi1 = SuperPoly.variable(m, n, odd_var(0))
    xi2 = SuperPoly.variable(m, n, odd_var(1))

    def pv(*terms):
        return polyvector(m, n, terms)

    return [
        pv((xs + mul(xi1, xi2), ())),
        pv((xi1, ())),
        pv((xi1, (even_var(0),)), (one, (odd_var(1),))),
        pv((xs, (odd_var(0),))),
        mul(pv((one, (odd_var(0),))), pv((xi2, (even_var(0),)))),
        mul(pv((one, (even_var(0),))), pv((one, (odd_var(1),)))),
    ]


def test_antisymmetry_for_shifted_parity():
    cands = _samples(1, 2)
    for u in cands:
        for v in cands:
            lhs = schouten_bracket(1, u, v)
            rhs = schouten_bracket(1, v, u)
            s = -1 if ((u.parity() ^ 1) and (v.parity() ^ 1)) else 1
            assert not lhs + rhs.scale(s)


def test_jacobi_for_shifted_parity():
    cands = _samples(1, 2)

    def q(u):
        return (u.parity() + 1) & 1

    def br(u, v):
        return schouten_bracket(1, u, v)

    for u in cands:
        for v in cands:
            for w in cands:
                s = -1 if (q(u) and q(v)) else 1
                assert not br(u, br(v, w)) - br(br(u, v), w) - br(v, br(u, w)).scale(s)


def test_repeated_even_factor_dies_repeated_odd_survives():
    one = SuperPoly.one(1, 1)
    dx = polyvector(1, 1, [(one, (even_var(0),))])
    dxi = polyvector(1, 1, [(one, (odd_var(0),))])
    assert not mul(dx, dx)
    assert mul(dxi, dxi)
    assert render_polyvector(1, mul(dxi, dxi)) == "(1) d/dxi1^d/dxi1"


# -- against the coordinate-derivation calculus of tests/references.py ------------

SIGNATURES = [(0, 3), (3, 0), (1, 3), (2, 2), (3, 2)]


def _random_terms(rng, m, n, degree):
    """1-3 terms (f, factors): f of 1-2 monomials of degree <= 2, possibly of
    mixed parity, and `degree` factors drawn with repeats."""
    gens = [even_var(i) for i in range(m)] + [odd_var(j) for j in range(n)]
    monos = monomials_total_degree(m, n, 2)
    return [(SuperPoly(m, n, {rng.choice(monos): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(rng.randint(1, 2))}),
             tuple(rng.choice(gens) for _ in range(degree)))
            for _ in range(rng.randint(1, 3))]


def _reference(m, n, degree, terms):
    pv = PolyVector(m, n, degree)
    for f, zs in terms:
        pv.add_term(tuple(_factor_key(z) for z in zs), f)
    return pv


def _doubled(pv):
    return polyvector(pv.m, pv.n, [(f, tuple(_factor_var(k) for k in key))
                                   for key, f in pv.terms.items()])


def test_bracket_and_rendering_equal_the_reference_calculus():
    rng = random.Random(30)
    pairs = 0
    for m, n in SIGNATURES:
        for _ in range(130):
            du = rng.randint(0, 3)
            dv = rng.randint(0, min(3, 4 - du))
            tu, tv = _random_terms(rng, m, n, du), _random_terms(rng, m, n, dv)
            u, v = _reference(m, n, du, tu), _reference(m, n, dv, tv)
            U, V = polyvector(m, n, tu), polyvector(m, n, tv)
            # the wedge sorter's signs are mul's
            assert (U, V) == (_doubled(u), _doubled(v))
            assert (render_polyvector(m, U), render_polyvector(m, V)) == (u.render(), v.render())
            want = ref_bracket(u, v)
            got = schouten_bracket(m, U, V)
            assert got == _doubled(want), (m, n, u, v)
            assert render_polyvector(m, got) == want.render()
            pairs += 1
    assert pairs == 650


def test_s_conditions_for_paired_presentations():
    for k, n in [(0, 3), (1, 2), (1, 3)]:
        assert check_s_conditions(pairing_h_pair(k, n)).passed
        assert check_s_conditions(pairing_k_pair(k, n)).passed


def test_s_conditions_pass_on_every_pair_the_cli_builds():
    # `verify schouten`: --kind h or k, --k up to 4 and --n up to 8
    for build in (pairing_h_pair, pairing_k_pair):
        for k in range(5):
            for n in range(9):
                assert check_s_conditions(build(k, n)).passed, (build.__name__, k, n)


# failing reports, recorded from the coordinate-derivation calculus
NEGATIVE_CONTROL = ('{"certifiedSpan":{"exact":true},"counterexample":'
                    '{"residual_a_c":"(1) d/dx1^d/dx2","residual_c_c_plus_2ac":"0"},'
                    '"params":{"cPairs":1,"m":2,"n":0},"status":"fail",'
                    '"suite":"schouten-conditions"}')
ODD_GENERATORS = ('{"certifiedSpan":{"exact":true},"counterexample":'
                  '{"residual_a_c":"(1 x1) d/dxi1^d/dxi1","residual_c_c_plus_2ac":'
                  '"(2 x1^2) d/dx1^d/dxi1^d/dxi1 + (2 x1) d/dx1^d/dxi1^d/dxi2"},'
                  '"params":{"cPairs":2,"m":1,"n":2},"status":"fail",'
                  '"suite":"schouten-conditions"}')


def test_s_conditions_negative_control():
    m, n = 2, 0
    one = SuperPoly.one(m, n)
    x1 = SuperPoly.variable(m, n, even_var(0))
    pair = ACPair(m, n, ((one, even_var(0)),),
                  ((x1, even_var(0), even_var(1)),))
    r = check_s_conditions(pair)
    assert not r.passed
    assert r.to_json() == NEGATIVE_CONTROL


def test_s_conditions_report_on_odd_generators():
    # a = x d/dx, c = x d/dxi1 ^ d/dxi1 + d/dxi1 ^ d/dxi2: the residuals
    # carry d/dxi factors, d/dxi1 repeated
    m, n = 1, 2
    one = SuperPoly.one(m, n)
    x = SuperPoly.variable(m, n, even_var(0))
    pair = ACPair(m, n, ((x, even_var(0)),),
                  ((x, odd_var(0), odd_var(0)), (one, odd_var(0), odd_var(1))))
    assert check_s_conditions(pair).to_json() == ODD_GENERATORS


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
    assert not gpb_from_ac(pair, f, f)


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


def test_s_conditions_refuse_a_mixed_parity_a_or_c():
    m, n = 1, 2
    one = SuperPoly.one(m, n)
    xi1 = SuperPoly.variable(m, n, odd_var(0))
    mixed_a = ACPair(m, n, ((xi1, even_var(0)), (one, even_var(0))), ())
    with pytest.raises(ValueError, match="^a must be an even derivation$"):
        check_s_conditions(mixed_a)
    # c = xi1 d/dxi1 ^ d/dxi2 + d/dxi2 ^ d/dxi2
    mixed_c = ACPair(m, n, (), ((xi1, odd_var(0), odd_var(1)), (one, odd_var(1), odd_var(1))))
    with pytest.raises(ValueError, match="^c must be an even 2-polyvector$"):
        check_s_conditions(mixed_c)
    odd_c = ACPair(m, n, (), ((one, even_var(0), odd_var(0)),))
    with pytest.raises(ValueError, match="^c must be an even 2-polyvector$"):
        check_s_conditions(odd_c)


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
