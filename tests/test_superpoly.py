"""Arithmetic of the sparse supercommutative polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jsalg.superpoly import (
    SuperPoly,
    even_var,
    merge_odds,
    mono_parity,
    monomials,
    mul,
    odd_var,
    partial,
    render,
)

M, N = 2, 3


def xi(j, m=M, n=N):
    return SuperPoly.variable(m, n, odd_var(j))


def x(i, m=M, n=N):
    return SuperPoly.variable(m, n, even_var(i))


def test_odd_product_canonical_order():
    assert mul(xi(0), xi(1)).render() == "1 xi1 xi2"


def test_odd_transposition_sign():
    assert mul(xi(1), xi(0)).render() == "-1 xi1 xi2"


def test_odd_square_is_zero():
    assert not mul(xi(0), xi(0))


def test_partial_leading_factor():
    f = mul(xi(0), xi(1))
    assert partial(f, odd_var(0)) == xi(1)


def test_partial_koszul_sign():
    f = mul(xi(0), xi(1))
    assert partial(f, odd_var(1)) == -xi(0)


def test_partial_polynomial_rule():
    f = mul(mul(x(0), x(0)), xi(0))
    assert partial(f, even_var(0)) == mul(x(0), xi(0)).scale(2)


def test_partial_out_of_range():
    with pytest.raises(ValueError):
        partial(x(0), odd_var(7))


def test_signature_mismatch():
    with pytest.raises(ValueError):
        mul(x(0, 1, 0), x(0, 2, 0))


def test_render_canonical():
    f = x(0) * x(0) * xi(0) * xi(2)
    assert render(f.scale(Fraction(3, 2)) - xi(1)) == "-1 xi2 + 3/2 x1^2 xi1 xi3"
    assert render(SuperPoly.const(M, N, 2) + x(0).scale(Fraction(1, 3))) == "2 + 1/3 x1"
    assert render(SuperPoly.zero(M, N)) == "0"


def test_mixed_parity_query_raises():
    f = SuperPoly.one(M, N) + xi(0)
    with pytest.raises(ValueError):
        f.parity()


def test_monomial_enumeration_canonical_order():
    ms = monomials(1, 1, 1)
    assert ms == sorted(ms)
    assert ((0,), ()) in ms and ((1,), (0,)) in ms


# -- property tests over random small elements ----------------------------------

coef = st.integers(-4, 4).map(Fraction)
mono = st.tuples(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.lists(st.integers(0, N - 1), unique=True, max_size=N).map(
        lambda v: tuple(sorted(v))
    ),
)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(mono, coef, max_size=4))
    return SuperPoly(M, N, terms)


@st.composite
def homogeneous(draw):
    p = draw(st.integers(0, 1))
    terms = draw(st.dictionaries(mono, coef, max_size=4))
    return SuperPoly(M, N, {m: c for m, c in terms.items() if (len(m[1]) & 1) == p})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_mul_associative(f, g, h):
    assert mul(mul(f, g), h) == mul(f, mul(g, h))


@settings(max_examples=60, deadline=None)
@given(homogeneous(), homogeneous())
def test_graded_commutativity(f, g):
    if not f or not g:
        return
    s = -1 if (f.parity() and g.parity()) else 1
    assert mul(f, g) == mul(g, f).scale(s)


@settings(max_examples=60, deadline=None)
@given(homogeneous(), polys(), st.integers(0, M + N - 1))
def test_graded_leibniz(f, g, vidx):
    v = even_var(vidx) if vidx < M else odd_var(vidx - M)
    s_v = 0 if vidx < M else 1
    lhs = partial(mul(f, g), v)
    if not f:
        return
    sign = -1 if (f.parity() and s_v) else 1
    rhs = mul(partial(f, v), g) + mul(f, partial(g, v)).scale(sign)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, N - 1), polys())
def test_odd_partial_squares_to_zero(j, f):
    assert not partial(partial(f, odd_var(j)), odd_var(j))


@settings(max_examples=60, deadline=None)
@given(homogeneous(), homogeneous())
def test_parity_additive(f, g):
    p = mul(f, g)
    if not p or not f or not g:
        return
    assert p.parity() == (f.parity() + g.parity()) % 2


def test_merge_odds_collision():
    assert merge_odds((0, 2), (2,)) is None
    assert merge_odds((0,), (1, 2)) == (1, (0, 1, 2))
    assert merge_odds((1,), (0,)) == (-1, (0, 1))


@settings(max_examples=40, deadline=None)
@given(polys(), st.integers(0, M + N - 1), st.integers(0, M + N - 1))
def test_partials_supercommute(f, ui, vi):
    u = even_var(ui) if ui < M else odd_var(ui - M)
    v = even_var(vi) if vi < M else odd_var(vi - M)
    pu = 0 if ui < M else 1
    pv = 0 if vi < M else 1
    lhs = partial(partial(f, v), u)
    rhs = partial(partial(f, u), v)
    s = -1 if (pu and pv) else 1
    assert lhs == rhs.scale(s)
