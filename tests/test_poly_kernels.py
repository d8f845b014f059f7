"""The integer monomial kernels of the polynomial product tables against
per-term SuperPoly references.

`references.short_subalgebra_jordan_h` and `_k` (the tables of
`lieclass._jordan_h_kernel` and `_jordan_k_kernel`) and `jordan.kkm_double`
sum their products on ints over monomials.  The
references below evaluate the same formulas on SuperPoly objects with
Fraction coefficients (`mul`, `partial`, `bracket` and the Euler operator
`euler` below), one basis pair at a time, and build the table the way the
builders did before they moved onto kernels.  A table must agree with its reference entry for
entry, in the key order of every entry (the iso reports print product
vectors in dict order) and in its out-of-span pairs."""

from fractions import Fraction
from functools import cache

import pytest

from jsalg.brackets import BracketSpec, bracket, bracket_monomials
from jsalg.jordan import FiniteSuperAlgebra, kkm_double
from jsalg.lieclass import _inert_t_h_spec
from jsalg.superpoly import (
    SuperPoly,
    even_var,
    mono_degree,
    mono_parity,
    monomials_total_degree,
    mul,
    odd_var,
    partial,
    render_monomial,
)
from references import short_subalgebra_jordan_h, short_subalgebra_jordan_k

ONE = Fraction(1)


def ref_coords(terms: dict, pos: dict, deg: int, offset: int = 0, sign: int = 1):
    """Coordinates of a Fraction term dict, shifted and signed; None when a
    term leaves the degree span."""
    vec = {}
    for mono, c in terms.items():
        if mono_degree(mono) > deg:
            return None
        vec[pos[mono] + offset] = c if sign > 0 else -c
    return vec


def ref_table(monos, deg, prod, parity_shift, name) -> FiniteSuperAlgebra:
    pos = {mo: i for i, mo in enumerate(monos)}
    table, oos = {}, set()
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            vec = ref_coords(prod(a, b).terms, pos, deg)
            if vec is None:
                oos.add((i, j))
            else:
                table[(i, j)] = vec
    labels = [render_monomial(mo) for mo in monos]
    parities = [(mono_parity(mo) + parity_shift) & 1 for mo in monos]
    return FiniteSuperAlgebra(labels, parities, table, oos, name=name)


def ref_jordan_h(k: int, n: int, deg: int) -> FiniteSuperAlgebra:
    """f o g = (-1)^{p(f)} df/dxi_c g + f dg/dxi_c + (-1)^{p(f)} xi_c {f, g},
    p the reversed parity, {.,.} the diagonal bracket on (2k, n - 2)."""
    m, n2 = 2 * k, n - 2
    c = n2 - 1
    rspec = BracketSpec.diagonal(k, n2)

    def prod(a, b):
        fa, fb = SuperPoly(m, n2, {a: ONE}), SuperPoly(m, n2, {b: ONE})
        sign = -1 if (mono_parity(a) + 1) & 1 else 1
        xi_c = SuperPoly.variable(m, n2, odd_var(c))
        t1 = mul(partial(fa, odd_var(c)), fb).scale(sign)
        t2 = mul(fa, partial(fb, odd_var(c)))
        t3 = mul(xi_c, bracket(rspec, fa, fb)).scale(sign)
        return t1 + t2 + t3

    return ref_table(monomials_total_degree(m, n2, deg), deg, prod, 1,
                     f"J(H({2*k},{n}),a)|deg{deg}")


def euler(f: SuperPoly, include_time: bool) -> SuperPoly:
    """The Euler operator: each monomial times its degree, where the degree
    counts the even variable 0 (the contact variable t) only when
    include_time."""
    terms = {}
    for mono, c in f.terms.items():
        d = mono_degree(mono) - (0 if include_time else mono[0][0])
        terms[mono] = c * d
    return SuperPoly(f.m, f.n, terms)


@cache
def ref_jordan_k(k: int, n: int, deg: int, include_time: bool = False) -> FiniteSuperAlgebra:
    """f o g = (-1)^{p(f)} (df/dxi_c g + {xi_c f, g} + xi_c (1-E)(f) dg/dt
    - xi_c df/dt (1-E)(g)), E the Euler operator in the non-t variables
    (in every variable when include_time), {.,.} the diagonal bracket with
    an inert t on (2k + 1, n - 2)."""
    m, n2 = 2 * k + 1, n - 2
    c = n2 - 1
    rspec = _inert_t_h_spec(k, n2)
    t_ref = even_var(0)

    def prod(a, b):
        fa, fb = SuperPoly(m, n2, {a: ONE}), SuperPoly(m, n2, {b: ONE})
        sign = -1 if (mono_parity(a) + 1) & 1 else 1
        xi_c = SuperPoly.variable(m, n2, odd_var(c))
        t1 = mul(partial(fa, odd_var(c)), fb)
        t2 = bracket(rspec, mul(xi_c, fa), fb)
        one_minus_e_a = fa - euler(fa, include_time=include_time)
        one_minus_e_b = fb - euler(fb, include_time=include_time)
        t3 = mul(mul(xi_c, one_minus_e_a), partial(fb, t_ref))
        t4 = mul(mul(xi_c, partial(fa, t_ref)), one_minus_e_b)
        return (t1 + t2 + t3 - t4).scale(sign)

    return ref_table(monomials_total_degree(m, n2, deg), deg, prod, 1,
                     f"J(K({2*k+1},{n}),a)|deg{deg}")


def ref_kkm_double(spec: BracketSpec, deg: int, negate_bracket: bool = False):
    """A + eta A with a o b = ab, eta a o b = eta(ab), a o eta b =
    (-1)^{p(a)} eta(ab) and eta a o eta b = (-1)^{p(a)} {a, b}_D (negated
    when negate_bracket)."""
    m, n = spec.m, spec.n
    dspec = BracketSpec.d_modified(spec)
    monos = monomials_total_degree(m, n, deg)
    pos = {mo: i for i, mo in enumerate(monos)}
    N = len(monos)
    table, oos = {}, set()

    def put(i, j, terms, offset=0, sign=1):
        vec = ref_coords(terms, pos, deg, offset, sign)
        if vec is None:
            oos.add((i, j))
        else:
            table[(i, j)] = vec

    for i, a in enumerate(monos):
        pa = -1 if mono_parity(a) else 1
        fa = SuperPoly(m, n, {a: ONE})
        for j, b in enumerate(monos):
            ab = mul(fa, SuperPoly(m, n, {b: ONE})).terms
            put(i, j, ab)
            put(N + i, j, ab, offset=N)
            put(i, N + j, ab, offset=N, sign=pa)
            put(N + i, N + j, bracket_monomials(dspec, a, b),
                sign=-pa if negate_bracket else pa)
    labels = [render_monomial(mo) for mo in monos] + [
        "eta*" + render_monomial(mo) for mo in monos]
    parities = [mono_parity(mo) for mo in monos] + [
        (mono_parity(mo) + 1) & 1 for mo in monos]
    return FiniteSuperAlgebra(labels, parities, table, oos, name=f"KKM({m},{n},deg{deg})")


def assert_same_table(got: FiniteSuperAlgebra, want: FiniteSuperAlgebra):
    """Same labels, parities and out-of-span pairs, and the same entries with
    the same values in the same key order, entry by entry."""
    assert got.labels == want.labels
    assert got.parities == want.parities
    assert got.out_of_span == want.out_of_span
    assert list(got.table) == list(want.table)
    for key, vec in want.table.items():
        assert list(got.table[key].items()) == list(vec.items()), key
        assert all(type(c) is Fraction for c in got.table[key].values()), key


JORDAN_H_GRID = [(k, n, deg) for k, n in [(0, 4), (0, 5), (1, 3), (1, 4)] for deg in (2, 3, 4)]
JORDAN_K_GRID = [(k, n, deg) for k, n in [(0, 3), (0, 4), (1, 3), (1, 4)] for deg in (2, 3, 4)]


@pytest.mark.parametrize("k,n,deg", JORDAN_H_GRID)
def test_jordan_h_kernel_matches_reference(k, n, deg):
    got, monos, pos = short_subalgebra_jordan_h(k, n, deg)
    assert_same_table(got, ref_jordan_h(k, n, deg))
    assert got.name == f"J(H({2*k},{n}),a)|deg{deg}"
    assert pos == {mo: i for i, mo in enumerate(monos)}


@pytest.mark.parametrize("k,n,deg", JORDAN_K_GRID)
def test_jordan_k_kernel_matches_reference(k, n, deg):
    got, _, _ = short_subalgebra_jordan_k(k, n, deg)
    assert_same_table(got, ref_jordan_k(k, n, deg))
    assert got.name == f"J(K({2*k+1},{n}),a)|deg{deg}"


@pytest.mark.parametrize("k,n,deg", JORDAN_K_GRID)
def test_contact_product_t_term_cancels_in_reference(k, n, deg):
    # Lemma: adding t d/dt to E changes xi_c (1-E)(f) dg/dt - xi_c df/dt (1-E)(g)
    # on f = t^a f0, g = t^b g0 (f0, g0 free of t) by
    # -a b t^(a+b-1) xi_c f0 g0 + a b t^(a+b-1) xi_c f0 g0 = 0.
    assert_same_table(ref_jordan_k(k, n, deg, include_time=True), ref_jordan_k(k, n, deg))


KKM_SPECS = {
    "h(1,1)": BracketSpec.h_type(1, 1),
    "h(0,3)": BracketSpec.h_type(0, 3),
    "k(0,2)": BracketSpec.k_type(0, 2),
    "k(1,1)": BracketSpec.k_type(1, 1),
    "diag(1,1)": BracketSpec.diagonal(1, 1),
    "diag_t(0,2)": BracketSpec.diagonal(0, 2, has_time=True),
    "neg_diag(1,0)": BracketSpec.negated(BracketSpec.diagonal(1, 0)),
    "neg_k(0,2)": BracketSpec.negated(BracketSpec.k_type(0, 2)),
}


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("name", sorted(KKM_SPECS))
def test_kkm_double_kernel_matches_reference(name, negate):
    spec = KKM_SPECS[name]
    for deg in (2, 3):
        assert_same_table(kkm_double(spec, deg, negate_bracket=negate),
                          ref_kkm_double(spec, deg, negate))
