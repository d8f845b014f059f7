"""Reference builders that the tests read and no `jsalg` command needs.

* The Jordan tables of the products induced by the short subalgebras of the
  H and K fragments, tabled from the int monomial kernels that
  `lieclass.example71_iso` and `example72_iso` read product by product
  (`lieclass._jordan_h_kernel`, `_jordan_k_kernel`, whose docstrings state
  the product formulas).
* Matrix operations on an assembled Lie table: sums, compositions, the
  nilpotent exponential exp(ad x) and the automorphism test.  A matrix is a
  column map, dict col -> (dict row -> coeff), as `tkk.matrix_apply` reads.
* The bracket of an (a, c) pair on monomials in its per-pair form, which
  derives every one-monomial value again for each pair through
  `brackets.der_defect`; `schouten.ACPair.kernel` reads them from jets.
"""

from fractions import Fraction

from jsalg.brackets import DerivationD, den_lcm, der_defect, der_ints, der_terms
from jsalg.jordan import _poly_table, hom_scan
from jsalg.lieclass import _jordan_h_kernel, _jordan_k_kernel
from jsalg.linalg import vec_iadd
from jsalg.schouten import _der, _factor_key, _homogeneous_parts
from jsalg.superpoly import mono_mul, mono_partial, monomials_total_degree
from jsalg.tkk import GradedLie, matrix_apply


def _jordan_from_product(m, n, deg, kernel, name):
    """Jordan table on the degree-<= deg monomials with reversed parity,
    from an int monomial kernel (S, kern) of the product; returns the table,
    the monomials and their positions."""
    monos = monomials_total_degree(m, n, deg)
    alg = _poly_table(monos, deg, kernel, 1, name)
    return alg, monos, {mo: i for i, mo in enumerate(monos)}


def short_subalgebra_jordan_h(k: int, n: int, deg: int = 3):
    """The Jordan product induced by the degree-(-1) part of the "h"
    fragment H(2k, n), on the monomials of degree <= deg."""
    m, n2, kernel = _jordan_h_kernel(k, n)
    return _jordan_from_product(m, n2, deg, kernel, f"J(H({2*k},{n}),a)|deg{deg}")


def short_subalgebra_jordan_k(k: int, n: int, deg: int = 3):
    """The contact analogue on K(2k+1, n)."""
    m, n2, kernel = _jordan_k_kernel(k, n)
    return _jordan_from_product(m, n2, deg, kernel, f"J(K({2*k+1},{n}),a)|deg{deg}")


def matrix_compose(M: dict, N: dict) -> dict:
    out = {}
    for c, col in N.items():
        v = matrix_apply(M, col)
        if v:
            out[c] = v
    return out


def matrix_add(M: dict, N: dict, c=1) -> dict:
    out = {k: dict(col) for k, col in M.items()}
    for k, col in N.items():
        acc = out.setdefault(k, {})
        vec_iadd(acc, col, c)
        if not acc:
            del out[k]
    return out


def exp_ad(L: GradedLie, x: dict):
    """exp(ad x) = 1 + ad x + (ad x)^2/2 as a matrix on the assembled basis;
    requires (ad x)^3 = 0 and every column of ad x in the table's span."""
    alg = L.algebra
    d = alg.dim
    ad = {}
    for j in range(d):
        col = alg.mul_vectors(x, {j: Fraction(1)})
        if col is None:
            raise ValueError(f"ad x on {alg.labels[j]} leaves the table span")
        if col:
            ad[j] = col
    ad2 = matrix_compose(ad, ad)
    ad3 = matrix_compose(ad, ad2)
    if ad3:
        raise ValueError("ad x is not nilpotent of order <= 3")
    out = matrix_add({i: {i: Fraction(1)} for i in range(d)}, ad)
    return matrix_add(out, ad2, Fraction(1, 2))


def is_table_automorphism(L: GradedLie, A: dict) -> bool:
    """A (column i: the image of e_i) intertwines the bracket on every basis
    pair whose products stay in span (`jordan.hom_scan`)."""
    alg = L.algebra
    return hom_scan(alg.dim, alg.product, alg.mul_vectors,
                    [A.get(i, {}) for i in range(alg.dim)])[2] is None


def ac_pair_kernel(pair):
    """(S, kern) of the pair's bracket, kern(x, y) the dict of nonzero ints
    S {x, y}, with a(x), b_i(x) and d_i x derived again on every call."""
    S = den_lcm(c for co, *_ in pair.a_terms + pair.c_pairs for c in co.terms.values())
    a = der_ints(pair.a_derivation(), S)
    cs = [(der_ints(DerivationD(pair.m, pair.n, ((co, bv),)), S), dv,
           (co.parity() + _der(_factor_key(bv))) & 1)
          for coeff, bv, dv in pair.c_pairs for co in _homogeneous_parts(coeff)]

    def kern(x, y):
        acc = {}
        der_defect(a, x, y, acc)
        px = len(x[1]) & 1
        for b, dv, pb in cs:
            # (-1)^{p(x) pb} (b(x) d(y) - (-1)^{pb} d(x) b(y)), d = d/dd_i
            st = -1 if pb and px else 1
            dy, dx = mono_partial(y, dv), mono_partial(x, dv)
            for c, z in der_terms(b, x) if dy else ():
                r = mono_mul(z, dy[1])
                if r:
                    acc[r[1]] = acc.get(r[1], 0) + st * c * dy[0] * r[0]
            for c, z in der_terms(b, y) if dx else ():
                r = mono_mul(dx[1], z)
                if r:
                    acc[r[1]] = acc.get(r[1], 0) + (st if pb else -1) * c * dx[0] * r[0]
        return {z: v for z, v in acc.items() if v}

    return S, kern
