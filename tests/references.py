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
* The gauge twist phi^{-1} {phi f, phi g} with phi^{-1} a geometric series
  truncated at a degree budget, the evaluation that `brackets` replaced by
  the closed form of its gauge lemma.
* Polyvector fields of degree <= 3 with coordinate-derivation wedges and
  their Schouten bracket by the recursive product rule, the calculus that
  `schouten` replaced by the odd bracket on doubled-variable polynomials.
"""

from fractions import Fraction

from jsalg.brackets import DerivationD, bracket, den_lcm, der_defect, der_ints, der_terms
from jsalg.jordan import _poly_table, hom_scan
from jsalg.lieclass import _jordan_h_kernel, _jordan_k_kernel
from jsalg.linalg import vec_iadd
from jsalg.schouten import _homogeneous_parts
from jsalg.superpoly import (SuperPoly, VarRef, mono_mul, mono_partial, monomials_total_degree,
                             mul, partial)
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


def truncate(p: SuperPoly, max_degree: int) -> SuperPoly:
    out = SuperPoly(p.m, p.n)
    out.terms = {
        mono: c
        for mono, c in p.terms.items()
        if sum(mono[0]) + len(mono[1]) <= max_degree
    }
    return out


def mul_by_inverse(phi: SuperPoly, u: SuperPoly, budget: int) -> SuperPoly:
    """phi^{-1} * u truncated to total degree <= budget (geometric series)."""
    c = phi.constant_term()
    if not c:
        raise ValueError("phi is not invertible")
    psi = SuperPoly.const(phi.m, phi.n, 1) - phi.scale(Fraction(1) / c)
    acc = truncate(u, budget)
    term = acc
    while term:
        term = truncate(mul(psi, term), budget)
        acc = acc + term
    return acc.scale(Fraction(1) / c)


def series_gauge_bracket(spec, f: SuperPoly, g: SuperPoly, budget: int) -> SuperPoly:
    """phi^{-1} {phi f, phi g} on a gauge spec, truncated at total degree <=
    budget: its terms of degree <= budget are exact.  A gauge base is
    evaluated the same way at the same budget."""
    base, phi = spec.base, spec.phi
    f, g = mul(phi, f), mul(phi, g)
    u = (series_gauge_bracket(base, f, g, budget) if base.kind == "gauge"
         else bracket(base, f, g))
    return mul_by_inverse(phi, u, budget)


# -- the polyvector calculus with coordinate-derivation wedges ------------------
#
# Wedge factors are coordinate derivations d/dz, z any generator.  In the
# exterior algebra the relevant parity of a factor is shifted: d/dx is odd,
# d/dxi is even (so d/dxi ^ d/dxi survives while d/dx ^ d/dx dies).  The parity
# of a term f X_1^...^X_k is p(f) + #even-variable factors (mod 2), and the
# bracket satisfies the Lie superalgebra axioms for the once-more-shifted
# parity q = p + 1:
#
#     [u,v] = -(-1)^{(p(u)+1)(p(v)+1)} [v,u]
#     [u, a^b] = [u,a]^b + (-1)^{(p(u)+1) p(a)} a^[u,b]
#
# with [X,Y] the vector-field commutator, [X,f] = X(f), [f,g] = 0.

# wedge factor key: (0, i) = d/dx_{i+1} (even variable), (1, j) = d/dxi_{j+1}
FactorKey = tuple

MAX_DEGREE = 3


def _factor_key(v: VarRef) -> FactorKey:
    return (0, v.index) if v.kind == "even" else (1, v.index)


def _factor_var(key: FactorKey) -> VarRef:
    return VarRef("even", key[1]) if key[0] == 0 else VarRef("odd", key[1])


def _lam(key: FactorKey) -> int:
    """Shifted parity of one coordinate derivation in the wedge algebra."""
    return 1 if key[0] == 0 else 0


def _der(key: FactorKey) -> int:
    return 0 if key[0] == 0 else 1


def wedge_parity(key: tuple) -> int:
    """Shifted parity of a pure wedge: number of even-variable factors mod 2."""
    return sum(1 for f in key if f[0] == 0) & 1


def canonicalize_wedge(factors: tuple):
    """Sort factors ascending with swap signs; a repeated even-variable
    derivation kills the wedge (returns None)."""
    fs = list(factors)
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and fs[j] < fs[j - 1]:
            if _lam(fs[j]) and _lam(fs[j - 1]):
                sign = -sign
            fs[j], fs[j - 1] = fs[j - 1], fs[j]
            j -= 1
    for i in range(1, len(fs)):
        if fs[i] == fs[i - 1] and _lam(fs[i]):
            return None
    return sign, tuple(fs)


class PolyVector:
    """Homogeneous-degree polyvector: dict wedge-key -> SuperPoly coefficient."""

    __slots__ = ("m", "n", "degree", "terms")

    def __init__(self, m: int, n: int, degree: int, terms: dict | None = None):
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"polyvector degree {degree} out of range 0..{MAX_DEGREE}")
        self.m = m
        self.n = n
        self.degree = degree
        self.terms = {}
        if terms:
            for key, poly in terms.items():
                if len(key) != degree:
                    raise ValueError("wedge length disagrees with degree")
                if poly:
                    self.terms[key] = poly

    @staticmethod
    def function(f: SuperPoly) -> "PolyVector":
        return PolyVector(f.m, f.n, 0, {(): f})

    @staticmethod
    def vector_field(m: int, n: int, terms) -> "PolyVector":
        """terms: iterable of (SuperPoly, VarRef)."""
        pv = PolyVector(m, n, 1)
        for coeff, v in terms:
            pv._add((_factor_key(v),), coeff)
        return pv

    def _add(self, key: tuple, poly: SuperPoly):
        cur = self.terms.get(key)
        tot = poly if cur is None else cur + poly
        if tot:
            self.terms[key] = tot
        elif cur is not None:
            del self.terms[key]

    def add_term(self, factors: tuple, poly: SuperPoly):
        if not poly:
            return
        r = canonicalize_wedge(factors)
        if r is None:
            return
        sign, key = r
        self._add(key, poly if sign > 0 else -poly)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PolyVector):
            return NotImplemented
        return (
            (self.m, self.n, self.degree) == (other.m, other.n, other.degree)
            and self.terms == other.terms
        )

    def __add__(self, other: "PolyVector") -> "PolyVector":
        if (self.m, self.n, self.degree) != (other.m, other.n, other.degree):
            raise ValueError("polyvector shape mismatch")
        out = PolyVector(self.m, self.n, self.degree, dict(self.terms))
        for key, poly in other.terms.items():
            out._add(key, poly)
        return out

    def __neg__(self) -> "PolyVector":
        return self.scale(-1)

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        return self + (-other)

    def scale(self, c) -> "PolyVector":
        out = PolyVector(self.m, self.n, self.degree)
        if c:
            out.terms = {k: p.scale(c) for k, p in self.terms.items()}
        return out

    def parity(self):
        """Shifted parity; None on zero, error on mixed."""
        p = None
        for key, poly in self.terms.items():
            q = (poly.parity() + wedge_parity(key)) & 1
            if p is None:
                p = q
            elif p != q:
                raise ValueError("mixed-parity polyvector")
        return p

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            names = []
            for f in key:
                v = _factor_var(f)
                names.append(
                    f"d/dx{v.index+1}" if v.kind == "even" else f"d/dxi{v.index+1}"
                )
            body = "^".join(names)
            coeff = self.terms[key].render()
            bits.append(f"({coeff}) {body}" if body else f"({coeff})")
        return " + ".join(bits)

    def __repr__(self):
        return f"PolyVector(deg {self.degree}: {self.render()})"


def wedge(u: PolyVector, v: PolyVector) -> PolyVector:
    """Exterior product (total degree must stay within the cap)."""
    out = PolyVector(u.m, u.n, u.degree + v.degree)
    for k1, f in u.terms.items():
        for k2, g in v.terms.items():
            for gp in _homogeneous_parts(g):
                for c, W in _wedge_term(u.m, u.n, f, k1, gp, k2):
                    out.add_term(W, c)
    return out


def _term_parity(f: SuperPoly, W: tuple) -> int:
    return (f.parity() + wedge_parity(W)) & 1


def _wedge_term(m, n, f, W1, g, W2):
    """(f, W1) ^ (g, W2) as a raw term list (coefficients homogeneous)."""
    coeff = mul(f, g)
    if wedge_parity(W1) and g.parity():
        coeff = -coeff
    return [(coeff, W1 + W2)] if coeff else []


def _bracket_terms(m, n, f, W1, g, W2) -> list:
    """Schouten bracket of single terms with parity-homogeneous coefficients;
    returns raw (SuperPoly, factors) pairs."""
    k, l = len(W1), len(W2)
    if k == 0 and l == 0:
        return []
    if k == 0:
        # antisymmetry: [f, v] = -(-1)^{(p(f)+1)(p(v)+1)} [v, f]
        p1 = _term_parity(f, W1)
        p2 = _term_parity(g, W2)
        flip = 1 if ((p1 ^ 1) and (p2 ^ 1)) else -1
        return [
            (c.scale(flip), W) for c, W in _bracket_terms(m, n, g, W2, f, W1)
        ]
    if k == 1:
        X = W1[0]
        if l == 0:
            c = mul(f, _apply_factor(X, g))
            return [(c, ())] if c else []
        # [u, v_head ^ Y] = [u, v_head]^Y + (-1)^{(p(u)+1) p(v_head)} v_head^[u, Y]
        Y = W2[-1]
        v_head_W = W2[:-1]
        out = []
        for c, W in _bracket_terms(m, n, f, W1, g, v_head_W):
            out.extend(_wedge_term(m, n, c, W, SuperPoly.one(m, n), (Y,)))
        pu = _term_parity(f, W1)
        pv_head = _term_parity(g, v_head_W)
        s = -1 if ((pu ^ 1) and pv_head) else 1
        # [fX, Y] = -(-1)^{pder(fX) pder(Y)} Y(f) X
        dyf = _apply_factor(Y, f)
        if dyf:
            pd = (f.parity() + _der(X)) & 1
            sgn = -1 if (pd and _der(Y)) else 1
            c = dyf.scale(-sgn)
            for cc, WW in _wedge_term(m, n, g, v_head_W, c, (X,)):
                out.append((cc.scale(s), WW))
        return out
    # k >= 2: [u_head ^ X, v] = u_head^[X, v] + (-1)^{lam(X)(p(v)+1)} [u_head, v]^X
    X = W1[-1]
    u_head_W = W1[:-1]
    out = []
    one = SuperPoly.one(m, n)
    for c, W in _bracket_terms(m, n, one, (X,), g, W2):
        out.extend(_wedge_term(m, n, f, u_head_W, c, W))
    pv = _term_parity(g, W2)
    s = -1 if (_lam(X) and (pv ^ 1)) else 1
    for c, W in _bracket_terms(m, n, f, u_head_W, g, W2):
        out.extend(_wedge_term(m, n, c.scale(s), W, one, (X,)))
    return out


def _apply_factor(key: FactorKey, g: SuperPoly) -> SuperPoly:
    return partial(g, _factor_var(key))


def schouten_bracket(u: PolyVector, v: PolyVector) -> PolyVector:
    """The Schouten bracket; degree(u) + degree(v) <= 4 so the result fits
    within the degree cap."""
    if (u.m, u.n) != (v.m, v.n):
        raise ValueError("signature mismatch")
    if u.degree + v.degree > MAX_DEGREE + 1:
        raise ValueError("bracket result would exceed the polyvector degree cap")
    deg = max(u.degree + v.degree - 1, 0)
    out = PolyVector(u.m, u.n, deg)
    for W1, fraw in u.terms.items():
        for f in _homogeneous_parts(fraw):
            for W2, graw in v.terms.items():
                for g in _homogeneous_parts(graw):
                    for c, W in _bracket_terms(u.m, u.n, f, W1, g, W2):
                        out.add_term(W, c)
    return out
