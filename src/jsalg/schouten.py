"""Polyvector fields of degree <= 3 with coordinate-derivation wedges, the
Schouten bracket, and the bracket-from-biderivation construction with its
two closure conditions.

Wedge factors are coordinate derivations d/dz, z any generator.  In the
exterior algebra the relevant parity of a factor is shifted: d/dx is odd,
d/dxi is even (so d/dxi ^ d/dxi survives while d/dx ^ d/dx dies).  The parity
of a term f X_1^...^X_k is p(f) + #even-variable factors (mod 2), and the
bracket satisfies the Lie superalgebra axioms for the once-more-shifted
parity q = p + 1:

    [u,v] = -(-1)^{(p(u)+1)(p(v)+1)} [v,u]
    [u, a^b] = [u,a]^b + (-1)^{(p(u)+1) p(a)} a^[u,b]

with [X,Y] the vector-field commutator, [X,f] = X(f), [f,g] = 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .brackets import DerivationD, den_lcm, der_ints, der_terms, expand
from .report import Report
from .superpoly import (SuperPoly, VarRef, even_var, mono_mul, mono_partial, mul, odd_var,
                        partial)

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


def _homogeneous_parts(poly: SuperPoly):
    ev = {m: c for m, c in poly.terms.items() if not (len(m[1]) & 1)}
    od = {m: c for m, c in poly.terms.items() if len(m[1]) & 1}
    out = []
    for part in (ev, od):
        if part:
            p = SuperPoly(poly.m, poly.n)
            p.terms = part
            out.append(p)
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


# -- the bracket built from an even derivation and an even 2-polyvector ---------


@dataclass(frozen=True)
class ACPair:
    """An even vector field `a` plus a presented even 2-polyvector
    c = sum_i b_i ^ d_i, kept as the explicit pair list (coeff, b_var, d_var):
    the bracket formula reads the presentation, the closure conditions only
    its class in the wedge algebra."""

    m: int
    n: int
    a_terms: tuple  # ((SuperPoly, VarRef), ...)
    c_pairs: tuple  # ((SuperPoly, VarRef, VarRef), ...)

    @cached_property
    def kernel(self):
        """The bracket of gpb_from_ac compiled once per pair, as (S, kern):
        kern(x, y) is the dict of nonzero ints S {x, y} on monomials, and S
        the lcm of the denominators of the coefficients (the bracket is
        linear in them; partials add integer factors).  The fields are a
        and, for each homogeneous part co of a coefficient, b_i = co d/db_i.

        Every value the formula reads depends on one monomial: a(x), each
        b_i(x) at scale S and each d_i x = d/dd_i x.  These are x's jet,
        filled through `der_terms` and `mono_partial` on x's first use and
        kept in a memo that the kernel owns, so a scan over N monomials
        computes N jets, not one per pair; the memo holds one jet per
        distinct monomial the pair has met.  It is sound because the pair
        is frozen: a kernel sees one a and one c for its lifetime.
        kern(x, y) then takes one `mono_mul` per product term of two jets."""
        S = den_lcm(c for co, *_ in self.a_terms + self.c_pairs for c in co.terms.values())
        a = der_ints(self.a_derivation(), S)
        cs = [(der_ints(DerivationD(self.m, self.n, ((co, bv),)), S), dv,
               (co.parity() + _der(_factor_key(bv))) & 1)
              for coeff, bv, dv in self.c_pairs for co in _homogeneous_parts(coeff)]
        jets = {}

        def jet(x):
            # (S a(x), ((S b_i(x), d_i x), ...)) as term tuples and partials
            jets[x] = j = (tuple(der_terms(a, x)),
                           tuple((tuple(der_terms(b, x)), mono_partial(x, dv))
                                 for b, dv, _ in cs))
            return j

        def kern(x, y):
            (ax, bdx), (ay, bdy) = jets.get(x) or jet(x), jets.get(y) or jet(y)
            acc = {}
            # S (x a(y) - a(x) y)
            for c, z in ay:
                r = mono_mul(x, z)
                if r:
                    acc[r[1]] = acc.get(r[1], 0) + c * r[0]
            for c, z in ax:
                r = mono_mul(z, y)
                if r:
                    acc[r[1]] = acc.get(r[1], 0) - c * r[0]
            px = len(x[1]) & 1
            for (bx, dx), (by, dy), (_, _, pb) in zip(bdx, bdy, cs):
                # (-1)^{p(x) pb} (b(x) d(y) - (-1)^{pb} d(x) b(y))
                st = -1 if pb and px else 1
                if dy:
                    k, w = st * dy[0], dy[1]
                    for c, z in bx:
                        r = mono_mul(z, w)
                        if r:
                            acc[r[1]] = acc.get(r[1], 0) + k * c * r[0]
                if dx:
                    k, w = (st if pb else -1) * dx[0], dx[1]
                    for c, z in by:
                        r = mono_mul(w, z)
                        if r:
                            acc[r[1]] = acc.get(r[1], 0) + k * c * r[0]
            return {z: v for z, v in acc.items() if v}

        return S, kern

    def a_derivation(self) -> DerivationD:
        return DerivationD(self.m, self.n, self.a_terms)

    def a_polyvector(self) -> PolyVector:
        return PolyVector.vector_field(self.m, self.n, self.a_terms)

    def c_polyvector(self) -> PolyVector:
        pv = PolyVector(self.m, self.n, 2)
        for coeff, bv, dv in self.c_pairs:
            for c in _homogeneous_parts(coeff):
                pv.add_term((_factor_key(bv), _factor_key(dv)), c)
        return pv

    def validate(self):
        apv = self.a_polyvector()
        if apv and apv.parity() != 1:  # shifted parity of an even field
            raise ValueError("a must be an even derivation")
        cpv = self.c_polyvector()
        if cpv and cpv.parity() != 0:
            raise ValueError("c must be an even 2-polyvector")


def gpb_from_ac(pair: ACPair, f: SuperPoly, g: SuperPoly) -> SuperPoly:
    """{f,g} = f a(g) - a(f) g
              + sum_i (-1)^{p(f) p(b_i)} (b_i(f) d_i(g) - (-1)^{p(b_i)} d_i(f) b_i(g)).

    The pair is compiled once (`ACPair.kernel`), and the value expands over
    the monomial pairs of f and g on ints."""
    if (f.m, f.n) != (pair.m, pair.n) or (g.m, g.n) != (pair.m, pair.n):
        raise ValueError("signature mismatch")
    return expand(*pair.kernel, f, g)


def check_s_conditions(pair: ACPair) -> Report:
    """[a,c] = 0 and [c,c] = -2 a^c, evaluated exactly.  The identities
    assume a and c even, so an odd pair raises ValueError (`validate`)."""
    t0 = time.perf_counter()
    pair.validate()
    a = pair.a_polyvector()
    c = pair.c_polyvector()
    r1 = schouten_bracket(a, c)
    r2 = schouten_bracket(c, c) + wedge(a, c).scale(2)
    ok = r1.is_zero() and r2.is_zero()
    ce = None
    if not ok:
        ce = {
            "residual_a_c": r1.render(),
            "residual_c_c_plus_2ac": r2.render(),
        }
    return Report(
        suite="schouten-conditions",
        params={"m": pair.m, "n": pair.n, "cPairs": len(pair.c_pairs)},
        certified_span={"exact": True},
        status="pass" if ok else "fail",
        counterexample=ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


# -- pairs matching the built-in brackets ----------------------------------------


def pairing_h_pair(k: int, n: int) -> ACPair:
    """a = 0 and the 2-polyvector whose bracket is exactly the built-in "h"
    bracket at signature (2k, n)."""
    m = 2 * k
    one = SuperPoly.one(m, n)
    half = SuperPoly.const(m, n, Fraction(1, 2))
    pairs = []
    for i in range(k):
        pairs.append((one, even_var(i), even_var(k + i)))
    if n == 1:
        pairs.append((half, odd_var(0), odd_var(0)))
    elif n >= 2:
        for j in range(n - 2):
            pairs.append((half, odd_var(j), odd_var(j)))
        pairs.append((one, odd_var(n - 2), odd_var(n - 1)))
    return ACPair(m, n, (), tuple(pairs))


def pairing_k_pair(k: int, n: int) -> ACPair:
    """a = 2 d/dt and c = c_h - E ^ d/dt at signature (2k+1, n), matching the
    built-in "k" bracket."""
    m = 2 * k + 1
    one = SuperPoly.one(m, n)
    half = SuperPoly.const(m, n, Fraction(1, 2))
    two = SuperPoly.const(m, n, 2)
    a_terms = ((two, even_var(0)),)
    pairs = []
    for i in range(k):
        pairs.append((one, even_var(1 + i), even_var(1 + k + i)))
    if n == 1:
        pairs.append((half, odd_var(0), odd_var(0)))
    elif n >= 2:
        for j in range(n - 2):
            pairs.append((half, odd_var(j), odd_var(j)))
        pairs.append((one, odd_var(n - 2), odd_var(n - 1)))
    # -E ^ d/dt with E the Euler field in the non-time variables
    for i in range(1, m):
        zi = SuperPoly.variable(m, n, even_var(i))
        pairs.append((-zi, even_var(i), even_var(0)))
    for j in range(n):
        zj = SuperPoly.variable(m, n, odd_var(j))
        pairs.append((-zj, odd_var(j), even_var(0)))
    return ACPair(m, n, a_terms, tuple(pairs))
