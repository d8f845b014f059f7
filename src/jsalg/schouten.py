"""The Schouten bracket as the odd bracket on doubled-variable
superpolynomials, and the bracket built from an even pair (a, c) with its two
closure conditions (Lichnerowicz, J. Math. Pures Appl. 1978).

Polyvectors are the functions on the odd cotangent bundle.  Give each
generator z of the (m, n) superalgebra a dual z* of the opposite parity, so
x*_i is odd and xi*_j is even.  The doubled signature has m + n even
generators (x1..xm, then xi*_1..xi*_n) and n + m odd ones (xi1..xin, then
x*_1..x*_m), and the polyvector f d/dz1^...^d/dzk is the `SuperPoly`
f z1*...zk* on it.  Then:

* the wedge is `superpoly.mul`: d/dx ^ d/dx = x* x* = 0, while
  d/dxi ^ d/dxi = xi*^2 survives;
* the shifted parity p(f) + #d/dx factors is `SuperPoly.parity()`;
* the Schouten bracket is the canonical odd Poisson bracket
  (Kosmann-Schwarzbach, Ann. Inst. Fourier 1996)

      [F, G] = sum_z (F <d/dz*)(d/dz G) - (F <d/dz)(d/dz* G),

  with d/dz G the left partial (`partial`) and F <d/dv the right partial.
  For homogeneous F the right partial in an even v is the left one, and in
  an odd v it is (-1)^{p(F)+1} times it: the sign (-1)^p, p the parity of
  the result, so it applies term by term to mixed F too.

Lemma (sign convention).  With p the parity on the doubled signature, the
bracket is odd, and
    [F, G] = -(-1)^{(p(F)+1)(p(G)+1)} [G, F],
    [F, G H] = [F, G] H + (-1)^{(p(F)+1) p(G)} G [F, H],
and on generators [z*, w] = delta_zw (so [X, f] = X(f) for a vector field
X), [z, w] = 0 and [z*, w*] = 0 (coordinate fields commute).  A bracket with
these two rules is fixed by its values on generator pairs.  The
coordinate-derivation calculus (the product rule on wedges, [X, Y] the
vector-field commutator, [f, g] = 0) obeys the same rules with the same
values, so the two agree; tests/references.py keeps that calculus, and a
differential test holds them equal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .brackets import DerivationD, den_lcm, der_ints, der_terms, expand
from .report import Report
from .superpoly import SuperPoly, even_var, mono_mul, mono_partial, mul, odd_var, partial


def _duals(m: int, n: int) -> list:
    """(z, z*) for each generator z of (m, n), as generators of the doubled
    signature (m + n, n + m)."""
    return ([(even_var(i), odd_var(n + i)) for i in range(m)]
            + [(odd_var(j), even_var(m + j)) for j in range(n)])


def polyvector(m: int, n: int, terms) -> SuperPoly:
    """The sum of f d/dz1^...^d/dzk over terms (f, (z1, ..., zk)), f a
    `SuperPoly` of (m, n), on the doubled signature."""
    star = dict(_duals(m, n))
    pad = (0,) * n
    out = SuperPoly(m + n, n + m)
    for f, zs in terms:
        t = SuperPoly(m + n, n + m)
        t.terms = {(ev + pad, od): c for (ev, od), c in f.terms.items()}
        for z in zs:
            t = mul(t, SuperPoly.variable(m + n, n + m, star[z]))
        out = out + t
    return out


def _right_partial(F: SuperPoly, v) -> SuperPoly:
    """F <d/dv: the left partial, its terms of odd parity negated if v is odd."""
    d = partial(F, v)
    if v.kind == "odd":
        d.terms = {mo: -c if len(mo[1]) & 1 else c for mo, c in d.terms.items()}
    return d


def schouten_bracket(m: int, F: SuperPoly, G: SuperPoly) -> SuperPoly:
    """[F, G] for polyvectors of the (m, F.m - m) superalgebra."""
    out = SuperPoly(F.m, F.n)
    for z, zs in _duals(m, F.m - m):
        out = (out + mul(_right_partial(F, zs), partial(G, z))
               - mul(_right_partial(F, z), partial(G, zs)))
    return out


def render_polyvector(m: int, F: SuperPoly) -> str:
    """F as "(f) d/dx1^d/dxi2 + ...": one term per wedge, the wedges in
    ascending factor order (every d/dx before every d/dxi), each coefficient
    a `SuperPoly` of (m, n) in its own rendering."""
    n = F.m - m
    wedges = {}
    for (ev, od), c in F.terms.items():
        k = sum(j < n for j in od)  # the xi come before the x*
        key = (tuple((0, i - n) for i in od[k:])
               + tuple((1, j) for j, e in enumerate(ev[m:]) for _ in range(e)))
        wedges.setdefault(key, {})[(ev[:m], od[:k])] = c
    if not wedges:
        return "0"
    bits = []
    for key in sorted(wedges):
        body = "^".join(f"d/dx{i + 1}" if kind == 0 else f"d/dxi{i + 1}" for kind, i in key)
        bits.append(f"({SuperPoly(m, n, wedges[key]).render()}) {body}".rstrip())
    return " + ".join(bits)


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
               (co.parity() + (bv.kind == "odd")) & 1)
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

    def a_polyvector(self) -> SuperPoly:
        return polyvector(self.m, self.n, ((f, (v,)) for f, v in self.a_terms))

    def c_polyvector(self) -> SuperPoly:
        return polyvector(self.m, self.n, ((f, (b, d)) for f, b, d in self.c_pairs))

    def validate(self):
        """a and c even: shifted parities 1 and 0 on every term, so a
        mixed-parity a or c is refused as an odd one is."""
        for F, p, what in ((self.a_polyvector(), 1, "a must be an even derivation"),
                           (self.c_polyvector(), 0, "c must be an even 2-polyvector")):
            if any(len(od) & 1 != p for _, od in F.terms):
                raise ValueError(what)


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
    m, a, c = pair.m, pair.a_polyvector(), pair.c_polyvector()
    r1 = schouten_bracket(m, a, c)
    r2 = schouten_bracket(m, c, c) + mul(a, c).scale(2)
    ok = not r1 and not r2
    ce = None
    if not ok:
        ce = {
            "residual_a_c": render_polyvector(m, r1),
            "residual_c_c_plus_2ac": render_polyvector(m, r2),
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
