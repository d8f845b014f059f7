"""Generalized Poisson structures on the (m, n) superalgebra.

Built-in bracket kinds:

* "h": the even-variable pairing sum d/dp_i d/dq_i - d/dq_i d/dp_i together
  with the odd block that is diagonal on xi_1..xi_{n-2} and swaps the last
  two odd generators (for n == 1 the odd block is the single diagonal term,
  for n == 0 it is absent).  Poisson, derivation D = 0.
* "k": contact extension on a signature with t at even index 0:
      {f,g} = (2-E)f dg/dt - df/dt (2-E)g + {f,g}_h
  with E the Euler operator in the non-t variables; D = 2 d/dt.
* "custom": constant superskew matrix C with {X_i, X_j} = C_ij extended as a
  biderivation, optionally with the same contact extension (has_time).
* "gauge": {f,g}^phi = phi^{-1} {phi f, phi g}; evaluation carries an explicit
  degree budget since phi^{-1} is a series.
* "dmod": {f,g}_D = {f,g} - (f D(g) - D(f) g)/2 over a base spec.

The "custom" evaluation uses
    {f,g} = sum_even C_ij df/dX_i dg/dX_j - (-1)^{p(f)} sum_odd C_ij df/dxi_i dg/dxi_j
which reproduces {X_i,X_j} = C_ij on generators (the odd-odd prefactor
swallows the extra Koszul sign of the squared odd derivatives).

Evaluation.  `bracket_kernel(spec, budget)` is the one compile step of every
kind; it maps a monomial pair to the ints of S {a, b}, S = spec_scale(spec,
budget).  h/k/custom compile to S c_ij (checked to clear every entry), the
odd block's outer sign and the time part's integer factors; dmod compiles
over its base's kernel and D once; gauge evaluates phi^{-1} {phi a, phi b}
over its base's kernel, truncated at the budget.  A spec instance compiles
once and keeps its kernel (`BracketSpec.kernel`); the series kind compiles
per budget.  `bracket` is `expand` over the kernel, `bracket_monomials` its
value on one pair, and the identity drivers read every value from one pair
oracle, `_PairCache`:

* Monomials are interned to dense int ids, the driver's canonical list
  first, so id i is the driver's index i.  The oracle caches the bracket,
  the modified bracket, the derivation value and the product of ids, each
  as an id-keyed dict of ints.
* Every cached value is `scale` times the exact one.  The scale is fixed
  when the oracle is built, from the per-kind denominator bound proved in
  `spec_scale` (times den(D), and 2 more for kmc's D' = D/2); bracket
  values are the kernel's ints times scale / S.  A scale that leaves a
  denominator raises RuntimeError: a scale below its bound is an internal
  error, never a verdict.
* The scans accumulate ints.  A tuple fails iff some value is nonzero (for
  the series kind, some value of degree at most the certified degree).
  Only then is the residual mapped back to monomials and Fractions, divided
  by scale for the linear identities (antisymmetry, generalized Leibniz,
  kmc-product) and by scale^2 for the ones that nest two values (Jacobi,
  kmc-jacobi).
* Each scan is a chunk worker of the identity engine `report.scan` and
  builds its oracle from the payload (spec, D, monos, max_deg).  A product
  is one signed id, (sign, id), not a multi-term row as in the table oracle.

Orbit quantifiers.  The product-rule scans (generalized Leibniz,
kmc-product) visit one ordered triple (a, b, c) per orbit of swapping b and
c, and the Jacobi and kmc-jacobi scans one multiset a <= b <= c, after a
super-antisymmetry prepass on the pairs.  The certified span is still every
ordered triple, each proved from its representative by the lemmas at
`_product_rule`, `check_jacobi` and `_kmc_worker`.  The lex-least failing
triple of a set closed under those permutations is its own representative,
so a scan stops at the same triple as a scan of every ordered triple and
reports the same residual.

Order windows.  A driver of order r (`_ORDER`) on a spec that is not a
series, with r <= max_deg, first scans the window of monomials of total
degree <= r.  A pass there certifies every ordered tuple of the listed
monomials, by the lemma below; a failure reruns the whole list, so the
report names the same first failure.  Lemma: let P be an identity that on
the Grassmann envelope, where every argument is even and the Koszul signs
vanish, is a multidifferential operator of order <= r in each slot: a sum
of c d^A1 f1 ... d^As fs, each d^A a product of <= r of the d/dx_i and
d/dxi_j, with polynomial coefficients c that do not depend on the parity of
the arguments.  If P vanishes on the monomials of total degree <= r, it
vanishes on all polynomials.  Proof: fix all slots but one, P(f) =
sum_A c_A d^A f.  d^A takes x^a xi^B to +-(a!/(a-a')!) x^(a-a') xi^(B-B')
if A = (a', B') divides (a, B), else to 0.  So by induction on the degree
of (a, B) (times a fresh odd envelope generator if |B| is odd), P(x^a xi^B)
= +-a! c_(a,B) and every c_A is 0; then free the slots one at a time.  The
brackets have order 1 in each slot (the odd block's -(-1)^{p(f)} df/dxi is
the right derivative, -d/dxi on the envelope; the contact part and an even D
have polynomial coefficients), so Jacobi and kmc-jacobi have order 2, and
antisymmetry, Leibniz and kmc-product order 1: the window's pair prepass
proves the antisymmetry its multiset scan needs.  The condition is needed:
P(f) = sum_j df/dxi_j on even f and 0 on odd f vanishes on the monomials of
degree <= 1, not on xi1 xi2.

The rerun after a failing window tests each outer row i on the window
first (`_row_passes`): with slot 1 fixed to a_i, P still has order <= r in
the other slots, so P(a_i, ., .) vanishes on all polynomials iff it does
on every *ordered* window tuple (orbit representatives would need the
antisymmetry a failing run has not proved).  A passing row is skipped, its
tuples counted, and a failing one scanned in full: the first failure is the
same at any worker count.  A degree r - 1 window agrees only by other
lemmas (Leibniz has order 0 in slots 2 and 3, a super-antisymmetric
Jacobiator order 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from operator import add

from .report import Report, scan
from .superpoly import (
    SuperPoly,
    VarRef,
    even_var,
    merge_odds,
    mono_degree,
    mono_mul,
    mono_parity,
    mono_partial,
    monomials,
    monomials_total_degree,
    mul,
    odd_var,
    partial,
    render_monomial,
)


@dataclass(frozen=True)
class DerivationD:
    """A formal vector field sum coeff_v * d/dv.  It is even when every
    coeff_v is homogeneous of the parity of v; the identity drivers take
    only even fields, `schouten.ACPair` also builds odd ones."""

    m: int
    n: int
    terms: tuple  # ((SuperPoly, VarRef), ...)

    @staticmethod
    def zero(m: int, n: int) -> "DerivationD":
        return DerivationD(m, n, ())

    @staticmethod
    def multiple_of_dt(m: int, n: int, c=2) -> "DerivationD":
        coeff = SuperPoly.const(m, n, c)
        return DerivationD(m, n, ((coeff, even_var(0)),))

    @staticmethod
    def from_generator_values(m: int, n: int, d_fn) -> "DerivationD":
        """Derivation with d/dz coefficient d_fn(z) for every generator z."""
        terms = []
        for i in range(m):
            val = d_fn(even_var(i))
            if val:
                terms.append((val, even_var(i)))
        for j in range(n):
            val = d_fn(odd_var(j))
            if val:
                terms.append((val, odd_var(j)))
        return DerivationD(m, n, tuple(terms))

    def is_even(self) -> bool:
        return all(mono_parity(mono) == (v.kind == "odd")
                   for poly, v in self.terms for mono in poly.terms)

    def apply(self, f: SuperPoly) -> SuperPoly:
        out = SuperPoly.zero(self.m, self.n)
        for coeff, v in self.terms:
            out = out + mul(coeff, partial(f, v))
        return out

    def scale(self, c) -> "DerivationD":
        return DerivationD(self.m, self.n, tuple((p.scale(c), v) for p, v in self.terms))


@dataclass(frozen=True)
class BracketSpec:
    m: int
    n: int
    kind: str  # "h" | "k" | "custom" | "gauge" | "dmod"
    c_even: tuple = ()  # ((i, j, Fraction), ...) over non-time even vars, 0-based
    c_odd: tuple = ()  # ((i, j, Fraction), ...) over odd vars
    has_time: bool = False
    base: "BracketSpec | None" = None
    phi: "SuperPoly | None" = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def h_type(k: int, n: int) -> "BracketSpec":
        return BracketSpec(2 * k, n, "h", _even_pairing(k), _h_odd_block(n))

    @staticmethod
    def k_type(k: int, n: int) -> "BracketSpec":
        return BracketSpec(
            2 * k + 1, n, "k", _even_pairing(k), _h_odd_block(n), has_time=True
        )

    @staticmethod
    def diagonal(k: int, n: int, has_time: bool = False) -> "BracketSpec":
        """Even pairing plus the fully diagonal odd block {xi_j, xi_j} = -1:
        the block cut out by restricting the built-in "h" bracket to an
        initial segment of the odd generators.
        """
        odd = tuple((j, j, Fraction(-1)) for j in range(n))
        m = 2 * k + (1 if has_time else 0)
        return BracketSpec(m, n, "custom", _even_pairing(k), odd, has_time=has_time)

    @staticmethod
    def custom(m: int, n: int, C, has_time: bool = False) -> "BracketSpec":
        """C square of size (m' + n), m' the even non-time count; indices
        1..m' label the even variables, the rest the odd ones."""
        mp = m - (1 if has_time else 0)
        if len(C) != mp + n or any(len(row) != mp + n for row in C):
            raise ValueError(f"C must be square of size {mp + n}")
        c_even = tuple(
            (i, j, Fraction(C[i][j])) for i in range(mp) for j in range(mp) if C[i][j]
        )
        c_odd = tuple(
            (i, j, Fraction(C[mp + i][mp + j]))
            for i in range(n)
            for j in range(n)
            if C[mp + i][mp + j]
        )
        if any(C[i][mp + j] or C[mp + j][i] for i in range(mp) for j in range(n)):
            raise ValueError("C must vanish between even and odd blocks")
        return BracketSpec(m, n, "custom", c_even, c_odd, has_time=has_time)

    @staticmethod
    def negated(spec: "BracketSpec") -> "BracketSpec":
        """The bracket with all generator values negated (C -> -C)."""
        if spec.kind not in ("h", "k", "custom"):
            raise ValueError("negation only supported on constant-matrix kinds")
        return BracketSpec(
            spec.m,
            spec.n,
            "custom",
            tuple((i, j, -c) for i, j, c in spec.c_even),
            tuple((i, j, -c) for i, j, c in spec.c_odd),
            has_time=spec.has_time,
        )

    @staticmethod
    def gauge(base: "BracketSpec", phi: SuperPoly) -> "BracketSpec":
        if (phi.m, phi.n) != (base.m, base.n):
            raise ValueError("phi signature mismatch")
        if phi.parity() != 0:
            raise ValueError("gauge element must be even")
        if not phi.constant_term():
            raise ValueError("gauge element must be invertible (nonzero constant term)")
        return BracketSpec(base.m, base.n, "gauge", base=base, phi=phi)

    @staticmethod
    def d_modified(base: "BracketSpec") -> "BracketSpec":
        return BracketSpec(base.m, base.n, "dmod", base=base)

    # -- structure -----------------------------------------------------------

    @cached_property
    def kernel(self):
        """bracket_kernel(self) of a non-series spec, compiled on first use
        and kept on this instance: an equal spec compiles its own."""
        return _compile(self, None)

    def __getstate__(self):
        # a compiled kernel is a closure, which does not pickle
        return {k: v for k, v in self.__dict__.items() if k != "kernel"}

    def is_superskew(self) -> bool:
        ev = {(i, j): c for i, j, c in self.c_even}
        if any(ev.get((j, i), Fraction(0)) != -c for (i, j), c in ev.items()):
            return False
        od = {(i, j): c for i, j, c in self.c_odd}
        return all(od.get((j, i), Fraction(0)) == c for (i, j), c in od.items())

    def derivation(self) -> DerivationD:
        """The even derivation governing the generalized Leibniz rule."""
        if self.kind == "h":
            return DerivationD.zero(self.m, self.n)
        if self.kind == "k":
            return DerivationD.multiple_of_dt(self.m, self.n)
        if self.kind == "custom":
            if self.has_time:
                return DerivationD.multiple_of_dt(self.m, self.n)
            return DerivationD.zero(self.m, self.n)
        if self.kind == "dmod":
            return self.base.derivation().scale(Fraction(1, 2))
        if self.kind == "gauge":
            base_d = self.base.derivation()
            phi = self.phi
            d_phi = base_d.apply(phi)

            def val(v: VarRef) -> SuperPoly:
                zv = SuperPoly.variable(self.m, self.n, v)
                return mul(d_phi, zv) + bracket(self.base, phi, zv)

            return DerivationD.from_generator_values(self.m, self.n, val)
        raise ValueError(f"unknown kind {self.kind}")


def _even_pairing(k: int) -> tuple:
    # even variables ordered p_1..p_k, q_1..q_k (after the time slot if any)
    out = []
    for i in range(k):
        out.append((i, k + i, Fraction(1)))
        out.append((k + i, i, Fraction(-1)))
    return tuple(out)


def _h_odd_block(n: int) -> tuple:
    if n == 0:
        return ()
    if n == 1:
        return ((0, 0, Fraction(-1)),)
    out = [(j, j, Fraction(-1)) for j in range(n - 2)]
    out.append((n - 2, n - 1, Fraction(-1)))
    out.append((n - 1, n - 2, Fraction(-1)))
    return tuple(out)


# -- evaluation ----------------------------------------------------------------


def _clear(c, S: int) -> int:
    """S * c as an int; RuntimeError when S leaves a denominator."""
    v, r = divmod(c.numerator * S, c.denominator)
    if r:
        raise RuntimeError(f"internal error: bracket scale {S} leaves a denominator in {c}")
    return v


def der_ints(D: DerivationD, S: int) -> tuple:
    """D compiled at scale S: ((var, ((mono, S * coeff), ...)), ...)."""
    return tuple((v, tuple((mono, _clear(c, S)) for mono, c in poly.terms.items()))
                 for poly, v in D.terms)


def der_terms(dterms, mono):
    """The terms (c, mono') of S D(mono), repeats included, D by der_ints."""
    for v, coeff in dterms:
        d = mono_partial(mono, v)
        if d is not None:
            k, dm = d
            for cm, c in coeff:
                r = mono_mul(cm, dm)
                if r is not None:
                    yield c * k * r[0], r[1]


def der_defect(dterms, a, b, acc: dict, s: int = 1):
    """acc += s * S * (a D(b) - D(a) b) on monomials a, b, with D compiled
    at scale S by der_ints."""
    for c, y in der_terms(dterms, b):
        r = mono_mul(a, y)
        if r is not None:
            acc[r[1]] = acc.get(r[1], 0) + s * c * r[0]
    for c, y in der_terms(dterms, a):
        r = mono_mul(y, b)
        if r is not None:
            acc[r[1]] = acc.get(r[1], 0) - s * c * r[0]


def bracket_kernel(spec: BracketSpec, budget=None):
    """(S, kern): kern(a, b) is the dict of nonzero ints S {a, b} on
    monomials, S = spec_scale(spec, budget).  This is the one compile step
    of every kind.  A spec compiles once per instance and keeps its kernel
    (`BracketSpec.kernel`); the series kind compiles per budget, over its
    base's kept kernel."""
    if not _is_series(spec):
        return spec.kernel
    if budget is None:
        raise ValueError("gauge bracket evaluation needs a degree budget")
    return _compile(spec, budget)


def _compile(spec: BracketSpec, budget):
    """The kernel of bracket_kernel: the entries S c_ij (checked to be
    integral) and the time part (2 - E) a db/dt - da/dt (2 - E) b by its
    integer factors times S; dmod and gauge over the base's kernel."""
    S = spec_scale(spec, budget)
    if spec.kind == "gauge":
        Sb, base = bracket_kernel(spec.base, budget)
        phi, m, n = spec.phi, spec.m, spec.n

        def gkern(a, b):
            # phi^{-1} {phi a, phi b}, truncated at the budget
            u = expand(Sb, base, mul(phi, SuperPoly(m, n, {a: 1})),
                       mul(phi, SuperPoly(m, n, {b: 1})))
            return {y: _clear(c, S) for y, c in mul_by_inverse(phi, u, budget).terms.items()}

        return S, gkern
    if spec.kind == "dmod":
        # {a,b}_D = {a,b} - (a D(b) - D(a) b)/2
        Sb, base = bracket_kernel(spec.base, budget)
        t = _clear(Fraction(1, Sb), S)
        half = der_ints(spec.base.derivation().scale(Fraction(1, 2)), S)

        def dkern(a, b):
            acc = {y: v * t for y, v in base(a, b).items()}
            der_defect(half, a, b, acc, -1)
            return {y: v for y, v in acc.items() if v}

        return S, dkern
    t = 1 if spec.has_time else 0

    def low(*ks):  # the exponent shift of d/dX_k for each k in ks
        sh = [0] * spec.m
        for k in ks:
            sh[k] -= 1
        return tuple(sh)

    ev = [(i + t, j + t, _clear(c, S), low(i + t, j + t)) for i, j, c in spec.c_even]
    od = [(i, j, _clear(c, S)) for i, j, c in spec.c_odd]
    dt = low(0) if t else ()

    def kern(a, b):
        (e1, o1), (e2, o2) = a, b
        acc = {}
        tot = tuple(map(add, e1, e2))
        r = merge_odds(o1, o2)
        if r is not None:
            sg, odds = r
            for i, j, c, sh in ev:
                x = e1[i] * e2[j]
                if x:
                    y = (tuple(map(add, tot, sh)), odds)
                    acc[y] = acc.get(y, 0) + sg * c * x
            if t and (e1[0] or e2[0]):
                x = e2[0] * (2 - mono_degree(a) + e1[0]) - e1[0] * (2 - mono_degree(b) + e2[0])
                y = (tuple(map(add, tot, dt)), odds)
                acc[y] = acc.get(y, 0) + sg * S * x
        if od:
            outer = 1 if len(o1) & 1 else -1
            for i, j, c in od:
                if i in o1 and j in o2:
                    p, q = o1.index(i), o2.index(j)
                    r = merge_odds(o1[:p] + o1[p + 1:], o2[:q] + o2[q + 1:])
                    if r is not None:
                        y = (tot, r[1])
                        x = -c * r[0] if (p + q) & 1 else c * r[0]
                        acc[y] = acc.get(y, 0) + outer * x
        return {y: v for y, v in acc.items() if v}

    return S, kern


def expand(S: int, kern, f: SuperPoly, g: SuperPoly) -> SuperPoly:
    """The bilinear extension of a monomial kernel at scale S: the sum of
    c_a c_b kern(a, b) / S over the terms c_a a of f and c_b b of g.  Each
    coefficient is cleared once to an int over its argument's common
    denominator (F for f, G for g, the lcm of the denominators, so the
    divisions are exact), the products sum on ints, and each nonzero sum v
    becomes one Fraction v / (S F G) in the result's terms."""
    F, G = den_lcm(f.terms.values()), den_lcm(g.terms.values())
    gs = [(b, cb.numerator * (G // cb.denominator)) for b, cb in g.terms.items()]
    acc: dict = {}
    for a, ca in f.terms.items():
        ca = ca.numerator * (F // ca.denominator)
        for b, cb in gs:
            c = ca * cb
            for y, v in kern(a, b).items():
                acc[y] = acc.get(y, 0) + c * v
    out = SuperPoly(f.m, f.n)
    D = S * F * G
    out.terms = {y: Fraction(v, D) for y, v in acc.items() if v}
    return out


def bracket_monomials(spec: BracketSpec, m1, m2) -> dict:
    """{m1, m2} as a term dict, for the non-series bracket kinds."""
    S, kern = bracket_kernel(spec)
    return {y: Fraction(v, S) for y, v in kern(m1, m2).items()}


def bracket(spec: BracketSpec, f: SuperPoly, g: SuperPoly, budget=None) -> SuperPoly:
    """Evaluate the bracket.  The series kind ("gauge") needs a degree budget
    and returns the truncation to total degree <= budget."""
    if (f.m, f.n) != (spec.m, spec.n) or (g.m, g.n) != (spec.m, spec.n):
        raise ValueError("signature mismatch between spec and arguments")
    return expand(*bracket_kernel(spec, budget), f, g)


def gauge_twist(spec: BracketSpec, phi: SuperPoly) -> BracketSpec:
    return BracketSpec.gauge(spec, phi)


def mul_by_inverse(phi: SuperPoly, u: SuperPoly, budget: int) -> SuperPoly:
    """phi^{-1} * u truncated to total degree <= budget (geometric series)."""
    c = phi.constant_term()
    if not c:
        raise ValueError("phi is not invertible")
    psi = SuperPoly.const(phi.m, phi.n, 1) - phi.scale(Fraction(1) / c)
    acc = u.truncate(budget)
    term = acc
    while term:
        term = mul(psi, term).truncate(budget)
        acc = acc + term
    return acc.scale(Fraction(1) / c)


# -- verification drivers --------------------------------------------------------

GAUGE_SLACK = 2  # degree loss of one nested bracket application


def _is_series(spec: BracketSpec) -> bool:
    while spec is not None:
        if spec.kind == "gauge":
            return True
        spec = spec.base
    return False


def den_lcm(values) -> int:
    """The lcm of the denominators of some rationals (1 for none)."""
    out = 1
    for c in values:
        out = lcm(out, c.denominator)
    return out


def _derivation_den(D: DerivationD) -> int:
    """den(D): the lcm of the denominators of D's coefficients.  D(a) of a
    monomial a is linear in them, and partial derivatives of a monomial only
    add integer factors, so den(D) * D(a) is integral."""
    return den_lcm(c for poly, _ in D.terms for c in poly.terms.values())


def spec_scale(spec: BracketSpec, budget=None) -> int:
    """An integer S with S * {a, b} integral for all monomials a, b (for the
    series kind, the bracket truncated at `budget`).

    * h, k, custom: the lcm of the denominators of c_even and c_odd.  The
      constant part is bilinear in these entries with integer
      partial-derivative factors, and the time part
      (2 - E) f dg/dt - df/dt (2 - E) g has integer coefficients.
    * dmod: 2 * S(base) * den(D), D = base.derivation(): the correction
      (f D(g) - D(f) g)/2 is linear in the coefficients of D.
    * gauge: S(base) * L^2 * p * (L p)^budget, with L the lcm of the
      denominators of phi and p the numerator of its constant term c.
      {phi f, phi g} is bilinear in the coefficients of phi, so S(base) L^2
      clears it.  psi = 1 - phi/c has denominators dividing L p and no
      constant term, so of the series phi^{-1} = (1/c) sum_k psi^k only
      k <= budget survives the truncation, and 1/c adds p.
    """
    if spec.kind in ("h", "k", "custom"):
        return den_lcm(c for _i, _j, c in spec.c_even + spec.c_odd)
    if spec.kind == "dmod":
        return 2 * spec_scale(spec.base, budget) * _derivation_den(spec.base.derivation())
    if spec.kind == "gauge":
        L = den_lcm(spec.phi.terms.values())
        p = abs(spec.phi.constant_term().numerator)
        return spec_scale(spec.base, budget) * L * L * p * (L * p) ** budget
    raise ValueError(f"unknown kind {spec.kind}")


class _Row(dict):
    """One row of a pair cache: a missing entry j is filled as fill(i, j)."""

    __slots__ = ("fill", "i")

    def __init__(self, fill, i):
        super().__init__()
        self.fill = fill
        self.i = i

    def __missing__(self, j):
        v = self[j] = self.fill(self.i, j)
        return v


class _PairCache:
    """The pair oracle the identity scans read every value from.

    Monomials are interned to dense int ids, the driver's list first, so id
    i is the driver's index i; `par` and `deg` hold each id's parity and
    total degree.  Four caches hold `scale` times an exact value as an
    id-keyed dict of nonzero ints, filled on first use:

    * br[i][j], the bracket {a_i, a_j}, kern(a_i, a_j) times scale / kscale;
    * dm[i][j], the modified bracket {a, b} - a E(b) + E(a) b;
    * ev[i], the derivation value E(a_i);
    * pr[i][j], the product a_i a_j as (sign, id), or 0 when an odd
      generator repeats (not scaled).

    E is D for the generalized Leibniz rule and D' = D/2 for kmc, so that
    dm is {.,.}_D.  Building the oracle checks that `scale` is a multiple
    of the kernel's scale and clears every coefficient of E, and raises
    RuntimeError otherwise: a scale below its stated bound is an internal
    error, never a verdict.
    """

    def __init__(self, monos, kern, kscale: int, scale: int, E=None, keep=None):
        self.kern = kern  # kscale times the bracket on monomials, as ints
        self.mult = _clear(Fraction(1, kscale), scale)
        self.scale = scale
        self.E = None if E is None else der_ints(E, scale)
        self.keep = keep  # series kind: only degrees <= keep are certified
        self.size = len(monos)
        self.monos: list = []
        self.ids: dict = {}
        self.par: list = []
        self.deg: list = []
        self.br: list = []
        self.dm: list = []
        self.pr: list = []
        self.ev = _Row(self._fill_der, None)
        for mono in monos:
            self.intern(mono)

    def intern(self, mono) -> int:
        i = self.ids.get(mono)
        if i is None:
            i = self.ids[mono] = len(self.monos)
            self.monos.append(mono)
            self.par.append(mono_parity(mono))
            self.deg.append(mono_degree(mono))
            self.br.append(_Row(self._fill_pair, i))
            self.dm.append(_Row(self._fill_dmod, i))
            self.pr.append(_Row(self._fill_prod, i))
        return i

    def _fill_pair(self, i, j):
        t, intern = self.mult, self.intern
        return {intern(y): v * t for y, v in self.kern(self.monos[i], self.monos[j]).items()}

    def _fill_prod(self, i, j):
        r = mono_mul(self.monos[i], self.monos[j])
        return 0 if r is None else (r[0], self.intern(r[1]))

    def _fill_der(self, _, i):
        acc = {}
        for c, y in der_terms(self.E, self.monos[i]):
            acc[y] = acc.get(y, 0) + c
        return {self.intern(y): v for y, v in acc.items() if v}

    def _fill_dmod(self, i, j):
        acc = dict(self.br[i][j])
        _mul_into(acc, self.pr, {i: -1}, self.ev[j])
        _mul_into(acc, self.pr, self.ev[i], {j: 1})
        return {y: v for y, v in acc.items() if v}

    def certified(self, acc: dict) -> bool:
        """Whether a nonzero accumulator has a nonzero certified value."""
        keep, deg = self.keep, self.deg
        return keep is None or any(v and deg[y] <= keep for y, v in acc.items())

    def residual(self, acc: dict, power: int) -> dict:
        """The certified part of an accumulator as a monomial term dict,
        divided by scale**power (1 for a linear identity, 2 for one that
        nests two scaled values)."""
        d = self.scale**power
        keep, deg = self.keep, self.deg
        return {self.monos[y]: Fraction(v, d) for y, v in acc.items()
                if v and (keep is None or deg[y] <= keep)}


def _mul_into(acc: dict, pr: list, t1: dict, t2: dict, s: int = 1):
    """acc += s * t1 t2 on id-keyed int dicts."""
    for z, u in t1.items():
        pz = pr[z]
        for x, v in t2.items():
            p = pz[x]
            if p:
                y = p[1]
                acc[y] = acc.get(y, 0) + s * p[0] * u * v


def _jacobiator(rows: list, ri, rj, k, ab: dict, s: int) -> dict:
    """{a,{b,c}} - {{a,b},c} - s {b,{a,c}} on the ids (i, j, k), with {.,.}
    read from rows (the bracket or the modified bracket), ri and rj the rows
    of a and b, and ab = {a,b}."""
    acc = {}
    for x, v in rj[k].items():
        for y, w in ri[x].items():
            acc[y] = acc.get(y, 0) + v * w
    for x, v in ab.items():
        for y, w in rows[x][k].items():
            acc[y] = acc.get(y, 0) - v * w
    for x, v in ri[k].items():
        for y, w in rj[x].items():
            acc[y] = acc.get(y, 0) - s * v * w
    return acc


def _spec_oracle(spec: BracketSpec, monos, max_deg: int, D=None, halve=False):
    """The pair oracle of a bracket spec.  Its scale is spec_scale(spec),
    times den(D) when D is given (the Leibniz term D(a)bc is linear in D),
    and times 2 more with halve, where E = D/2 (kmc's D').  It is filled
    from the spec's kernel, compiled at the budget max_deg + GAUGE_SLACK for
    the series kind."""
    series = _is_series(spec)
    budget = max_deg + GAUGE_SLACK if series else None
    kscale, kern = bracket_kernel(spec, budget)
    scale = spec_scale(spec, budget)
    E = D
    if D is not None:
        scale *= _derivation_den(D)
        if halve:
            scale *= 2
            E = D.scale(Fraction(1, 2))
    return _PairCache(monos, kern, kscale, scale, E, max_deg if series else None)


def _row_passes(win, fails, slots: int = 2) -> bool:
    """The row test of "Order windows", which every scan runs on each outer
    row when given the window's list ids win: whether win is given and
    fails(*t) is falsy on every ordered tuple t of `slots` of them."""
    return win is not None and not any(fails(*t) for t in product(win, repeat=slots))


def _skew_defect(o: _PairCache, rows: list, i, j) -> dict:
    """{a_i, a_j} + (-1)^{p(a_i)p(a_j)} {a_j, a_i}, read from rows."""
    acc = dict(rows[i][j])
    s = -1 if o.par[i] and o.par[j] else 1
    for y, v in rows[j][i].items():
        acc[y] = acc.get(y, 0) + s * v
    return acc


def _antisymmetry_scan(o: _PairCache, rows: list, lo: int, hi: int, win=None):
    """Super-antisymmetry of the bracket read from rows (the bracket or the
    modified bracket cache) on the pairs (i, j >= i), for i in [lo, hi).
    Returns (certified, 0, identity, tuple, residual) as the scans do."""
    N = o.size
    cnt = 0
    for i in range(lo, hi):
        if _row_passes(win, lambda j: any(_skew_defect(o, rows, i, j).values()), 1):
            cnt += N - i
            continue
        for j in range(i, N):
            acc = _skew_defect(o, rows, i, j)
            cnt += 1
            if any(acc.values()) and o.certified(acc):
                return cnt, 0, "antisymmetry", (i, j), o.residual(acc, 1)
    return cnt, 0, None, None, None


def _jacobi_scan(o: _PairCache, lo: int, hi: int, win=None):
    """Super-antisymmetry on the pairs (i, j >= i), then the super Jacobi
    identity on the multisets (i, j >= i, k >= j), for i in [lo, hi).
    Returns (certified, 0, identity, tuple, residual) at the first failure,
    else (certified, 0, None, None, None); a row that passes its row test
    (`_row_passes`) is counted, not scanned."""
    N, par, br = o.size, o.par, o.br
    first = _antisymmetry_scan(o, br, lo, hi, win)
    if first[2]:
        return first
    cnt = first[0]
    for i in range(lo, hi):
        bi = br[i]
        if _row_passes(win, lambda j, k: any(_jacobiator(
                br, bi, br[j], k, bi[j], -1 if par[i] and par[j] else 1).values())):
            cnt += (N - i) * (N - i + 1) // 2
            continue
        for j in range(i, N):
            s = -1 if par[i] and par[j] else 1
            ab, bj = bi[j], br[j]
            for k in range(j, N):
                acc = _jacobiator(br, bi, bj, k, ab, s)
                cnt += 1
                if any(acc.values()) and o.certified(acc):
                    return cnt, 0, "jacobi", (i, j, k), o.residual(acc, 2)
    return cnt, 0, None, None, None


def first_jacobi_failure(monos, kern, scale: int):
    """(identity, indices) of the first failure of super-antisymmetry or the
    super Jacobi identity on monomials of the bracket whose values scale
    times are the ints kern(a, b), or (None, None)."""
    o = _PairCache(monos, kern, scale, scale)
    return _jacobi_scan(o, 0, o.size)[2:4]


def _product_rule(pr: list, ri, ea: dict, j, k, ab: dict, s: int) -> dict:
    """L(a, b, c) = {a,bc} - {a,b}c - s b{a,c} - E(a)bc on the ids (i, j, k),
    s = (-1)^{p(a)p(b)}, with {.,.} read from ri, the row of a in the bracket
    or the modified bracket cache, ab = {a,b} and ea = E(a).

    Lemma: L(a, c, b) = (-1)^{p(b)p(c)} L(a, b, c) when the product is
    supercommutative and {.,.} is even.  Write e = (-1)^{p(b)p(c)}; then
    cb = e bc, so {a,cb} = e {a,bc} and E(a)cb = e E(a)bc; {a,c}b =
    (-1)^{p(b)(p(a)+p(c))} b{a,c} and c{a,b} = (-1)^{p(c)(p(a)+p(b))} {a,b}c
    turn the two middle terms of L(a, c, b) into e times those of L(a, b, c).
    So a scan of the triples with k >= j sees a failure at (i, k, j) at
    (i, j, k) with the same residual up to sign.  Every bracket of this
    module is even, and the modified bracket is when D is."""
    acc = {}
    bc = pr[j][k]
    if bc:
        sg, x = bc
        for y, v in ri[x].items():
            acc[y] = sg * v
        for z, u in ea.items():
            p = pr[z][x]
            if p:
                y = p[1]
                acc[y] = acc.get(y, 0) - sg * p[0] * u
    for z, v in ab.items():
        p = pr[z][k]
        if p:
            y = p[1]
            acc[y] = acc.get(y, 0) - p[0] * v
    pj = pr[j]
    for z, v in ri[k].items():
        p = pj[z]
        if p:
            y = p[1]
            acc[y] = acc.get(y, 0) - s * p[0] * v
    return acc


def _jacobi_worker(args):
    (spec, _D, monos, max_deg, win), lo, hi = args
    return _jacobi_scan(_spec_oracle(spec, monos, max_deg), lo, hi, win)


def _leibniz_worker(args):
    """The generalized Leibniz rule on the triples (i, j, k >= j), for i in
    [lo, hi): by the lemma at `_product_rule` they decide every ordered
    triple."""
    (spec, D, monos, max_deg, win), lo, hi = args
    o = _spec_oracle(spec, monos, max_deg, D)
    N, par, br, ev, pr = o.size, o.par, o.br, o.ev, o.pr
    cnt = 0
    for i in range(lo, hi):
        ea, bi = ev[i], br[i]
        if _row_passes(win, lambda j, k: any(_product_rule(
                pr, bi, ea, j, k, bi[j], -1 if par[i] and par[j] else 1).values())):
            cnt += N * (N + 1) // 2
            continue
        for j in range(N):
            s = -1 if par[i] and par[j] else 1
            ab = bi[j]
            for k in range(j, N):
                acc = _product_rule(pr, bi, ea, j, k, ab, s)
                cnt += 1
                if any(acc.values()) and o.certified(acc):
                    return cnt, 0, "generalized-leibniz", (i, j, k), o.residual(acc, 1)
    return cnt, 0, None, None, None


def _root_is_superskew(spec: BracketSpec) -> bool:
    """Whether the constant matrix under a dmod or gauge spec is superskew."""
    while spec.base is not None:
        spec = spec.base
    return spec.is_superskew()


def _kmc_jacobi(o: _PairCache, i, j, k, fg: dict, s: int) -> dict:
    """kmc-jacobi K(a_i, a_j, a_k) (`_kmc_worker`) on the modified bracket,
    fg = [a_i, a_j] and s = (-1)^{p(a_i)p(a_j)}."""
    par, dm, ev, pr = o.par, o.dm, o.ev, o.pr
    acc = _jacobiator(dm, dm[i], dm[j], k, fg, s)
    if ev[i]:
        _mul_into(acc, pr, ev[i], dm[j][k])
    if ev[j]:
        _mul_into(acc, pr, ev[j], dm[k][i], -1 if (par[i] and (par[j] ^ par[k])) else 1)
    if ev[k]:
        _mul_into(acc, pr, ev[k], fg, -1 if (par[k] and (par[i] ^ par[j])) else 1)
    return acc


def _kmc_worker(args):
    """The kmc identities of [f, g] = {f, g}_D, E = D' = D/2, for f = a_i,
    i in [lo, hi): super-antisymmetry of [.,.] on the pairs (i, j >= i),
    kmc-product on the triples (i, j, k >= j) (the lemma at `_product_rule`)
    and kmc-jacobi on the multisets i <= j <= k.

    kmc-jacobi at (f, g, h) is K = Jac(f, g, h) + E(f)[g,h]
    + (-1)^{p(f)(p(g)+p(h))} E(g)[h,f] + (-1)^{p(h)(p(f)+p(g))} E(h)[f,g],
    Jac(f, g, h) = [f,[g,h]] - [[f,g],h] - (-1)^{p(f)p(g)} [g,[f,h]].
    Lemma: if [.,.] is super-antisymmetric on all monomials and E is even,
    K is super-alternating: K(f, h, g) = -(-1)^{p(g)p(h)} K(f, g, h) and
    K(g, h, f) = (-1)^{p(f)(p(g)+p(h))} K(f, g, h), so an ordered triple
    fails exactly when its sorted multiset does.  Proof: write C for the
    cyclic sum of (-1)^{p(f)p(h)} [f,[g,h]] and T for that of
    (-1)^{p(f)p(h)} E(f)[g,h].  Antisymmetry gives Jac = (-1)^{p(f)p(h)} C,
    and the E-terms are (-1)^{p(f)p(h)} T by their signs alone; C and T are
    invariant under the cycle (f, g, h) -> (g, h, f), which gives the second
    relation.  For the first, antisymmetry takes Jac(f, h, g) to
    -(-1)^{p(g)p(h)} Jac(f, g, h) as in the super Jacobi identity, and each
    E-term of K(f, h, g) to -(-1)^{p(g)p(h)} times the same E-term of
    K(f, g, h), E(f) having the parity of f.

    The hypothesis holds when the constant matrix under the spec is
    superskew: the contact term and the correction of an even D are
    super-antisymmetric, and a gauge twist or a D-modification keeps a
    super-antisymmetric bracket so.  Otherwise kmc-jacobi runs on every
    ordered triple, after the pair prepass (which fails at a pair of
    listed generators once max_deg >= 1)."""
    (spec, D, monos, max_deg, win), lo, hi = args
    o = _spec_oracle(spec, monos, max_deg, D, halve=True)
    N, par, dm, ev, pr = o.size, o.par, o.dm, o.ev, o.pr
    first = _antisymmetry_scan(o, dm, lo, hi, win)
    if first[2]:
        return first
    cnt = first[0]
    skew = _root_is_superskew(spec)
    for i in range(lo, hi):
        pf, ef, di = par[i], ev[i], dm[i]

        def fails(j, k):
            fg, s = di[j], -1 if pf and par[j] else 1
            return any(_product_rule(pr, di, ef, j, k, fg, s).values()) or any(
                _kmc_jacobi(o, i, j, k, fg, s).values())

        if _row_passes(win, fails):
            cnt += N * (N + 1) // 2 + ((N - i) * (N - i + 1) // 2 if skew else N * N)
            continue
        for j in range(N):
            fg = di[j]
            s_fg = -1 if (pf and par[j]) else 1
            for k in range(j if skew else 0, N):
                if k >= j:
                    # product rule for the modified bracket
                    acc = _product_rule(pr, di, ef, j, k, fg, s_fg)
                    cnt += 1
                    if any(acc.values()) and o.certified(acc):
                        return cnt, 0, "kmc-product", (i, j, k), o.residual(acc, 1)
                if skew and j < i:
                    continue
                # double-bracket rule for the modified bracket
                acc = _kmc_jacobi(o, i, j, k, fg, s_fg)
                cnt += 1
                if any(acc.values()) and o.certified(acc):
                    return cnt, 0, "kmc-jacobi", (i, j, k), o.residual(acc, 2)
    return cnt, 0, None, None, None


_ORDER = {_jacobi_worker: 2, _leibniz_worker: 1, _kmc_worker: 2}  # see "Order windows"


def _check(suite: str, worker, spec: BracketSpec, D, max_deg: int, workers, span_counts):
    """Run a scan worker on the identity engine (`report.scan`) over the
    first monomial index, on its order window first if it has one, and
    report its failure; a failing window reruns the list with the window's
    list ids for its row tests (see "Order windows")."""
    t0 = time.perf_counter()
    series = _is_series(spec)
    monos = monomials(spec.m, spec.n, max_deg)
    N = len(monos)
    r = _ORDER.get(worker, max_deg + 1)
    fail, win = True, None
    if not series and r <= max_deg:
        window = monomials_total_degree(spec.m, spec.n, r)
        fail = scan(worker, (spec, D, window, max_deg, None), len(window), workers)[2]
        win = tuple(map({mono: i for i, mono in enumerate(monos)}.get, window))
    if fail:
        fail = scan(worker, (spec, D, monos, max_deg, win), N, workers)[2]
    ce = None
    if fail is not None:
        identity, idxs, res = fail
        ce = {"identity": identity, "indices": list(idxs),
              "monomials": [render_monomial(monos[i]) for i in idxs],
              "residual": SuperPoly(spec.m, spec.n, res).render()}
    span = {"signature": [spec.m, spec.n], "kind": spec.kind,
            "maxEvenDegree": max_deg, "monomials": N, **span_counts(N)}
    if series:
        span["certifiedDegree"] = max_deg
    return Report(
        suite=suite,
        params={"kind": spec.kind, "m": spec.m, "n": spec.n, "maxDeg": max_deg},
        certified_span=span,
        status="pass" if ce is None else "fail",
        counterexample=ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


def check_jacobi(spec: BracketSpec, max_deg: int, workers=None) -> Report:
    """Super-antisymmetry on ordered pairs, then the super Jacobi identity on
    monomial multisets (sound once antisymmetry holds exhaustively: the
    Jacobiator is then super-antisymmetric in all three slots), on the
    degree-<= 2 window first (order 2, see "Order windows")."""
    return _check("bracket-jacobi", _jacobi_worker, spec, None, max_deg, workers,
                  lambda N: {"orderedPairs": N * (N + 1) // 2,
                             "tripleMultisets": N * (N + 1) * (N + 2) // 6})


def _require_even(D: DerivationD) -> None:
    if not D.is_even():
        raise ValueError("D must be an even derivation: each coefficient of d/dv "
                         "homogeneous of the parity of v")


def check_gen_leibniz(
    spec: BracketSpec, D: DerivationD, max_deg: int, workers=None
) -> Report:
    """{a,bc} = {a,b}c + (-1)^{p(a)p(b)} b{a,c} + D(a)bc on ordered triples,
    scanned on the triples with c >= b (the lemma at `_product_rule`), on
    the degree-<= 1 window first (order 1, see "Order windows").  D must be
    even (ValueError otherwise)."""
    _require_even(D)
    return _check("bracket-leibniz", _leibniz_worker, spec, D, max_deg, workers,
                  lambda N: {"orderedTriples": N**3})


def check_kmc(spec: BracketSpec, D: DerivationD, max_deg: int, workers=None) -> Report:
    """Both compatibility identities of the modified bracket {.,.}_D with
    D' = D/2, on ordered monomial triples.  The scan proves them from
    orbit representatives (`_kmc_worker`): super-antisymmetry of {.,.}_D
    on pairs (reported as "antisymmetry", ahead of any other failure),
    kmc-product on the triples with c >= b, and kmc-jacobi on multisets,
    which super-antisymmetry makes sufficient; on the degree-<= 2 window
    first (order 2, see "Order windows").  D must be even (ValueError
    otherwise): {.,.}_D is even and super-antisymmetric only then."""
    _require_even(D)
    return _check("bracket-kmc", _kmc_worker, spec, D, max_deg, workers,
                  lambda N: {"orderedTriples": N**3})
