"""Sparse exact arithmetic in the free commutative superalgebra on m even and
n odd generators.

A monomial is a pair (evens, odds): `evens` is a tuple of m exponents for the
even generators x1..xm, `odds` a strictly increasing tuple of 0-based indices
of odd generators xi1..xin.  Odd generators anticommute, so products and left
partial derivatives pick up Koszul signs from reordering into canonical
(ascending) form.  Coefficients are Fractions and zero terms are never stored,
so equality is plain dict comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .scalars import rat_str

Monomial = tuple  # (tuple[int, ...], tuple[int, ...])


@dataclass(frozen=True)
class VarRef:
    """A generator reference: kind "even" or "odd", and its index."""

    kind: str
    index: int = 0


def even_var(i: int) -> VarRef:
    return VarRef("even", i)


def odd_var(j: int) -> VarRef:
    return VarRef("odd", j)


def merge_odds(s: tuple, t: tuple):
    """Merge two ascending odd-index tuples; returns (sign, merged) or None
    on a repeated index (odd square).  Sign counts transpositions moving the
    elements of t into place past larger elements of s."""
    if not s:
        return 1, t
    if not t:
        return 1, s
    out = []
    sign = 1
    i = j = 0
    ls = len(s)
    while i < ls and j < len(t):
        a, b = s[i], t[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            # b moves left past the ls - i remaining elements of s
            if (ls - i) & 1:
                sign = -sign
            j += 1
    out.extend(s[i:])
    out.extend(t[j:])
    return sign, tuple(out)


class SuperPoly:
    """Immutable-by-convention element of the (m, n) superalgebra."""

    __slots__ = ("m", "n", "terms")

    def __init__(self, m: int, n: int, terms: dict | None = None):
        self.m = m
        self.n = n
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[mono] = Fraction(c)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(m: int, n: int) -> "SuperPoly":
        return SuperPoly(m, n)

    @staticmethod
    def const(m: int, n: int, c) -> "SuperPoly":
        return SuperPoly(m, n, {((0,) * m, ()): Fraction(c)})

    @staticmethod
    def one(m: int, n: int) -> "SuperPoly":
        return SuperPoly.const(m, n, 1)

    @staticmethod
    def variable(m: int, n: int, v: VarRef) -> "SuperPoly":
        if v.kind == "even":
            if not 0 <= v.index < m:
                raise ValueError(f"even index {v.index} out of range for m={m}")
            evens = tuple(1 if i == v.index else 0 for i in range(m))
            return SuperPoly(m, n, {(evens, ()): Fraction(1)})
        if not 0 <= v.index < n:
            raise ValueError(f"odd index {v.index} out of range for n={n}")
        return SuperPoly(m, n, {((0,) * m, (v.index,)): Fraction(1)})

    # -- basic structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, self.n, frozenset(self.terms.items())))

    def parity(self):
        """0 or 1 for homogeneous elements, None for 0 or mixed."""
        p = None
        for (_, odds) in self.terms:
            q = len(odds) & 1
            if p is None:
                p = q
            elif p != q:
                raise ValueError("parity query on a mixed-parity element")
        return p

    def constant_term(self) -> Fraction:
        return self.terms.get((((0,) * self.m), ()), Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def _check_sig(self, other: "SuperPoly"):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError(
                f"signature mismatch: ({self.m},{self.n}) vs ({other.m},{other.n})"
            )

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        self._check_sig(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono)
            if s is None:
                terms[mono] = c
            else:
                s = s + c
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        out = SuperPoly(self.m, self.n)
        out.terms = terms
        return out

    def __neg__(self) -> "SuperPoly":
        out = SuperPoly(self.m, self.n)
        out.terms = {mono: -c for mono, c in self.terms.items()}
        return out

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + (-other)

    def scale(self, c) -> "SuperPoly":
        c = Fraction(c)
        out = SuperPoly(self.m, self.n)
        if c:
            out.terms = {mono: c * v for mono, v in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, SuperPoly):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def truncate(self, max_degree: int) -> "SuperPoly":
        out = SuperPoly(self.m, self.n)
        out.terms = {
            mono: c
            for mono, c in self.terms.items()
            if sum(mono[0]) + len(mono[1]) <= max_degree
        }
        return out

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        return render(self)

    def __repr__(self):
        return f"SuperPoly({self.m},{self.n}: {render(self)})"


def mono_mul(m1: Monomial, m2: Monomial):
    """(sign, monomial) or None when an odd generator repeats."""
    merged = merge_odds(m1[1], m2[1])
    if merged is None:
        return None
    sign, odds = merged
    evens = tuple(a + b for a, b in zip(m1[0], m2[0]))
    return sign, (evens, odds)


def mul(f: SuperPoly, g: SuperPoly) -> SuperPoly:
    """Graded-commutative product with Koszul signs."""
    f._check_sig(g)
    terms: dict = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            r = mono_mul(m1, m2)
            if r is None:
                continue
            sign, mono = r
            c = c1 * c2
            if sign < 0:
                c = -c
            s = terms.get(mono)
            if s is None:
                terms[mono] = c
            else:
                s = s + c
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
    out = SuperPoly(f.m, f.n)
    out.terms = terms
    return out


def mono_partial(mono: Monomial, v: VarRef):
    """Left partial derivative of a monomial: (int coefficient, monomial) or None."""
    evens, odds = mono
    if v.kind == "even":
        e = evens[v.index]
        if e == 0:
            return None
        new = evens[: v.index] + (e - 1,) + evens[v.index + 1 :]
        return e, (new, odds)
    try:
        pos = odds.index(v.index)
    except ValueError:
        return None
    return (-1 if pos & 1 else 1), (evens, odds[:pos] + odds[pos + 1 :])


def partial(f: SuperPoly, v: VarRef) -> SuperPoly:
    """Left partial derivative; odd derivatives carry the Koszul sign of the
    factors preceding the differentiated generator."""
    if v.kind == "even" and not 0 <= v.index < f.m:
        raise ValueError(f"even index {v.index} out of range")
    if v.kind == "odd" and not 0 <= v.index < f.n:
        raise ValueError(f"odd index {v.index} out of range")
    terms: dict = {}
    for mono, c in f.terms.items():
        r = mono_partial(mono, v)
        if r is None:
            continue
        k, new = r
        c2 = c * k
        s = terms.get(new)
        if s is None:
            terms[new] = c2
        else:
            s = s + c2
            if s:
                terms[new] = s
            else:
                del terms[new]
    out = SuperPoly(f.m, f.n)
    out.terms = terms
    return out


def mono_degree(mono: Monomial) -> int:
    return sum(mono[0]) + len(mono[1])


def mono_parity(mono: Monomial) -> int:
    return len(mono[1]) & 1


def monomials(m: int, n: int, max_even_degree: int, max_total_degree=None):
    """All monomials with even-part degree <= max_even_degree (every odd
    subset included), optionally capped by total degree, in canonical order
    (even exponent vector lex, then odd set lex)."""
    evens = sorted(_even_exponents(m, max_even_degree))
    out = []
    for ev in evens:
        for k in range(n + 1):
            for od in combinations(range(n), k):
                if max_total_degree is not None and sum(ev) + k > max_total_degree:
                    continue
                out.append((ev, od))
    out.sort()
    return out


def monomials_total_degree(m: int, n: int, max_degree: int):
    """All monomials of total degree <= max_degree in canonical order."""
    return monomials(m, n, max_degree, max_total_degree=max_degree)


def _even_exponents(m: int, bound: int):
    if m == 0:
        yield ()
        return
    for head in range(bound + 1):
        for rest in _even_exponents(m - 1, bound - head):
            yield (head,) + rest


# -- text rendering ----------------------------------------------------------


def render_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono[0]):
        if e == 1:
            parts.append(f"x{i+1}")
        elif e > 1:
            parts.append(f"x{i+1}^{e}")
    for j in mono[1]:
        parts.append(f"xi{j+1}")
    return " ".join(parts) if parts else "1"


def render(f: SuperPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for mono in sorted(f.terms):
        c = f.terms[mono]
        body = render_monomial(mono)
        if body == "1":
            parts.append(rat_str(c))
        else:
            parts.append(f"{rat_str(c)} {body}")
    return " + ".join(parts)

