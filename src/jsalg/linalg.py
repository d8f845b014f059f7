"""Sparse exact linear algebra over Q: the one scaled sparse add
(`vec_iadd`), one reduced row echelon span with deterministic pivoting, and
the membership tests, coordinate solves and kernels built on it.

Vectors are dicts coordinate -> rational (Fraction or int, zero entries
absent).  Pivots are the smallest coordinate of each row, and rows are kept
fully reduced against each other, so the span has one canonical RREF basis
no matter the insertion order.

Elimination is fraction-free (Bareiss, Math. Comp. 1968).  An input vector
is scaled by the lcm of its denominators to ints, and each row is stored as
the primitive integer multiple of its RREF row with a positive pivot: the
gcd of its entries is 1.  A residual is taken by cross-multiplying: vec
times the least m that makes every pivot entry of m * vec divisible by that
row's pivot, minus the integer multiples of the rows.  A new row is made
primitive and back-substituted into the other rows the same way.
Fractions are made only at the public boundary: `basis`, the residual of
`reduce`, `solve`, `CoordSolver.solve` and the kernels of `nullspace`.

Why the outputs are exactly those of Fraction elimination: given the
insertion order, the RREF row of each pivot is unique, and so is its
primitive integer multiple with a positive pivot.  The rows are fully
reduced, so the residual of v is v - sum over pivots p of v[p] times the
RREF row of p, which is unique too; the integer residual is a positive
multiple of it, built by the same steps in the same order, so even its key
order matches.  Coordinates and kernel vectors are read off unique
residuals.

Coordinate solves and kernels track columns with marker coordinates: column
j enters the elimination carrying an extra entry at the key (-1, j), the
column's own integer scale, so every marker entry of a row shares the scale
of its coordinates.  Markers are never chosen as pivots, so each row is
eliminated on its own coordinates while its markers record which
combination of columns it is.  A target that reduces to markers alone lies
in the span and its negated markers, over the residual's scale, are its
coefficients; a column that reduces to markers alone depends on the earlier
columns and its markers, over its own marker, are a kernel vector.  A
column's own coordinates must not be pairs (-1, j).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def vec_iadd(out: dict, v: dict, c=1) -> None:
    """out += c * v in place: the one sparse accumulate of jsalg.  An entry
    that cancels is deleted, so zero-free inputs give a zero-free out."""
    if not c:
        return
    one = c == 1
    for k, x in v.items():
        y = x if one else c * x
        s = out.get(k)
        if s is None:
            if y:
                out[k] = y
        else:
            s = s + y
            if s:
                out[k] = s
            else:
                del out[k]


def scaled_ints(vec: dict):
    """(v, s) with v = s * vec as a fresh dict of ints and s > 0 the lcm of
    the denominators of vec's entries."""
    s = lcm(*[x.denominator for x in vec.values()])
    if s == 1:
        return {k: x.numerator for k, x in vec.items()}, 1
    return {k: x.numerator * (s // x.denominator) for k, x in vec.items()}, s


class Echelon:
    """A growing RREF span, stored as primitive integer rows."""

    __slots__ = ("rows",)

    def __init__(self):
        # pivot -> primitive int row dict with row[pivot] > 0
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self):
        """Rows in pivot order: the canonical RREF basis of the span."""
        out = []
        for p in sorted(self.rows):
            row = self.rows[p]
            b = row[p]
            out.append({k: Fraction(x, b) for k, x in row.items()})
        return out

    def _reduce(self, v: dict):
        """(w, m): w = m * (v modulo the span) as a fresh int dict, m > 0,
        for an int vector v."""
        rows = self.rows
        hits = [k for k in v if k in rows]
        if not hits:
            return dict(v), 1
        m = 1
        for p in hits:
            b = rows[p][p]
            m = lcm(m, b // gcd(b, v[p]))
        w = {k: m * x for k, x in v.items()} if m != 1 else dict(v)
        # a row is zero at every other pivot, so w[p] is still m * v[p]
        for p in hits:
            row = rows[p]
            vec_iadd(w, row, -(w[p] // row[p]))
        return w, m

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the span (fresh dict)."""
        v, s = scaled_ints(vec)
        w, m = self._reduce(v)
        d = s * m
        return {k: Fraction(x, d) for k, x in w.items()}

    def contains(self, vec: dict) -> bool:
        return not self._reduce(scaled_ints(vec)[0])[0]

    def insert(self, vec: dict):
        """Insert vec; returns the new pivot, or None if dependent."""
        w, _ = self._reduce(scaled_ints(vec)[0])
        if not w:
            return None
        return self._place(w, min(w))

    def _place(self, w: dict, piv):
        """Keep the reduced int vector w as the row of pivot piv: make it
        primitive with a positive pivot and back-substitute it into the
        other rows, which keeps them reduced and primitive."""
        g = gcd(*w.values())
        if w[piv] < 0:
            g = -g
        if g != 1:
            w = {k: x // g for k, x in w.items()}
        a = w[piv]
        for r in self.rows.values():
            c = r.get(piv)
            if c:
                g = gcd(a, c)
                if a != g:
                    f = a // g
                    for k in r:
                        r[k] *= f
                vec_iadd(r, w, -(c // g))
                g = gcd(*r.values())
                if g != 1:
                    for k in r:
                        r[k] //= g
        self.rows[piv] = w
        return piv

    def solve(self, vec: dict):
        """Coordinates of vec in the pivot-ordered basis, or None if outside.

        The rows are fully reduced, so the coordinate on a row is the entry
        of vec at that row's pivot."""
        if not self.contains(vec):
            return None
        return [vec.get(p, Fraction(0)) for p in sorted(self.rows)]


class CoordSolver:
    """Exact coordinates of targets in a list of columns, in column order.

    Built from a list, every column keeps its place and a column that
    depends on earlier ones gets coefficient 0 in every solve.  Grown with
    `add`, it is the span of the independent columns offered, numbered in
    the order they were accepted."""

    def __init__(self, columns=()):
        self.ech = Echelon()
        self.ncols = 0
        for col in columns:
            self._place(col, self.ncols)
            self.ncols += 1

    def add(self, col: dict) -> bool:
        """Append col as the next column if it is independent of the columns
        so far; True when it was appended."""
        if self._place(col, self.ncols) is None:
            return False
        self.ncols += 1
        return True

    def _place(self, col: dict, j: int):
        v, s = scaled_ints(col)
        w, m = self.ech._reduce(v)
        piv = _main_pivot(w)
        if piv is not None:
            w[(-1, j)] = s * m
            self.ech._place(w, piv)
        return piv

    def solve(self, target: dict):
        v, s = scaled_ints(target)
        w, m = self.ech._reduce(v)
        if _main_pivot(w) is not None:
            return None
        d = -s * m
        coeffs = [Fraction(0)] * self.ncols
        for k, x in w.items():
            coeffs[k[1]] = Fraction(x, d)
        return coeffs


def solve_linear(columns: list[dict], target: dict):
    """Solve sum_j c_j * columns[j] = target exactly; None if inconsistent."""
    return CoordSolver(columns).solve(target)


def nullspace(columns: list[dict]):
    """Basis of {x : sum_j x_j columns[j] = 0}, as coefficient dicts, in the
    deterministic order of discovered dependencies."""
    ech = Echelon()
    kernels = []
    for j, col in enumerate(columns):
        v, s = scaled_ints(col)
        v[(-1, j)] = s
        w, _ = ech._reduce(v)
        piv = _main_pivot(w)
        if piv is None:
            d = w[(-1, j)]
            kernels.append({k[1]: Fraction(x, d) for k, x in w.items()})
        else:
            ech._place(w, piv)
    return kernels


def _main_pivot(vec: dict):
    """Smallest coordinate of vec that is not a marker, or None."""
    best = None
    for k in vec:
        if isinstance(k, tuple) and len(k) == 2 and k[0] == -1:
            continue
        if best is None or k < best:
            best = k
    return best
