"""Sparse exact linear algebra over Q: one reduced row echelon span with
deterministic pivoting, and the membership tests, coordinate solves and
kernels built on it.

Vectors are dicts coordinate -> Fraction (zero entries absent).  Pivots are
the smallest coordinate of each row, rows are normalized to pivot 1 and kept
fully reduced against each other, so the final row set is the canonical RREF
basis of the span no matter the insertion order.

Coordinate solves and kernels track columns with marker coordinates: column
j enters the elimination carrying an extra entry 1 at the key (-1, j).
Markers are never chosen as pivots, so each row is eliminated on its own
coordinates while its markers record which combination of columns it is.
A target that reduces to markers alone lies in the span and its negated
markers are its coefficients; a column that reduces to markers alone
depends on the earlier columns and its markers are a kernel vector.  A
column's own coordinates must not be pairs (-1, j).
"""

from __future__ import annotations

from fractions import Fraction


def vec_iadd(out: dict, v: dict, c=1) -> None:
    for k, x in v.items():
        s = out.get(k)
        if s is None:
            y = c * x
            if y:
                out[k] = y
        else:
            s = s + c * x
            if s:
                out[k] = s
            else:
                del out[k]


class Echelon:
    """A growing RREF span."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}  # pivot -> row dict (row[pivot] == 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def basis(self):
        """Rows in pivot order: the canonical basis of the span."""
        return [self.rows[p] for p in sorted(self.rows)]

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the span (fresh dict)."""
        out = dict(vec)
        rows = self.rows
        while True:
            hit = None
            for k in out:
                if k in rows:
                    hit = k
                    break
            if hit is None:
                return out
            c = out[hit]
            row = rows[hit]
            for k, x in row.items():
                s = out.get(k)
                if s is None:
                    y = -c * x
                    if y:
                        out[k] = y
                else:
                    s = s - c * x
                    if s:
                        out[k] = s
                    else:
                        del out[k]

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict):
        """Insert vec; returns the new pivot, or None if dependent."""
        res = self.reduce(vec)
        if not res:
            return None
        return self._place(res, min(res))

    def _place(self, res: dict, piv):
        """Keep the reduced vector res as the row of pivot piv: normalize it
        and back-substitute it into the other rows, which keeps RREF."""
        inv = Fraction(1) / res[piv]
        row = {k: inv * x for k, x in res.items()}
        for r in self.rows.values():
            c = r.get(piv)
            if c:
                for k, x in row.items():
                    s = r.get(k)
                    if s is None:
                        y = -c * x
                        if y:
                            r[k] = y
                    else:
                        s = s - c * x
                        if s:
                            r[k] = s
                        else:
                            del r[k]
        self.rows[piv] = row
        return piv

    def solve(self, vec: dict):
        """Coordinates of vec in the pivot-ordered basis, or None if outside.

        The rows are fully reduced, so the coordinate on a row is the entry
        of vec at that row's pivot."""
        if self.reduce(vec):
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
        res = self.ech.reduce(col)
        piv = _main_pivot(res)
        if piv is not None:
            res[(-1, j)] = Fraction(1)
            self.ech._place(res, piv)
        return piv

    def solve(self, target: dict):
        res = self.ech.reduce(target)
        if _main_pivot(res) is not None:
            return None
        coeffs = [Fraction(0)] * self.ncols
        for k, x in res.items():
            coeffs[k[1]] = -x
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
        v = dict(col)
        v[(-1, j)] = Fraction(1)
        res = ech.reduce(v)
        piv = _main_pivot(res)
        if piv is None:
            kernels.append({k[1]: x for k, x in res.items()})
        else:
            ech._place(res, piv)
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
