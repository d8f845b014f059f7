"""The three-graded Lie superalgebra of a Jordan table and its inverse.

Lie(J) is realized concretely, in one way, on a window of basis indices of
a carrier table: degree -1 is the window, degree 0 the span of the left
multiplications L_a and their supercommutators (operators on the carrier),
degree 1 the span of the product tensor P and the brackets [L_a, P]
(carrier-valued bilinear tensors).  Every operator and tensor carries the
set where it is defined, and every application is domain-checked, so on a
degree-truncated carrier a result certifies the stated window exactly.  For
a total J the carrier is J and the window is its whole basis: that is TKK.

The realization runs on ints.  L_a and P are read off the one table oracle,
`FiniteSuperAlgebra.oracle`: rows[i][j] = s * (e_i o e_j) as a dict of
ints, with s the lcm of the table's denominators, built once per table and
shared, since a table is not changed after construction.  Every operator and
tensor stores int entries and an integer `scale`, and stands for its
entries divided by that scale: L_a and P have scale s, a bracket's scale
is the product of its arguments' scales, and a degree -1 basis vector has
scale 1.  Each graded piece keeps its rows in order of acceptance and one
span object (`linalg.CoordSolver`) over their window restrictions at one
integer scale, s**2, the scale of the [L_a, L_b] and [L_a, P]; a row of
scale s enters it multiplied by s.  A span, its rank and membership in it
do not change when vectors are scaled, so only coordinates read the
scales: the int flat of a target of scale t has coordinates c on the
piece's columns, and the target has c * (piece scale) / t.  `Fraction`s
are made only at that boundary (`_Piece.solve` and `coords`), in
`_assemble`'s structure constants and the triple's coordinates, and in
reports; bases and structure constants are reproducible and equal to
those of exact rational arithmetic.

Bracket rules between the realized pieces, implemented once by `_bracket`
(every other order follows from [v, u] = -(-1)^{p(u)p(v)} [u, v]):

    [M, x] = M(x)                       [B, x](y) = B(x, y)
    [M, B] = M box B - (-1)^{p(M)p(B)} B box M
    (M box B)(x,y) = M(B(x,y))
    (B box M)(x,y) = B(M(x), y) + (-1)^{p(x)p(y)} B(M(y), x)

On supersymmetric tensors, which every row of degree 1 is (P because J is
supercommutative, and the action keeps supersymmetry), these rules are the
action of gl(J) on J, End(J) and bilinear maps, so the super Jacobi
identity holds among the realized elements.  `TKK.check_minimal` uses it
to test [g0, g1] on the generators L_a alone.

Three reports of a realization are lemmas that compute nothing, each
proved in its docstring: `TKK.round_trip`, `TKK.check_triple` and the
[g-1, g1] = g0 half of `TKK.check_minimal`.  Their passes are statements
about the realization, not about J.  The [g0, g1] = g1 cover and the
dimensions of the pieces are computed from J.

`check_semidirect` computes each bracket once per call: its ideal check,
its assembly of S and its outer-derivation check read one memo.  The super
Jacobi check of a table is a chunk worker of `report.scan` on that oracle.

For unital J the distinguished triple is (e, -L_e, P); the sign convention
throughout is [h,e] = -e, [h,f] = f, [e,f] = h, with the grading read off the
ad h eigenvalues -1, 0, 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .jordan import FiniteSuperAlgebra, _mul_into, _table_report, check_simple
from .linalg import CoordSolver, Echelon, nullspace, vec_iadd
# solve_linear stays in this namespace: perfbench's tracer patches it here
from .linalg import solve_linear  # noqa: F401
from .report import Report

# matrices as column maps: dict col -> (dict row -> coeff)


def matrix_apply(M: dict, vec: dict) -> dict:
    out: dict = {}
    for c, cv in vec.items():
        col = M.get(c)
        if col:
            vec_iadd(out, col, cv)
    return out


# -- the operator layer: int operators and tensors on a carrier's basis -------------


class WOp:
    """An operator with an explicit domain of columns, as ints over a
    scale: cols[x] / scale is M(e_x), stored when nonzero, for x in the
    domain."""

    __slots__ = ("cols", "domain", "scale")

    def __init__(self, cols: dict, domain: frozenset, scale: int):
        self.cols = cols
        self.domain = domain
        self.scale = scale

    def apply_basis(self, x: int):
        if x not in self.domain:
            return None
        return self.cols.get(x, {})

    def apply(self, vec: dict):
        if not self.domain.issuperset(vec):
            return None
        return matrix_apply(self.cols, vec)

    def window_flat(self, win, dim: int):
        return {x * dim + r: v for x, col in self.cols.items() if x in win
                for r, v in col.items()}


class WTensor:
    """A bilinear map on a carrier's basis pairs, as ints over a scale:
    vals[(x, y)] / scale is B(e_x, e_y), stored when nonzero; pairs in
    `undefined` have no value."""

    __slots__ = ("vals", "undefined", "scale")

    def __init__(self, vals: dict, undefined: frozenset, scale: int):
        self.vals = vals
        self.undefined = undefined
        self.scale = scale

    def at(self, x: int, y: int):
        if (x, y) in self.undefined:
            return None
        return self.vals.get((x, y), {})

    def has_window(self, win) -> bool:
        return all(x not in win or y not in win for x, y in self.undefined)

    def window_flat(self, win, dim: int):
        return {(x * dim + y) * dim + k: v for (x, y), vec in self.vals.items()
                if x in win and y in win for k, v in vec.items()}

    def to_matrix(self, x: int, win) -> WOp | None:
        """[B, x] on the window columns (column y holds B(x, y)); None when
        B(x, y) is undefined for some y in the window."""
        out = {}
        for y in win:
            vec = self.at(x, y)
            if vec is None:
                return None
            if vec:
                out[y] = dict(vec)
        return WOp(out, win, self.scale)


def _wop_from_left_mul(rows, scale: int, a: int) -> WOp:
    """L_a from the rows of the one table oracle, `FiniteSuperAlgebra.oracle`
    (shared and read-only: a table is not changed after construction), and
    their scale."""
    cols = {}
    domain = set()
    for x, v in enumerate(rows[a]):
        if v is None:
            continue
        domain.add(x)
        if v:
            cols[x] = v
    return WOp(cols, frozenset(domain), scale)


def _wop_bracket(M: WOp, pm: int, N: WOp, pn: int) -> WOp:
    s = -1 if (pm and pn) else 1
    cols = {}
    domain = set()
    for x in N.domain & M.domain:
        nx = N.cols.get(x, {})
        mx = M.cols.get(x, {})
        a = M.apply(nx)
        b = N.apply(mx)
        if a is None or b is None:
            continue
        domain.add(x)
        col = dict(a) if a else {}
        if b:
            vec_iadd(col, b, -s)
        if col:
            cols[x] = col
    return WOp(cols, frozenset(domain), M.scale * N.scale)


def _product_tensor(rows, scale: int) -> WTensor:
    """P from the table oracle rows (shared, read-only) and their scale;
    the out-of-span pairs are its undefined pairs."""
    vals = {}
    undefined = set()
    for x, row in enumerate(rows):
        for y, v in enumerate(row):
            if v is None:
                undefined.add((x, y))
            elif v:
                vals[(x, y)] = v
    return WTensor(vals, frozenset(undefined), scale)


def _tensor_bracket(M: WOp, pm: int, B: WTensor, pb: int, parities) -> WTensor:
    """[M, B], with the B box M terms summed by the first index of B.

    (x, y) is defined when x and y lie in M's domain, B(x, y) is defined and
    lies in M's domain, and B(z, y) for z in supp M(x) and B(z, x) for z in
    supp M(y) are defined.  Over a total carrier every pair is defined."""
    s = 1 if (pm and pb) else -1  # [M, B] = M box B + s * (B box M)
    out = {}
    for key, vec in B.vals.items():
        v = matrix_apply(M.cols, vec)
        if v:
            out[key] = v
    by_first: dict = {}
    for (z, y), vec in B.vals.items():
        by_first.setdefault(z, []).append((y, vec))
    for x, col in M.cols.items():
        for z, cz in col.items():
            c = cz if s > 0 else -cz
            for y, vec in by_first.get(z, ()):
                acc = out.setdefault((x, y), {})
                vec_iadd(acc, vec, c)
                if not acc:
                    del out[(x, y)]
    for y, col in M.cols.items():
        py = parities[y]
        for z, cz in col.items():
            c = cz if s > 0 else -cz
            for x, vec in by_first.get(z, ()):
                acc = out.setdefault((x, y), {})
                vec_iadd(acc, vec, -c if (parities[x] and py) else c)
                if not acc:
                    del out[(x, y)]
    undefined = set(B.undefined)
    n = len(parities)
    outside = {x for x in range(n) if x not in M.domain}
    if outside:
        for x in outside:
            for y in range(n):
                undefined.add((x, y))
                undefined.add((y, x))
        for key, vec in B.vals.items():
            if not outside.isdisjoint(vec):
                undefined.add(key)
    holes: dict = {}  # y -> {z : B(z, y) undefined}
    for z, y in B.undefined:
        holes.setdefault(y, set()).add(z)
    for y, zs in holes.items():
        for x, col in M.cols.items():
            if not zs.isdisjoint(col):
                undefined.add((x, y))
                undefined.add((y, x))
    if undefined:
        out = {k: v for k, v in out.items() if k not in undefined}
    return WTensor(out, frozenset(undefined), M.scale * B.scale)


def _swapped(vec, pu: int, pv: int):
    """[v, u] from vec = [u, v]: -(-1)^{p(u)p(v)} [u, v] (None stays None)."""
    if vec is None:
        return None
    if pu and pv:
        return dict(vec)
    return {k: -c for k, c in vec.items()}


def _bracket(u, v, win, par, dim: int):
    """[u, v] of realized elements (degree, object, parity), where the object
    is a carrier basis index in degree -1, a WOp in degree 0 and a WTensor in
    degree 1.  Returns the int carrier vector in degree -1 and the int window
    flat in degrees 0 and 1, at the scale _scale(u) * _scale(v); {} when the
    degrees sum outside -1..1 and None when the result is undefined on the
    window."""
    (du, a, pu), (dv, b, pv) = u, v
    if not -1 <= du + dv <= 1:
        return {}
    if du == -1 or (du, dv) == (1, 0):
        return _swapped(_bracket(v, u, win, par, dim), pv, pu)
    if dv == -1:
        if du == 0:
            return a.apply_basis(b)  # [M, x] = M(x)
        C = a.to_matrix(b, win)  # [B, x] = B(x, .)
        return None if C is None else C.window_flat(win, dim)
    if dv == 0:
        C = _wop_bracket(a, pu, b, pv)
        return C.window_flat(win, dim) if win <= C.domain else None
    C = _tensor_bracket(a, pu, b, pv, par)
    return C.window_flat(win, dim) if C.has_window(win) else None


def _scale(u) -> int:
    """The scale of a realized element: 1 for a degree -1 basis index."""
    return 1 if u[0] == -1 else u[1].scale


def _times(vec: dict, c: int) -> dict:
    return {k: c * x for k, x in vec.items()}


# -- graded pieces and their structure constants --------------------------------------


class _Piece:
    """One graded piece: its rows (operator or tensor, parity) in order of
    acceptance and one span of their window restrictions at the piece's
    integer scale, which accepts independent rows and answers coordinates.
    Every row's scale divides the piece's."""

    __slots__ = ("rows", "span", "win", "dim", "scale")

    def __init__(self, win, dim: int, scale: int):
        self.rows = []
        self.span = CoordSolver()
        self.win = win
        self.dim = dim
        self.scale = scale

    def add(self, op, parity: int) -> None:
        flat = op.window_flat(self.win, self.dim)
        if op.scale != self.scale:
            flat = _times(flat, self.scale // op.scale)
        if self.span.add(flat):
            self.rows.append((op, parity))

    def coords(self, op, offset: int = 0):
        """Coordinates of op's window restriction on the rows, numbered from
        offset; None when it leaves the span."""
        return self.solve(op.window_flat(self.win, self.dim), op.scale, offset)

    def solve(self, flat: dict, scale: int, offset: int = 0):
        """Coordinates of the window flat / scale, for an int window flat,
        on the rows, numbered from offset; None when it leaves the span."""
        if not flat:
            return {}
        sol = self.span.solve(flat)
        if sol is None:
            return None
        f = Fraction(self.scale, scale)
        return {offset + i: c * f for i, c in enumerate(sol) if c}


def _cover_defects(span: CoordSolver, dim: int, flats, what: str, name: str) -> list:
    """[] when the flats span exactly the given span of dimension dim.
    Spanning a subspace of it is decided on the cover's canonical basis, one
    coordinate solve per basis row.  Spans ignore scales, so the flats may
    have any."""
    cover = Echelon()
    for flat in flats:
        cover.insert(flat)
    if any(span.solve(row) is None for row in cover.basis()):
        return [f"{what} leaves {name}"]
    if cover.rank != dim:
        return [f"{what} spans only {cover.rank} of {dim} in {name}"]
    return []


def _degree0(L, gens, par, win, dim: int, scale: int) -> _Piece:
    """The span of L_a for a in gens and of the supercommutators of the
    accepted L_a that are defined on the whole window, at the given scale."""
    g0 = _Piece(win, dim, scale)
    for a in gens:
        g0.add(L[a], par[a])
    base = list(g0.rows)
    for i, (Mi, pi) in enumerate(base):
        for Mj, pj in base[i:]:
            C = _wop_bracket(Mi, pi, Mj, pj)
            if win <= C.domain:
                g0.add(C, (pi + pj) & 1)
    return g0


def _elements(gens, rows0, rows1, par) -> list:
    """The basis gens + rows0 + rows1 as (degree, object, parity)."""
    return ([(-1, g, par[g]) for g in gens] + [(0, M, p) for M, p in rows0]
            + [(1, B, p) for B, p in rows1])


def _assemble(carrier: FiniteSuperAlgebra, gens, g0: _Piece, g1: _Piece,
              name: str, bracket) -> FiniteSuperAlgebra:
    """Structure constants over the basis gens + g0 rows + g1 rows: one
    bracket per pair j <= i, solved in the piece of its degree, and its
    mirror.  A bracket that is undefined on the window or leaves the realized
    span is marked out-of-span."""
    elems = _elements(gens, g0.rows, g1.rows, carrier.parities)
    n_min, n0 = len(gens), len(g0.rows)
    labels = (
        [f"x:{carrier.labels[g]}" for g in gens]
        + [f"m{j}" for j in range(n0)]
        + [f"b{j}" for j in range(len(g1.rows))]
    )
    parities = [p for _, _, p in elems]
    gen_pos = {g: i for i, g in enumerate(gens)}
    pieces = {0: (g0, n_min), 1: (g1, n_min + n0)}
    table = {}
    oos = set()
    for i, u in enumerate(elems):
        su = _scale(u)
        for j, v in enumerate(elems[:i + 1]):
            vec = bracket(u, v)
            deg = u[0] + v[0]
            sc = su * _scale(v)
            if vec and deg == -1:
                vec = (None if any(k not in gen_pos for k in vec)
                       else {gen_pos[k]: Fraction(c, sc) for k, c in vec.items()})
            elif vec:
                piece, offset = pieces[deg]
                vec = piece.solve(vec, sc, offset)
            if vec is None:
                oos.add((i, j))
                oos.add((j, i))
            elif vec:
                table[(i, j)] = vec
                table[(j, i)] = _swapped(vec, parities[i], parities[j])
    return FiniteSuperAlgebra(labels, parities, table, oos, name=name)


@dataclass
class Sl2Triple:
    """The canonical triple as coordinate vectors on an assembled table."""

    e: dict  # in degree -1
    h: dict  # in degree 0
    f: dict  # in degree 1


@dataclass
class GradedLie:
    """Assembled bracket table with a -1/0/1 grading per basis index."""

    algebra: FiniteSuperAlgebra
    grading: list

    def graded_dims(self):
        out = {}
        for g, p in zip(self.grading, self.algebra.parities):
            key = (g, p)
            out[key] = out.get(key, 0) + 1
        return out


class TKK:
    """Realization of Lie(J) for a total Jordan table J: the window is the
    whole basis of J."""

    def __init__(self, J: FiniteSuperAlgebra):
        if not J.is_total():
            raise ValueError("the TKK construction needs a total product table")
        defect = J.commutativity_defect()
        if defect is not None:
            raise ValueError(f"input table is not supercommutative at {defect}")
        self.J = J
        d = J.dim
        par = J.parities
        self.win = frozenset(range(d))
        rows, s = J.oracle
        self.L = [_wop_from_left_mul(rows, s, a) for a in range(d)]
        self.P = _product_tensor(rows, s)
        self.g0 = _degree0(self.L, range(d), par, self.win, d, s * s)
        self.g1 = _Piece(self.win, d, s * s)
        self.g1.add(self.P, 0)
        for a in range(d):
            self.g1.add(_tensor_bracket(self.L[a], par[a], self.P, 0, par), par[a])
        self.unit = J.find_unit()

    # -- structure ---------------------------------------------------------

    def dims(self):
        """(even, odd) dimension of the whole graded algebra."""
        ev, od = self.J.sdim()
        for _, p in self.g0.rows + self.g1.rows:
            if p:
                od += 1
            else:
                ev += 1
        return (ev, od)

    # -- checks --------------------------------------------------------------

    def check_triple(self) -> Report:
        """The relations of the canonical triple (e, h, f) = (e, -L_e, P)
        and the ad h eigenvalue of every realized basis element; a J without
        a unit has no canonical triple and raises ValueError.

        All of it holds by construction, so nothing is recomputed.  J is
        total and supercommutative (`TKK.__init__` enforces both) and e =
        `find_unit()` gives e o x = x on every basis vector, so L_e = id and
        h = -id on the window.  Hence [h, e] = -e, [e, f] = -[f, e] =
        -P(e, .) = -L_e = h, ad h = -1 on degree -1, and ad h = 0 on g0,
        since -id commutes with every operator.  On a bilinear map B,
        [-id, B](x, y) = (-1)^{p(x)p(y)} B(y, x), which is B(x, y) exactly
        when B is supersymmetric.  Every row of g1 is: P because J is
        supercommutative, and each [L_a, P] because `_tensor_bracket`
        returns M box B, supersymmetric with B, plus a term of the form
        F(x, y) + (-1)^{p(x)p(y)} F(y, x), supersymmetric for every F.  So
        ad h = 1 on g1, and [h, f] = f is the case B = P.  The pass holds on
        every unital supercommutative table, Jordan or not.  The module
        function `check_triple` tests the relations on an assembled table."""
        t0 = time.perf_counter()
        if self.unit is None:
            raise ValueError(f"{self.J.name or 'J'} has no unit, so no canonical "
                             "triple; use verify semidirect")
        return Report(
            "tkk-triple",
            {"algebra": self.J.name},
            {"basisChecked": self.J.dim + len(self.g0.rows) + len(self.g1.rows)},
            "pass",
            elapsed_ms=(time.perf_counter() - t0) * 1000,
        )

    def check_minimal(self) -> Report:
        """[g_-1, g_1] = g_0 and [g_0, g_1] = g_1 on the realized spans.  The
        second is an exact rank computation; the first holds by construction.

        [g-1, g1] = g0 is a lemma on a total supercommutative J.  By the
        bracket rules, [P, x] = P(x, .) = L_x, and for a of parity p(a)
        [[L_a, P], x](y) = a(xy) - (ax)y - (-1)^{p(x)p(y)} (ay)x, where
        (ay)x = (-1)^{(p(a)+p(y))p(x)} x(ay), so
        [[L_a, P], x] = [L_a, L_x] - L_{a o x},
        with [L_a, L_x] = L_a L_x - (-1)^{p(a)p(x)} L_x L_a (the super Jacobi
        identity of the realized bracket gives the same).  The rows of g1
        span the P and [L_a, P], so their brackets with degree -1 span the
        L_x, hence the L_{a o x} and the [L_a, L_x]: all of g0 = span{L_a,
        [L_a, L_b]} and nothing outside it.

        [g0, g1] is tested on the generators: the d * |g1| brackets
        [L_a, B] with the rows B of g1, not all |g0| * |g1|.  The lemma: g0
        is spanned by the L_a and their supercommutators, and on the rows
        of g1 the realized bracket is the action of gl(J) (see the module
        docstring), so the super Jacobi identity
        [[L_a, L_b], B] = [L_a, [L_b, B]] - (-1)^{p(a)p(b)} [L_b, [L_a, B]]
        holds.  If every [L_a, B] lies in g1, each [L_b, B] is a combination
        of rows of g1, so [[L_a, L_b], B] lies in the span of the generator
        brackets: [g0, g1] is inside g1 and spans exactly what they span.
        If some [L_a, B] leaves g1, so does [g0, g1], since L_a lies in g0.
        Either way the generator cover reports what the full cover would:
        the same "leaves" line or the same rank.

        Transitivity holds by construction for this operator realization:
        g_0 and g_1 are kept as their action on g_-1 = J, and a row enters
        a span only when that action is independent of the rows before it,
        so no nonzero element acts as zero on g_-1.  `check_minimal_table`
        tests all three conditions on an assembled table."""
        t0 = time.perf_counter()
        d = self.J.dim
        par = self.J.parities
        g0, g1 = self.g0, self.g1
        failures = _cover_defects(
            g1.span, len(g1.rows),
            (_bracket((0, La, pa), (1, B, pb), self.win, par, d)
             for La, pa in zip(self.L, par) for B, pb in g1.rows),
            "[g0, g1]", "g1")
        ok = not failures
        return Report(
            "tkk-minimal",
            {"algebra": self.J.name},
            {
                "g-1": d,
                "g0": len(g0.rows),
                "g1": len(g1.rows),
            },
            "pass" if ok else "fail",
            None if ok else {"failures": failures},
            elapsed_ms=(time.perf_counter() - t0) * 1000,
        )

    def round_trip(self) -> Report:
        """The Jordan product is recovered as [[f, x], y] with f = P, and
        [f, x] lies in g0, for every pair of basis vectors.  Both hold by
        construction in this realization, so nothing is recomputed: [f, x]
        is P(x, .), which is L_x, since the columns of L_x and the values
        P(x, .) are the same oracle rows of J; so [[f, x], y] = x o y, and
        g0 is spanned from the L_x.  The pass is a statement about the
        realization, not about J: it holds on any supercommutative table.
        `inverse_product` reads the product back off an assembled table."""
        t0 = time.perf_counter()
        d = self.J.dim
        return Report("tkk-roundtrip", {"algebra": self.J.name}, {"pairs": d * d},
                      "pass", elapsed_ms=(time.perf_counter() - t0) * 1000)

    # -- assembly ------------------------------------------------------------

    def assemble(self) -> tuple:
        """Full structure constants of Lie(J) over the realized basis;
        returns (GradedLie, Sl2Triple in assembled coordinates or None)."""
        d = self.J.dim
        n0 = len(self.g0.rows)
        par = self.J.parities
        alg = _assemble(self.J, range(d), self.g0, self.g1,
                        f"Lie({self.J.name or 'J'})",
                        lambda u, v: _bracket(u, v, self.win, par, d))
        if alg.out_of_span:
            i, j = min(alg.out_of_span)
            raise ValueError(
                f"[{alg.labels[i]}, {alg.labels[j]}] left the realized span")
        lie = GradedLie(alg, [-1] * d + [0] * n0 + [1] * len(self.g1.rows))
        triple = None
        if self.unit is not None:
            # h = -L_e is -id on the window (see check_triple)
            triple = Sl2Triple(e=dict(self.unit),
                               h=self.g0.solve({x * d + x: -1 for x in range(d)}, 1, d),
                               f=self.g1.coords(self.P, d + n0))
        return lie, triple


# -- spec-level operations ------------------------------------------------------


def tkk(J: FiniteSuperAlgebra):
    """Assembled Lie(J) with its canonical triple (None for non-unital J)."""
    return TKK(J).assemble()


def triple_failures(alg: FiniteSuperAlgebra, e: dict, h: dict, f: dict) -> list:
    """The failed relations among [h,e] = -e, [h,f] = f and [e,f] = h, for
    coordinate vectors on a table; a product that leaves a truncated span
    fails its relation."""
    failures = []
    if alg.mul_vectors(h, e) != {k: -v for k, v in e.items()}:
        failures.append("[h,e] != -e")
    if alg.mul_vectors(h, f) != f:
        failures.append("[h,f] != f")
    if alg.mul_vectors(e, f) != h:
        failures.append("[e,f] != h")
    return failures


def check_triple(L: GradedLie, t: Sl2Triple) -> Report:
    """Triple relations and the grading of ad h, on an assembled table."""
    t0 = time.perf_counter()
    alg = L.algebra
    failures = triple_failures(alg, t.e, t.h, t.f)
    for i in range(alg.dim):
        v = alg.mul_vectors(t.h, {i: Fraction(1)})
        want = {i: Fraction(L.grading[i])} if L.grading[i] else {}
        if v != want:
            failures.append(f"ad h eigenvalue off at basis {alg.labels[i]}")
            break
    ok = not failures
    return Report(
        "tkk-triple",
        {"algebra": alg.name},
        {"basisChecked": alg.dim},
        "pass" if ok else "fail",
        None if ok else {"failures": failures},
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


def inverse_product(L: GradedLie, t: Sl2Triple) -> FiniteSuperAlgebra:
    """The Jordan product x o y = [[f, x], y] on the degree -1 part."""
    alg = L.algebra
    idxs = [i for i, g in enumerate(L.grading) if g == -1]
    back = {b: i for i, b in enumerate(idxs)}
    labels = [alg.labels[i].removeprefix("x:") for i in idxs]
    parities = [alg.parities[i] for i in idxs]
    table = {}
    for i, bi in enumerate(idxs):
        fx = alg.mul_vectors(t.f, {bi: Fraction(1)})
        for j, bj in enumerate(idxs):
            v = alg.mul_vectors(fx, {bj: Fraction(1)})
            if v is None:
                raise ValueError("bracket left the table span")
            vec = {}
            for k, c in v.items():
                if k not in back:
                    raise ValueError("product left the degree -1 part")
                vec[back[k]] = c
            if vec:
                table[(i, j)] = vec
    return FiniteSuperAlgebra(labels, parities, table, name=f"J({alg.name})")


def check_lie_table(alg: FiniteSuperAlgebra, workers=None) -> Report:
    """Anticommutativity and the super Jacobi identity on basis triples,
    skipping tuples whose products leave a truncated span."""
    t0 = time.perf_counter()
    defect = alg.anticommutativity_defect()
    if defect is not None:
        return Report(
            "lie-table",
            {"algebra": alg.name},
            {},
            "fail",
            {"reason": "not anticommutative", "indices": list(defect[:2])},
        )
    return _table_report("lie-table", alg, t0, _jacobi_scan, workers, "triple", {}, 2)


def _jacobi_scan(args):
    """a(bc) - (ab)c - (-1)^{p(a)p(b)} b(ac) on ordered triples, a in [lo, hi)."""
    (rows, par, dim), lo, hi = args
    unit = [{i: 1} for i in range(dim)]
    certified = skipped = 0
    for a in range(lo, hi):
        ra = rows[a]
        for b in range(dim):
            ab, rb = ra[b], rows[b]
            s = -1 if (par[a] and par[b]) else 1
            for c in range(dim):
                bc, ac = rb[c], ra[c]
                res: dict = {}
                if (ab is None or bc is None or ac is None
                        or bc and not _mul_into(res, rows, unit[a], bc)
                        or ab and not _mul_into(res, rows, ab, unit[c], -1)
                        or ac and not _mul_into(res, rows, unit[b], ac, -s)):
                    skipped += 1
                    continue
                certified += 1
                if any(res.values()):
                    return certified, skipped, "jacobi", (a, b, c), res
    return certified, skipped, None, None, None


def unital_extend(J: FiniteSuperAlgebra):
    """(J with an adjoined unit, already_had_unit flag)."""
    if J.find_unit() is not None:
        return J, True
    labels = ["1"] + list(J.labels)
    parities = [0] + list(J.parities)
    one = Fraction(1)
    table = {(0, 0): {0: one}}
    for i in range(J.dim):
        table[(0, i + 1)] = {i + 1: one}
        table[(i + 1, 0)] = {i + 1: one}
    for (i, j), vec in J.table.items():
        table[(i + 1, j + 1)] = {k + 1: c for k, c in vec.items()}
    oos = frozenset((i + 1, j + 1) for (i, j) in J.out_of_span)
    return (
        FiniteSuperAlgebra(labels, parities, table, oos, name=f"unital({J.name})"),
        False,
    )


# -- semidirect decomposition for simple non-unital J ------------------------------
#
# Everything here runs over a carrier J~ that may be degree-truncated; all
# quantifiers range over an explicit window of basis indices and every
# operator application is domain-checked, so a pass certifies the stated
# window exactly.  For total carriers the window is the whole basis.


def check_semidirect(J: FiniteSuperAlgebra, carrier: FiniteSuperAlgebra | None = None,
                     seed: int = 0) -> Report:
    """For simple non-unital J: split Lie(J~) into an ideal S plus the span
    of (1, -L_1, P), check the split, S-simplicity (`jordan.check_simple`:
    sampled ideal closures on a total S, the basis vectors' alone on a
    truncated one) and that the triple acts by derivations not inner to S.

    For a truncated J pass a larger truncation of the same family as
    `carrier`; quantifiers then range over the window spanned by J's own
    basis while containments are tested against the span of everything
    computable inside the carrier, and the report states both sizes.
    A unital J, and a truncated J without a carrier, raise ValueError.
    """
    t0 = time.perf_counter()
    params = {"algebra": J.name, "seed": seed}
    if J.find_unit() is not None:
        raise ValueError("semidirect split needs a non-unital J")
    if carrier is None:
        if not J.is_total():
            raise ValueError("truncated J needs an explicit larger carrier")
        carrier_t, _ = unital_extend(J)
        gens = list(range(1, carrier_t.dim))
    else:
        carrier_t, _ = unital_extend(carrier)
        lbl_pos = {l: i for i, l in enumerate(carrier_t.labels)}
        gens = []
        for l in J.labels:
            if l not in lbl_pos:
                raise ValueError(f"generator {l!r} missing from the carrier")
            gens.append(lbl_pos[l])
    window = [0] + gens
    win = frozenset(window)
    dimC = carrier_t.dim
    par = carrier_t.parities

    # multiplications whose window columns are all defined, for the big spans
    span_gens = []
    for w in range(1, dimC):
        if all((w, x) not in carrier_t.out_of_span for x in window):
            span_gens.append(w)
    rows, sc = carrier_t.oracle
    L = {w: _wop_from_left_mul(rows, sc, w) for w in span_gens}
    ident = WOp({i: {i: 1} for i in range(dimC)}, frozenset(range(dimC)), 1)
    P = _product_tensor(rows, sc)
    memo = {}

    def bracket(u, v):
        """_bracket, computed once per pair of elements in this call; the
        results are shared, so callers must not change them."""
        if (u, v) in memo:
            return memo[(u, v)]
        if (v, u) in memo:
            return _swapped(memo[(v, u)], v[2], u[2])
        out = memo[(u, v)] = _bracket(u, v, win, par, dimC)
        return out

    s0, s1 = _Piece(win, dimC, sc * sc), _Piece(win, dimC, sc * sc)
    s0_big, s1_big = Echelon(), Echelon()
    failures = []
    if not L.keys() >= set(gens):
        failures.append("carrier too small for the degree-0 span")
    else:
        # small certified rows (window generators only)
        s0 = _degree0(L, gens, par, win, dimC, sc * sc)
        # big span of everything computable, for containment tests
        for w in span_gens:
            s0_big.insert(L[w].window_flat(win, dimC))
        for i, w in enumerate(span_gens):
            for v in span_gens[i:]:
                C = _wop_bracket(L[w], par[w], L[v], par[v])
                if win <= C.domain:
                    s0_big.insert(C.window_flat(win, dimC))
        if not P.has_window(win):
            raise ValueError("carrier too small for the product tensor window")
        for a in gens:
            B = _tensor_bracket(L[a], par[a], P, 0, par)
            if not B.has_window(win):
                failures.append("carrier too small for the degree-1 span")
                break
            s1.add(B, par[a])

    if not failures:
        for w in span_gens:
            B = _tensor_bracket(L[w], par[w], P, 0, par)
            if B.has_window(win):
                s1_big.insert(B.window_flat(win, dimC))
        # a-part separation against the big spans
        if s0_big.contains(ident.window_flat(win, dimC)):
            failures.append("-L_1 lies in the S0 span")
        if s1_big.contains(P.window_flat(win, dimC)):
            failures.append("P lies in the S1 span")

    # the certified window bases of Lie(J~) (with +L_1 and P) and of S
    G = _elements(window, s0.rows + [(ident, 0)], s1.rows + [(P, 0)], par)
    S = _elements(gens, s0.rows, s1.rows, par)
    if not failures:
        failures.extend(_semidirect_ideal_defects(G, S, bracket, s0_big, s1_big))

    s_simple = None
    if not failures:
        s_alg = _assemble(carrier_t, gens, s0, s1, "S", bracket)
        s_simple = check_simple(s_alg, seed=seed)
        if not s_simple:
            failures.append("S failed the sampled window simplicity check")

    if not failures:
        # h = -L_1 is tested through +L_1: span membership ignores the sign
        failures.extend(_outer_defects(
            S, [("h", (0, ident, 0)), ("e", (-1, 0, 0)), ("f", (1, P, 0))],
            bracket))

    ok = not failures
    span = {
        "carrierDim": dimC,
        "window": len(window),
        "sMinus1": len(gens),
        "s0Certified": len(s0.rows),
        "s1Certified": len(s1.rows),
        "s0ComputableSpan": s0_big.rank,
        "s1ComputableSpan": s1_big.rank,
    }
    return Report(
        "tkk-semidirect",
        params,
        span,
        "pass" if ok else "fail",
        None if ok else {"failures": failures},
        details={"sDims": [len(gens), len(s0.rows), len(s1.rows)],
                 "sSimpleSampled": s_simple},
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


# the ideal check's (G degree, S degrees) blocks, in the order that fixes
# which failure is reported first
_IDEAL_BLOCKS = ((-1, (0,)), (-1, (1,)), (0, (-1,)), (0, (0,)), (0, (1,)), (1, (-1, 0)))


def _semidirect_ideal_defects(G, S, bracket, s0_big, s1_big):
    """Brackets of the certified window basis G of Lie(J~) with the certified
    window basis S of S land in S: no unit component in degree -1, S's
    computable window spans in degrees 0 and 1."""
    big = {0: s0_big, 1: s1_big}
    for dg, ds in _IDEAL_BLOCKS:
        for u in (u for u in G if u[0] == dg):
            for v in (v for v in S if v[0] in ds):
                at = f"[g{dg}, S{v[0]}]"
                vec = bracket(u, v)
                if vec is None:
                    return [f"carrier too small at {at}"]
                d = dg + v[0]
                if d == -1 and vec.get(0):
                    return [f"{at} has a unit component"]
                if d >= 0 and not big[d].contains(vec):
                    return [f"{at} leaves the S{d} span"]
    return []


def _outer_defects(S, targets, bracket):
    """No element of the span of S acts on S as ad t does, for each named
    target t.  An element's stack is its brackets with S, keyed (position,
    degree, coordinate).  Its block at v has scale _scale(u) * _scale(v):
    the factor _scale(v) scales that block of every stack alike and
    _scale(u) scales one whole stack, so neither changes which stacks lie
    in the span of others."""

    def stack(u):
        st = {}
        for pos, v in enumerate(S):
            vec = bracket(u, v)
            if vec is None:
                return None
            for k, c in vec.items():
                st[(pos, u[0] + v[0], k)] = c
        return st

    columns = [stack(u) for u in S]
    if any(c is None for c in columns):
        return ["carrier too small for the outer-derivation solve"]
    inner = CoordSolver(columns)
    defects = []
    for name, t in targets:
        tgt = stack(t)
        if tgt is None:
            return [f"carrier too small for the ad {name} stack"]
        if inner.solve(tgt) is not None:
            defects.append(f"ad {name} restricted to S is inner to S")
    return defects


def check_minimal_table(L: GradedLie) -> Report:
    """The three minimality conditions evaluated on an assembled table (for
    constructed inputs; the realization path checks them on operators).

    Transitivity is tested by a nullspace of the stacked actions on degree
    -1.  [g-1, g1] = g0 and [g0, g1] = g1 go through the span cover of
    `TKK.check_minimal` (`_cover_defects`), on the coordinate subspace of
    degree 0 and of degree 1; brackets that leave a truncated table's span
    are skipped."""
    t0 = time.perf_counter()
    alg = L.algebra
    one = Fraction(1)
    idx = {g: [i for i, d in enumerate(L.grading) if d == g] for g in (-1, 0, 1)}
    failures = []
    # transitivity: nothing in degrees 0, 1 kills all of degree -1
    cols = []
    for a in idx[0] + idx[1]:
        stacked = {}
        for pos, x in enumerate(idx[-1]):
            v = alg.mul_vectors({a: one}, {x: one})
            if v is None:
                failures.append("out-of-span bracket during transitivity")
                break
            for k, c in v.items():
                stacked[(pos, k)] = c
        cols.append(stacked)
    if not failures and nullspace(cols):
        failures.append("transitivity fails: a central element survives")

    def cover(left, right, g, what):
        flats = (v for a in left for b in right
                 if (v := alg.mul_vectors({a: one}, {b: one})) is not None)
        return _cover_defects(CoordSolver([{i: one} for i in idx[g]]), len(idx[g]),
                              flats, what, f"g{g}")

    if not failures:
        failures = cover(idx[1], idx[-1], 0, "[g-1, g1]")
    if not failures:
        failures = cover(idx[0], idx[1], 1, "[g0, g1]")
    ok = not failures
    return Report(
        "tkk-minimal",
        {"algebra": alg.name},
        {"g-1": len(idx[-1]), "g0": len(idx[0]), "g1": len(idx[1])},
        "pass" if ok else "fail",
        None if ok else {"failures": failures},
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )
