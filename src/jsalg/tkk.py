"""The three-graded Lie superalgebra of a Jordan table and its inverse.

Lie(J) is realized concretely, in one way, on a window of basis indices of
a carrier table: degree -1 is the window, degree 0 the span of the left
multiplications L_a and their supercommutators (operators on the carrier),
degree 1 the span of the product tensor P and the brackets [L_a, P]
(carrier-valued bilinear tensors).  Every operator and tensor carries the
set where it is defined, and every application is domain-checked, so on a
degree-truncated carrier a result certifies the stated window exactly.  For
a total J the carrier is J and the window is its whole basis: that is TKK.

Each graded piece keeps its rows in order of acceptance and one span object
(`linalg.CoordSolver`) over their restrictions to the window, which accepts
independent rows and answers coordinates, so bases and structure constants
are reproducible.

Bracket rules between the realized pieces:

    [M, x] = M(x)                       [B, x](y) = B(x, y)
    [M, B] = M box B - (-1)^{p(M)p(B)} B box M
    (M box B)(x,y) = M(B(x,y))
    (B box M)(x,y) = B(M(x), y) + (-1)^{p(x)p(y)} B(M(y), x)

For unital J the distinguished triple is (e, -L_e, P); the sign convention
throughout is [h,e] = -e, [h,f] = f, [e,f] = h, with the grading read off the
ad h eigenvalues -1, 0, 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .jordan import FiniteSuperAlgebra, _one_like, check_simple
from .linalg import CoordSolver, Echelon, nullspace, vec_iadd
# solve_linear stays in this namespace: perfbench's tracer patches it here
from .linalg import solve_linear  # noqa: F401
from .report import Report

# plain matrices on an assembled basis: dict col -> (dict row -> coeff)


def matrix_apply(M: dict, vec: dict) -> dict:
    out: dict = {}
    for c, cv in vec.items():
        col = M.get(c)
        if col:
            vec_iadd(out, col, cv)
    return out


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


def identity_matrix(dim: int, one=Fraction(1)) -> dict:
    return {i: {i: one} for i in range(dim)}


# -- the operator layer: operators and tensors on a carrier's basis ----------------


class WOp:
    """An operator with an explicit domain of columns: cols[x] is M(e_x),
    stored when nonzero, for x in the domain."""

    __slots__ = ("cols", "domain")

    def __init__(self, cols: dict, domain: frozenset):
        self.cols = cols
        self.domain = domain

    def apply_basis(self, x: int):
        if x not in self.domain:
            return None
        return self.cols.get(x, {})

    def apply(self, vec: dict):
        out: dict = {}
        for c, cv in vec.items():
            if c not in self.domain:
                return None
            col = self.cols.get(c)
            if col:
                vec_iadd(out, col, cv)
        return out

    def window_flat(self, win, dim: int):
        return {x * dim + r: v for x, col in self.cols.items() if x in win
                for r, v in col.items()}


class WTensor:
    """A bilinear map on a carrier's basis pairs: vals[(x, y)] is
    B(e_x, e_y), stored when nonzero; pairs in `undefined` have no value."""

    __slots__ = ("vals", "undefined")

    def __init__(self, vals: dict, undefined: frozenset):
        self.vals = vals
        self.undefined = undefined

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
        return WOp(out, win)


def _wop_from_left_mul(carrier: FiniteSuperAlgebra, a: int) -> WOp:
    cols = {}
    domain = set()
    for x in range(carrier.dim):
        v = carrier.product(a, x)
        if v is None:
            continue
        domain.add(x)
        if v:
            cols[x] = dict(v)
    return WOp(cols, frozenset(domain))


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
    return WOp(cols, frozenset(domain))


def _product_tensor(carrier: FiniteSuperAlgebra) -> WTensor:
    vals = {}
    for x in range(carrier.dim):
        for y in range(carrier.dim):
            v = carrier.product(x, y)
            if v:
                vals[(x, y)] = dict(v)
    return WTensor(vals, carrier.out_of_span)


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
    return WTensor(out, frozenset(undefined))


# -- graded pieces and their structure constants --------------------------------------


class _Piece:
    """One graded piece: its rows (operator or tensor, parity) in order of
    acceptance and one span of their window restrictions, which accepts
    independent rows and answers coordinates."""

    __slots__ = ("rows", "span", "win", "dim")

    def __init__(self, win, dim: int):
        self.rows = []
        self.span = CoordSolver()
        self.win = win
        self.dim = dim

    def add(self, op, parity: int) -> None:
        if self.span.add(op.window_flat(self.win, self.dim)):
            self.rows.append((op, parity))

    def coords(self, op, offset: int = 0):
        """Coordinates of op's window restriction on the rows, numbered from
        offset; None when it leaves the span."""
        flat = op.window_flat(self.win, self.dim)
        if not flat:
            return {}
        sol = self.span.solve(flat)
        if sol is None:
            return None
        return {offset + i: c for i, c in enumerate(sol) if c}


def _cover_defects(piece: _Piece, ops, what: str, name: str) -> list:
    """[] when the window restrictions of ops span exactly the piece's span.
    Spanning a subspace of it is decided on the cover's canonical basis, one
    coordinate solve per basis row."""
    cover = Echelon()
    for op in ops:
        cover.insert(op.window_flat(piece.win, piece.dim))
    if any(piece.span.solve(row) is None for row in cover.basis()):
        return [f"{what} leaves {name}"]
    if cover.rank != len(piece.rows):
        return [f"{what} spans only {cover.rank} of {len(piece.rows)} in {name}"]
    return []


def _degree0(L, gens, par, win, dim: int) -> _Piece:
    """The span of L_a for a in gens and of the supercommutators of the
    accepted L_a that are defined on the whole window."""
    g0 = _Piece(win, dim)
    for a in gens:
        g0.add(L[a], par[a])
    base = list(g0.rows)
    for i, (Mi, pi) in enumerate(base):
        for Mj, pj in base[i:]:
            C = _wop_bracket(Mi, pi, Mj, pj)
            if win <= C.domain:
                g0.add(C, (pi + pj) & 1)
    return g0


def _assemble(carrier: FiniteSuperAlgebra, gens, win, g0: _Piece, g1: _Piece,
              name: str) -> FiniteSuperAlgebra:
    """Structure constants over the basis gens + g0 rows + g1 rows.  A bracket
    that is undefined on the window or leaves the realized span is marked
    out-of-span."""
    par = carrier.parities
    n_min = len(gens)
    n0 = len(g0.rows)
    labels = (
        [f"x:{carrier.labels[g]}" for g in gens]
        + [f"m{j}" for j in range(n0)]
        + [f"b{j}" for j in range(len(g1.rows))]
    )
    parities = [par[g] for g in gens] + [p for _, p in g0.rows] + [p for _, p in g1.rows]
    gen_pos = {g: i for i, g in enumerate(gens)}
    table = {}
    oos = set()

    def put(i, j, vec):
        if vec is None:
            oos.add((i, j))
            oos.add((j, i))
        elif vec:
            table[(i, j)] = vec
            s = -1 if (parities[i] and parities[j]) else 1
            table[(j, i)] = {k: (-v if s > 0 else v) for k, v in vec.items()}

    def in_gens(v):
        if v is None or any(k not in gen_pos for k in v):
            return None
        return {gen_pos[k]: c for k, c in v.items()}

    for i, (M, _pm) in enumerate(g0.rows):
        for j, g in enumerate(gens):
            put(n_min + i, j, in_gens(M.apply_basis(g)))
    for i, (B, _pb) in enumerate(g1.rows):
        for j, g in enumerate(gens):
            M = B.to_matrix(g, win)
            put(n_min + n0 + i, j, None if M is None else g0.coords(M, n_min))
    for i, (Mi, pi) in enumerate(g0.rows):
        for j in range(i, n0):
            Mj, pj = g0.rows[j]
            C = _wop_bracket(Mi, pi, Mj, pj)
            put(n_min + i, n_min + j,
                g0.coords(C, n_min) if win <= C.domain else None)
    for i, (M, pm) in enumerate(g0.rows):
        for j, (B, pb) in enumerate(g1.rows):
            C = _tensor_bracket(M, pm, B, pb, par)
            put(n_min + i, n_min + n0 + j,
                g1.coords(C, n_min + n0) if C.has_window(win) else None)
    return FiniteSuperAlgebra(labels, parities, table, oos, name=name)


@dataclass
class Sl2Triple:
    e: dict  # vector in degree -1
    h: object  # WOp in a realization, coordinate vector once assembled
    f: object  # WTensor in a realization, coordinate vector once assembled


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
        self.L = [_wop_from_left_mul(J, a) for a in range(d)]
        self.P = _product_tensor(J)
        self.g0 = _degree0(self.L, range(d), par, self.win, d)
        self.g1 = _Piece(self.win, d)
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

    def graded_dims(self):
        return {
            -1: self.J.dim,
            0: len(self.g0.rows),
            1: len(self.g1.rows),
        }

    def triple(self) -> Sl2Triple | None:
        if self.unit is None:
            return None
        h = {}
        for a, c in self.unit.items():
            h = matrix_add(h, self.L[a].cols, -c)
        return Sl2Triple(e=dict(self.unit), h=WOp(h, self.win), f=self.P)

    # -- checks --------------------------------------------------------------

    def check_triple(self, t: Sl2Triple | None = None) -> Report:
        """Triple relations plus the ad h eigenvalue of every realized basis
        element of the three graded pieces."""
        t0 = time.perf_counter()
        if t is None:
            t = self.triple()
        params = {"algebra": self.J.name}
        if t is None:
            return Report("tkk-triple", params, {}, "fail",
                          {"reason": "no unit, no canonical triple"})
        par = self.J.parities
        d = self.J.dim
        failures = []
        # [h, e] = -e
        if t.h.apply(t.e) != {k: -v for k, v in t.e.items()}:
            failures.append("[h,e] != -e")
        # [h, f] = f
        if _tensor_bracket(t.h, 0, t.f, 0, par).vals != t.f.vals:
            failures.append("[h,f] != f")
        # [e, f] = h: [e, B] = -(-1)^{p e p B}[B, e] with everything even
        ef = {}
        for x, c in t.e.items():
            ef = matrix_add(ef, t.f.to_matrix(x, self.win).cols, -c)
        if ef != t.h.cols:
            failures.append("[e,f] != h")
        # eigenvalues of ad h
        for x in range(d):
            if t.h.apply_basis(x) != {x: Fraction(-1)}:
                failures.append(f"ad h on degree -1 basis {x}")
                break
        for M, pm in self.g0.rows:
            if _wop_bracket(t.h, 0, M, pm).cols:
                failures.append("ad h nonzero on degree 0")
                break
        for B, pb in self.g1.rows:
            if _tensor_bracket(t.h, 0, B, pb, par).vals != B.vals:
                failures.append("ad h != 1 on degree 1")
                break
        ok = not failures
        return Report(
            "tkk-triple",
            params,
            {"basisChecked": d + len(self.g0.rows) + len(self.g1.rows)},
            "pass" if ok else "fail",
            None if ok else {"failures": failures},
            elapsed_ms=(time.perf_counter() - t0) * 1000,
        )

    def check_minimal(self) -> Report:
        """Transitivity, [g_-1, g_1] = g_0 and [g_0, g_1] = g_1, by exact
        rank computations on the realized spans."""
        t0 = time.perf_counter()
        d = self.J.dim
        par = self.J.parities
        g0, g1 = self.g0, self.g1
        failures = []
        # (transitivity) the realization acts faithfully: ranks match row counts
        if g0.span.ech.rank != len(g0.rows):
            failures.append("degree-0 span rank defect")
        if g1.span.ech.rank != len(g1.rows):
            failures.append("degree-1 span rank defect")
        # [g_-1, g_1] = g_0 and [g_0, g_1] = g_1
        win = self.win
        if not failures:
            failures += _cover_defects(
                g0, (B.to_matrix(x, win) for B, _pb in g1.rows for x in range(d)),
                "[g-1, g1]", "g0")
        if not failures:
            failures += _cover_defects(
                g1, (_tensor_bracket(M, pm, B, pb, par)
                     for M, pm in g0.rows for B, pb in g1.rows),
                "[g0, g1]", "g1")
        ok = not failures
        return Report(
            "tkk-minimal",
            {"algebra": self.J.name},
            {
                "g-1": self.J.dim,
                "g0": len(g0.rows),
                "g1": len(g1.rows),
            },
            "pass" if ok else "fail",
            None if ok else {"failures": failures},
            elapsed_ms=(time.perf_counter() - t0) * 1000,
        )

    def round_trip(self) -> Report:
        """Recover the Jordan product as [[f, x], y] with f = P and compare
        with the input table exactly; also certify [f, x] in g0."""
        t0 = time.perf_counter()
        d = self.J.dim
        bad = None
        for x in range(d):
            M = self.P.to_matrix(x, self.win)
            if self.g0.coords(M) is None:
                bad = {"reason": "[f,x] outside g0", "x": self.J.labels[x]}
                break
            for y in range(d):
                if M.apply_basis(y) != self.J.product(x, y):
                    bad = {"indices": [x, y],
                           "labels": [self.J.labels[x], self.J.labels[y]]}
                    break
            if bad:
                break
        return Report(
            "tkk-roundtrip",
            {"algebra": self.J.name},
            {"pairs": d * d},
            "pass" if bad is None else "fail",
            bad,
            elapsed_ms=(time.perf_counter() - t0) * 1000,
        )

    # -- assembly ------------------------------------------------------------

    def basis_size(self) -> int:
        return self.J.dim + len(self.g0.rows) + len(self.g1.rows)

    def assemble(self) -> tuple:
        """Full structure constants of Lie(J) over the realized basis;
        returns (GradedLie, Sl2Triple in assembled coordinates or None)."""
        d = self.J.dim
        n0 = len(self.g0.rows)
        alg = _assemble(self.J, range(d), self.win, self.g0, self.g1,
                        f"Lie({self.J.name or 'J'})")
        if alg.out_of_span:
            i, j = min(alg.out_of_span)
            raise ValueError(
                f"[{alg.labels[i]}, {alg.labels[j]}] left the realized span")
        lie = GradedLie(alg, [-1] * d + [0] * n0 + [1] * len(self.g1.rows))
        t = self.triple()
        triple = None
        if t is not None:
            triple = Sl2Triple(e=dict(t.e), h=self.g0.coords(t.h, d),
                               f=self.g1.coords(t.f, d + n0))
        return lie, triple


# -- spec-level operations ------------------------------------------------------


def tkk(J: FiniteSuperAlgebra):
    """Assembled Lie(J) with its canonical triple (None for non-unital J)."""
    return TKK(J).assemble()


def check_triple(L: GradedLie, t: Sl2Triple) -> Report:
    """Triple relations and the grading of ad h, on an assembled table."""
    t0 = time.perf_counter()
    alg = L.algebra
    failures = []
    he = table_bracket(alg, t.h, t.e)
    if he != {k: -v for k, v in t.e.items()}:
        failures.append("[h,e] != -e")
    if table_bracket(alg, t.h, t.f) != t.f:
        failures.append("[h,f] != f")
    if table_bracket(alg, t.e, t.f) != t.h:
        failures.append("[e,f] != h")
    for i in range(alg.dim):
        v = table_bracket(alg, t.h, {i: Fraction(1)})
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


def table_bracket(alg: FiniteSuperAlgebra, u: dict, v: dict):
    return alg.mul_vectors(u, v)


def inverse_product(L: GradedLie, t: Sl2Triple) -> FiniteSuperAlgebra:
    """The Jordan product x o y = [[f, x], y] on the degree -1 part."""
    alg = L.algebra
    idxs = [i for i, g in enumerate(L.grading) if g == -1]
    back = {b: i for i, b in enumerate(idxs)}
    labels = [alg.labels[i].removeprefix("x:") for i in idxs]
    parities = [alg.parities[i] for i in idxs]
    table = {}
    for i, bi in enumerate(idxs):
        fx = table_bracket(alg, t.f, {bi: Fraction(1)})
        for j, bj in enumerate(idxs):
            v = table_bracket(alg, fx, {bj: Fraction(1)})
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


def exp_ad(L: GradedLie, x: dict):
    """exp(ad x) = 1 + ad x + (ad x)^2/2 as a matrix on the assembled basis;
    requires (ad x)^3 = 0."""
    alg = L.algebra
    d = alg.dim
    ad = {}
    for j in range(d):
        col = table_bracket(alg, x, {j: Fraction(1)})
        if col:
            ad[j] = col
    ad2 = matrix_compose(ad, ad)
    ad3 = matrix_compose(ad, ad2)
    if ad3:
        raise ValueError("ad x is not nilpotent of order <= 3")
    out = matrix_add(identity_matrix(d), ad)
    return matrix_add(out, ad2, Fraction(1, 2))


def is_table_automorphism(L: GradedLie, A: dict) -> bool:
    alg = L.algebra
    d = alg.dim
    for i in range(d):
        Ai = A.get(i, {})
        for j in range(d):
            lhs = matrix_apply(A, alg.product(i, j) or {})
            rhs = alg.mul_vectors(Ai, A.get(j, {}))
            if lhs != rhs:
                return False
    return True


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
    d = alg.dim
    par = alg.parities
    ce = None
    certified = 0
    skipped = 0
    one = _one_like(alg)
    for a in range(d):
        if ce:
            break
        pa = par[a]
        for b in range(d):
            if ce:
                break
            pb = par[b]
            s = -1 if (pa and pb) else 1
            ab = alg.product(a, b)
            for c in range(d):
                bc = alg.product(b, c)
                ac = alg.product(a, c)
                if ab is None or bc is None or ac is None:
                    skipped += 1
                    continue
                t1 = alg.mul_vectors({a: one}, bc)
                t2 = alg.mul_vectors(ab, {c: one})
                t3 = alg.mul_vectors({b: one}, ac)
                if t1 is None or t2 is None or t3 is None:
                    skipped += 1
                    continue
                certified += 1
                res = dict(t1)
                for k, v in t2.items():
                    sacc = res.get(k)
                    if sacc is None:
                        if v:
                            res[k] = -v
                    else:
                        sacc = sacc - v
                        if sacc:
                            res[k] = sacc
                        else:
                            del res[k]
                for k, v in t3.items():
                    vv = v if s > 0 else -v
                    sacc = res.get(k)
                    if sacc is None:
                        if vv:
                            res[k] = -vv
                    else:
                        sacc = sacc - vv
                        if sacc:
                            res[k] = sacc
                        else:
                            del res[k]
                if res:
                    ce = {
                        "indices": [a, b, c],
                        "labels": [alg.labels[i] for i in (a, b, c)],
                    }
                    break
    return Report(
        "lie-table",
        {"algebra": alg.name, "dim": alg.dim},
        {"certifiedTriples": certified, "skippedTriples": skipped},
        "pass" if ce is None else "fail",
        ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


def unital_extend(J: FiniteSuperAlgebra):
    """(J with an adjoined unit, already_had_unit flag)."""
    if J.find_unit() is not None:
        return J, True
    labels = ["1"] + list(J.labels)
    parities = [0] + list(J.parities)
    table = {(0, 0): {0: _one_like(J)}}
    for i in range(J.dim):
        table[(0, i + 1)] = {i + 1: _one_like(J)}
        table[(i + 1, 0)] = {i + 1: _one_like(J)}
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
    of (1, -L_1, P), check the split, S-simplicity (sampled ideal closures)
    and that the triple acts by derivations not inner to S.

    For a truncated J pass a larger truncation of the same family as
    `carrier`; quantifiers then range over the window spanned by J's own
    basis while containments are tested against the span of everything
    computable inside the carrier, and the report states both sizes.
    """
    t0 = time.perf_counter()
    params = {"algebra": J.name, "seed": seed}
    if J.find_unit() is not None:
        return Report("tkk-semidirect", params, {}, "error",
                      {"reason": "precondition: J must be non-unital"})
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
    L = {w: _wop_from_left_mul(carrier_t, w) for w in span_gens}
    ident = WOp(identity_matrix(dimC), frozenset(range(dimC)))

    # small certified rows (window generators only)
    s0 = _degree0(L, gens, par, win, dimC)

    # big span of everything computable, for containment tests
    s0_big = Echelon()
    for w in span_gens:
        s0_big.insert(L[w].window_flat(win, dimC))
    for i, w in enumerate(span_gens):
        for v in span_gens[i:]:
            C = _wop_bracket(L[w], par[w], L[v], par[v])
            if win <= C.domain:
                s0_big.insert(C.window_flat(win, dimC))

    P = _product_tensor(carrier_t)
    if not P.has_window(win):
        raise ValueError("carrier too small for the product tensor window")
    s1 = _Piece(win, dimC)
    failures = []
    for a in gens:
        B = _tensor_bracket(L[a], par[a], P, 0, par)
        if not B.has_window(win):
            failures.append("carrier too small for the degree-1 span")
            break
        s1.add(B, par[a])
    s1_big = Echelon()
    if not failures:
        for w in span_gens:
            B = _tensor_bracket(L[w], par[w], P, 0, par)
            if B.has_window(win):
                s1_big.insert(B.window_flat(win, dimC))

    # a-part separation against the big spans
    if not failures:
        if not s0_big.reduce(ident.window_flat(win, dimC)):
            failures.append("-L_1 lies in the S0 span")
        if not s1_big.reduce(P.window_flat(win, dimC)):
            failures.append("P lies in the S1 span")

    if not failures:
        failures.extend(
            _semidirect_ideal_defects(window, gens, s0, s0_big, s1, s1_big,
                                      P, ident, par, dimC)
        )

    s_simple = None
    if not failures:
        s_alg = _assemble(carrier_t, gens, win, s0, s1, "S")
        s_simple = check_simple(s_alg, seed=seed)
        if not s_simple:
            failures.append("S failed the sampled window simplicity check")

    if not failures:
        failures.extend(_outer_defects(gens, s0, s1, P, par, dimC))

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


def _semidirect_ideal_defects(window, gens, s0, s0_big, s1, s1_big, P, ident,
                              par, dimC):
    """Brackets of the certified window basis of Lie(J~) with the certified
    window basis of S land in S's computable window spans."""
    win = s0.win
    g0_rows = s0.rows + [(ident, 0)]
    g1_rows = s1.rows + [(P, 0)]
    # [g_{-1}, S0] in S_{-1} = J-part (no unit component)
    for x in window:
        for M, _pm in s0.rows:
            v = M.apply_basis(x)
            if v is None:
                return ["carrier too small at [g-1, S0]"]
            if v.get(0):
                return ["[g-1, S0] has a unit component"]
    # [g_{-1}, S1] in S0
    for x in window:
        for B, _pb in s1.rows:
            M = B.to_matrix(x, win)
            if M is None:
                return ["carrier too small at [g-1, S1]"]
            if s0_big.reduce(M.window_flat(win, dimC)):
                return ["[g-1, S1] leaves the S0 span"]
    # [g0, S_{-1}] in J-part
    for M, _pm in g0_rows:
        for x in gens:
            v = M.apply_basis(x)
            if v is None:
                return ["carrier too small at [g0, S-1]"]
            if v.get(0):
                return ["[g0, S-1] has a unit component"]
    # [g0, S0] in S0
    for M, pm in g0_rows:
        for N, pn in s0.rows:
            C = _wop_bracket(M, pm, N, pn)
            if not win <= C.domain:
                return ["carrier too small at [g0, S0]"]
            if s0_big.reduce(C.window_flat(win, dimC)):
                return ["[g0, S0] leaves the S0 span"]
    # [g0, S1] in S1
    for M, pm in g0_rows:
        for B, pb in s1.rows:
            C = _tensor_bracket(M, pm, B, pb, par)
            if not C.has_window(win):
                return ["carrier too small at [g0, S1]"]
            if s1_big.reduce(C.window_flat(win, dimC)):
                return ["[g0, S1] leaves the S1 span"]
    # [g1, S_{-1}] in S0 and [g1, S0] in S1 ([g1, S1] = 0 by grading)
    for B, pb in g1_rows:
        for x in gens:
            M = B.to_matrix(x, win)
            if M is None:
                return ["carrier too small at [g1, S-1]"]
            if s0_big.reduce(M.window_flat(win, dimC)):
                return ["[g1, S-1] leaves the S0 span"]
        for N, pn in s0.rows:
            C = _tensor_bracket(N, pn, B, pb, par)
            if not C.has_window(win):
                return ["carrier too small at [S0, g1]"]
            if s1_big.reduce(C.window_flat(win, dimC)):
                return ["[g1, S0] leaves the S1 span"]
    return []


def _outer_defects(gens, s0, s1, P, par, dimC):
    """No computable element of S restricts to ad h, ad e or ad f on the
    certified window basis of S."""
    win = s0.win
    u_basis = (
        [("x", g) for g in gens]
        + [("m", i) for i in range(len(s0.rows))]
        + [("b", i) for i in range(len(s1.rows))]
    )

    def stack_of(kind, obj, p_obj):
        st = {}
        for pos, (ukind, uidx) in enumerate(u_basis):
            if ukind == "x":
                val = _bracket_with_vector(kind, obj, uidx, win, dimC)
            elif ukind == "m":
                M, pm = s0.rows[uidx]
                val = _bracket_with_matrix(kind, obj, p_obj, M, pm, win, par, dimC)
            else:
                B, pb = s1.rows[uidx]
                val = _bracket_with_tensor(kind, obj, p_obj, B, pb, win, par, dimC)
            if val is None:
                return None
            for coord, c in val.items():
                st[(pos,) + coord] = c
        return st

    columns = []
    for g in gens:
        columns.append(stack_of("x", {g: Fraction(1)}, par[g]))
    for M, pm in s0.rows:
        columns.append(stack_of("m", M, pm))
    for B, pb in s1.rows:
        columns.append(stack_of("b", B, pb))
    if any(c is None for c in columns):
        return ["carrier too small for the outer-derivation solve"]
    h = WOp({i: {i: Fraction(-1)} for i in range(dimC)}, frozenset(range(dimC)))
    targets = [
        ("h", stack_of("m", h, 0)),
        ("e", stack_of("x", {0: Fraction(1)}, 0)),
        ("f", stack_of("b", P, 0)),
    ]
    inner = CoordSolver(columns)
    defects = []
    for name, tgt in targets:
        if tgt is None:
            return [f"carrier too small for the ad {name} stack"]
        if inner.solve(tgt) is not None:
            defects.append(f"ad {name} restricted to S is inner to S")
    return defects


def _bracket_with_vector(kind, obj, x, win, dimC):
    """[obj, e_x] with type-tagged stack coordinates."""
    if kind == "x":
        return {}
    if kind == "m":
        v = obj.apply_basis(x)
        if v is None:
            return None
        return {("v", k): c for k, c in v.items()}
    M = obj.to_matrix(x, win)
    if M is None:
        return None
    return {("m", k): c for k, c in M.window_flat(win, dimC).items()}


def _bracket_with_matrix(kind, obj, p_obj, M, pm, win, par, dimC):
    if kind == "x":
        (x_idx, cx), = obj.items()
        v = M.apply_basis(x_idx)
        if v is None:
            return None
        s = -1 if not (par[x_idx] and pm) else 1
        return {("v", k): cx * c * s for k, c in v.items()}
    if kind == "m":
        C = _wop_bracket(obj, p_obj, M, pm)
        if not win <= C.domain:
            return None
        return {("m", k): c for k, c in C.window_flat(win, dimC).items()}
    C = _tensor_bracket(M, pm, obj, p_obj, par)
    if not C.has_window(win):
        return None
    s = -1 if (p_obj and pm) else 1
    return {("t", k): -c if s > 0 else c
            for k, c in C.window_flat(win, dimC).items()}


def _bracket_with_tensor(kind, obj, p_obj, B, pb, win, par, dimC):
    if kind == "x":
        (x_idx, cx), = obj.items()
        M = B.to_matrix(x_idx, win)
        if M is None:
            return None
        s = -1 if (par[x_idx] and pb) else 1
        return {("m", k): (-v if s > 0 else v) * cx
                for k, v in M.window_flat(win, dimC).items()}
    if kind == "m":
        C = _tensor_bracket(obj, p_obj, B, pb, par)
        if not C.has_window(win):
            return None
        return {("t", k): c for k, c in C.window_flat(win, dimC).items()}
    return {}


def check_minimal_table(L: GradedLie) -> Report:
    """The three minimality conditions evaluated on an assembled table (for
    constructed inputs; the realization path checks them on operators)."""
    t0 = time.perf_counter()
    alg = L.algebra
    idx_m1 = [i for i, g in enumerate(L.grading) if g == -1]
    idx_0 = [i for i, g in enumerate(L.grading) if g == 0]
    idx_1 = [i for i, g in enumerate(L.grading) if g == 1]
    failures = []
    one = Fraction(1)
    # transitivity: nothing in degrees 0, 1 kills all of degree -1
    cols = []
    for a in idx_0 + idx_1:
        stacked = {}
        for pos, x in enumerate(idx_m1):
            v = alg.mul_vectors({a: one}, {x: one})
            if v is None:
                failures.append("out-of-span bracket during transitivity")
                break
            for k, c in v.items():
                stacked[(pos, k)] = c
        cols.append(stacked)
    if not failures and nullspace(cols):
        failures.append("transitivity fails: a central element survives")
    # [g-1, g1] = g0
    if not failures:
        span = Echelon()
        for x in idx_m1:
            for b in idx_1:
                v = alg.mul_vectors({b: one}, {x: one})
                if v is None:
                    continue
                bad = [k for k in v if L.grading[k] != 0]
                if bad:
                    failures.append("[g-1, g1] leaves degree 0")
                    break
                span.insert(dict(v))
            if failures:
                break
        if not failures and span.rank != len(idx_0):
            failures.append(
                f"[g-1, g1] spans {span.rank} of {len(idx_0)} in degree 0"
            )
    # [g0, g1] = g1
    if not failures:
        span = Echelon()
        for a in idx_0:
            for b in idx_1:
                v = alg.mul_vectors({a: one}, {b: one})
                if v is None:
                    continue
                bad = [k for k in v if L.grading[k] != 1]
                if bad:
                    failures.append("[g0, g1] leaves degree 1")
                    break
                span.insert(dict(v))
            if failures:
                break
        if not failures and span.rank != len(idx_1):
            failures.append(
                f"[g0, g1] spans {span.rank} of {len(idx_1)} in degree 1"
            )
    ok = not failures
    return Report(
        "tkk-minimal",
        {"algebra": alg.name},
        {"g-1": len(idx_m1), "g0": len(idx_0), "g1": len(idx_1)},
        "pass" if ok else "fail",
        None if ok else {"failures": failures},
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )
