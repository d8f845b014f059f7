"""Finite-dimensional superalgebra tables, the catalog of Jordan superalgebra
families, the KKM double, and the exact identity / simplicity / isomorphism
checkers.

A FiniteSuperAlgebra stores sparse structure constants over Fraction
scalars; every family is built over Q.  Truncated carriers mark basis pairs
whose product leaves the spanned degree range as out-of-span; every checker
skips exactly the tuples that would need such a product and reports the
certified count, so a pass is always an exact claim about a stated finite
set.

Every product on a table reads one table oracle, `FiniteSuperAlgebra.oracle`:
rows[i][j] is scale * (e_i o e_j) as a sparse dict of ints, {} for a zero
product and None for an out-of-span pair, with scale the lcm of the
table's denominators.  It is built once per table and kept, which rests on
a contract: a table is not changed after construction.  No other module
builds an oracle.  Every product accumulates through one primitive,
`_mul_into`: `mul_vectors` (which makes the Fractions of its answer only
at the end), the ideal closure, tkk's realization, and the three table
identity checkers (check_jordan, check_relation10 and
tkk.check_lie_table), which run in chunk workers of the identity engine
`report.scan` that count certified and skipped tuples up to their first
failure; `_table_report` builds the report.  Every identity is
homogeneous, so a residual of degree d in the structure constants is
scale**d times the exact one; `_table_report` divides by scale**d when it
reports residual coordinates.

The Jordan scan reads per-pair multiplication maps: a chunk worker builds
L[x] = (e_p e_q) o e_x once per unordered pair {p, q}, on first use, so
u o x and u o (w o x) for u = e_p e_q are a lookup and a combination of
L's entries.  check_relation10 reaches a pass on a total supercommutative
table through the Jordan scan: relation (10) at (a, b, c | x) is a signed
sum of two Jordan instances (the lemma in its docstring).  Every other
table, and every table whose Jordan scan fails, runs the relation (10)
scan itself.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import cached_property

from .brackets import BracketSpec, bracket_kernel
from .linalg import CoordSolver, Echelon, scaled_ints, solve_linear, vec_iadd
from .report import DetRand, Report, scan
from .superpoly import (
    mono_degree,
    mono_mul,
    mono_parity,
    monomials_total_degree,
    render_monomial,
)


class FiniteSuperAlgebra:
    """Based Z/2-graded algebra with a sparse structure-constant table.

    table[(i, j)] is a dict k -> coefficient for e_i o e_j (missing pair =
    zero product); pairs in out_of_span have no stored product at all.  The
    constructor drops zero coefficients and the products they leave empty,
    so no stored vector holds a zero.

    A table is not changed after construction: `oracle` is computed from
    it once and kept, so a changed table would go on reading the old
    products.  To change one, build a new FiniteSuperAlgebra.
    """

    def __init__(self, labels, parities, table, out_of_span=(), name=""):
        self.labels = list(labels)
        self.parities = list(parities)
        self.table = {}
        for key, vec in table.items():
            vec = {k: c for k, c in vec.items() if c}
            if vec:
                self.table[key] = vec
        self.out_of_span = frozenset(out_of_span)
        self.name = name

    @property
    def dim(self) -> int:
        return len(self.labels)

    def sdim(self):
        ev = sum(1 for p in self.parities if p == 0)
        return (ev, self.dim - ev)

    def is_total(self) -> bool:
        return not self.out_of_span

    def product(self, i: int, j: int):
        """Sparse product vector, or None when out of span."""
        if (i, j) in self.out_of_span:
            return None
        return self.table.get((i, j), {})

    @cached_property
    def oracle(self):
        """The table oracle: (rows, scale) with rows[i][j] = scale * (e_i o
        e_j) as a sparse dict of ints with no zero entries, {} for a zero
        product and None for an out-of-span pair.  The table's denominators
        are cleared to plain ints (scale = their lcm; identities are
        homogeneous, so scaling preserves zero-tests).  The rows are shared
        and read-only."""
        scale = math.lcm(1, *(c.denominator
                              for vec in self.table.values() for c in vec.values()))
        rows = [[{}] * self.dim for _ in range(self.dim)]
        for (i, j), vec in self.table.items():
            rows[i][j] = {k: c.numerator * (scale // c.denominator) for k, c in vec.items()}
        for i, j in self.out_of_span:
            rows[i][j] = None
        return rows, scale

    def mul_vectors(self, u: dict, v: dict):
        """Product of two coordinate vectors, with no zero entries; None if
        a pair of nonzero coefficients is out of span.  It runs `_mul_into`
        on the int vectors over the oracle and makes one Fraction per
        nonzero coordinate."""
        rows, scale = self.oracle
        iu, su = scaled_ints(u)
        iv, sv = scaled_ints(v)
        acc: dict = {}
        if not _mul_into(acc, rows, iu, iv):
            return None
        den = su * sv * scale
        return {k: Fraction(x, den) for k, x in acc.items() if x}

    def parity_consistent(self) -> bool:
        for (i, j), vec in self.table.items():
            q = (self.parities[i] + self.parities[j]) & 1
            if any(self.parities[k] != q for k in vec):
                return False
        return True

    def commutativity_defect(self):
        """First (i, j, k) violating supercommutativity, or None."""
        return self._symmetry_defect(1)

    def anticommutativity_defect(self):
        """First (i, j, k) violating superanticommutativity, or None."""
        return self._symmetry_defect(-1)

    def _symmetry_defect(self, sign: int):
        """First (i, j, k) with c_ij^k != sign (-1)^{p(i)p(j)} c_ji^k, or
        (i, j, -1) when exactly one of the two products is out of span.

        There is none when the out-of-span pairs are symmetric and every
        stored product equals the signed mirror stored for the swapped pair;
        one pass over the stored products tests that.  Only a table that
        fails the pass runs the ordered loop that finds the first defect."""
        oos, par, table = self.out_of_span, self.parities, self.table

        def mirrored(i, j, vec):
            back = table.get((j, i), {})
            s = -sign if (par[i] and par[j]) else sign
            return vec == (back if s > 0 else {k: -c for k, c in back.items()})

        if all((j, i) in oos for i, j in oos) and all(
                (i, j) in oos or mirrored(i, j, vec) for (i, j), vec in table.items()):
            return None
        for i in range(self.dim):
            for j in range(self.dim):
                a = self.product(i, j)
                b = self.product(j, i)
                if (a is None) != (b is None):
                    return (i, j, -1)
                if a is None:
                    continue
                s = -sign if (self.parities[i] and self.parities[j]) else sign
                keys = set(a) | set(b)
                for k in keys:
                    if a.get(k, 0) != s * b.get(k, 0):
                        return (i, j, k)
        return None

    def find_unit(self):
        """Solve e o x = x over the basis; None when there is no unit."""
        usable = [
            i
            for i in range(self.dim)
            if all((i, j) not in self.out_of_span for j in range(self.dim))
        ]
        columns = []
        for i in usable:
            col = {}
            for j in range(self.dim):
                for k, c in self.table.get((i, j), {}).items():
                    col[(j, k)] = c
            columns.append(col)
        target = {(j, j): Fraction(1) for j in range(self.dim)}
        sol = solve_linear(columns, target)
        if sol is None:
            return None
        return {usable[idx]: c for idx, c in enumerate(sol) if c}

    def to_json_dict(self) -> dict:
        basis = [
            {"label": l, "parity": p} for l, p in zip(self.labels, self.parities)
        ]
        c = []
        for (i, j) in sorted(self.table):
            vec = self.table[(i, j)]
            for k in sorted(vec):
                q = Fraction(vec[k])
                c.append([i, j, k, q.numerator, q.denominator])
        out = {"basis": basis, "c": c}
        unit = self.find_unit()
        if unit is not None and len(unit) == 1:
            (idx, coeff), = unit.items()
            if coeff == 1:
                out["unit"] = idx
        if self.out_of_span:
            out["outOfSpan"] = sorted([list(p) for p in self.out_of_span])
        if self.name:
            out["name"] = self.name
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "FiniteSuperAlgebra":
        """Parse the export format; a malformed file raises ValueError."""
        if not isinstance(d, dict) or not isinstance(d.get("basis"), list):
            raise ValueError("expected an object with a 'basis' list")
        if not all(isinstance(b, dict) for b in d["basis"]):
            raise ValueError("every basis entry must be an object")
        for idx, b in enumerate(d["basis"]):
            for key in ("label", "parity"):
                if key not in b:
                    raise ValueError(f"basis entry {idx} has no {key!r}")
        labels = [b["label"] for b in d["basis"]]
        parities = [b["parity"] for b in d["basis"]]
        dim = len(labels)
        if not all(_is_int(p) and p in (0, 1) for p in parities):
            raise ValueError("parities must be the integers 0 or 1")
        if not all(isinstance(label, str) for label in labels) or len(set(labels)) < dim:
            raise ValueError("labels must be distinct strings")
        name = d.get("name", "")
        if not isinstance(name, str):
            raise ValueError("'name' must be a string")
        for key in ("c", "outOfSpan"):
            if not isinstance(d.get(key, []), list):
                raise ValueError(f"{key!r} must be a list")

        def index(i):
            if not _is_int(i) or not 0 <= i < dim:
                raise ValueError(f"basis index {i!r} out of range 0..{dim - 1}")
            return i

        table: dict = {}
        for entry in d.get("c", []):
            if not isinstance(entry, list) or len(entry) != 5:
                raise ValueError(f"'c' entry {entry!r} is not [i, j, k, num, den]")
            i, j, k, num, den = entry
            if not (_is_int(num) and _is_int(den)) or den == 0:
                raise ValueError(f"'c' entry {entry!r} needs integers num and den != 0")
            vec = table.setdefault((index(i), index(j)), {})
            if index(k) in vec:
                raise ValueError(f"'c' entry {entry!r} repeats the coefficient ({i}, {j}, {k})")
            vec[k] = Fraction(num, den)
        oos = set()
        for pair in d.get("outOfSpan", []):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"'outOfSpan' entry {pair!r} is not a pair")
            key = (index(pair[0]), index(pair[1]))
            if key in table:
                raise ValueError(f"pair {list(key)} has both 'c' entries and an 'outOfSpan' entry")
            oos.add(key)
        alg = FiniteSuperAlgebra(labels, parities, table, oos, name=name)
        if not alg.parity_consistent():
            raise ValueError("parity-inconsistent structure constants")
        return alg

    def same_table(self, other: "FiniteSuperAlgebra") -> bool:
        return (
            self.labels == other.labels
            and self.parities == other.parities
            and self.table == other.table
            and self.out_of_span == other.out_of_span
        )

    def __repr__(self):
        ev, od = self.sdim()
        return f"FiniteSuperAlgebra({self.name or 'anon'}, dim ({ev}|{od}))"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# -- the table identity engine -------------------------------------------------------


def _mul_into(acc: dict, rows, u: dict, v: dict, s: int = 1) -> bool:
    """acc += s * (u o v), s = +-1, over the oracle rows; False on the first
    product of nonzero coefficients that is out of span (acc is then
    partial).

    Entries are never deleted, so an intermediate vector may hold zeros;
    zero coefficients are skipped, so such an entry never reads a product."""
    for i, ci in u.items():
        if not ci:
            continue
        row = rows[i]
        for j, cj in v.items():
            if not cj:
                continue
            p = row[j]
            if p is None:
                return False
            if p:
                c = ci * cj
                if s < 0:
                    c = -c
                for k, x in p.items():
                    if k in acc:
                        acc[k] += c * x
                    else:
                        acc[k] = c * x
    return True


def _table_report(suite, J: FiniteSuperAlgebra, t0, worker, workers, unit, span,
                  residual_degree) -> Report:
    """Run one identity scan over J's table oracle and build its report.

    worker is a chunk worker of `report.scan` on the payload (rows,
    parities, dim).  The first nonzero residual is the counterexample, its
    coordinates reported exactly: the identity has degree residual_degree
    in the structure constants, so they are divided by scale**d.  A scan
    that certifies no tuple fails: a pass must be a claim about a nonempty
    set.
    """
    rows, scale = J.oracle
    certified, skipped, fail = scan(worker, (rows, J.parities, J.dim), J.dim, workers)
    ce = None
    if fail is not None:
        _identity, idx, res = fail
        den = scale ** residual_degree
        ce = {"indices": list(idx), "labels": [J.labels[t] for t in idx],
              "residualCoords": {str(k): str(Fraction(v, den)) for k, v in res.items() if v}}
    elif certified == 0:
        ce = {"reason": f"no {unit} could be certified"}
    units = unit.capitalize() + "s"
    return Report(
        suite,
        {"algebra": J.name, "dim": J.dim},
        {**span, f"certified{units}": certified, f"skipped{units}": skipped},
        "pass" if ce is None else "fail",
        ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


def check_jordan(J: FiniteSuperAlgebra, workers=None) -> Report:
    """The left-multiplication form of the Jordan identity on every basis
    quadruple whose intermediate products stay in span.

    Commutativity is verified first; granted it, the identity's trilinear
    expression changes only by a sign under permutations of (a, b, c), so
    quantifying over multisets a <= b <= c is exhaustive.
    """
    t0 = time.perf_counter()
    params = {"algebra": J.name, "dim": J.dim}
    if not J.parity_consistent():
        return Report("jordan-identity", params, {}, "fail",
                      {"reason": "parity-inconsistent table"})
    defect = J.commutativity_defect()
    if defect is not None:
        i, j, k = defect
        return Report(
            "jordan-identity",
            params,
            {"dim": J.dim},
            "fail",
            {
                "reason": "not supercommutative",
                "indices": [i, j],
                "labels": [J.labels[i], J.labels[j]],
            },
            elapsed_ms=(time.perf_counter() - t0) * 1000,
        )
    return _table_report(
        "jordan-identity", J, t0, _jordan_scan, workers, "quadruple",
        {"dim": J.dim, "quantifier": "multisets a<=b<=c times all x"}, 3)


def _jordan_scan(args):
    """sum over the cyclic terms (u, w) of (ab, c), (bc, a), (ca, b) of
    s (u o (w o x)) - s s' (w o (u o x)), s the Koszul sign of the cyclic
    shift and s' = (-1)^{p(u)p(w)}, on multisets a <= b <= c times all x,
    for a in [lo, hi).

    u o y reads the pair map of u = e_p e_q: L[y] = u o e_y, None when it
    needs an out-of-span pair, built once per unordered pair {p, q} on first
    use (supercommutativity, checked before every scan, gives e_c e_a =
    (-1)^{p(a)p(c)} e_a e_c with the same out-of-span pairs).  So u o x is
    L[x], and u o (w o x) is the sum over k of (w o x)_k L[k], which
    `_mul_into` reads off L as a one-row table.  A tuple is skipped exactly
    when one of its products needs an out-of-span pair."""
    (rows, par, dim), lo, hi = args
    unit = [{i: 1} for i in range(dim)]
    # maps[p][q], p <= q: the pair map of e_p e_q; row p is dropped once the
    # outer index passes it, since every later multiset has a > p
    maps = [{} for _ in range(dim)]

    def pair_map(p, q):
        L = maps[p].get(q)
        if L is None:
            u = rows[p][q]
            L = []
            for x in range(dim):
                ux: dict = {}
                L.append({k: v for k, v in ux.items() if v}
                         if _mul_into(ux, rows, u, unit[x]) else None)
            maps[p][q] = L
        return L

    certified = skipped = 0
    for a in range(lo, hi):
        for b in range(a, dim):
            for c in range(b, dim):
                ab, bc, ac = rows[a][b], rows[b][c], rows[a][c]
                if ab is None or bc is None or ac is None:
                    skipped += dim
                    continue
                terms = []
                for p, q, w, odd in ((a, b, c, par[a] & par[c]),
                                     (b, c, a, par[b] & par[a]),
                                     # u = e_c e_a = (-1)^{p(a)p(c)} e_a e_c
                                     (a, c, b, (par[c] & par[b]) ^ (par[a] & par[c]))):
                    s = -1 if odd else 1
                    t = -s if ((par[p] + par[q]) & 1 and par[w]) else s
                    terms.append(([pair_map(p, q)] if rows[p][q] else None, w, s, t))
                for x in range(dim):
                    res: dict = {}
                    for L_row, w, s, t in terms:
                        wx = rows[w][x]
                        if wx is None:
                            res = None
                            break
                        if L_row is None:  # u = 0
                            continue
                        # u o (w o x) reads the pair map as the one-row table L_row
                        ux = L_row[0][x]
                        if (ux is None or wx and not _mul_into(res, L_row, unit[0], wx, s)
                                or ux and not _mul_into(res, rows, unit[w], ux, -t)):
                            res = None
                            break
                    if res is None:
                        skipped += 1
                        continue
                    certified += 1
                    if any(res.values()):
                        return certified, skipped, "jordan-identity", (a, b, c, x), res
        maps[a] = None
    return certified, skipped, None, None, None


def check_relation10(J: FiniteSuperAlgebra, workers=None) -> Report:
    """[[L_a, L_b], L_c] = (-1)^{p(b)p(c)} L_{a o (c o b) - (a o c) o b} on all
    ordered basis triples applied to every basis element in span.

    On a total table that passes check_jordan's pre-checks (parity
    consistency, supercommutativity) the Jordan scan decides a pass, by the
    two-instance lemma.  Write R(a, b, c | x) for the residual of
    `_relation10_scan` and Jor(u, v, w | y) for that of `_jordan_scan` at
    the triple (u, v, w) and operand y.  On every supercommutative table

        R(a, b, c | x) = e1 Jor(b, c, x | a) + e2 Jor(a, c, x | b),
        e1 = (-1)^{p(a)(p(b)+p(c)+p(x)) + p(b)p(x)},
        e2 = -(-1)^{p(b)(p(c)+p(x)) + p(a)p(x)}.

    In a free commutative algebra this is R(a, b, c | x) = Jor(b, c, x | a)
    - Jor(a, c, x | b), an identity of degree-4 monomials.  The Koszul rule
    gives the signs: R is the Koszul form of its free identity in the letter
    order (a, b, c, x), Jor(u, v, w | y) is (-1)^{p(u)p(w)} times the Koszul
    form of its own in the order (u, v, w, y), and reordering (b, c, x, a)
    and (a, c, x, b) to (a, b, c, x) costs (-1)^{p(a)(p(b)+p(c)+p(x))} and
    (-1)^{p(b)(p(c)+p(x))}.  Jor is super-symmetric in its triple, so a
    passing multiset scan makes every Jor vanish, and with it every R: the
    report certifies all dim**4 quadruples.

    The implication is one-way: the Jordan instances of the multilinear
    commutative degree-4 monomials span rank 4 and the relation (10)
    instances rank 3, so relation (10) can hold where the Jordan identity
    fails.  A failed Jordan scan, an empty, truncated or non-supercommutative
    table therefore runs `_relation10_scan` on the same oracle rows, whose
    report is the verdict.
    """
    return _relation10_report(J, workers, None)


def _relation10_report(J: FiniteSuperAlgebra, workers, jordan_passed) -> Report:
    """check_relation10 on J, given whether check_jordan passed on J (None
    when it has not been run); the lemma path runs only on a total table."""
    t0 = time.perf_counter()
    span = {"dim": J.dim, "quantifier": "ordered triples times all x"}
    if (J.is_total() and jordan_passed is None and J.parity_consistent()
            and J.commutativity_defect() is None):
        certified, _skipped, fail = scan(_jordan_scan, (J.oracle[0], J.parities, J.dim),
                                         J.dim, workers)
        jordan_passed = fail is None and certified > 0
    if J.is_total() and jordan_passed:
        return Report(
            "jordan-relation10",
            {"algebra": J.name, "dim": J.dim},
            {**span, "certifiedQuadruples": J.dim ** 4, "skippedQuadruples": 0},
            "pass",
            elapsed_ms=(time.perf_counter() - t0) * 1000,
        )
    return _table_report("jordan-relation10", J, t0, _relation10_scan, workers,
                         "quadruple", span, 3)


def _relation10_scan(args):
    """K(c o x) - (-1)^{(p(a)+p(b))p(c)} c o K(x) - (-1)^{p(b)p(c)} v o x with
    K(x) = a o (b o x) - (-1)^{p(a)p(b)} b o (a o x), precomputed per (a, b),
    and v = a o (c o b) - (a o c) o b, for a in [lo, hi)."""
    (rows, par, dim), lo, hi = args
    unit = [{i: 1} for i in range(dim)]
    certified = skipped = 0
    for a in range(lo, hi):
        ra = rows[a]
        for b in range(dim):
            rb = rows[b]
            s_ab = -1 if (par[a] and par[b]) else 1
            K = []
            K_row = [K]
            for x in range(dim):
                bx, ax = rb[x], ra[x]
                kx: dict = {}
                if (bx is None or ax is None
                        or bx and not _mul_into(kx, rows, unit[a], bx)
                        or ax and not _mul_into(kx, rows, unit[b], ax, -s_ab)):
                    kx = None
                K.append(kx)
            for c in range(dim):
                rc = rows[c]
                cb, ac = rc[b], ra[c]
                v: dict = {}
                if (cb is None or ac is None
                        or cb and not _mul_into(v, rows, unit[a], cb)
                        or ac and not _mul_into(v, rows, ac, unit[b], -1)):
                    skipped += dim
                    continue
                s_rhs = -1 if (par[b] and par[c]) else 1
                s_kc = -1 if (((par[a] + par[b]) & 1) and par[c]) else 1
                for x in range(dim):
                    cx, kx = rc[x], K[x]
                    lhs: dict = {}
                    # K(c o x) reads K as the one-row table K_row
                    if (cx is None or kx is None
                            or cx and not _mul_into(lhs, K_row, unit[0], cx)
                            or kx and not _mul_into(lhs, rows, unit[c], kx, -s_kc)
                            or v and not _mul_into(lhs, rows, v, unit[x], -s_rhs)):
                        skipped += 1
                        continue
                    certified += 1
                    if any(lhs.values()):
                        return certified, skipped, "relation10", (a, b, c, x), lhs
    return certified, skipped, None, None, None


# -- simplicity and isomorphism ---------------------------------------------------


def ideal_closure(J: FiniteSuperAlgebra, seed_vec: dict) -> Echelon:
    """Span of the smallest left-multiplication-stable subspace containing
    seed_vec (= the ideal it generates, for (anti)commutative tables)."""
    if not J.is_total():
        raise ValueError("ideal closure needs a total product table")
    return _closure(J.oracle[0], seed_vec)


def _closure(rows, seed_vec: dict) -> Echelon:
    """The ideal closure loop over the table oracle rows.  On a truncated
    table a product e_i w that needs an out-of-span pair is skipped whole:
    a partial sum of its defined terms is not a product.  A span does not
    change when its vectors are scaled, so the frontier holds primitive int
    vectors.  It stops once the span is the whole algebra, whose RREF basis
    no further product can change."""
    dim = len(rows)
    ech = Echelon()
    frontier = []
    if ech.insert(seed_vec) is not None:
        frontier.append(scaled_ints(seed_vec)[0])
    while frontier:
        new_frontier = []
        for w in frontier:
            for i in range(dim):
                acc: dict = {}
                if not _mul_into(acc, rows, {i: 1}, w):
                    continue
                prod = {k: x for k, x in acc.items() if x}
                if prod and ech.insert(prod) is not None:
                    if ech.rank == dim:
                        return ech
                    g = math.gcd(*prod.values())
                    new_frontier.append({k: x // g for k, x in prod.items()}
                                        if g != 1 else prod)
        frontier = new_frontier
    return ech


SIMPLE_SAMPLES = 50


def check_simple(J: FiniteSuperAlgebra, seed: int = 0) -> bool:
    """True iff the product is nonzero and the ideal closure of every basis
    vector and of SIMPLE_SAMPLES seeded pseudo-random rational vectors is the
    whole algebra.  The sampled part makes this a declared probabilistic
    check; for the catalog sizes here it is decisive.

    On a truncated table only the basis vectors are closed, and each
    closure must reach the whole stated span without the products that
    leave it.  `_closure` skips such a product whole, and a sampled vector,
    whose support is the whole basis, meets an out-of-span pair in most of
    its products, so its closure can stop short of a simple window."""
    if not J.table:
        return False
    dim = J.dim
    vectors = [{i: Fraction(1)} for i in range(dim)]
    rng = DetRand(seed)
    for _ in range(SIMPLE_SAMPLES if J.is_total() else 0):
        v = {}
        for i in range(dim):
            c = rng.rational()
            if c:
                v[i] = c
        if v:
            vectors.append(v)
    rows = J.oracle[0]
    for v in vectors:
        if _closure(rows, v).rank != dim:
            return False
    return True


def check_simple_report(J: FiniteSuperAlgebra, expected: bool | None = None,
                        seed: int = 0) -> Report:
    t0 = time.perf_counter()
    if not J.is_total():
        raise ValueError("ideal closure needs a total product table")
    verdict = check_simple(J, seed=seed)
    ok = verdict if expected is None else (verdict == expected)
    ce = None
    if not ok:
        ce = {"verdict": verdict}
        if expected is not None:
            ce["expected"] = expected
    return Report(
        "simplicity",
        {"algebra": J.name, "dim": J.dim, "seed": seed},
        {"policy": f"basis vectors + {SIMPLE_SAMPLES} sampled rational vectors (probabilistic)"},
        "pass" if ok else "fail",
        ce,
        details={"simple": verdict},
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


class IsoWitness:
    """A parity-preserving linear map between based algebras, stored as the
    row matrix of target coordinates of each source basis vector."""

    def __init__(self, source: FiniteSuperAlgebra, target: FiniteSuperAlgebra, matrix):
        self.source = source
        self.target = target
        self.matrix = [list(row) for row in matrix]

    def image(self, i: int) -> dict:
        return {j: c for j, c in enumerate(self.matrix[i]) if c}


def hom_scan(dim: int, product, mul, images):
    """The intertwining scan of the linear map phi with phi(e_i) = images[i],
    a sparse vector of target coordinates: phi(e_i e_j) = phi(e_i) phi(e_j)
    on every source basis pair (i, j), 0 <= i, j < dim, in row-major order.

    Two callables give the products, each read when the scan reaches its
    pair: product(i, j) is the source product e_i e_j and mul(u, v) the
    target product of two images, each a sparse vector or None when it
    leaves the span.  mul is read only for a pair whose source product is
    in span.  The callers: `check_iso` passes S.product and T.mul_vectors,
    and lieclass's splitting-map checks products computed from the int
    monomial kernels the tables are built from, so a refuted map costs
    the pairs up to its first failure and no table.

    A pair is skipped when e_i e_j leaves the source span or
    phi(e_i) phi(e_j) leaves the target span.  Returns (certified, skipped,
    failure), failure the first (i, j, lhs, rhs) with lhs = phi(e_i e_j) !=
    rhs = phi(e_i) phi(e_j) (the counts stop at it), else None."""
    certified = skipped = 0
    for i in range(dim):
        for j in range(dim):
            prod = product(i, j)
            rhs = None if prod is None else mul(images[i], images[j])
            if rhs is None:
                skipped += 1
                continue
            lhs: dict = {}
            for k, c in prod.items():
                vec_iadd(lhs, images[k], c)
            certified += 1
            if lhs != rhs:
                return certified, skipped, (i, j, lhs, rhs)
    return certified, skipped, None


def check_iso(w: IsoWitness) -> Report:
    """Exact verification: parity preservation, invertibility, and product
    intertwining (`hom_scan`) on every source basis pair.  Both tables must
    be total, so that every pair is certified."""
    t0 = time.perf_counter()
    S, T = w.source, w.target
    if not (S.is_total() and T.is_total()):
        raise ValueError("an isomorphism check needs total product tables")
    params = {"source": S.name, "target": T.name}
    if S.dim != T.dim or len(w.matrix) != S.dim or any(len(r) != T.dim for r in w.matrix):
        return Report("iso-witness", params, {}, "fail", {"reason": "shape mismatch"})
    for i in range(S.dim):
        for j in range(T.dim):
            if w.matrix[i][j] and S.parities[i] != T.parities[j]:
                return Report(
                    "iso-witness", params, {}, "fail",
                    {"reason": "parity not preserved", "indices": [i, j]},
                )
    ech = Echelon()
    for i in range(S.dim):
        ech.insert(w.image(i))
    if ech.rank != S.dim:
        return Report("iso-witness", params, {}, "fail", {"reason": "matrix not invertible"})
    fail = hom_scan(S.dim, S.product, T.mul_vectors,
                    [w.image(i) for i in range(S.dim)])[2]
    ce = None
    if fail is not None:
        i, j = fail[:2]
        ce = {"indices": [i, j], "labels": [S.labels[i], S.labels[j]]}
    return Report(
        "iso-witness",
        params,
        {"pairs": S.dim * S.dim},
        "pass" if ce is None else "fail",
        ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


# -- matrix realizations -----------------------------------------------------------


def _mat_mul(A: dict, B: dict) -> dict:
    """The product AB of sparse matrices stored as (row, col) -> entry:
    row r of AB is the sum over A[r, c] of A[r, c] times row c of B."""
    rows_b: dict = {}
    for (r, c), v in B.items():
        rows_b.setdefault(r, {})[c] = v
    rows: dict = {}
    for (r, c), v in A.items():
        row = rows_b.get(c)
        if row:
            vec_iadd(rows.setdefault(r, {}), row, v)
    return {(r, c): v for r, row in rows.items() for c, v in row.items()}


def _mat_parity(M: dict, mdim: int) -> int:
    par = None
    for (r, c) in M:
        q = ((r >= mdim) + (c >= mdim)) & 1
        if par is None:
            par = q
        elif par != q:
            raise ValueError("matrix not parity-homogeneous")
    return par or 0


def _algebra_from_matrices(mats, mdim, labels, name, lie=False,
                           solver=None) -> FiniteSuperAlgebra:
    """Close a list of independent parity-homogeneous matrices under the
    symmetrized product (AB + (-1)^{pq} BA)/2, or under the supercommutator
    AB - (-1)^{pq} BA when lie, and express the structure constants over
    them.  A matrix (r, c) -> entry is already a sparse vector, so the
    matrices are the solver's columns as they stand.

    Only the pairs i <= j are solved: swapping A and B multiplies the
    symmetrized product by (-1)^{pq} and the supercommutator by -(-1)^{pq}.
    """
    if not mats:
        raise ValueError(f"{name} has an empty basis")
    solver = solver or CoordSolver(mats)
    parities = [_mat_parity(M, mdim) for M in mats]
    c_ab = 1 if lie else Fraction(1, 2)
    table = {}
    for i, A in enumerate(mats):
        for j in range(i, len(mats)):
            B = mats[j]
            # the product of (B, A) is mirror times the product of (A, B)
            mirror = (-1 if parities[i] and parities[j] else 1) * (-1 if lie else 1)
            prod: dict = {}
            vec_iadd(prod, _mat_mul(A, B), c_ab)
            vec_iadd(prod, _mat_mul(B, A), mirror * c_ab)
            if not prod:
                continue
            sol = solver.solve(prod)
            if sol is None:
                raise ValueError(f"a product leaves the span of {name}")
            entry = {k: c for k, c in enumerate(sol) if c}
            table[(i, j)] = entry
            table[(j, i)] = entry if mirror > 0 else {k: -c for k, c in entry.items()}
    return FiniteSuperAlgebra(labels, parities, table, name=name)


def glplus(m: int, n: int) -> FiniteSuperAlgebra:
    """Endomorphisms of an (m|n) space under the symmetrized product."""
    size = m + n
    mats = []
    labels = []
    for r in range(size):
        for c in range(size):
            mats.append({(r, c): Fraction(1)})
            labels.append(f"E{r+1},{c+1}")
    alg = _algebra_from_matrices(mats, m, labels, f"gl({m},{n})+")
    ev, od = alg.sdim()
    assert (ev, od) == (m * m + n * n, 2 * m * n)
    return alg


def _sup_transpose(M: dict, mdim: int) -> dict:
    # block transpose [[a^t, c^t], [-b^t, d^t]]
    out = {}
    for (r, c), v in M.items():
        sign = -1 if (r < mdim and c >= mdim) else 1
        out[(c, r)] = v if sign > 0 else -v
    return out


def ospplus(m: int, n: int) -> FiniteSuperAlgebra:
    """Selfadjoint endomorphisms for the supersymmetric form diag(I_m, J_n),
    J the standard skew block (n even)."""
    if n % 2:
        raise ValueError("odd part of the form must be even-dimensional")
    r = n // 2
    size = m + n
    B: dict = {(i, i): Fraction(1) for i in range(m)}
    Binv: dict = dict(B)
    for i in range(r):
        B[(m + i, m + r + i)] = Fraction(1)
        B[(m + r + i, m + i)] = Fraction(-1)
        Binv[(m + i, m + r + i)] = Fraction(-1)
        Binv[(m + r + i, m + i)] = Fraction(1)

    def star(M: dict) -> dict:
        return _mat_mul(_mat_mul(Binv, _sup_transpose(M, m)), B)

    mats, labels = _selfadjoint_basis(size, star)
    alg = _algebra_from_matrices(mats, m, labels, f"osp({m},{n})+")
    ev, od = alg.sdim()
    assert (ev, od) == (m * (m + 1) // 2 + n * (n - 1) // 2, m * n)
    return alg


def pplus(n: int) -> FiniteSuperAlgebra:
    """Selfadjoint endomorphisms for the odd form [[0, I], [I, 0]], whose
    star sends blocks [[a, b], [c, d]] to [[d^t, b^t], [-c^t, a^t]]."""
    size = 2 * n

    def star(M: dict) -> dict:
        out = {}
        for (r, c), v in M.items():
            if r < n and c < n:  # alpha_{rc} -> alpha slot of image is delta^t
                out[(n + c, n + r)] = v
            elif r < n <= c:  # beta_{r,c-n} -> beta_{c-n,r}
                out[(c - n, n + r)] = v
            elif r >= n > c:  # gamma_{r-n,c} -> -gamma_{c,r-n}
                out[(n + c, r - n)] = -v
            else:  # delta_{r-n,c-n} -> alpha_{c-n,r-n}
                out[(c - n, r - n)] = v
        return out

    mats, labels = _selfadjoint_basis(size, star)
    alg = _algebra_from_matrices(mats, n, labels, f"p({n})+")
    ev, od = alg.sdim()
    assert (ev, od) == (n * n, n * n)
    return alg


def qplus(n: int) -> FiniteSuperAlgebra:
    """Endomorphisms commuting with the odd swap operator."""
    size = 2 * n
    mats = []
    labels = []
    for r in range(n):
        for c in range(n):
            mats.append({(r, c): Fraction(1), (n + r, n + c): Fraction(1)})
            labels.append(f"A{r+1},{c+1}")
    for r in range(n):
        for c in range(n):
            mats.append({(r, n + c): Fraction(1), (n + r, c): Fraction(1)})
            labels.append(f"B{r+1},{c+1}")
    alg = _algebra_from_matrices(mats, n, labels, f"q({n})+")
    ev, od = alg.sdim()
    assert (ev, od) == (n * n, n * n)
    return alg


def _selfadjoint_basis(size, star, prefix="S"):
    """Echelon basis of U + U* over the matrix units U, deduplicated, for an
    involution star; labelled by the unit U it came from."""
    ech = Echelon()
    mats = []
    labels = []
    for r in range(size):
        for c in range(size):
            U = {(r, c): Fraction(1)}
            Us = star(U)
            assert star(Us) == U, "star is not an involution"
            cand: dict = dict(U)
            vec_iadd(cand, Us)
            if cand and ech.insert(cand) is not None:
                mats.append(cand)
                labels.append(f"{prefix}{r+1},{c+1}")
    return mats, labels


# -- abstract tables -----------------------------------------------------------------


def formplus(m: int, n: int) -> FiniteSuperAlgebra:
    """Unit plus an (m|n) space with a supersymmetric form: identity on the
    even part, the standard skew pairing on the odd part (n even)."""
    if n % 2:
        raise ValueError("odd part must be even-dimensional")
    r = n // 2
    labels = ["e"] + [f"v{i+1}" for i in range(m)] + [f"w{j+1}" for j in range(n)]
    parities = [0] * (1 + m) + [1] * n
    dim = 1 + m + n
    table: dict = {}
    for i in range(dim):
        table[(0, i)] = {i: Fraction(1)}
        table[(i, 0)] = {i: Fraction(1)}
    table[(0, 0)] = {0: Fraction(1)}
    for i in range(m):
        table[(1 + i, 1 + i)] = {0: Fraction(1)}
    for j in range(r):
        a = 1 + m + j
        b = 1 + m + r + j
        table[(a, b)] = {0: Fraction(1)}
        table[(b, a)] = {0: Fraction(-1)}
    return FiniteSuperAlgebra(labels, parities, table, name=f"({m},{n})+")


def dt(t) -> FiniteSuperAlgebra:
    """The four-dimensional family: xi o eta = e1 + t e2."""
    t = Fraction(t)
    labels = ["e1", "e2", "xi", "eta"]
    parities = [0, 0, 1, 1]
    half = Fraction(1, 2)
    table = {
        (0, 0): {0: Fraction(1)},
        (1, 1): {1: Fraction(1)},
        (0, 2): {2: half}, (2, 0): {2: half},
        (0, 3): {3: half}, (3, 0): {3: half},
        (1, 2): {2: half}, (2, 1): {2: half},
        (1, 3): {3: half}, (3, 1): {3: half},
        (2, 3): {0: Fraction(1), 1: t},
        (3, 2): {0: Fraction(-1), 1: -t},
    }
    if t == 0:
        table[(2, 3)] = {0: Fraction(1)}
        table[(3, 2)] = {0: Fraction(-1)}
    return FiniteSuperAlgebra(labels, parities, table, name=f"D_t({t})")


def kalg() -> FiniteSuperAlgebra:
    """Three-dimensional non-unital: a idempotent halving xi1, xi2,
    xi1 o xi2 = a."""
    labels = ["a", "xi1", "xi2"]
    parities = [0, 1, 1]
    half = Fraction(1, 2)
    table = {
        (0, 0): {0: Fraction(1)},
        (0, 1): {1: half}, (1, 0): {1: half},
        (0, 2): {2: half}, (2, 0): {2: half},
        (1, 2): {0: Fraction(1)},
        (2, 1): {0: Fraction(-1)},
    }
    return FiniteSuperAlgebra(labels, parities, table, name="K")


def falg() -> FiniteSuperAlgebra:
    """The ten-dimensional exceptional algebra: unit plus K (x) K with
    (a (x) b)(c (x) d) = +-(ac (x) bd - 3/4 (a,c)(b,d) 1)."""
    K = kalg()
    kdim = 3
    kpar = K.parities
    form = {(0, 0): Fraction(1, 2), (1, 2): Fraction(1), (2, 1): Fraction(-1)}
    labels = ["1"] + [
        f"{K.labels[u]}(x){K.labels[v]}" for u in range(kdim) for v in range(kdim)
    ]
    parities = [0] + [
        (kpar[u] + kpar[v]) & 1 for u in range(kdim) for v in range(kdim)
    ]
    dim = 1 + kdim * kdim
    idx = lambda u, v: 1 + u * kdim + v
    table: dict = {(0, 0): {0: Fraction(1)}}
    for i in range(1, dim):
        table[(0, i)] = {i: Fraction(1)}
        table[(i, 0)] = {i: Fraction(1)}
    for u1 in range(kdim):
        for v1 in range(kdim):
            for u2 in range(kdim):
                for v2 in range(kdim):
                    sign = -1 if (kpar[v1] and kpar[u2]) else 1
                    prod: dict = {}
                    vv = K.product(v1, v2)
                    for w, cw in K.product(u1, u2).items():
                        vec_iadd(prod, {idx(w, z): cz for z, cz in vv.items()}, sign * cw)
                    fc = form.get((u1, u2), Fraction(0)) * form.get((v1, v2), Fraction(0))
                    if fc:
                        vec_iadd(prod, {0: -Fraction(3, 4) * fc}, sign)
                    table[(idx(u1, v1), idx(u2, v2))] = prod
    return FiniteSuperAlgebra(labels, parities, table, name="F")


# -- doubles and polynomial carriers -----------------------------------------------


def _poly_coords(ints: dict, S: int, pos: dict, deg: int, sign: int = 1,
                 drop_const: bool = False):
    """Coordinates over the monomial basis `pos` of the polynomial with
    term dict ints / S (ints[mono] = S * coeff, an int), multiplied by
    sign = +-1: each coordinate is made once, as the Fraction
    sign * ints[mono] / S.  None when a term leaves the degree span.
    drop_const drops the constant term (a bracket modulo constants)."""
    vec = {}
    for mono, v in ints.items():
        d = mono_degree(mono)
        if d > deg:
            return None
        if d or not drop_const:
            vec[pos[mono]] = Fraction(sign * v, S)
    return vec


def _poly_table(monos, deg, kernel, parity_shift, name,
                drop_const=False) -> FiniteSuperAlgebra:
    """The table on a monomial basis from an int monomial kernel
    (S, kern), the shape `brackets.bracket_kernel` returns: kern(a, b) is
    the term dict of S (a o b) as ints, and entry (i, j) is its
    coordinates divided by S (`_poly_coords`).  A pair is out of span when
    a term has degree above deg.  Parities are the monomial parities plus
    parity_shift.  Both orders of every pair are computed: supercommutativity
    of such a table is a property to check, not an assumption."""
    S, kern = kernel
    pos = {mo: i for i, mo in enumerate(monos)}
    table = {}
    oos = set()
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            vec = _poly_coords(kern(a, b), S, pos, deg, drop_const=drop_const)
            if vec is None:
                oos.add((i, j))
            else:
                table[(i, j)] = vec
    labels = [render_monomial(mo) for mo in monos]
    parities = [(mono_parity(mo) + parity_shift) & 1 for mo in monos]
    return FiniteSuperAlgebra(labels, parities, table, oos, name=name)


def kkm_formula(spec: BracketSpec, deg: int = 3, negate_bracket: bool = False):
    """The product of the double A + eta A over the degree-<= deg monomial
    span of the bracket algebra, on monomial pairs: the one statement of
    the formula, which `kkm_double` tabulates and `kkm_product` reads pair
    by pair.  eta a o eta b = (-1)^{p(a)} {a, b}_D for D the derivation
    attached to the spec (the "dmod" bracket kind); for a Poisson spec
    (D = 0) the modified bracket is the bracket itself.

    Returns (monos, plain, eta_eta).  The double's basis is e_i = monos[i]
    and e_{N+i} = eta monos[i], N = len(monos); both functions give
    coordinates over it.  plain(a, b) is the three products a o b = ab,
    eta a o b = eta(ab) and a o eta b = (-1)^{p(a)} eta(ab) from
    `mono_mul` (scale 1), or None when ab leaves the span.  eta_eta(a, b)
    is eta a o eta b from the kernel of the "dmod" spec, the ints
    S {a, b}_D at S = spec_scale of that spec divided by S once per
    coordinate (`_poly_coords`), or None out of span.
    """
    if deg < 0:
        raise ValueError("deg >= 0")
    S, dkern = bracket_kernel(BracketSpec.d_modified(spec))
    bsign = -1 if negate_bracket else 1
    monos = monomials_total_degree(spec.m, spec.n, deg)
    pos = {mo: i for i, mo in enumerate(monos)}
    N = len(monos)
    unit = {1: Fraction(1), -1: Fraction(-1)}

    def plain(a, b):
        r = mono_mul(a, b)
        if r is None:
            return {}, {}, {}
        sign, ab = r
        if mono_degree(ab) > deg:
            return None
        p, c = pos[ab], unit[sign]
        return {p: c}, {N + p: c}, {N + p: unit[-sign] if mono_parity(a) else c}

    def eta_eta(a, b):
        sign = -bsign if mono_parity(a) else bsign
        return _poly_coords(dkern(a, b), S, pos, deg, sign=sign)

    return monos, plain, eta_eta


def kkm_product(formula):
    """e_p o e_q of the double on its basis indices, from `kkm_formula`'s
    per-pair functions: the eta-eta kernel for an eta-eta pair, else the
    plain block of the pair.  Nothing is tabulated."""
    monos, plain, eta_eta = formula
    N = len(monos)

    def product(p, q):
        a, b = monos[p % N], monos[q % N]
        if p >= N and q >= N:
            return eta_eta(a, b)
        blocks = plain(a, b)
        return None if blocks is None else blocks[(p >= N) + 2 * (q >= N)]

    return product


def kkm_double(spec: BracketSpec, deg: int = 3, name: str = "",
               negate_bracket: bool = False) -> FiniteSuperAlgebra:
    """The table of the double A + eta A of `kkm_formula`.  Products whose
    result leaves the span are flagged out-of-span, never dropped."""
    monos, plain, eta_eta = kkm_formula(spec, deg, negate_bracket)
    N = len(monos)
    labels = [render_monomial(mo) for mo in monos] + [
        "eta*" + render_monomial(mo) for mo in monos
    ]
    parities = [mono_parity(mo) for mo in monos] + [
        (mono_parity(mo) + 1) & 1 for mo in monos
    ]
    table: dict = {}
    oos = set()
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            blocks = plain(a, b)
            if blocks is None:
                oos.update(((i, j), (N + i, j), (i, N + j)))
            elif blocks[0]:
                table[(i, j)], table[(N + i, j)], table[(i, N + j)] = blocks
            vec = eta_eta(a, b)
            if vec is None:
                oos.add((N + i, N + j))
            elif vec:
                table[(N + i, N + j)] = vec
    return FiniteSuperAlgebra(labels, parities, table, oos,
                              name=name or f"KKM({spec.m},{spec.n},deg{deg})")


def jp_finite(n: int) -> FiniteSuperAlgebra:
    """The finite double over the full Grassmann algebra on n odd generators
    with the diagonal bracket {xi_j, xi_j} = -1."""
    spec = BracketSpec.diagonal(0, n)
    alg = kkm_double(spec, deg=n, name=f"JP(0,{n})")
    assert alg.is_total()
    assert alg.sdim() == (2**n, 2**n)
    return alg


def jp(m: int, n: int, deg: int = 3) -> FiniteSuperAlgebra:
    """Degree-truncated double of the standard bracket on (m, n): the "h"
    bracket for even m = 2k, the contact "k" bracket for odd m = 2k+1."""
    if m < 1:
        raise ValueError("use jp_finite for m = 0")
    if m % 2 == 0:
        spec = BracketSpec.h_type(m // 2, n)
    else:
        spec = BracketSpec.k_type((m - 1) // 2, n)
    return kkm_double(spec, deg=deg, name=f"JP({m},{n})|deg{deg}")


_CROSS = {
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}

_HUNITS = ("1", "i", "j", "k")


def build_jck(deg: int) -> FiniteSuperAlgebra:
    """Degree-truncated double built from polynomials tensored with the
    degenerate quaternions, over Q.

    The units i, j, k are real quaternion units: (f (x) u) o (g (x) u) =
    -fg (x) 1 for u != 1, and for u != v, both != 1, with u v = eps w in
    the quaternions, eta(f (x) u) o (g (x) v) = -eps eta(fg (x) w).  This
    is the Pauli-type form of the double (u o u = +1, mixed products
    i eps eta(fg (x) w)) written in the basis e' = i e for every basis
    vector e whose unit is i, j or k, in both halves, so c'_rc^k =
    c_rc^k l_r l_c / l_k with l in {1, i}.  Over an algebraically closed
    field the two tables describe the same algebra, and every constant of
    this one is an integer."""
    if deg < 1:
        raise ValueError("deg >= 1")
    units = _HUNITS
    base = [(a, u) for a in range(deg + 1) for u in units]
    N = len(base)
    labels = [f"x^{a}(x){u}" for a, u in base] + [f"eta*x^{a}(x){u}" for a, u in base]
    parities = [0] * N + [1] * N
    pos = {b: i for i, b in enumerate(base)}
    one = Fraction(1)
    table: dict = {}
    oos = set()

    def put(r, c, entries):
        # entries: list of (coeff, xdeg, unit, eta)
        vec = {}
        for coeff, a, u, eta in entries:
            if not coeff:
                continue
            if a > deg:
                oos.add((r, c))
                return
            vec_iadd(vec, {pos[(a, u)] + (N if eta else 0): coeff})
        table[(r, c)] = vec

    for r, (a, u) in enumerate(base):
        for c, (b, v) in enumerate(base):
            # even o even
            if u == "1":
                put(r, c, [(one, a + b, v, False)])
            elif v == "1":
                put(r, c, [(one, a + b, u, False)])
            else:
                put(r, c, [(-one, a + b, "1", False)] if u == v else [])
            # eta f o g
            if v == "1":
                put(N + r, c, [(one, a + b, u, True)])
            elif u == "1":
                put(N + r, c, [(Fraction(b), a + b - 1, v, True)] if b else [])
            else:
                s, w = _CROSS.get((u, v), (0, "1"))
                put(N + r, c, [(Fraction(-s), a + b, w, True)] if s else [])
            # f o eta g  (even x odd: equal to eta g o f by commutativity)
            if u == "1":
                put(r, N + c, [(one, a + b, v, True)])
            elif v == "1":
                put(r, N + c, [(Fraction(a), a + b - 1, u, True)] if a else [])
            else:
                s, w = _CROSS.get((v, u), (0, "1"))
                put(r, N + c, [(Fraction(-s), a + b, w, True)] if s else [])
            # eta f o eta g
            if u == "1" and v == "1":
                put(N + r, N + c, [(Fraction(a - b), a + b - 1, "1", False)]
                    if a != b else [])
            elif u != "1" and v == "1":
                put(N + r, N + c, [(one, a + b, u, False)])
            elif u == "1" and v != "1":
                put(N + r, N + c, [(-one, a + b, v, False)])
            else:
                put(N + r, N + c, [])
    return FiniteSuperAlgebra(labels, parities, table, oos, name=f"JCK|deg{deg}")


def build_js(deg: int) -> FiniteSuperAlgebra:
    """The odd-derivation double on polynomials in one even and one odd
    generator, truncated at x-degree deg; parities are reversed (x^a odd,
    x^a xi even).  deg = 0 is the degenerate two-dimensional control."""
    if deg < 0:
        raise ValueError("deg >= 0")
    N = deg + 1
    labels = [f"x^{a}" for a in range(N)] + [f"x^{a} xi" for a in range(N)]
    parities = [1] * N + [0] * N
    table: dict = {}
    oos = set()
    for a in range(N):
        for b in range(N):
            # x^a o x^b = (b - a) x^{a+b-1} xi
            co = b - a
            if co:
                if a + b - 1 <= deg:
                    table[(a, b)] = {N + a + b - 1: Fraction(co)}
                else:
                    oos.add((a, b))
            # x^a o x^b xi = x^{a+b} ; x^a xi o x^b = x^{a+b}
            if a + b <= deg:
                table[(a, N + b)] = {a + b: Fraction(1)}
                table[(N + a, b)] = {a + b: Fraction(1)}
                table[(N + a, N + b)] = {N + a + b: Fraction(2)}
            else:
                oos.add((a, N + b))
                oos.add((N + a, b))
                oos.add((N + a, N + b))
    return FiniteSuperAlgebra(labels, parities, table, oos, name=f"JS|deg{deg}")


# -- catalog ------------------------------------------------------------------------


def _dt_family(m, n, t, deg) -> FiniteSuperAlgebra:
    if t is None:
        raise ValueError("Dt needs --t")
    return dt(t)


# the catalog families: (tag, the CLI parameters it reads, builder(m, n, t, deg))
FAMILIES = (
    ("GLplus", "--m --n", lambda m, n, t, deg: glplus(m, n)),
    ("OSPplus", "--m --n  (n even)", lambda m, n, t, deg: ospplus(m, n)),
    ("FORMplus", "--m --n  (n even)", lambda m, n, t, deg: formplus(m, n)),
    ("Pplus", "--n", lambda m, n, t, deg: pplus(n)),
    ("Qplus", "--n", lambda m, n, t, deg: qplus(n)),
    ("Dt", "--t", _dt_family),
    ("Kalg", "", lambda m, n, t, deg: kalg()),
    ("Falg", "", lambda m, n, t, deg: falg()),
    ("JPfinite", "--n", lambda m, n, t, deg: jp_finite(n)),
    ("JP", "--m --n --deg", lambda m, n, t, deg: jp_finite(n) if m == 0 else jp(m, n, deg)),
    ("JCK", "--deg", lambda m, n, t, deg: build_jck(deg)),
    ("JS", "--deg", lambda m, n, t, deg: build_js(deg)),
)


def build(family: str, m: int = 0, n: int = 0, t=None, deg: int = 3) -> FiniteSuperAlgebra:
    """Build a catalog algebra by its `FAMILIES` tag, in any letter case."""
    for tag, _params, builder in FAMILIES:
        if tag.lower() == family.lower():
            return builder(m, n, t, deg)
    raise ValueError(f"unknown family {family!r}")


def identity_catalog():
    """The desk-scale identity-verification battery: (name, builder thunk)
    pairs in a fixed order."""
    entries = []
    for mm in range(0, 5):
        for nn in range(0, 5 - mm):
            if (mm, nn) != (0, 0):
                entries.append((f"gl({mm},{nn})+", lambda a=mm, b=nn: glplus(a, b)))
    osp_params = [(0, 4), (0, 6), (1, 2), (1, 4), (1, 6), (2, 2), (2, 4), (2, 6),
                  (3, 2), (3, 4), (4, 2), (4, 4), (5, 2), (6, 2)]
    for mm, nn in osp_params:
        entries.append((f"osp({mm},{nn})+", lambda a=mm, b=nn: ospplus(a, b)))
    for mm in range(0, 7):
        for nn in (0, 2, 4, 6):
            if 1 <= mm + nn <= 6:
                entries.append((f"({mm},{nn})+", lambda a=mm, b=nn: formplus(a, b)))
    for nn in (1, 2, 3):
        entries.append((f"p({nn})+", lambda a=nn: pplus(a)))
        entries.append((f"q({nn})+", lambda a=nn: qplus(a)))
    for tv in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 7)):
        entries.append((f"D_t({tv})", lambda a=tv: dt(a)))
    entries.append(("K", kalg))
    entries.append(("F", falg))
    for nn in (1, 2, 3):
        entries.append((f"JP(0,{nn})", lambda a=nn: jp_finite(a)))
    for mm in (1, 2):
        for nn in (0, 1, 2):
            entries.append((f"JP({mm},{nn})|deg3", lambda a=mm, b=nn: jp(a, b, 3)))
    entries.append(("JCK|deg3", lambda: build_jck(3)))
    entries.append(("JS|deg4", lambda: build_js(4)))
    return entries


def unital_identity_catalog():
    """The total (non-truncated) unital entries of the identity battery."""
    out = []
    for name, thunk in identity_catalog():
        J = thunk()
        if J.is_total() and J.find_unit() is not None:
            out.append((name, J))
    return out


# -- shipped isomorphism witnesses ---------------------------------------------------


def load_witness(name: str) -> IsoWitness:
    """Load a shipped witness fixture by base name (no extension)."""
    import json
    from importlib import resources

    data = json.loads(
        resources.files("jsalg.fixtures").joinpath(f"{name}.json").read_text()
    )
    src = FiniteSuperAlgebra.from_json_dict(data["source"])
    tgt = FiniteSuperAlgebra.from_json_dict(data["target"])
    matrix = [[Fraction(x) for x in row] for row in data["matrix"]]
    return IsoWitness(src, tgt, matrix)


def witness_jp01_to_gl11() -> IsoWitness:
    return load_witness("witness_jp01_gl11")


def witness_form12_to_d1() -> IsoWitness:
    return load_witness("witness_form12_d1")


def witness_dt_inverse(t) -> IsoWitness:
    """Swap the idempotents and rescale one odd generator."""
    t = Fraction(t)
    if not t:
        raise ValueError("t must be nonzero")
    src = dt(t)
    tgt = dt(1 / t)
    matrix = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, t, 0],
        [0, 0, 0, 1],
    ]
    return IsoWitness(src, tgt, matrix)
