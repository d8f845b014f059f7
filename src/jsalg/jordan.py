"""Finite-dimensional superalgebra tables, the catalog of Jordan superalgebra
families, the KKM double, and the exact identity / simplicity / isomorphism
checkers.

A FiniteSuperAlgebra stores sparse structure constants over Fraction (or, for
the quaternion-flavoured double, GaussRational) scalars.  Truncated carriers
mark basis pairs whose product leaves the spanned degree range as
out-of-span; every checker skips exactly the tuples that would need such a
product and reports the certified count, so a pass is always an exact claim
about a stated finite set.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .brackets import BracketSpec, DerivationD, bracket, d_modified
from .linalg import Echelon, solve_linear
from .report import DetRand, Report
from .scalars import GaussRational
from .superpoly import (
    SuperPoly,
    mono_degree,
    mono_parity,
    monomials_total_degree,
    render_monomial,
)


class FiniteSuperAlgebra:
    """Based Z/2-graded algebra with a sparse structure-constant table.

    table[(i, j)] is a dict k -> coefficient for e_i o e_j (missing pair =
    zero product); pairs in out_of_span have no stored product at all.
    """

    def __init__(self, labels, parities, table, out_of_span=(), name=""):
        self.labels = list(labels)
        self.parities = list(parities)
        self.table = {k: dict(v) for k, v in table.items() if v}
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

    def mul_vectors(self, u: dict, v: dict):
        """Product of two coordinate vectors; None if it needs an
        out-of-span pair."""
        out: dict = {}
        for i, ci in u.items():
            if not ci:
                continue
            for j, cj in v.items():
                if not cj:
                    continue
                prod = self.product(i, j)
                if prod is None:
                    return None
                c = ci * cj
                for k, x in prod.items():
                    s = out.get(k)
                    if s is None:
                        out[k] = c * x
                    else:
                        s = s + c * x
                        if s:
                            out[k] = s
                        else:
                            del out[k]
        return out

    def parity_consistent(self) -> bool:
        for (i, j), vec in self.table.items():
            q = (self.parities[i] + self.parities[j]) & 1
            if any(self.parities[k] != q for k in vec):
                return False
        return True

    def commutativity_defect(self):
        """First (i, j, k) violating supercommutativity, or None."""
        for i in range(self.dim):
            for j in range(self.dim):
                a = self.product(i, j)
                b = self.product(j, i)
                if (a is None) != (b is None):
                    return (i, j, -1)
                if a is None:
                    continue
                s = -1 if (self.parities[i] and self.parities[j]) else 1
                keys = set(a) | set(b)
                for k in keys:
                    if a.get(k, 0) != s * b.get(k, 0):
                        return (i, j, k)
        return None

    def anticommutativity_defect(self):
        for i in range(self.dim):
            for j in range(self.dim):
                a = self.product(i, j)
                b = self.product(j, i)
                if (a is None) != (b is None):
                    return (i, j, -1)
                if a is None:
                    continue
                s = 1 if (self.parities[i] and self.parities[j]) else -1
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
        target = {(j, j): _one_like(self) for j in range(self.dim)}
        sol = solve_linear(columns, target)
        if sol is None:
            return None
        return {usable[idx]: c for idx, c in enumerate(sol) if c}

    def to_json_dict(self) -> dict:
        if any(isinstance(c, GaussRational) for vec in self.table.values() for c in vec.values()):
            raise ValueError("structure constants outside Q cannot be exported")
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
        labels = [b["label"] for b in d["basis"]]
        parities = [int(b["parity"]) for b in d["basis"]]
        if any(p not in (0, 1) for p in parities):
            raise ValueError("parities must be 0 or 1")
        table: dict = {}
        for i, j, k, num, den in d.get("c", []):
            table.setdefault((i, j), {})[k] = Fraction(num, den)
        oos = frozenset(tuple(p) for p in d.get("outOfSpan", []))
        alg = FiniteSuperAlgebra(labels, parities, table, oos, name=d.get("name", ""))
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


def _one_like(J: FiniteSuperAlgebra):
    for vec in J.table.values():
        for c in vec.values():
            if isinstance(c, GaussRational):
                return GaussRational(1)
    return Fraction(1)


# -- scaled tables for the hot identity loops -----------------------------------


def _scaled_products(J: FiniteSuperAlgebra):
    """Products with denominators cleared to plain ints when the table is
    rational (identities are homogeneous, so scaling preserves zero-tests);
    GaussRational tables are used as-is."""
    dens = set()
    rational = True
    for vec in J.table.values():
        for c in vec.values():
            if isinstance(c, GaussRational):
                rational = False
                break
            dens.add(c.denominator)
        if not rational:
            break
    prods: dict = {}
    if rational:
        scale = 1
        for d in dens:
            scale = scale * d // _gcd(scale, d)
        for (i, j), vec in J.table.items():
            prods[(i, j)] = {k: int(c * scale) for k, c in vec.items()}
    else:
        for (i, j), vec in J.table.items():
            prods[(i, j)] = dict(vec)
    return prods


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _vec_mul(prods, oos, u: dict, v: dict):
    out: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            if (i, j) in oos:
                return None
            prod = prods.get((i, j))
            if not prod:
                continue
            c = ci * cj
            for k, x in prod.items():
                s = out.get(k)
                if s is None:
                    out[k] = c * x
                else:
                    s = s + c * x
                    if s:
                        out[k] = s
                    else:
                        del out[k]
    return out


def _basis_mul(prods, oos, i: int, j: int):
    if (i, j) in oos:
        return None
    return prods.get((i, j), {})


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
    prods = _scaled_products(J)
    oos = J.out_of_span
    par = J.parities
    dim = J.dim
    certified = 0
    skipped = 0
    ce = None
    for a in range(dim):
        if ce:
            break
        for b in range(a, dim):
            if ce:
                break
            for c in range(b, dim):
                ab = _basis_mul(prods, oos, a, b)
                bc = _basis_mul(prods, oos, b, c)
                ca = _basis_mul(prods, oos, c, a)
                if ab is None or bc is None or ca is None:
                    skipped += dim
                    continue
                pa, pb, pc = par[a], par[b], par[c]
                s1 = -1 if (pa and pc) else 1
                s2 = -1 if (pb and pa) else 1
                s3 = -1 if (pc and pb) else 1
                q1 = (pa + pb) & 1
                q2 = (pb + pc) & 1
                q3 = (pc + pa) & 1
                for x in range(dim):
                    res = _jordan_terms(
                        prods, oos, par, ab, bc, ca, a, b, c, x,
                        s1, s2, s3, q1, q2, q3,
                    )
                    if res is None:
                        skipped += 1
                        continue
                    certified += 1
                    if res:
                        ce = {
                            "indices": [a, b, c, x],
                            "labels": [J.labels[t] for t in (a, b, c, x)],
                            "residualCoords": {str(k): str(v) for k, v in res.items()},
                        }
                        break
                if ce:
                    break
    span = {
        "dim": J.dim,
        "certifiedQuadruples": certified,
        "skippedQuadruples": skipped,
        "quantifier": "multisets a<=b<=c times all x",
    }
    if ce is None and certified == 0:
        ce = {"reason": "no quadruple could be certified"}
    return Report(
        "jordan-identity",
        params,
        span,
        "pass" if ce is None else "fail",
        ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


def _jordan_terms(prods, oos, par, ab, bc, ca, a, b, c, x, s1, s2, s3, q1, q2, q3):
    """Residual of the Jordan identity applied to x; None when uncertified."""
    res: dict = {}
    for u_vec, w, s, q in ((ab, c, s1, q1), (bc, a, s2, q2), (ca, b, s3, q3)):
        wx = _basis_mul(prods, oos, w, x)
        if wx is None:
            return None
        t1 = _vec_mul(prods, oos, u_vec, wx)
        if t1 is None:
            return None
        ux = _vec_mul(prods, oos, u_vec, {x: 1})
        if ux is None:
            return None
        t2 = _vec_mul(prods, oos, {w: 1}, ux)
        if t2 is None:
            return None
        sw = -1 if (q and par[w]) else 1
        for k, v in t1.items():
            sacc = res.get(k)
            vv = v if s > 0 else -v
            if sacc is None:
                if vv:
                    res[k] = vv
            else:
                sacc = sacc + vv
                if sacc:
                    res[k] = sacc
                else:
                    del res[k]
        for k, v in t2.items():
            vv = v if (s * sw) > 0 else -v
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
    return res


def check_relation10(J: FiniteSuperAlgebra, workers=None) -> Report:
    """[[L_a, L_b], L_c] = (-1)^{p(b)p(c)} L_{a o (c o b) - (a o c) o b} on all
    ordered basis triples applied to every basis element in span."""
    t0 = time.perf_counter()
    params = {"algebra": J.name, "dim": J.dim}
    prods = _scaled_products(J)
    oos = J.out_of_span
    par = J.parities
    dim = J.dim
    certified = 0
    skipped = 0
    ce = None
    for a in range(dim):
        if ce:
            break
        pa = par[a]
        for b in range(dim):
            if ce:
                break
            pb = par[b]
            s_ab = -1 if (pa and pb) else 1
            # K(x) = a o (b o x) - (-1)^{pa pb} b o (a o x)
            Kx = []
            for x in range(dim):
                bx = _basis_mul(prods, oos, b, x)
                ax = _basis_mul(prods, oos, a, x)
                if bx is None or ax is None:
                    Kx.append(None)
                    continue
                t1 = _vec_mul(prods, oos, {a: 1}, bx)
                t2 = _vec_mul(prods, oos, {b: 1}, ax)
                if t1 is None or t2 is None:
                    Kx.append(None)
                    continue
                acc = dict(t1)
                for k, v in t2.items():
                    vv = v if s_ab > 0 else -v
                    s = acc.get(k)
                    if s is None:
                        if vv:
                            acc[k] = -vv
                    else:
                        s = s - vv
                        if s:
                            acc[k] = s
                        else:
                            del acc[k]
                Kx.append(acc)
            for c in range(dim):
                pc = par[c]
                cb = _basis_mul(prods, oos, c, b)
                ac = _basis_mul(prods, oos, a, c)
                if cb is None or ac is None:
                    skipped += dim
                    continue
                v1 = _vec_mul(prods, oos, {a: 1}, cb)
                v2 = _vec_mul(prods, oos, ac, {b: 1})
                if v1 is None or v2 is None:
                    skipped += dim
                    continue
                v = dict(v1)
                for k, val in v2.items():
                    s = v.get(k)
                    if s is None:
                        if val:
                            v[k] = -val
                    else:
                        s = s - val
                        if s:
                            v[k] = s
                        else:
                            del v[k]
                s_rhs = -1 if (pb and pc) else 1
                s_kc = -1 if (((pa + pb) & 1) and pc) else 1
                for x in range(dim):
                    cx = _basis_mul(prods, oos, c, x)
                    if cx is None or Kx[x] is None:
                        skipped += 1
                        continue
                    # K(c o x)
                    lhs: dict = {}
                    bad = False
                    for y, cy in cx.items():
                        if Kx[y] is None:
                            bad = True
                            break
                        for k, val in Kx[y].items():
                            s = lhs.get(k)
                            if s is None:
                                if cy * val:
                                    lhs[k] = cy * val
                            else:
                                s = s + cy * val
                                if s:
                                    lhs[k] = s
                                else:
                                    del lhs[k]
                    if bad:
                        skipped += 1
                        continue
                    t2 = _vec_mul(prods, oos, {c: 1}, Kx[x])
                    if t2 is None:
                        skipped += 1
                        continue
                    for k, val in t2.items():
                        vv = val if s_kc > 0 else -val
                        s = lhs.get(k)
                        if s is None:
                            if vv:
                                lhs[k] = -vv
                        else:
                            s = s - vv
                            if s:
                                lhs[k] = s
                            else:
                                del lhs[k]
                    rhs = _vec_mul(prods, oos, v, {x: 1})
                    if rhs is None:
                        skipped += 1
                        continue
                    certified += 1
                    for k, val in rhs.items():
                        vv = val if s_rhs > 0 else -val
                        s = lhs.get(k)
                        if s is None:
                            if vv:
                                lhs[k] = -vv
                        else:
                            s = s - vv
                            if s:
                                lhs[k] = s
                            else:
                                del lhs[k]
                    if lhs:
                        ce = {
                            "indices": [a, b, c, x],
                            "labels": [J.labels[t] for t in (a, b, c, x)],
                        }
                        break
                if ce:
                    break
    span = {
        "dim": J.dim,
        "certifiedQuadruples": certified,
        "skippedQuadruples": skipped,
        "quantifier": "ordered triples times all x",
    }
    if ce is None and certified == 0:
        ce = {"reason": "no quadruple could be certified"}
    return Report(
        "jordan-relation10",
        params,
        span,
        "pass" if ce is None else "fail",
        ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


# -- simplicity and isomorphism ---------------------------------------------------


def ideal_closure(J: FiniteSuperAlgebra, seed_vec: dict) -> Echelon:
    """Span of the smallest left-multiplication-stable subspace containing
    seed_vec (= the ideal it generates, for (anti)commutative tables)."""
    if not J.is_total():
        raise ValueError("ideal closure needs a total product table")
    return _closure(J, seed_vec)


def _closure(J: FiniteSuperAlgebra, seed_vec: dict) -> Echelon:
    """The ideal closure loop; a product that leaves a truncated table's
    span is skipped."""
    ech = Echelon()
    frontier = []
    if ech.insert(dict(seed_vec)) is not None:
        frontier.append(dict(seed_vec))
    table, oos = J.table, J.out_of_span
    while frontier:
        new_frontier = []
        for w in frontier:
            for i in range(J.dim):
                prod: dict = {}
                for j, cj in w.items():
                    if (i, j) in oos:
                        continue
                    for k, x in table.get((i, j), {}).items():
                        s = prod.get(k)
                        if s is None:
                            prod[k] = cj * x
                        else:
                            s = s + cj * x
                            if s:
                                prod[k] = s
                            else:
                                del prod[k]
                if prod and ech.insert(prod) is not None:
                    new_frontier.append(prod)
        frontier = new_frontier
    return ech


def check_simple(J: FiniteSuperAlgebra, seed: int = 0, samples: int = 50) -> bool:
    """True iff the product is nonzero and the ideal closure of every basis
    vector and of `samples` seeded pseudo-random rational vectors is the
    whole algebra.  The sampled part makes this a declared probabilistic
    check; for the catalog sizes here it is decisive.  On a truncated table
    products out of span are skipped, so every closure must reach the whole
    stated span without them."""
    if not J.table:
        return False
    dim = J.dim
    vectors = [{i: Fraction(1)} for i in range(dim)]
    rng = DetRand(seed)
    for _ in range(samples):
        v = {}
        for i in range(dim):
            c = rng.rational()
            if c:
                v[i] = c
        if v:
            vectors.append(v)
    one = _one_like(J)
    if isinstance(one, GaussRational):
        vectors = [{i: GaussRational(c) for i, c in v.items()} for v in vectors]
    for v in vectors:
        if _closure(J, v).rank != dim:
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
        {"policy": "basis vectors + 50 sampled rational vectors (probabilistic)"},
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


def check_iso(w: IsoWitness) -> Report:
    """Exact verification: parity preservation, invertibility, and product
    intertwining on every source basis pair."""
    t0 = time.perf_counter()
    S, T = w.source, w.target
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
    ce = None
    for i in range(S.dim):
        for j in range(S.dim):
            prod = S.product(i, j)
            if prod is None:
                continue
            lhs = {}
            for k, c in prod.items():
                for t, x in w.image(k).items():
                    s = lhs.get(t)
                    v = c * x
                    if s is None:
                        if v:
                            lhs[t] = v
                    else:
                        s = s + v
                        if s:
                            lhs[t] = s
                        else:
                            del lhs[t]
            rhs = T.mul_vectors(w.image(i), w.image(j))
            if rhs is None or lhs != rhs:
                ce = {
                    "indices": [i, j],
                    "labels": [S.labels[i], S.labels[j]],
                }
                break
        if ce:
            break
    return Report(
        "iso-witness",
        params,
        {"pairs": S.dim * S.dim},
        "pass" if ce is None else "fail",
        ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


# -- matrix realizations -----------------------------------------------------------


def _mat_mul(A: dict, B: dict, size: int) -> dict:
    out: dict = {}
    cols: dict = {}
    for (r, c), v in B.items():
        cols.setdefault(r, []).append((c, v))
    for (r, c), v in A.items():
        for c2, w in cols.get(c, ()):  # A[r,c] B[c,c2]
            key = (r, c2)
            s = out.get(key)
            if s is None:
                out[key] = v * w
            else:
                s = s + v * w
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def _mat_parity(M: dict, mdim: int) -> int:
    par = None
    for (r, c) in M:
        q = ((r >= mdim) + (c >= mdim)) & 1
        if par is None:
            par = q
        elif par != q:
            raise ValueError("matrix not parity-homogeneous")
    return par or 0


def _algebra_from_matrices(mats, size, mdim, labels, name) -> FiniteSuperAlgebra:
    """Close a list of independent parity-homogeneous matrices under the
    symmetrized product and express the structure constants over them."""
    from .linalg import CoordSolver

    flats = [{r * size + c: v for (r, c), v in M.items()} for M in mats]
    solver = CoordSolver([dict(f) for f in flats])
    parities = [_mat_parity(M, mdim) for M in mats]
    table = {}
    half = Fraction(1, 2)
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            AB = _mat_mul(A, B, size)
            BA = _mat_mul(B, A, size)
            s = -1 if (parities[i] and parities[j]) else 1
            prod: dict = {}
            for key, v in AB.items():
                prod[key] = v * half
            for key, v in BA.items():
                w = v * half
                if s < 0:
                    w = -w
                t = prod.get(key)
                if t is None:
                    prod[key] = w
                else:
                    t = t + w
                    if t:
                        prod[key] = t
                    else:
                        del prod[key]
            sol = solver.solve({r * size + c: v for (r, c), v in prod.items()})
            if sol is None:
                raise ValueError("product leaves the matrix family span")
            entry = {k: c for k, c in enumerate(sol) if c}
            if entry:
                table[(i, j)] = entry
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
    alg = _algebra_from_matrices(mats, size, m, labels, f"gl({m},{n})+")
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
        return _mat_mul(_mat_mul(Binv, _sup_transpose(M, m), size), B, size)

    mats, labels = _selfadjoint_basis(size, m, star)
    alg = _algebra_from_matrices(mats, size, m, labels, f"osp({m},{n})+")
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

    mats, labels = _selfadjoint_basis(size, n, star)
    alg = _algebra_from_matrices(mats, size, n, labels, f"p({n})+")
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
    alg = _algebra_from_matrices(mats, size, n, labels, f"q({n})+")
    ev, od = alg.sdim()
    assert (ev, od) == (n * n, n * n)
    return alg


def _selfadjoint_basis(size, mdim, star):
    """Echelon basis of (U + U*)/1 over matrix units U, deduplicated."""
    ech = Echelon()
    mats = []
    labels = []
    for r in range(size):
        for c in range(size):
            U = {(r, c): Fraction(1)}
            Us = star(U)
            assert star(Us) == U, "star is not an involution"
            cand: dict = dict(U)
            for key, v in Us.items():
                s = cand.get(key)
                if s is None:
                    cand[key] = v
                else:
                    s = s + v
                    if s:
                        cand[key] = s
                    else:
                        del cand[key]
            if not cand:
                continue
            vec = {rr * size + cc: v for (rr, cc), v in cand.items()}
            if ech.insert(vec) is not None:
                mats.append(cand)
                labels.append(f"S{r+1},{c+1}")
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
                    uu = K.product(u1, u2)
                    vv = K.product(v1, v2)
                    for w, cw in uu.items():
                        for z, cz in vv.items():
                            c = cw * cz
                            key = idx(w, z)
                            s = prod.get(key)
                            if s is None:
                                prod[key] = c
                            else:
                                s = s + c
                                if s:
                                    prod[key] = s
                                else:
                                    del prod[key]
                    fc = form.get((u1, u2), Fraction(0)) * form.get((v1, v2), Fraction(0))
                    if fc:
                        c = -Fraction(3, 4) * fc
                        s = prod.get(0)
                        if s is None:
                            prod[0] = c
                        else:
                            s = s + c
                            if s:
                                prod[0] = s
                            else:
                                del prod[0]
                    if sign < 0:
                        prod = {k: -v for k, v in prod.items()}
                    if prod:
                        table[(idx(u1, v1), idx(u2, v2))] = prod
    return FiniteSuperAlgebra(labels, parities, table, name="F")


# -- doubles and polynomial carriers -----------------------------------------------


def kkm_double(spec: BracketSpec, D: DerivationD | None = None, deg: int = 3,
               name: str = "", negate_bracket: bool = False) -> FiniteSuperAlgebra:
    """The double A + eta A over the degree-<= deg monomial span of the
    bracket algebra, with eta a o eta b = (-1)^{p(a)} {a, b}_D.

    D defaults to the derivation attached to the spec; for a Poisson spec
    (D = 0) the modified bracket is the bracket itself.  Products whose
    result leaves the span are flagged out-of-span, never dropped.
    """
    m, n = spec.m, spec.n
    if D is None:
        D = spec.derivation()
    monos = monomials_total_degree(m, n, deg)
    pos = {mo: i for i, mo in enumerate(monos)}
    N = len(monos)
    labels = [render_monomial(mo, m, n) for mo in monos] + [
        "eta*" + render_monomial(mo, m, n) for mo in monos
    ]
    parities = [mono_parity(mo) for mo in monos] + [
        (mono_parity(mo) + 1) & 1 for mo in monos
    ]
    table: dict = {}
    oos = set()

    def put(i, j, poly: SuperPoly, eta: bool, sign: int = 1):
        if any(mono_degree(mo) > deg for mo in poly.terms):
            oos.add((i, j))
            return
        vec = {}
        for mo, c in poly.terms.items():
            k = pos[mo] + (N if eta else 0)
            vec[k] = c if sign > 0 else -c
        if vec:
            table[(i, j)] = vec

    one = Fraction(1)
    for i, a in enumerate(monos):
        pa = mono_parity(a)
        fa = SuperPoly(m, n, {a: one})
        for j, b in enumerate(monos):
            fb = SuperPoly(m, n, {b: one})
            ab = fa * fb
            # a o b = ab
            put(i, j, ab, eta=False)
            # eta a o b = eta(ab)
            put(N + i, j, ab, eta=True)
            # a o eta b = (-1)^{p(a)} eta(ab)
            put(i, N + j, ab, eta=True, sign=-1 if pa else 1)
            # eta a o eta b = (-1)^{p(a)} {a,b}_D
            br = d_modified(spec, D, fa, fb)
            if negate_bracket:
                br = -br
            put(N + i, N + j, br, eta=False, sign=-1 if pa else 1)
    alg = FiniteSuperAlgebra(labels, parities, table, oos, name=name or f"KKM({m},{n},deg{deg})")
    return alg


def jp_finite(n: int) -> FiniteSuperAlgebra:
    """The finite double over the full Grassmann algebra on n odd generators
    with the diagonal bracket {xi_j, xi_j} = -1."""
    spec = BracketSpec.diagonal(0, n, odd_sign=-1)
    alg = kkm_double(spec, DerivationD.zero(0, n), deg=n, name=f"JP(0,{n})")
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
    return kkm_double(spec, None, deg=deg, name=f"JP({m},{n})|deg{deg}")


_CROSS = {
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}

_HUNITS = ("1", "i", "j", "k")


def build_jck(deg: int) -> FiniteSuperAlgebra:
    """Degree-truncated double built from polynomials tensored with the
    degenerate quaternions; the mixed odd-even products carry the adjoined
    imaginary unit, so structure constants are GaussRational."""
    if deg < 1:
        raise ValueError("deg >= 1")
    units = _HUNITS
    base = [(a, u) for a in range(deg + 1) for u in units]
    N = len(base)
    labels = [f"x^{a}(x){u}" for a, u in base] + [f"eta*x^{a}(x){u}" for a, u in base]
    parities = [0] * N + [1] * N
    pos = {b: i for i, b in enumerate(base)}
    ii = GaussRational(0, 1)
    one = GaussRational(1)
    table: dict = {}
    oos = set()

    def put(r, c, entries):
        # entries: list of (coeff, xdeg, unit, eta)
        vec = {}
        bad = False
        for coeff, a, u, eta in entries:
            if not coeff:
                continue
            if a > deg:
                bad = True
                break
            k = pos[(a, u)] + (N if eta else 0)
            s = vec.get(k)
            vec[k] = coeff if s is None else s + coeff
            if not vec[k]:
                del vec[k]
        if bad:
            oos.add((r, c))
        elif vec:
            table[(r, c)] = vec

    for r, (a, u) in enumerate(base):
        for c, (b, v) in enumerate(base):
            # even o even
            if u == "1":
                put(r, c, [(one, a + b, v, False)])
            elif v == "1":
                put(r, c, [(one, a + b, u, False)])
            else:
                put(r, c, [(one if u == v else GaussRational(0), a + b, "1", False)])
            # eta f o g
            if v == "1":
                put(N + r, c, [(one, a + b, u, True)])
            elif u == "1":
                put(N + r, c, [(GaussRational(b), a + b - 1, v, True)] if b else [])
            else:
                s, w = _CROSS.get((u, v), (0, "1"))
                put(N + r, c, [(ii * s, a + b, w, True)] if s else [])
            # f o eta g  (even x odd: equal to eta g o f by commutativity)
            if u == "1":
                put(r, N + c, [(one, a + b, v, True)])
            elif v == "1":
                put(r, N + c, [(GaussRational(a), a + b - 1, u, True)] if a else [])
            else:
                s, w = _CROSS.get((v, u), (0, "1"))
                put(r, N + c, [(ii * s, a + b, w, True)] if s else [])
            # eta f o eta g
            if u == "1" and v == "1":
                put(N + r, N + c, [(GaussRational(a - b), a + b - 1, "1", False)]
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


def build(family: str, m: int = 0, n: int = 0, t=None, deg: int = 3) -> FiniteSuperAlgebra:
    """Build a catalog algebra by family tag."""
    fam = family.lower()
    if fam == "glplus":
        return glplus(m, n)
    if fam == "ospplus":
        return ospplus(m, n)
    if fam == "formplus":
        return formplus(m, n)
    if fam == "pplus":
        return pplus(n)
    if fam == "qplus":
        return qplus(n)
    if fam == "dt":
        if t is None:
            raise ValueError("Dt needs --t")
        return dt(t)
    if fam == "kalg":
        return kalg()
    if fam == "falg":
        return falg()
    if fam == "jpfinite":
        return jp_finite(n)
    if fam == "jp":
        return jp_finite(n) if m == 0 else jp(m, n, deg)
    if fam == "jck":
        return build_jck(deg)
    if fam == "js":
        return build_js(deg)
    raise ValueError(f"unknown family {family!r}")


FAMILIES = [
    "GLplus", "OSPplus", "FORMplus", "Pplus", "Qplus",
    "Dt", "Kalg", "Falg", "JPfinite", "JP", "JCK", "JS",
]


def identity_catalog():
    """The desk-scale identity-verification battery: (name, builder thunk,
    truncated?) triples in a fixed order."""
    entries = []
    for mm in range(0, 5):
        for nn in range(0, 5 - mm):
            if mm + nn in (0,):
                continue
            if mm + nn <= 4 and (mm, nn) != (0, 0):
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
