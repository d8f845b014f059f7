"""Classical Lie algebras at small rank and their short gradings, the H/K
bracket Lie superalgebra fragments with their distinguished triples, and the
two product isomorphisms onto the double of a polynomial bracket algebra.

Matrix realizations fix the bilinear forms
    so(2r+1): [[1,0,0],[0,0,I],[0,I,0]]    sp(2r): [[0,I],[-I,0]]
    so(2r):   [[0,I],[I,0]]
so Cartan subalgebras are diagonal and the candidate grading elements h are
explicit diagonal fundamental-coweight matrices.  A vertex of the diagram is
a candidate exactly when its highest-root coefficient is 1; for each
candidate, seeded rational elements e of the (-1)-eigenspace are sampled,
[e, f] = h is solved exactly for f in the (+1)-eigenspace, and the Killing
orthogonality of h against the centralizer of e in degree 0 is recorded
alongside, sample by sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .brackets import BracketSpec, DerivationD, bracket
from .jordan import FiniteSuperAlgebra, kkm_double
from .linalg import CoordSolver, Echelon, nullspace, solve_linear
from .report import DetRand, Report
from .superpoly import (
    SuperPoly,
    euler,
    even_var,
    mono_degree,
    mono_parity,
    monomials_total_degree,
    mul,
    odd_var,
    partial,
    render_monomial,
)
from .tkk import GradedLie


# -- classical matrix algebras ------------------------------------------------------


@dataclass
class ClassicalAlgebra:
    family: str  # "sl" | "so" | "sp"
    size: int  # matrix size
    basis: list  # matrices as dict (r, c) -> Fraction
    labels: list
    rank: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coord_solver(self):
        if not hasattr(self, "_solver"):
            cols = [
                {r * self.size + c: v for (r, c), v in M.items()} for M in self.basis
            ]
            self._solver = CoordSolver(cols)
        return self._solver

    def to_coords(self, M: dict):
        flat = {r * self.size + c: v for (r, c), v in M.items()}
        return self.coord_solver().solve(flat)

    def structure(self):
        """c[i][j] = coordinates of [X_i, X_j]."""
        if not hasattr(self, "_sc"):
            sc = {}
            for i, A in enumerate(self.basis):
                for j, B in enumerate(self.basis):
                    C = _comm(A, B)
                    if not C:
                        continue
                    coords = self.to_coords(C)
                    if coords is None:
                        raise ValueError("bracket leaves the algebra")
                    vec = {k: c for k, c in enumerate(coords) if c}
                    if vec:
                        sc[(i, j)] = vec
            self._sc = sc
        return self._sc

    def ad(self, vec: dict) -> dict:
        """ad of a coordinate vector, as a coordinate colmap."""
        sc = self.structure()
        out = {}
        for j in range(self.dim):
            col: dict = {}
            for i, ci in vec.items():
                for k, c in sc.get((i, j), {}).items():
                    s = col.get(k)
                    if s is None:
                        col[k] = ci * c
                    else:
                        s = s + ci * c
                        if s:
                            col[k] = s
                        else:
                            del col[k]
            if col:
                out[j] = col
        return out

    def bracket_vec(self, u: dict, v: dict) -> dict:
        sc = self.structure()
        out: dict = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, c in sc.get((i, j), {}).items():
                    s = out.get(k)
                    w = ci * cj * c
                    if s is None:
                        if w:
                            out[k] = w
                    else:
                        s = s + w
                        if s:
                            out[k] = s
                        else:
                            del out[k]
        return out


def _comm(A: dict, B: dict) -> dict:
    out: dict = {}
    rowsB: dict = {}
    for (r, c), v in B.items():
        rowsB.setdefault(r, []).append((c, v))
    for (r, c), v in A.items():
        for c2, w in rowsB.get(c, ()):
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
    rowsA: dict = {}
    for (r, c), v in A.items():
        rowsA.setdefault(r, []).append((c, v))
    for (r, c), v in B.items():
        for c2, w in rowsA.get(c, ()):
            key = (r, c2)
            s = out.get(key)
            if s is None:
                out[key] = -v * w
            else:
                s = s - v * w
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def classical(family: str, size: int) -> ClassicalAlgebra:
    """sl(n), so(n) (n >= 5) or sp(2r) in the fixed form realizations."""
    fam = family.lower()
    if fam == "sl":
        n = size
        basis = []
        labels = []
        for r in range(n):
            for c in range(n):
                if r != c:
                    basis.append({(r, c): Fraction(1)})
                    labels.append(f"E{r+1},{c+1}")
        for i in range(n - 1):
            basis.append({(i, i): Fraction(1), (i + 1, i + 1): Fraction(-1)})
            labels.append(f"H{i+1}")
        return ClassicalAlgebra("sl", n, basis, labels, n - 1)
    if fam in ("so", "sp"):
        n = size
        if fam == "so" and n % 2:
            r = n // 2
            B = {(0, 0): Fraction(1)}
            for i in range(r):
                B[(1 + i, 1 + r + i)] = Fraction(1)
                B[(1 + r + i, 1 + i)] = Fraction(1)
            rank = r
        elif fam == "so":
            r = n // 2
            B = {}
            for i in range(r):
                B[(i, r + i)] = Fraction(1)
                B[(r + i, i)] = Fraction(1)
            rank = r
        else:
            if n % 2:
                raise ValueError("sp needs even size")
            r = n // 2
            B = {}
            for i in range(r):
                B[(i, r + i)] = Fraction(1)
                B[(r + i, i)] = Fraction(-1)
            rank = r
        Binv = _invert_form(B, n)
        ech = Echelon()
        basis = []
        labels = []
        for rr in range(n):
            for cc in range(n):
                U = {(rr, cc): Fraction(1)}
                # U - B^{-1} U^t B, the skew projection for the form
                Ut = {(c2, r2): v for (r2, c2), v in U.items()}
                cand = dict(U)
                for key, v in _mat_mul3(Binv, Ut, B, n).items():
                    s = cand.get(key)
                    if s is None:
                        cand[key] = -v
                    else:
                        s = s - v
                        if s:
                            cand[key] = s
                        else:
                            del cand[key]
                if not cand:
                    continue
                flat = {a * n + b: v for (a, b), v in cand.items()}
                if ech.insert(flat) is not None:
                    basis.append(cand)
                    labels.append(f"X{rr+1},{cc+1}")
        alg = ClassicalAlgebra(fam, n, basis, labels, rank)
        expected = (n * (n - 1) // 2) if fam == "so" else (n * (n + 1) // 2)
        assert alg.dim == expected
        return alg
    raise ValueError(f"unknown family {family!r}")


def _invert_form(B: dict, n: int) -> dict:
    # all the fixed forms are orthogonal-permutation-like; invert by solving
    cols = []
    for j in range(n):
        col = {}
        for (r, c), v in B.items():
            if c == j:
                col[r] = v
        cols.append(col)
    out = {}
    solver = CoordSolver(cols)
    for j in range(n):
        sol = solver.solve({j: Fraction(1)})
        for i, v in enumerate(sol):
            if v:
                out[(i, j)] = v
    return out


def _mat_mul3(A, B, C, n):
    def mul2(X, Y):
        rowsY = {}
        for (r, c), v in Y.items():
            rowsY.setdefault(r, []).append((c, v))
        out = {}
        for (r, c), v in X.items():
            for c2, w in rowsY.get(c, ()):
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

    return mul2(mul2(A, B), C)


# -- Killing form and short-grading data ---------------------------------------------


def killing_pairing(L: ClassicalAlgebra, X: dict, Y: dict) -> Fraction:
    """tr(ad X ad Y) for coordinate vectors, computed exactly."""
    adX = L.ad(X)
    adY = L.ad(Y)
    total = Fraction(0)
    for j, col in adY.items():
        for k, v in col.items():
            back = adX.get(k)
            if back:
                w = back.get(j)
                if w:
                    total += v * w
    return total


def candidate_vertices(L: ClassicalAlgebra):
    """Diagram vertices whose highest-root coefficient is 1 (1-based)."""
    r = L.rank
    if L.family == "sl":
        return list(range(1, r + 1))
    if L.family == "so" and L.size % 2:
        return [1]  # coefficients (1, 2, ..., 2)
    if L.family == "sp":
        return [r]  # coefficients (2, ..., 2, 1)
    # so(2r): (1, 2, ..., 2, 1, 1); for r = 3 all three are 1
    if r == 3:
        return [1, 2, 3]
    return [1, r - 1, r]


def coweight_h(L: ClassicalAlgebra, vertex: int) -> dict:
    """The diagonal matrix with simple-root eigenvalues delta_{i,vertex}."""
    n = L.size
    r = L.rank
    if L.family == "sl":
        s = vertex
        hi = Fraction(n - s, n)
        lo = Fraction(-s, n)
        M = {}
        for i in range(n):
            M[(i, i)] = hi if i < s else lo
        return M
    if L.family == "so" and n % 2:
        # alpha_i = a_i - a_{i+1} (i < r), alpha_r = a_r
        a = _coweight_vector(r, vertex, last="short-b")
        M = {}
        for i in range(r):
            if a[i]:
                M[(1 + i, 1 + i)] = a[i]
                M[(1 + r + i, 1 + r + i)] = -a[i]
        return M
    if L.family == "sp":
        # alpha_r = 2 a_r
        a = _coweight_vector(r, vertex, last="long-c")
        M = {}
        for i in range(r):
            if a[i]:
                M[(i, i)] = a[i]
                M[(r + i, r + i)] = -a[i]
        return M
    # so(2r): alpha_r = a_{r-1} + a_r
    a = _coweight_vector(r, vertex, last="spin-d")
    M = {}
    for i in range(r):
        if a[i]:
            M[(i, i)] = a[i]
            M[(r + i, r + i)] = -a[i]
    return M


def _coweight_vector(r: int, vertex: int, last: str):
    """Solve alpha_i(a) = delta_{i,vertex} for the diagonal entries a."""
    a = [Fraction(0)] * r
    if last == "short-b":
        # a_i = sum_{j >= i} delta_{j,vertex} over the chain, alpha_r = a_r
        for i in range(r):
            a[i] = Fraction(1) if (i + 1) <= vertex else Fraction(0)
        if vertex == r:
            pass  # alpha_r = a_r = 1 handled by the same assignment
        return a
    if last == "long-c":
        # alpha_r = 2 a_r: a_i = 1 (i <= vertex), except scale 1/2 for s = r
        if vertex < r:
            return [Fraction(1) if (i + 1) <= vertex else Fraction(0) for i in range(r)]
        return [Fraction(1, 2)] * r
    # type D: alpha_{r-1} = a_{r-1} - a_r, alpha_r = a_{r-1} + a_r
    if vertex <= r - 2:
        return [Fraction(1) if (i + 1) <= vertex else Fraction(0) for i in range(r)]
    if vertex == r - 1:
        return [Fraction(1, 2)] * (r - 1) + [Fraction(-1, 2)]
    return [Fraction(1, 2)] * r


def classified_short_vertices(family: str, size: int):
    """The known positive vertices: the middle vertex of even-size sl, the
    first vertex of so, the last of sp, and both spin vertices of so(4k)."""
    fam = family.lower()
    if fam == "sl":
        return [size // 2] if size % 2 == 0 and size >= 2 else []
    if fam == "sp":
        return [size // 2]
    if fam == "so":
        if size % 2:
            return [1]
        r = size // 2
        out = [1] if r >= 3 else []
        if r % 2 == 0:
            out.extend([r - 1, r])
        if r == 3:
            pass  # spin vertices of so(6) carry no short subalgebra
        return out
    raise ValueError(family)


def find_short_triple(L: ClassicalAlgebra, h_mat: dict, seed: int = 0,
                      samples: int = 20):
    """Sample rational e in the (-1)-eigenspace of ad h and solve [e,f] = h
    exactly; returns (triple | None, per-sample records, eigen dims).

    Each record is {"solvable": bool, "condition17": bool} where the second
    entry is the Killing orthogonality of h against the degree-0 centralizer
    of e.  A None triple after all samples is a probabilistic verdict.
    """
    h = L.to_coords(h_mat)
    if h is None:
        raise ValueError("h does not lie in the algebra")
    h = {k: c for k, c in enumerate(h) if c}
    adh = L.ad(h)
    dim = L.dim
    eig: dict = {-1: [], 0: [], 1: []}
    # eigenspaces by exact kernels of (ad h - lambda)
    total = 0
    for lam in (-1, 0, 1):
        cols = []
        for j in range(dim):
            col = dict(adh.get(j, {}))
            s = col.get(j, Fraction(0)) - lam
            if s:
                col[j] = s
            else:
                col.pop(j, None)
            cols.append(col)
        for ker in nullspace(cols):
            eig[lam].append(ker)
        total += len(eig[lam])
    if total != dim:
        return None, [], {lam: len(v) for lam, v in eig.items()}
    rng = DetRand(seed)
    records = []
    triple = None
    minus = eig[-1]
    plus = eig[1]
    zero = eig[0]
    for _ in range(samples):
        e: dict = {}
        for v in minus:
            c = rng.rational()
            if c:
                for k, x in v.items():
                    s = e.get(k)
                    if s is None:
                        e[k] = c * x
                    else:
                        s = s + c * x
                        if s:
                            e[k] = s
                        else:
                            del e[k]
        if not e:
            records.append({"solvable": False, "condition17": False})
            continue
        cols = [L.bracket_vec(e, u) for u in plus]
        sol = solve_linear([dict(c) for c in cols], h)
        solvable = sol is not None
        # centralizer of e inside the 0-eigenspace
        cent_cols = [L.bracket_vec(z, e) for z in zero]
        cond17 = True
        for kerc in nullspace([dict(c) for c in cent_cols]):
            z: dict = {}
            for idx, c in kerc.items():
                for k, x in zero[idx].items():
                    s = z.get(k)
                    if s is None:
                        z[k] = c * x
                    else:
                        s = s + c * x
                        if s:
                            z[k] = s
                        else:
                            del z[k]
            if killing_pairing(L, z, h):
                cond17 = False
                break
        records.append({"solvable": solvable, "condition17": cond17})
        if solvable and triple is None:
            f: dict = {}
            for idx, c in enumerate(sol):
                if c:
                    for k, x in plus[idx].items():
                        s = f.get(k)
                        if s is None:
                            f[k] = c * x
                        else:
                            s = s + c * x
                            if s:
                                f[k] = s
                            else:
                                del f[k]
            if _verify_triple(L, e, h, f, adh):
                triple = (e, h, f)
    return triple, records, {lam: len(v) for lam, v in eig.items()}


def _verify_triple(L: ClassicalAlgebra, e, h, f, adh) -> bool:
    he = L.bracket_vec(h, e)
    if he != {k: -v for k, v in e.items()}:
        return False
    if L.bracket_vec(h, f) != f:
        return False
    return L.bracket_vec(e, f) == h


def enumerate_short_gradings(L: ClassicalAlgebra, seed: int = 0,
                             samples: int = 20) -> Report:
    """Per-vertex verdicts for all highest-root-coefficient-1 vertices,
    compared against the classical list, with the per-sample equivalence of
    solvability and Killing orthogonality."""
    t0 = time.perf_counter()
    expected = set(classified_short_vertices(L.family, L.size))
    verdicts = []
    mismatch = None
    equiv_defect = None
    for vertex in candidate_vertices(L):
        h_mat = coweight_h(L, vertex)
        triple, records, eig_dims = find_short_triple(L, h_mat, seed, samples)
        found = triple is not None
        entry = {
            "vertex": vertex,
            "shortSubalgebra": found,
            "probabilistic": not found,
            "eigenDims": {str(k): v for k, v in eig_dims.items()},
        }
        if found:
            entry["triple"] = {
                name: {L.labels[i]: c for i, c in vec.items()}
                for name, vec in zip("ehf", triple)
            }
        verdicts.append(entry)
        if found != (vertex in expected) and mismatch is None:
            mismatch = {"vertex": vertex, "found": found,
                        "expected": vertex in expected}
        for i, rec in enumerate(records):
            if rec["solvable"] != rec["condition17"] and equiv_defect is None:
                equiv_defect = {"vertex": vertex, "sample": i, **rec}
    failures = {}
    if not verdicts:
        failures["reason"] = "no candidate vertex: nothing was certified"
    if mismatch:
        failures["classificationMismatch"] = mismatch
    if equiv_defect:
        failures["killingEquivalenceDefect"] = equiv_defect
    return Report(
        "short-gradings",
        {"family": L.family, "size": L.size, "seed": seed, "samples": samples},
        {"vertices": verdicts},
        "pass" if not failures else "fail",
        failures or None,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


# -- H/K bracket Lie superalgebras and their triples ----------------------------------


def _poly_coords(poly: SuperPoly, pos: dict, deg: int, drop_const: bool):
    """Coordinates of a polynomial over the monomial basis; None when a term
    leaves the degree span."""
    vec = {}
    for mono, c in poly.terms.items():
        if drop_const and mono_degree(mono) == 0:
            continue
        if mono_degree(mono) > deg:
            return None
        vec[pos[mono]] = c
    return vec


def build_hk(kind: str, k: int, n: int, deg: int = 3):
    """The bracket Lie superalgebra fragment on monomials of total degree
    <= deg (the "h" kind is taken modulo constants) with the distinguished
    triple h = xi_n xi_{n-1}, e = xi_{n-2} xi_n, f = xi_{n-2} xi_{n-1}, and
    the induced grading deg(xi_{n-1}) = 1, deg(xi_n) = -1.

    Returns (GradedLie fragment, triple coordinate dict, Report)."""
    t0 = time.perf_counter()
    kind = kind.lower()
    if n < 3:
        raise ValueError("the triple needs n >= 3 odd generators")
    if kind == "h":
        if k == 0 and n < 4:
            raise ValueError("the n = 3 fragment without even variables is not simple")
        spec = BracketSpec.h_type(k, n)
        drop_const = True
    elif kind == "k":
        spec = BracketSpec.k_type(k, n)
        drop_const = False
    else:
        raise ValueError("kind must be 'h' or 'k'")
    m = spec.m
    monos = [
        mo
        for mo in monomials_total_degree(m, n, deg)
        if not (drop_const and mono_degree(mo) == 0)
    ]
    pos = {mo: i for i, mo in enumerate(monos)}
    labels = [render_monomial(mo, m, n) for mo in monos]
    parities = [mono_parity(mo) for mo in monos]
    grading = []
    for mo in monos:
        odds = mo[1]
        grading.append((1 if (n - 2) in odds else 0) - (1 if (n - 1) in odds else 0))
    table = {}
    oos = set()
    one = Fraction(1)
    for i, a in enumerate(monos):
        fa = SuperPoly(m, n, {a: one})
        for j, b in enumerate(monos):
            fb = SuperPoly(m, n, {b: one})
            vec = _poly_coords(bracket(spec, fa, fb), pos, deg, drop_const)
            if vec is None:
                oos.add((i, j))
            elif vec:
                table[(i, j)] = vec
    alg = FiniteSuperAlgebra(
        labels, parities, table, oos, name=f"{kind.upper()}({m},{n})|deg{deg}"
    )
    lie = GradedLie(alg, grading)

    # the triple as polynomials, with the relations checked exactly
    xi = lambda j: SuperPoly.variable(m, n, odd_var(j))
    h_poly = mul(xi(n - 1), xi(n - 2))
    e_poly = mul(xi(n - 3), xi(n - 1))
    f_poly = mul(xi(n - 3), xi(n - 2))
    failures = []
    if bracket(spec, h_poly, e_poly) != -e_poly:
        failures.append("[h,e] != -e")
    if bracket(spec, h_poly, f_poly) != f_poly:
        failures.append("[h,f] != f")
    if bracket(spec, e_poly, f_poly) != h_poly:
        failures.append("[e,f] != h")
    # the grading is the ad h eigenvalue on every spanned monomial
    for i, mo in enumerate(monos):
        fmo = SuperPoly(m, n, {mo: one})
        want = fmo.scale(grading[i]) if grading[i] else SuperPoly.zero(m, n)
        if bracket(spec, h_poly, fmo) != want:
            failures.append(f"grading defect at {labels[i]}")
            break
    # bracket respects the grading on certified pairs
    for (i, j), vec in table.items():
        g = grading[i] + grading[j]
        for idx in vec:
            if grading[idx] != g:
                failures.append("bracket does not respect the grading")
                break
        else:
            continue
        break
    triple = {
        "e": _poly_coords(e_poly, pos, deg, drop_const),
        "h": _poly_coords(h_poly, pos, deg, drop_const),
        "f": _poly_coords(f_poly, pos, deg, drop_const),
    }
    report = Report(
        "hk-fragment",
        {"kind": kind, "m": m, "n": n, "deg": deg},
        {"monomials": len(monos), "certifiedPairs": len(monos) ** 2 - len(oos)},
        "pass" if not failures else "fail",
        {"failures": failures} if failures else None,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )
    return lie, triple, report


def h_zero_n_lie(n: int, derived: bool = True) -> FiniteSuperAlgebra:
    """The full finite bracket Lie superalgebra on the Grassmann monomials
    modulo constants; derived=True cuts to the span of all brackets."""
    spec = BracketSpec.h_type(0, n)
    monos = [mo for mo in monomials_total_degree(0, n, n) if mono_degree(mo) > 0]
    pos = {mo: i for i, mo in enumerate(monos)}
    one = Fraction(1)
    dim = len(monos)
    full = {}
    for i, a in enumerate(monos):
        fa = SuperPoly(0, n, {a: one})
        for j, b in enumerate(monos):
            fb = SuperPoly(0, n, {b: one})
            vec = _poly_coords(bracket(spec, fa, fb), pos, n, True)
            if vec:
                full[(i, j)] = vec
    if not derived:
        labels = [render_monomial(mo, 0, n) for mo in monos]
        parities = [mono_parity(mo) for mo in monos]
        return FiniteSuperAlgebra(labels, parities, full, name=f"H'(0,{n})")
    solver = CoordSolver()
    span_rows = []
    for (i, j), vec in sorted(full.items()):
        if solver.add(vec):
            span_rows.append(dict(vec))
    sdim = len(span_rows)
    labels = [f"d{t}" for t in range(sdim)]
    parities = []
    for row in span_rows:
        any_idx = next(iter(row))
        parities.append(mono_parity(monos[any_idx]))
    table = {}
    for i, u in enumerate(span_rows):
        for j, v in enumerate(span_rows):
            w: dict = {}
            for a, ca in u.items():
                for b, cb in v.items():
                    for kk, c in full.get((a, b), {}).items():
                        s = w.get(kk)
                        x = ca * cb * c
                        if s is None:
                            if x:
                                w[kk] = x
                        else:
                            s = s + x
                            if s:
                                w[kk] = s
                            else:
                                del w[kk]
            if not w:
                continue
            sol = solver.solve(w)
            if sol is None:
                raise ValueError("derived span is not closed")
            vec = {t: c for t, c in enumerate(sol) if c}
            if vec:
                table[(i, j)] = vec
    return FiniteSuperAlgebra(labels, parities, table, name=f"H(0,{n})")


# -- the two product isomorphisms onto doubles -----------------------------------------


def _inert_t_h_spec(k: int, n2: int) -> BracketSpec:
    """The even pairing on p_1..p_k, q_1..q_k plus the fully diagonal odd
    block, over the signature (2k+1, n2) whose even index 0 is an inert t
    (row and column 0 of C are empty, no contact terms)."""
    mp = 2 * k + 1
    C = [[Fraction(0)] * (mp + n2) for _ in range(mp + n2)]
    for i in range(k):
        C[1 + i][1 + k + i] = Fraction(1)
        C[1 + k + i][1 + i] = Fraction(-1)
    for j in range(n2):
        C[mp + j][mp + j] = Fraction(-1)
    return BracketSpec.custom(mp, n2, C, has_time=False)


def _jordan_from_product(m, n, deg, prod_fn, name):
    """Jordan table on the degree-<= deg monomials with reversed parity,
    from a product function on monomial pairs."""
    monos = monomials_total_degree(m, n, deg)
    pos = {mo: i for i, mo in enumerate(monos)}
    labels = [render_monomial(mo, m, n) for mo in monos]
    parities = [(mono_parity(mo) + 1) & 1 for mo in monos]
    table = {}
    oos = set()
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            poly = prod_fn(a, b)
            vec = {}
            bad = False
            for mono, c in poly.terms.items():
                if mono_degree(mono) > deg:
                    bad = True
                    break
                vec[pos[mono]] = c
            if bad:
                oos.add((i, j))
            elif vec:
                table[(i, j)] = vec
    return FiniteSuperAlgebra(labels, parities, table, oos, name=name), monos, pos


def short_subalgebra_jordan_h(k: int, n: int, deg: int = 3):
    """The Jordan product on the reversed-parity carrier induced by the
    degree-(-1) part of the "h" fragment:
        f o g = (-1)^{p(f)} df/dxi_c g + f dg/dxi_c + (-1)^{p(f)} xi_c {f, g}
    with xi_c the last odd generator of the carrier and {.,.} the diagonal
    restriction of the ambient bracket; p is the reversed parity."""
    m, n2 = 2 * k, n - 2
    c = n2 - 1
    rspec = BracketSpec.diagonal(k, n2)
    one = Fraction(1)

    def prod(a, b):
        fa = SuperPoly(m, n2, {a: one})
        fb = SuperPoly(m, n2, {b: one})
        pj = (mono_parity(a) + 1) & 1
        sign = -1 if pj else 1
        xi_c = SuperPoly.variable(m, n2, odd_var(c))
        t1 = mul(partial(fa, odd_var(c)), fb).scale(sign)
        t2 = mul(fa, partial(fb, odd_var(c)))
        t3 = mul(xi_c, bracket(rspec, fa, fb)).scale(sign)
        return t1 + t2 + t3

    return _jordan_from_product(m, n2, deg, prod, f"J(H({2*k},{n}),a)|deg{deg}")


def _euler_variant(f: SuperPoly, mode: str) -> SuperPoly:
    if mode == "standard":
        return euler(f, include_time=False)
    if mode == "with_time":
        return euler(f, include_time=True)
    if mode == "no_odds":
        # corrupt variant: count only the even non-t generators
        terms = {}
        for mono, c in f.terms.items():
            d = sum(mono[0]) - (mono[0][0] if f.m else 0)
            if d:
                terms[mono] = c * d
        out = SuperPoly(f.m, f.n)
        out.terms = terms
        return out
    raise ValueError(mode)


def short_subalgebra_jordan_k(k: int, n: int, deg: int = 3,
                              euler_mode: str = "standard"):
    """The contact analogue:
        f o g = (-1)^{p(f)} ( df/dxi_c g + {xi_c f, g} + xi_c (1-E)(f) dg/dt
                              - xi_c df/dt (1-E)(g) )
    with E the Euler operator in the non-t variables and {.,.} the diagonal
    restriction (t inert); p is the reversed parity."""
    m, n2 = 2 * k + 1, n - 2
    c = n2 - 1
    rspec = _inert_t_h_spec(k, n2)
    one = Fraction(1)
    t_ref = even_var(0)

    def prod(a, b):
        fa = SuperPoly(m, n2, {a: one})
        fb = SuperPoly(m, n2, {b: one})
        pj = (mono_parity(a) + 1) & 1
        sign = -1 if pj else 1
        xi_c = SuperPoly.variable(m, n2, odd_var(c))
        t1 = mul(partial(fa, odd_var(c)), fb)
        t2 = bracket(rspec, mul(xi_c, fa), fb)
        one_minus_e_a = fa - _euler_variant(fa, euler_mode)
        one_minus_e_b = fb - _euler_variant(fb, euler_mode)
        t3 = mul(mul(xi_c, one_minus_e_a), partial(fb, t_ref))
        t4 = mul(mul(xi_c, partial(fa, t_ref)), one_minus_e_b)
        return (t1 + t2 + t3 - t4).scale(sign)

    return _jordan_from_product(m, n2, deg, prod, f"J(K({2*k+1},{n}),a)|deg{deg}")


def _double_factor_map(monos_src, n_src: int, deg: int, m_t: int, n_t: int):
    """Split each source monomial at the last odd generator xi_c: monomials
    containing xi_c map (with the Koszul sign of moving xi_c to the front)
    to the plain part of the double, the others to the eta part."""
    target_monos = monomials_total_degree(m_t, n_t, deg)
    tpos = {mo: i for i, mo in enumerate(target_monos)}
    N = len(target_monos)
    c = n_src - 1
    images = []
    for (ev, odds) in monos_src:
        if c in odds:
            sign = -1 if ((len(odds) - 1) & 1) else 1
            fm = (ev, odds[:-1])
            images.append((tpos[fm], Fraction(sign)))
        else:
            images.append((N + tpos[(ev, odds)], Fraction(1)))
    return images, N


def _check_double_map(src: FiniteSuperAlgebra, tgt: FiniteSuperAlgebra,
                      images, suite: str, params: dict, flip_eta: bool = False,
                      eta_offset: int = 0) -> Report:
    t0 = time.perf_counter()
    if flip_eta:
        # negate one side of the splitting only; the all-eta flip would be
        # an automorphism of the double and no control at all
        images = [
            (idx, -c if idx < eta_offset else c) for idx, c in images
        ]
    ce = None
    certified = 0
    skipped = 0
    for i in range(src.dim):
        ii, ci = images[i]
        for j in range(src.dim):
            jj, cj = images[j]
            sp = src.product(i, j)
            tp = tgt.product(ii, jj)
            if sp is None or tp is None:
                skipped += 1
                continue
            lhs = {}
            for k, c in sp.items():
                kk, ck = images[k]
                v = c * ck
                s = lhs.get(kk)
                if s is None:
                    if v:
                        lhs[kk] = v
                else:
                    s = s + v
                    if s:
                        lhs[kk] = s
                    else:
                        del lhs[kk]
            rhs = {k: ci * cj * c for k, c in tp.items() if ci * cj * c}
            certified += 1
            if lhs != rhs:
                ce = {
                    "indices": [i, j],
                    "labels": [src.labels[i], src.labels[j]],
                    "mapped": {str(k): str(v) for k, v in lhs.items()},
                    "direct": {str(k): str(v) for k, v in rhs.items()},
                }
                break
        if ce:
            break
    return Report(
        suite,
        params,
        {"certifiedPairs": certified, "skippedPairs": skipped,
         "srcDim": src.dim, "tgtDim": tgt.dim},
        "pass" if ce is None else "fail",
        ce,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


def example71_iso(k: int, n: int, deg: int = 3, flip_eta: bool = False) -> Report:
    """The displayed splitting map from the induced Jordan product of the
    "h" fragment onto the double of the sign-flipped diagonal bracket on one
    fewer odd generator, verified pairwise on the certified span."""
    if n < 3 or (k == 0 and n < 4):
        raise ValueError("need n >= 3 (n >= 4 when k = 0)")
    src, monos, _ = short_subalgebra_jordan_h(k, n, deg)
    tgt_spec = BracketSpec.negated(BracketSpec.diagonal(k, n - 3))
    tgt = kkm_double(tgt_spec, DerivationD.zero(2 * k, n - 3), deg,
                     name=f"JP({2*k},{n-3})|flip")
    images, N = _double_factor_map(monos, n - 2, deg, 2 * k, n - 3)
    return _check_double_map(
        src, tgt, images, "iso-h-double",
        {"k": k, "n": n, "deg": deg, "target": f"JP({2*k},{n-3})"},
        flip_eta=flip_eta, eta_offset=N,
    )


def example72_iso(k: int, n: int, deg: int = 3, flip_eta: bool = False,
                  euler_mode: str = "standard") -> Report:
    """The contact analogue: the induced Jordan product of the "k" fragment
    onto the double of the sign-flipped modified contact bracket."""
    if n < 3:
        raise ValueError("need n >= 3")
    src, monos, _ = short_subalgebra_jordan_k(k, n, deg, euler_mode=euler_mode)
    tgt_spec = BracketSpec.diagonal(k, n - 3, has_time=True)
    tgt = kkm_double(tgt_spec, DerivationD.multiple_of_dt(2 * k + 1, n - 3),
                     deg, name=f"JP({2*k+1},{n-3})|flip", negate_bracket=True)
    images, N = _double_factor_map(monos, n - 2, deg, 2 * k + 1, n - 3)
    return _check_double_map(
        src, tgt, images, "iso-k-double",
        {"k": k, "n": n, "deg": deg, "target": f"JP({2*k+1},{n-3})"},
        flip_eta=flip_eta, eta_offset=N,
    )
