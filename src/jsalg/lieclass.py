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

The two splitting maps (Examples 7.1 and 7.2) are checked without building
a table: `jordan.hom_scan` reads each product when the scan reaches its
pair, the source product from the int monomial kernel of the induced
Jordan product and the target product from `jordan.kkm_formula`, the
formula `kkm_double` tabulates.  A refuted map costs the pairs up to its
first failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .brackets import BracketSpec, bracket_kernel
from .jordan import (
    FiniteSuperAlgebra,
    _algebra_from_matrices,
    _mat_mul,
    _mul_into,
    _poly_coords,
    _poly_table,
    _selfadjoint_basis,
    hom_scan,
    kkm_formula,
    kkm_product,
)
from .linalg import CoordSolver, nullspace, scaled_ints, solve_linear, vec_iadd
from .report import DetRand, Report
from .superpoly import (
    even_var,
    mono_degree,
    mono_mul,
    mono_parity,
    mono_partial,
    monomials_total_degree,
    odd_var,
    render_monomial,
)
from .tkk import GradedLie, Sl2Triple, check_triple, matrix_apply, triple_failures


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

    @cached_property
    def solver(self) -> CoordSolver:
        """The one elimination of the basis, for coordinates and structure."""
        return CoordSolver(self.basis)

    def to_coords(self, M: dict):
        """Coordinates of a matrix over the basis, or None outside it."""
        return self.solver.solve(M)

    @cached_property
    def algebra(self) -> FiniteSuperAlgebra:
        """The structure constants as an even table: c[(i, j)] holds the
        coordinates of [X_i, X_j]."""
        return _algebra_from_matrices(self.basis, self.size, self.labels,
                                      f"{self.family}({self.size})", lie=True,
                                      solver=self.solver)

    def structure(self):
        """c[(i, j)] = coordinates of [X_i, X_j]."""
        return self.algebra.table

    def ad(self, vec: dict) -> dict:
        """ad of a coordinate vector, as a coordinate colmap: column j is
        [vec, X_j], stored when nonzero.  vec is scaled to ints once; each
        column is one `_mul_into` over the table oracle, as `mul_vectors`
        would run it."""
        rows, scale = self.algebra.oracle
        iv, s = scaled_ints(vec)
        den = s * scale
        out = {}
        for j in range(self.dim):
            acc: dict = {}
            _mul_into(acc, rows, iv, {j: 1})
            col = {k: Fraction(x, den) for k, x in acc.items() if x}
            if col:
                out[j] = col
        return out


def classical(family: str, size: int) -> ClassicalAlgebra:
    """sl(n), so(n) (n >= 5) or sp(2r) in the fixed form realizations."""
    fam = family.lower()
    if fam == "sl":
        n = size
        if n < 2:
            raise ValueError("sl(n) needs n >= 2")
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
        if fam == "so" and n < 5:
            raise ValueError("so(n) needs n >= 5")
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
        # every fixed form is a signed permutation matrix, so B^-1 = B^t and
        # U -> -B^-1 U^t B is an involution; U plus its image is the skew
        # projection of U for the form
        Binv = {(c, r): v for (r, c), v in B.items()}

        def star(U: dict) -> dict:
            Ut = {(c, r): v for (r, c), v in U.items()}
            return {k: -v for k, v in _mat_mul(_mat_mul(Binv, Ut), B).items()}

        basis, labels = _selfadjoint_basis(n, star, prefix="X")
        alg = ClassicalAlgebra(fam, n, basis, labels, rank)
        expected = (n * (n - 1) // 2) if fam == "so" else (n * (n + 1) // 2)
        assert alg.dim == expected
        return alg
    raise ValueError(f"unknown family {family!r}")


# -- Killing form and short-grading data ---------------------------------------------


def killing_row(L: ClassicalAlgebra, adh: dict) -> dict:
    """{i: kappa(X_i, h)} without zero entries, from the colmap adh[j][k] =
    (ad h)_kj of `ClassicalAlgebra.ad`.  With [X_i, X_k] = sum_j c_ik^j X_j,
    kappa(X_i, h) = tr(ad X_i ad h) = sum c_ik^j (ad h)_kj, one pass over the
    table.  kappa is bilinear, so every pairing kappa(X, h) is a dot product
    with this row."""
    row: dict = {}
    for (i, k), vec in L.structure().items():
        for j, c in vec.items():
            x = adh.get(j, {}).get(k)
            if x:
                row[i] = row.get(i, 0) + c * x
    return {i: x for i, x in row.items() if x}


def _dot(u: dict, row: dict) -> Fraction:
    return sum((c * row.get(i, 0) for i, c in u.items()), Fraction(0))


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
    # alpha_i = a_i - a_{i+1} (i < r); alpha_r = a_r in so(2r+1), whose
    # matrices carry one extra leading row, 2 a_r in sp(2r) and
    # a_{r-1} + a_r in so(2r)
    odd_so = L.family == "so" and n % 2
    last = "short-b" if odd_so else "long-c" if L.family == "sp" else "spin-d"
    a = _coweight_vector(r, vertex, last)
    off = 1 if odd_so else 0
    M = {}
    for i in range(r):
        if a[i]:
            M[(off + i, off + i)] = a[i]
            M[(off + r + i, off + r + i)] = -a[i]
    return M


def _coweight_vector(r: int, vertex: int, last: str):
    """Solve alpha_i(a) = delta_{i,vertex} for the diagonal entries a."""
    a = [Fraction(0)] * r
    if last == "short-b":
        # a_i = sum_{j >= i} delta_{j,vertex} over the chain, alpha_r = a_r
        for i in range(r):
            a[i] = Fraction(1) if (i + 1) <= vertex else Fraction(0)
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
        return out
    raise ValueError(family)


SHORT_TRIPLE_SAMPLES = 20


def find_short_triple(L: ClassicalAlgebra, h_mat: dict, seed: int = 0):
    """Sample SHORT_TRIPLE_SAMPLES rational e in the (-1)-eigenspace of ad h
    and solve [e,f] = h exactly; returns (triple | None, per-sample records,
    eigen dims).

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
    # kappa(z, h) for each degree-0 basis vector z: by bilinearity, a
    # centralizer vector pairs with h as its coordinates on zero dotted
    # with these
    kh = killing_row(L, adh)
    kappa_zero = {idx: _dot(z, kh) for idx, z in enumerate(zero)}
    for _ in range(SHORT_TRIPLE_SAMPLES):
        e: dict = {}
        for v in minus:
            vec_iadd(e, v, rng.rational())
        if not e:
            records.append({"solvable": False, "condition17": False})
            continue
        ade = L.ad(e)
        cols = [matrix_apply(ade, u) for u in plus]
        sol = solve_linear(cols, h)
        solvable = sol is not None
        # centralizer of e inside the 0-eigenspace: z -> [e, z] has the
        # kernel of z -> [z, e]
        cent_cols = [matrix_apply(ade, z) for z in zero]
        cond17 = True
        for kerc in nullspace(cent_cols):
            if _dot(kerc, kappa_zero):
                cond17 = False
                break
        records.append({"solvable": solvable, "condition17": cond17})
        if solvable and triple is None:
            f: dict = {}
            for idx, c in enumerate(sol):
                vec_iadd(f, plus[idx], c)
            if not triple_failures(L.algebra, e, h, f):
                triple = (e, h, f)
    return triple, records, {lam: len(v) for lam, v in eig.items()}


def enumerate_short_gradings(L: ClassicalAlgebra, seed: int = 0) -> Report:
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
        triple, records, eig_dims = find_short_triple(L, h_mat, seed)
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
        {"family": L.family, "size": L.size, "seed": seed,
         "samples": SHORT_TRIPLE_SAMPLES},
        {"vertices": verdicts},
        "pass" if not failures else "fail",
        failures or None,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


# -- H/K bracket Lie superalgebras and their triples ----------------------------------


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
    if deg < 2:
        raise ValueError("the triple is quadratic, so the fragment needs deg >= 2")
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
    grading = []
    for mo in monos:
        odds = mo[1]
        grading.append((1 if (n - 2) in odds else 0) - (1 if (n - 1) in odds else 0))
    alg = _poly_table(monos, deg, bracket_kernel(spec), 0,
                      f"{kind.upper()}({m},{n})|deg{deg}", drop_const=drop_const)
    lie = GradedLie(alg, grading)
    # the triple relations and the ad h eigenvalue of every spanned monomial,
    # by the table-level triple check
    xi = lambda j: ((0,) * m, (j,))
    pairs = {"e": (n - 3, n - 1), "h": (n - 1, n - 2), "f": (n - 3, n - 2)}
    triple = {}
    for name, (i, j) in pairs.items():
        sign, mono = mono_mul(xi(i), xi(j))
        triple[name] = _poly_coords({mono: sign}, 1, pos, deg, drop_const=drop_const)
    failures = check_triple(lie, Sl2Triple(**triple)).counterexample
    failures = failures["failures"] if failures else []
    # bracket respects the grading on certified pairs
    for (i, j), vec in alg.table.items():
        g = grading[i] + grading[j]
        for idx in vec:
            if grading[idx] != g:
                failures.append("bracket does not respect the grading")
                break
        else:
            continue
        break
    report = Report(
        "hk-fragment",
        {"kind": kind, "m": m, "n": n, "deg": deg},
        {"monomials": len(monos), "certifiedPairs": len(monos) ** 2 - len(alg.out_of_span)},
        "pass" if not failures else "fail",
        {"failures": failures} if failures else None,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )
    return lie, triple, report


def h_zero_n_lie(n: int) -> FiniteSuperAlgebra:
    """The derived algebra of the finite bracket Lie superalgebra on the
    Grassmann monomials modulo constants: the span of all brackets."""
    spec = BracketSpec.h_type(0, n)
    monos = [mo for mo in monomials_total_degree(0, n, n) if mono_degree(mo) > 0]
    H = _poly_table(monos, n, bracket_kernel(spec), 0, f"H'(0,{n})", drop_const=True)
    solver = CoordSolver()
    span_rows = []
    for (i, j), vec in sorted(H.table.items()):
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
            w = H.mul_vectors(u, v)
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


def _non_t_degree(mono) -> int:
    """E(mono) for E the Euler operator in the non-t variables: the total
    degree less the exponent of the even generator 0 (t)."""
    return mono_degree(mono) - mono[0][0]


def _jordan_h_kernel(k: int, n: int):
    """(m, n2, (S, kern)): the signature of the reversed-parity carrier and
    the int kernel kern(a, b) = S (a o b) on monomials of the Jordan product
    induced by the degree-(-1) part of the "h" fragment,
        f o g = (-1)^{p(f)} df/dxi_c g + f dg/dxi_c + (-1)^{p(f)} xi_c {f, g},
    xi_c the carrier's last odd generator, {.,.} the diagonal restriction of
    the ambient bracket, S its kernel's scale, p the reversed parity."""
    m, n2 = 2 * k, n - 2
    xc = odd_var(n2 - 1)
    xi_c = ((0,) * m, (n2 - 1,))
    S, br = bracket_kernel(BracketSpec.diagonal(k, n2))

    def kern(a, b):
        sign = 1 if mono_parity(a) else -1  # (-1)^{p(a)}, p reversed
        acc = {}
        d = mono_partial(a, xc)
        r = d and mono_mul(d[1], b)
        if r:
            acc[r[1]] = sign * S * d[0] * r[0]
        d = mono_partial(b, xc)
        r = d and mono_mul(a, d[1])
        if r:
            vec_iadd(acc, {r[1]: S * d[0] * r[0]})
        xbr = {}
        for y, v in br(a, b).items():
            r = mono_mul(xi_c, y)
            if r:
                xbr[r[1]] = r[0] * v
        vec_iadd(acc, xbr, sign)
        return acc

    return m, n2, (S, kern)


def _jordan_k_kernel(k: int, n: int):
    """As `_jordan_h_kernel`, for the contact analogue
        f o g = (-1)^{p(f)} ( df/dxi_c g + {xi_c f, g} + xi_c (1-E)(f) dg/dt
                              - xi_c df/dt (1-E)(g) ),
    E the Euler operator in the non-t variables ((1-E)(a) is
    (1 - `_non_t_degree`(a)) a) and {.,.} the diagonal restriction, t inert."""
    m, n2 = 2 * k + 1, n - 2
    xc, t = odd_var(n2 - 1), even_var(0)
    xi_c = ((0,) * m, (n2 - 1,))
    S, br = bracket_kernel(_inert_t_h_spec(k, n2))

    def kern(a, b):
        sign = 1 if mono_parity(a) else -1  # (-1)^{p(a)}, p reversed
        acc = {}
        d = mono_partial(a, xc)
        r = d and mono_mul(d[1], b)
        if r:
            acc[r[1]] = sign * S * d[0] * r[0]
        ca = mono_mul(xi_c, a)
        if ca is None:  # xi_c a = 0 kills the other three terms
            return acc
        s, xa = ca
        vec_iadd(acc, br(xa, b), sign * s)
        d = mono_partial(b, t)
        r = d and mono_mul(xa, d[1])
        if r:
            vec_iadd(acc, {r[1]: S * d[0] * r[0] * (1 - _non_t_degree(a))}, sign * s)
        d = mono_partial(xa, t)  # d(xi_c a)/dt = xi_c da/dt
        r = d and mono_mul(d[1], b)
        if r:
            vec_iadd(acc, {r[1]: S * d[0] * r[0] * (_non_t_degree(b) - 1)}, sign * s)
        return acc

    return m, n2, (S, kern)


def _double_factor_map(monos_src, n_src: int, target_monos):
    """Split each source monomial at the last odd generator xi_c: monomials
    containing xi_c map (with the Koszul sign of moving xi_c to the front)
    to the plain part of the double, the others to the eta part."""
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
    return images


def _check_double_map(source, target, deg: int, suite: str, params: dict,
                      flip_eta: bool = False) -> Report:
    """The splitting map from the Jordan product source = (m, n2, (S, kern))
    on the degree-<= deg monomials onto the double of `kkm_formula` target,
    by `hom_scan` on products read when the scan reaches them: the source
    product of a pair is kern's ints through `_poly_coords`, and the
    product of the monomial images c_i e_p and c_j e_q is c_i c_j (e_p o
    e_q) from `kkm_product`.  No table is built, so a refuted map costs the
    pairs up to its first failure; a certifying scan reads each source
    pair once and, the map being a bijection onto the double's basis, each
    target pair at most once."""
    t0 = time.perf_counter()
    m, n2, (S, kern) = source
    monos = monomials_total_degree(m, n2, deg)
    pos = {mo: i for i, mo in enumerate(monos)}
    N = len(target[0])
    images = _double_factor_map(monos, n2, target[0])
    if flip_eta:
        # negate one side of the splitting only; the all-eta flip would be
        # an automorphism of the double and no control at all
        images = [(idx, -c if idx < N else c) for idx, c in images]
    tprod = kkm_product(target)

    def product(i, j):
        return _poly_coords(kern(monos[i], monos[j]), S, pos, deg)

    def mul(u, v):
        (p, cp), = u.items()
        (q, cq), = v.items()
        w = tprod(p, q)
        if w is None:
            return None
        c = cp * cq
        return {r: c * x for r, x in w.items()}

    certified, skipped, fail = hom_scan(len(monos), product, mul,
                                        [{idx: c} for idx, c in images])
    ce = None
    if fail is not None:
        i, j, lhs, rhs = fail
        ce = {
            "indices": [i, j],
            "labels": [render_monomial(monos[i]), render_monomial(monos[j])],
            "mapped": {str(k): str(v) for k, v in lhs.items()},
            "direct": {str(k): str(v) for k, v in rhs.items()},
        }
    return Report(
        suite,
        params,
        {"certifiedPairs": certified, "skippedPairs": skipped,
         "srcDim": len(monos), "tgtDim": 2 * N},
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
    target = kkm_formula(BracketSpec.negated(BracketSpec.diagonal(k, n - 3)), deg)
    return _check_double_map(
        _jordan_h_kernel(k, n), target, deg, "iso-h-double",
        {"k": k, "n": n, "deg": deg, "target": f"JP({2*k},{n-3})"},
        flip_eta=flip_eta,
    )


def example72_iso(k: int, n: int, deg: int = 3, flip_eta: bool = False) -> Report:
    """The contact analogue: the induced Jordan product of the "k" fragment
    onto the double of the sign-flipped modified contact bracket."""
    if n < 3:
        raise ValueError("need n >= 3")
    target = kkm_formula(BracketSpec.diagonal(k, n - 3, has_time=True), deg,
                         negate_bracket=True)
    return _check_double_map(
        _jordan_k_kernel(k, n), target, deg, "iso-k-double",
        {"k": k, "n": n, "deg": deg, "target": f"JP({2*k+1},{n-3})"},
        flip_eta=flip_eta,
    )
