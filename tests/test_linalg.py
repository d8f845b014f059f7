"""Exact sparse linear algebra: properties of the one echelon and the
coordinate solves built on it, and exact agreement of its fraction-free
elimination with a Fraction reference.

The reference below is Fraction elimination written out directly: rows
normalized to pivot 1, each step one scaled sparse add.  The echelon of
jsalg must give the same bases, residuals, coordinates and kernels, entry
for entry and in the same key order."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from jsalg.linalg import CoordSolver, Echelon, nullspace, solve_linear, vec_iadd

KEYS = 5
OUTSIDE = KEYS  # a coordinate no column uses

scalars = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
vectors = st.dictionaries(st.integers(0, KEYS - 1), scalars, max_size=KEYS).map(
    lambda v: {k: c for k, c in v.items() if c})


def combine(columns, coeffs):
    out = {}
    for col, c in zip(columns, coeffs):
        for k, x in col.items():
            s = out.get(k, 0) + c * x
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


@st.composite
def column_lists(draw, vectors=vectors, scalars=scalars):
    """Fresh columns mixed with duplicates and combinations of earlier ones."""
    cols = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("fresh", "dup", "comb")))
        if kind == "fresh" or not cols:
            cols.append(draw(vectors))
        elif kind == "dup":
            cols.append(dict(draw(st.sampled_from(cols))))
        else:
            coeffs = draw(st.lists(scalars, min_size=len(cols), max_size=len(cols)))
            cols.append(combine(cols, coeffs))
    return cols


def dependent_positions(columns):
    ech = Echelon()
    return [j for j, col in enumerate(columns) if ech.insert(dict(col)) is None]


def rank_of(columns):
    ech = Echelon()
    for col in columns:
        ech.insert(dict(col))
    return ech.rank


@settings(max_examples=300, deadline=None)
@given(vectors, vectors, st.one_of(st.just(0), st.just(1), scalars))
def test_vec_iadd_is_the_dense_sum_and_stores_no_zero(u, v, c):
    out, before = dict(u), dict(v)
    vec_iadd(out, v, c)
    dense = [u.get(k, 0) + c * v.get(k, 0) for k in range(KEYS)]
    assert set(out) <= set(range(KEYS))
    assert [out.get(k, 0) for k in range(KEYS)] == dense
    assert all(x != 0 for x in out.values())
    assert v == before


@settings(max_examples=150, deadline=None)
@given(column_lists(), st.randoms(use_true_random=False))
def test_echelon_basis_is_independent_of_insertion_order(columns, rnd):
    a, b = Echelon(), Echelon()
    for col in columns:
        a.insert(dict(col))
    shuffled = list(columns)
    rnd.shuffle(shuffled)
    for col in shuffled:
        b.insert(dict(col))
    assert a.basis() == b.basis()
    assert a.rank == b.rank
    for row, p in zip(a.basis(), sorted(a.rows)):
        assert row[p] == 1 and min(row) == p


@settings(max_examples=150, deadline=None)
@given(column_lists(), st.data())
def test_coordinate_solves_rebuild_targets_in_the_span(columns, data):
    coeffs = data.draw(st.lists(scalars, min_size=len(columns), max_size=len(columns)))
    target = combine(columns, coeffs)
    dependent = dependent_positions(columns)
    solver = CoordSolver([dict(c) for c in columns])
    for sol in (solver.solve(dict(target)),
                solve_linear([dict(c) for c in columns], dict(target))):
        assert sol is not None and len(sol) == len(columns)
        assert combine(columns, sol) == target
        assert all(sol[j] == 0 for j in dependent)
    coords = _echelon(columns).solve(dict(target))
    assert coords is not None
    assert combine(_echelon(columns).basis(), coords) == target


@settings(max_examples=150, deadline=None)
@given(column_lists(), vectors, st.integers(1, 3))
def test_coordinate_solves_refuse_targets_outside_the_span(columns, v, c):
    target = dict(v)
    target[OUTSIDE] = Fraction(c)
    assert CoordSolver([dict(col) for col in columns]).solve(dict(target)) is None
    assert solve_linear([dict(col) for col in columns], dict(target)) is None
    assert _echelon(columns).solve(dict(target)) is None
    # a target outside the span is outside for all three, whatever its support
    inside = _echelon(columns).contains(v)
    assert (solve_linear([dict(col) for col in columns], dict(v)) is not None) == inside
    assert (_echelon(columns).solve(dict(v)) is not None) == inside


@settings(max_examples=150, deadline=None)
@given(column_lists())
def test_nullspace_vectors_are_kernel_vectors_and_count_the_corank(columns):
    kernel = nullspace([dict(c) for c in columns])
    assert len(kernel) == len(columns) - rank_of(columns)
    for ker in kernel:
        assert ker
        assert combine(columns, [ker.get(j, 0) for j in range(len(columns))]) == {}
    # independent: their coefficient vectors have full rank
    assert rank_of(kernel) == len(kernel)


def _echelon(columns):
    ech = Echelon()
    for col in columns:
        ech.insert(dict(col))
    return ech


# -- the Fraction reference -----------------------------------------------------------


class RefEchelon:
    """RREF over Fractions: rows normalized to pivot 1, reduced against each
    other; the residual eliminates the first pivot coordinate it holds."""

    def __init__(self):
        self.rows = {}

    def pivots(self):
        return sorted(self.rows)

    def basis(self):
        return [self.rows[p] for p in sorted(self.rows)]

    def reduce(self, vec):
        out = dict(vec)
        while True:
            hit = next((k for k in out if k in self.rows), None)
            if hit is None:
                return out
            vec_iadd(out, self.rows[hit], -out[hit])

    def insert(self, vec):
        res = self.reduce(vec)
        if not res:
            return None
        return self.place(res, min(res))

    def place(self, res, piv):
        inv = Fraction(1) / res[piv]
        row = {k: inv * x for k, x in res.items()}
        for r in self.rows.values():
            c = r.get(piv)
            if c:
                vec_iadd(r, row, -c)
        self.rows[piv] = row
        return piv

    def solve(self, vec):
        if self.reduce(vec):
            return None
        return [vec.get(p, Fraction(0)) for p in sorted(self.rows)]


def _is_marker(k):
    return isinstance(k, tuple) and len(k) == 2 and k[0] == -1


def _ref_main_pivot(vec):
    keys = [k for k in vec if not _is_marker(k)]
    return min(keys) if keys else None


class RefCoordSolver:
    """Column j carries the marker entry 1 at (-1, j) once reduced."""

    def __init__(self, columns=()):
        self.ech = RefEchelon()
        self.ncols = 0
        for col in columns:
            self.place(col, self.ncols)
            self.ncols += 1

    def add(self, col):
        if self.place(col, self.ncols) is None:
            return False
        self.ncols += 1
        return True

    def place(self, col, j):
        res = self.ech.reduce(col)
        piv = _ref_main_pivot(res)
        if piv is not None:
            res[(-1, j)] = Fraction(1)
            self.ech.place(res, piv)
        return piv

    def solve(self, target):
        res = self.ech.reduce(target)
        if _ref_main_pivot(res) is not None:
            return None
        coeffs = [Fraction(0)] * self.ncols
        for k, x in res.items():
            coeffs[k[1]] = -x
        return coeffs


def ref_nullspace(columns):
    ech = RefEchelon()
    kernels = []
    for j, col in enumerate(columns):
        v = dict(col)
        v[(-1, j)] = Fraction(1)
        res = ech.reduce(v)
        piv = _ref_main_pivot(res)
        if piv is None:
            kernels.append({k[1]: x for k, x in res.items()})
        else:
            ech.place(res, piv)
    return kernels


# -- exact agreement with the reference -----------------------------------------------

# large numerators, prime denominators up to 97, next to the small scalars
# that make combinations cancel
wide_scalars = st.one_of(
    scalars, st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 97)))
# (r, c) keys as the matrix spans of lieclass use them; r >= 0, so no key
# is a marker (-1, j)
pair_keys = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _vectors(keys):
    return st.dictionaries(keys, wide_scalars, max_size=KEYS).map(
        lambda v: {k: c for k, c in v.items() if c})


wide_int_vectors = _vectors(st.integers(0, KEYS - 1))
wide_pair_vectors = _vectors(pair_keys)
wide_cases = st.one_of(
    st.tuples(column_lists(wide_int_vectors, wide_scalars),
              st.lists(wide_int_vectors, max_size=3)),
    st.tuples(column_lists(wide_pair_vectors, wide_scalars),
              st.lists(wide_pair_vectors, max_size=3)),
)


def _items(vec):
    """A vector's entries in key order: equal vectors with equal key order."""
    return None if vec is None else list(vec.items())


def _targets(columns, targets):
    """Targets to test against a column list: combinations of the columns
    (inside the span) and free vectors (mostly outside)."""
    out = [dict(t) for t in targets]
    if columns:
        out.append(combine(columns, [Fraction(j + 2, 3) for j in range(len(columns))]))
        out.append(dict(columns[-1]))
    return out


@settings(max_examples=200, deadline=None)
@given(wide_cases)
def test_echelon_matches_the_fraction_reference(case):
    columns, targets = case
    ech, ref = Echelon(), RefEchelon()
    for col in columns:
        assert ech.insert(dict(col)) == ref.insert(dict(col))
    assert sorted(ech.rows) == ref.pivots()
    assert [_items(r) for r in ech.basis()] == [_items(r) for r in ref.basis()]
    for t in _targets(columns, targets):
        assert _items(ech.reduce(t)) == _items(ref.reduce(t))
        assert ech.solve(t) == ref.solve(t)
        assert ech.contains(t) == (not ref.reduce(t))


@settings(max_examples=200, deadline=None)
@given(wide_cases)
def test_echelon_rows_are_primitive_int_multiples_of_the_rref_rows(case):
    columns, _ = case
    ech, ref = Echelon(), RefEchelon()
    for col in columns:
        ech.insert(dict(col))
        ref.insert(dict(col))
        for p, row in ech.rows.items():
            assert all(type(x) is int and x for x in row.values())
            assert gcd(*row.values()) == 1 and row[p] > 0
            assert {k: Fraction(x, row[p]) for k, x in row.items()} == ref.rows[p]


@settings(max_examples=200, deadline=None)
@given(wide_cases)
def test_coordinate_solves_and_kernels_match_the_fraction_reference(case):
    columns, targets = case
    solver, ref = CoordSolver([dict(c) for c in columns]), RefCoordSolver(columns)
    grown, ref_grown = CoordSolver(), RefCoordSolver()
    for col in columns:
        assert grown.add(dict(col)) == ref_grown.add(dict(col))
    for t in _targets(columns, targets):
        want = ref.solve(dict(t))
        assert solver.solve(dict(t)) == want
        assert solve_linear([dict(c) for c in columns], dict(t)) == want
        assert grown.solve(dict(t)) == ref_grown.solve(dict(t))
    assert ([_items(k) for k in nullspace([dict(c) for c in columns])]
            == [_items(k) for k in ref_nullspace(columns)])


def test_int_inputs_give_the_rational_answers():
    columns = [{0: 2, 1: 4}, {1: 3, 2: 6}, {0: 2, 1: 7, 2: 6}]
    assert nullspace(columns) == [{2: Fraction(1), 0: Fraction(-1), 1: Fraction(-1)}]
    assert solve_linear(columns[:2], {0: 1, 1: 5, 2: 6}) == [Fraction(1, 2), Fraction(1)]
    ech = _echelon(columns)
    assert ech.basis() == [{0: 1, 2: -4}, {1: 1, 2: 2}]
    assert ech.reduce({2: 3, 1: 1}) == {2: 1}
