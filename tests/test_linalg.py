"""Exact sparse linear algebra: properties of the one echelon and the
coordinate solves built on it, over small random rational columns."""

from fractions import Fraction

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
def column_lists(draw):
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
    for row, p in zip(a.basis(), a.pivots()):
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
