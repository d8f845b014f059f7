"""Classical short gradings, the H/K fragments, and the double splittings."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsalg import lieclass
from jsalg.brackets import BracketSpec
from jsalg.jordan import check_jordan, check_simple
from jsalg.lieclass import (
    build_hk,
    candidate_vertices,
    classical,
    classified_short_vertices,
    coweight_h,
    enumerate_short_gradings,
    example71_iso,
    example72_iso,
    find_short_triple,
    h_zero_n_lie,
    killing_row,
    _non_t_degree,
)
from jsalg.linalg import vec_iadd
from jsalg.superpoly import mono_degree
from jsalg.tkk import check_lie_table
from references import short_subalgebra_jordan_h, short_subalgebra_jordan_k


def _coords(L, mat):
    return {k: c for k, c in enumerate(L.to_coords(mat)) if c}


def reference_ad(L, vec):
    """ad vec as a coordinate colmap by the column loop over the structure
    constants: column j sums c_i [X_i, X_j]."""
    sc = L.structure()
    out = {}
    for j in range(L.dim):
        col: dict = {}
        for i, ci in vec.items():
            p = sc.get((i, j))
            if p:
                vec_iadd(col, p, ci)
        if col:
            out[j] = col
    return out


cached_classical = cache(classical)


def killing(L, X, Y):
    """kappa(X, Y): the dot product of X with the Killing row of Y."""
    row = killing_row(L, L.ad(Y))
    return sum((c * row.get(i, 0) for i, c in X.items()), Fraction(0))


@pytest.mark.parametrize("fam, size", [("sl", 4), ("so", 5), ("sp", 4)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ad_matches_the_column_loop(fam, size, data):
    L = cached_classical(fam, size)
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 7))
    vec = data.draw(st.dictionaries(st.integers(0, L.dim - 1), coeff, max_size=L.dim))
    assert L.ad(vec) == reference_ad(L, vec)


def test_killing_value_sl4():
    L = classical("sl", 4)
    h = {(i, i): Fraction(1, 2) if i < 2 else Fraction(-1, 2) for i in range(4)}
    hc = _coords(L, h)
    assert killing(L, hc, hc) == 8


def test_killing_symmetry_and_invariance():
    L = classical("sp", 4)
    u = {0: Fraction(1), 3: Fraction(-2)}
    v = {1: Fraction(1, 2), 2: Fraction(3)}
    w = {4: Fraction(1)}
    assert killing(L, u, v) == killing(L, v, u)
    # ad-invariance: K([u,v], w) + K(v, [u,w]) = 0
    assert killing(L, L.algebra.mul_vectors(u, v), w) + killing(
        L, v, L.algebra.mul_vectors(u, w)
    ) == 0


def _trace_ad_ad(L, X, Y):
    """tr(ad X ad Y) from the two ad matrices, entry by entry."""
    adX, adY = L.ad(X), L.ad(Y)
    return sum((v * adX.get(k, {}).get(j, 0)
                for j, col in adY.items() for k, v in col.items()), Fraction(0))


def _trace_form(A, B):
    """tr(AB) for sparse matrices (r, c) -> entry."""
    return sum((v * B.get((c, r), 0) for (r, c), v in A.items()), Fraction(0))


# kappa = c * tr on the matrix realizations: 2n on sl(n), n - 2 on so(n),
# n + 2 on sp(n)
KILLING_TRACE = {"sl": lambda n: 2 * n, "so": lambda n: n - 2, "sp": lambda n: n + 2}


@pytest.mark.parametrize("fam,size", [("sl", 3), ("sl", 4), ("sl", 5), ("so", 5),
                                      ("so", 6), ("so", 7), ("so", 8), ("sp", 4),
                                      ("sp", 6)])
def test_killing_form_is_the_trace_form_times_the_closed_form_constant(fam, size):
    L = classical(fam, size)
    c = KILLING_TRACE[fam](size)
    for j, Xj in enumerate(L.basis):
        assert killing_row(L, L.ad({j: Fraction(1)})) == {
            i: c * t for i, Xi in enumerate(L.basis) if (t := _trace_form(Xi, Xj))}


@pytest.mark.parametrize("fam,size", [("sl", 4), ("so", 6), ("sp", 6)])
def test_killing_row_matches_the_ad_trace_and_the_pairing(fam, size):
    L = classical(fam, size)
    for vertex in candidate_vertices(L):
        h = _coords(L, coweight_h(L, vertex))
        row = killing_row(L, L.ad(h))
        for i in range(L.dim):
            e_i = {i: Fraction(1)}
            assert row.get(i, 0) == _trace_ad_ad(L, e_i, h) == killing(L, e_i, h)
        X = {i: Fraction(i - 3, 2) for i in range(0, L.dim, 3)}
        assert killing(L, X, h) == _trace_ad_ad(L, X, h)


def test_classical_dimensions():
    assert classical("sl", 4).dim == 15
    assert classical("so", 5).dim == 10
    assert classical("so", 8).dim == 28
    assert classical("sp", 6).dim == 21


def test_sp4_triple_from_fixed_h():
    L = classical("sp", 4)
    h = coweight_h(L, 2)
    # the fixed grading element is half the split diagonal
    assert h == {(i, i): Fraction(1, 2) if i < 2 else Fraction(-1, 2)
                 for i in range(4)}
    triple, records, eig = find_short_triple(L, h, seed=0)
    assert triple is not None
    assert all(r["solvable"] == r["condition17"] for r in records)


def test_sl3_has_no_short_subalgebra():
    L = classical("sl", 3)
    for vertex in candidate_vertices(L):
        triple, records, _ = find_short_triple(L, coweight_h(L, vertex), seed=0)
        assert triple is None
        assert all(not r["solvable"] and not r["condition17"] for r in records)


@pytest.mark.parametrize("fam,size", [("sl", 3), ("sl", 4), ("so", 5),
                                      ("so", 6), ("sp", 4), ("so", 8)])
def test_enumeration_matches_classification(fam, size):
    L = classical(fam, size)
    r = enumerate_short_gradings(L)
    assert r.passed
    found = {v["vertex"] for v in r.certified_span["vertices"]
             if v["shortSubalgebra"]}
    assert found == set(classified_short_vertices(fam, size))


def test_sl_below_two_is_refused():
    # sl(1) and sl(0) are the zero algebra: no grading to enumerate
    for n in range(2):
        with pytest.raises(ValueError, match="sl"):
            classical("sl", n)
    assert classical("sl", 2).dim == 3
    # built by hand, its empty table is refused as before
    with pytest.raises(ValueError, match="empty basis"):
        lieclass.ClassicalAlgebra("sl", 1, [], [], 0).algebra


def test_so_below_five_is_refused():
    # so(4) would list candidate vertex 1 twice, and so(3) is sl(2)
    for n in range(5):
        with pytest.raises(ValueError, match="so"):
            classical("so", n)


def test_enumeration_without_candidate_vertices_does_not_pass():
    # the zero algebra, built by hand: classical() refuses it
    r = enumerate_short_gradings(lieclass.ClassicalAlgebra("sl", 1, [], [], 0))
    assert r.certified_span["vertices"] == []
    assert not r.passed
    assert "reason" in r.counterexample


def test_hk_fragments_and_their_gradings():
    for kind, k, n in [("h", 0, 4), ("h", 1, 3), ("k", 0, 3), ("k", 1, 3)]:
        lie, triple, rep = build_hk(kind, k, n, 3)
        assert rep.passed
        assert check_lie_table(lie.algebra).passed
        assert set(lie.grading) <= {-1, 0, 1}
        assert triple["e"] and triple["h"] and triple["f"]


def test_hk_fragment_catches_a_planted_negated_bracket(monkeypatch):
    # negating every generator value flips ad h, so each triple relation and
    # the grading fail, the grading first at a monomial of nonzero degree
    class Negated:
        @staticmethod
        def h_type(k, n):
            return BracketSpec.negated(BracketSpec.h_type(k, n))

    monkeypatch.setattr(lieclass, "BracketSpec", Negated)
    lie, _triple, rep = build_hk("h", 0, 4)
    failures = rep.counterexample["failures"]
    assert failures[:3] == ["[h,e] != -e", "[h,f] != f", "[e,f] != h"]
    first = next(i for i, g in enumerate(lie.grading) if g)
    assert len(failures) == 4 and failures[3].endswith(f" {lie.algebra.labels[first]}")


def test_hk_parameter_guards():
    with pytest.raises(ValueError):
        build_hk("h", 0, 3, 3)
    with pytest.raises(ValueError):
        build_hk("k", 0, 2, 3)


def test_h0n_simplicity_threshold():
    assert not check_simple(h_zero_n_lie(3))
    assert check_simple(h_zero_n_lie(4))
    assert h_zero_n_lie(3).dim == 6
    assert h_zero_n_lie(4).dim == 14


def test_induced_products_are_jordan():
    J, _, _ = short_subalgebra_jordan_h(0, 4, 3)
    assert check_jordan(J).passed
    J, _, _ = short_subalgebra_jordan_k(0, 3, 3)
    assert check_jordan(J).passed
    J, _, _ = short_subalgebra_jordan_k(1, 3, 2)
    r = check_jordan(J)
    assert r.passed and r.certified_span["certifiedQuadruples"] > 0


def test_example71_splitting():
    for k, n in [(0, 4), (0, 5), (1, 3)]:
        r = example71_iso(k, n, 3)
        assert r.passed and r.certified_span["certifiedPairs"] > 0


def test_example71_negative_control():
    assert not example71_iso(0, 4, 3, flip_eta=True).passed


def test_example72_splitting():
    for k, n in [(0, 3), (0, 4)]:
        r = example72_iso(k, n, 3)
        assert r.passed and r.certified_span["certifiedPairs"] > 0


def _degree_without_odds(mono):
    # corrupt Euler eigenvalue: count only the even non-t generators
    return sum(mono[0]) - mono[0][0]


def _same_table(a, b):
    return a.table == b.table and a.out_of_span == b.out_of_span


def test_example72_negative_control(monkeypatch):
    assert not example72_iso(0, 4, 3, flip_eta=True).passed
    clean, _, _ = short_subalgebra_jordan_k(0, 4, 3)
    monkeypatch.setattr(lieclass, "_non_t_degree", _degree_without_odds)
    corrupt, _, _ = short_subalgebra_jordan_k(0, 4, 3)
    assert not _same_table(corrupt, clean)
    assert not example72_iso(0, 4, 3).passed


def test_euler_time_inclusion_is_invisible(monkeypatch):
    # the contact product is invariant under adding the t-term to the Euler
    # operator: the change cancels between the two antisymmetrized terms
    # (the lemma of test_poly_kernels' reference t-term test)
    a1, _, _ = short_subalgebra_jordan_k(0, 4, 3)
    moved = []

    def with_time(mono):
        if mono[0][0]:
            moved.append(mono)
        return mono_degree(mono)

    monkeypatch.setattr(lieclass, "_non_t_degree", with_time)
    a2, _, _ = short_subalgebra_jordan_k(0, 4, 3)
    assert moved  # the kernel read a degree the mutant changed
    assert _same_table(a2, a1)
    # the cancellation needs a change proportional to the t exponent: one more
    # on every monomial that holds t, through the same degree, is visible
    monkeypatch.setattr(lieclass, "_non_t_degree",
                        lambda mono: _non_t_degree(mono) + (1 if mono[0][0] else 0))
    a3, _, _ = short_subalgebra_jordan_k(0, 4, 3)
    assert not _same_table(a3, a1)
