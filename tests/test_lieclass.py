"""Classical short gradings, the H/K fragments, and the double splittings."""

from fractions import Fraction

import pytest

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
    killing_pairing,
    short_subalgebra_jordan_h,
    short_subalgebra_jordan_k,
)
from jsalg.tkk import check_lie_table


def _coords(L, mat):
    return {k: c for k, c in enumerate(L.to_coords(mat)) if c}


def test_killing_value_sl4():
    L = classical("sl", 4)
    h = {(i, i): Fraction(1, 2) if i < 2 else Fraction(-1, 2) for i in range(4)}
    hc = _coords(L, h)
    assert killing_pairing(L, hc, hc) == 8


def test_killing_symmetry_and_invariance():
    L = classical("sp", 4)
    u = {0: Fraction(1), 3: Fraction(-2)}
    v = {1: Fraction(1, 2), 2: Fraction(3)}
    w = {4: Fraction(1)}
    assert killing_pairing(L, u, v) == killing_pairing(L, v, u)
    # ad-invariance: K([u,v], w) + K(v, [u,w]) = 0
    assert killing_pairing(L, L.bracket_vec(u, v), w) + killing_pairing(
        L, v, L.bracket_vec(u, w)
    ) == 0


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


def test_enumeration_without_candidate_vertices_does_not_pass():
    r = enumerate_short_gradings(classical("sl", 1))
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


def test_example72_negative_control():
    assert not example72_iso(0, 4, 3, euler_mode="no_odds").passed
    assert not example72_iso(0, 4, 3, flip_eta=True).passed


def test_euler_time_inclusion_is_invisible():
    # the contact product is invariant under adding the t-term to the Euler
    # operator: the change cancels between the two antisymmetrized terms
    a1, _, _ = short_subalgebra_jordan_k(0, 4, 3)
    a2, _, _ = short_subalgebra_jordan_k(0, 4, 3, euler_mode="with_time")
    assert a1.table == a2.table and a1.out_of_span == a2.out_of_span
