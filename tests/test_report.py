"""The identity engine, report.scan, on fake chunk workers."""

import pytest

from jsalg.jordan import FiniteSuperAlgebra, check_jordan, check_relation10
from jsalg.report import scan
from jsalg.tkk import check_lie_table


def fake_worker(args):
    """Certifies every tuple of its chunk and skips one per chunk; a chunk
    whose lo is a key of the payload fails at its first tuple with the
    identity the payload maps it to."""
    fails, lo, hi = args
    if lo in fails:
        return 1, 1, fails[lo], (lo,), {"lo": lo}
    return hi - lo, 1, None, None, None


def test_a_failure_in_chunk_2_of_3_counts_chunks_1_and_2_only():
    # n = 9 on 3 workers: chunks [0, 3), [3, 6), [6, 9)
    assert scan(fake_worker, {3: "jacobi"}, 9, 3) == (3 + 1, 2, ("jacobi", (3,), {"lo": 3}))
    assert scan(fake_worker, {3: "jacobi", 6: "jacobi"}, 9, 3)[2][1] == (3,)


def test_an_antisymmetry_failure_in_a_later_chunk_outranks_an_earlier_failure():
    # the multiset scans presume antisymmetry on every pair
    got = scan(fake_worker, {0: "jacobi", 6: "antisymmetry"}, 9, 3)
    assert got == (1 + 3 + 1, 3, ("antisymmetry", (6,), {"lo": 6}))


@pytest.mark.parametrize("workers", [1, 2])
def test_nothing_to_scan_certifies_nothing(workers):
    assert scan(fake_worker, {}, 0, workers) == (0, 0, None)
    empty = FiniteSuperAlgebra([], [], {})
    for check, unit in ((check_jordan, "quadruple"), (check_relation10, "quadruple"),
                        (check_lie_table, "triple")):
        r = check(empty, workers=workers)
        assert r.counterexample == {"reason": f"no {unit} could be certified"}


def test_every_chunk_is_scanned():
    # fewer tuples than workers gives one chunk per tuple
    assert scan(fake_worker, {}, 2, 3) == (2, 2, None)
    # [0, 3), [3, 6), [6, 7): the short last chunk counts too
    assert scan(fake_worker, {}, 7, 3) == (7, 3, None)
    assert scan(fake_worker, {}, 7, 1) == (7, 1, None)
