"""Golden table digests and reports of the builders and searches that run on
the sparse accumulate kernel `linalg.vec_iadd`: the matrix-realized Jordan
tables, F, the JCK double, H(0,4), the classical structure constants, the
short-grading search and the two splitting isomorphisms.

The digests and the canonical JSON (without timing) were recorded before
these builders were moved onto `vec_iadd` and `jordan._mat_mul`.  The JCK
digest was recorded when the double was built in its Pauli-type form over
Q(i); the test maps the rational table back to that form through the
diagonal change of basis stated in `build_jck`.

The "builders" digests pin every table that the matrix-span builder and
the monomial-product builder make: the whole identity catalog, the
classical structures of the short-grading battery, H(0,3), the four H/K
fragments and the induced Jordan products.  Each covers the name, labels,
parities, constants and sorted out-of-span pairs; they were recorded before
`lieclass` was moved onto the builders of `jordan`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from jsalg.acceptance import SHORT_GRADING_TARGETS
from jsalg.jordan import (
    build_jck,
    falg,
    glplus,
    identity_catalog,
    ospplus,
    pplus,
    qplus,
)
from jsalg.lieclass import (
    build_hk,
    classical,
    enumerate_short_gradings,
    example71_iso,
    example72_iso,
    h_zero_n_lie,
)
from references import short_subalgebra_jordan_h, short_subalgebra_jordan_k

GOLDEN = json.loads(Path(__file__).with_name("golden_tables.json").read_text())


def digest(labels, parities, table):
    entries = sorted([i, j, k, str(c)] for (i, j), vec in table.items()
                     for k, c in vec.items())
    return hashlib.sha256(json.dumps(
        {"labels": labels, "parities": parities, "c": entries},
        separators=(",", ":")).encode()).hexdigest()


def pauli_form(J):
    """The JCK table with each constant rendered as its Pauli-type
    counterpart c * i^n, n = n_k - n_r - n_c, where n_t = 1 for a basis
    vector t whose unit is i, j or k and 0 otherwise."""
    n = [0 if label.endswith("(x)1") else 1 for label in J.labels]
    render = {0: str, -2: lambda v: str(-v),
              1: lambda v: f"{v}*i", -1: lambda v: f"{-v}*i"}
    return {(r, c): {k: render[n[k] - n[r] - n[c]](v) for k, v in vec.items()}
            for (r, c), vec in J.table.items()}


TABLES = {
    "gl(2,2)+": lambda: glplus(2, 2),
    "osp(2,2)+": lambda: ospplus(2, 2),
    "p(2)+": lambda: pplus(2),
    "q(2)+": lambda: qplus(2),
    "F": falg,
    "JCK|deg1": lambda: build_jck(1),
    "H(0,4)": lambda: h_zero_n_lie(4),
}

REPORTS = {
    "short-gradings so5": lambda: enumerate_short_gradings(classical("so", 5)),
    "example71 (0,4)": lambda: example71_iso(0, 4),
    "example72 (0,3) flip": lambda: example72_iso(0, 3, flip_eta=True),
    # truncated doubles: most pairs leave the span and are skipped
    "example71 (1,3)": lambda: example71_iso(1, 3),
    "example72 (1,3)": lambda: example72_iso(1, 3),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_digest(name):
    J = TABLES[name]()
    table = pauli_form(J) if name == "JCK|deg1" else J.table
    assert digest(J.labels, J.parities, table) == GOLDEN["tables"][name]


@pytest.mark.parametrize("family, size", [("sl", 4), ("so", 5), ("so", 6), ("sp", 4)])
def test_classical_structure_digest(family, size):
    L = classical(family, size)
    assert (digest(L.labels, [0] * L.dim, L.structure())
            == GOLDEN["structures"][f"{family}{size}"])


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_json(name):
    assert REPORTS[name]().to_json() == GOLDEN["reports"][name]


def table_digest(J):
    """Name, labels, parities, constants and sorted out-of-span pairs."""
    entries = sorted([i, j, k, str(c)] for (i, j), vec in J.table.items()
                     for k, c in vec.items())
    return hashlib.sha256(json.dumps(
        {"name": J.name, "labels": J.labels, "parities": J.parities,
         "c": entries, "outOfSpan": sorted(map(list, J.out_of_span))},
        separators=(",", ":")).encode()).hexdigest()


BUILDER_TABLES = {
    **{f"catalog {name}": thunk for name, thunk in identity_catalog()},
    **{f"classical {fam}{size}": lambda f=fam, s=size: classical(f, s).algebra
       for fam, size in SHORT_GRADING_TARGETS},
    "H(0,3)": lambda: h_zero_n_lie(3),
    **{f"build_hk {kind}({k},{n})": lambda a=kind, b=k, c=n: build_hk(a, b, c, 3)[0].algebra
       for kind, k, n in [("h", 0, 4), ("h", 1, 3), ("k", 0, 3), ("k", 1, 3)]},
    "jordan_h(0,4,3)": lambda: short_subalgebra_jordan_h(0, 4, 3)[0],
    "jordan_k(0,3,3)": lambda: short_subalgebra_jordan_k(0, 3, 3)[0],
    "jordan_k(1,3,2)": lambda: short_subalgebra_jordan_k(1, 3, 2)[0],
}


@pytest.mark.parametrize("name", sorted(BUILDER_TABLES))
def test_builder_table_digest(name):
    assert table_digest(BUILDER_TABLES[name]()) == GOLDEN["builders"][name]
