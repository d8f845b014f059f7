"""Golden table digests and reports of the builders and searches that run on
the sparse accumulate kernel `linalg.vec_iadd`: the matrix-realized Jordan
tables, F, the JCK double, H(0,4), the classical structure constants, the
short-grading search and the two splitting isomorphisms.

The digests and the canonical JSON (without timing) were recorded before
these builders were moved onto `vec_iadd` and `jordan._mat_mul`.  The JCK
digest was recorded when the double was built in its Pauli-type form over
Q(i); the test maps the rational table back to that form through the
diagonal change of basis stated in `build_jck`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from jsalg.jordan import build_jck, falg, glplus, ospplus, pplus, qplus
from jsalg.lieclass import (
    classical,
    enumerate_short_gradings,
    example71_iso,
    example72_iso,
    h_zero_n_lie,
)

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
