"""The Example 7.1/7.2 splitting-map checks against a table reference, and
the work a refuted map does.

`lieclass.example71_iso` and `example72_iso` read each source and target
product when the intertwining scan reaches its pair, from the int monomial
kernels the tables are built from.  The reference below is the path they
replaced: build the whole source table (`references.short_subalgebra_jordan_h`/`_k`)
and the whole target double (`kkm_double`), then scan the two
FiniteSuperAlgebras pair by pair.  Every report must have the same bytes:
counts, counterexample and status."""

from fractions import Fraction

import pytest

from jsalg import brackets, lieclass
from jsalg.brackets import BracketSpec
from jsalg.jordan import kkm_double
from jsalg.linalg import vec_iadd
from jsalg.lieclass import example71_iso, example72_iso
from jsalg.report import Report
from jsalg.superpoly import monomials_total_degree
from references import short_subalgebra_jordan_h, short_subalgebra_jordan_k


def table_hom_scan(S, T, images):
    """The intertwining scan on two built tables, row-major, skipping a pair
    whose source or image product leaves its span; stops at the first
    failure."""
    certified = skipped = 0
    for i in range(S.dim):
        for j in range(S.dim):
            prod = S.product(i, j)
            rhs = None if prod is None else T.mul_vectors(images[i], images[j])
            if rhs is None:
                skipped += 1
                continue
            lhs: dict = {}
            for k, c in prod.items():
                vec_iadd(lhs, images[k], c)
            certified += 1
            if lhs != rhs:
                return certified, skipped, (i, j, lhs, rhs)
    return certified, skipped, None


def reference_map(src, monos, tgt, m_t, n_t, deg, suite, params, flip_eta):
    """The splitting-map report from the two built tables: a source monomial
    holding the carrier's last odd generator xi_c (index n_t, the target
    having one odd generator fewer) maps with the Koszul sign of moving
    xi_c to the front onto the plain part, any other onto the eta part."""
    target_monos = monomials_total_degree(m_t, n_t, deg)
    tpos = {mo: i for i, mo in enumerate(target_monos)}
    N = len(target_monos)
    c = n_t
    images = []
    for ev, odds in monos:
        if c in odds:
            sign = -1 if (len(odds) - 1) & 1 else 1
            images.append((tpos[(ev, odds[:-1])], Fraction(sign)))
        else:
            images.append((N + tpos[(ev, odds)], Fraction(1)))
    if flip_eta:
        images = [(idx, -x if idx < N else x) for idx, x in images]
    certified, skipped, fail = table_hom_scan(src, tgt, [{idx: x} for idx, x in images])
    ce = None
    if fail is not None:
        i, j, lhs, rhs = fail
        ce = {"indices": [i, j], "labels": [src.labels[i], src.labels[j]],
              "mapped": {str(k): str(v) for k, v in lhs.items()},
              "direct": {str(k): str(v) for k, v in rhs.items()}}
    return Report(suite, params,
                  {"certifiedPairs": certified, "skippedPairs": skipped,
                   "srcDim": src.dim, "tgtDim": tgt.dim},
                  "pass" if ce is None else "fail", ce)


def reference71(k, n, deg, flip_eta):
    src, monos, _ = short_subalgebra_jordan_h(k, n, deg)
    tgt = kkm_double(BracketSpec.negated(BracketSpec.diagonal(k, n - 3)), deg)
    return reference_map(src, monos, tgt, 2 * k, n - 3, deg, "iso-h-double",
                         {"k": k, "n": n, "deg": deg, "target": f"JP({2*k},{n-3})"},
                         flip_eta)


def reference72(k, n, deg, flip_eta):
    src, monos, _ = short_subalgebra_jordan_k(k, n, deg)
    tgt = kkm_double(BracketSpec.diagonal(k, n - 3, has_time=True), deg,
                     negate_bracket=True)
    return reference_map(src, monos, tgt, 2 * k + 1, n - 3, deg, "iso-k-double",
                         {"k": k, "n": n, "deg": deg, "target": f"JP({2*k+1},{n-3})"},
                         flip_eta)


GRID = ([(example71_iso, reference71, k, n) for k, n in [(0, 4), (0, 5), (1, 3), (1, 4)]]
        + [(example72_iso, reference72, k, n) for k, n in [(0, 3), (0, 4), (1, 3)]])


@pytest.mark.parametrize("flip_eta", [False, True])
@pytest.mark.parametrize("deg", [2, 3])
@pytest.mark.parametrize("check, reference, k, n", GRID,
                         ids=[f"{c.__name__}({k},{n})" for c, _r, k, n in GRID])
def test_report_matches_the_table_reference(check, reference, k, n, deg, flip_eta):
    got = check(k, n, deg, flip_eta=flip_eta)
    want = reference(k, n, deg, flip_eta)
    assert got.to_json() == want.to_json()
    assert got.passed == (not flip_eta)
    assert got.certified_span["certifiedPairs"] > 0


def test_mutant_failure_matches_the_table_reference(monkeypatch):
    # the Euler-degree mutant of test_example72_negative_control: the
    # failing bytes of both paths agree
    monkeypatch.setattr(lieclass, "_non_t_degree", lambda mono: sum(mono[0]) - mono[0][0])
    got = example72_iso(0, 4, 3)
    assert not got.passed
    assert got.to_json() == reference72(0, 4, 3, False).to_json()


def _counting_kernel(monkeypatch, module, name):
    """Wrap the int kernel that module.name returns; returns the list of the
    pairs it is evaluated on."""
    calls = []
    helper = getattr(module, name)

    def wrapped(*args, **kwargs):
        *head, (S, kern) = helper(*args, **kwargs)

        def counted(a, b):
            calls.append((a, b))
            return kern(a, b)

        return (*head, (S, counted))

    monkeypatch.setattr(module, name, wrapped)
    return calls


def _counting_dmod_kernel(monkeypatch):
    """Count the evaluations of the double's eta-eta kernel, the dmod
    bracket kernel `jordan.kkm_formula` compiles."""
    calls = []
    compile_kernel = brackets._compile

    def wrapped(spec):
        S, kern = compile_kernel(spec)
        if spec.kind != "dmod":
            return S, kern

        def counted(a, b):
            calls.append((a, b))
            return kern(a, b)

        return S, counted

    monkeypatch.setattr(brackets, "_compile", wrapped)
    return calls


@pytest.mark.parametrize("check, helper, k, n", [(example71_iso, "_jordan_h_kernel", 1, 4),
                                                 (example72_iso, "_jordan_k_kernel", 1, 3)])
def test_refuted_map_reads_only_its_scanned_pairs(monkeypatch, check, helper, k, n):
    src_calls = _counting_kernel(monkeypatch, lieclass, helper)
    eta_calls = _counting_dmod_kernel(monkeypatch)
    r = check(k, n, 3, flip_eta=True)
    span = r.certified_span
    scanned = span["certifiedPairs"] + span["skippedPairs"]
    assert not r.passed
    assert len(src_calls) == scanned
    assert len(set(src_calls)) == scanned  # no pair is evaluated twice
    assert 10 * len(src_calls) < span["srcDim"] ** 2
    assert len(eta_calls) <= span["certifiedPairs"]


@pytest.mark.parametrize("check, helper, k, n", [(example71_iso, "_jordan_h_kernel", 0, 4),
                                                 (example72_iso, "_jordan_k_kernel", 0, 3)])
def test_certified_map_reads_every_pair_once(monkeypatch, check, helper, k, n):
    src_calls = _counting_kernel(monkeypatch, lieclass, helper)
    eta_calls = _counting_dmod_kernel(monkeypatch)
    r = check(k, n, 3)
    span = r.certified_span
    assert r.passed
    assert len(src_calls) == len(set(src_calls)) == span["srcDim"] ** 2
    # the image map is a bijection onto the double's basis, so each eta-eta
    # pair of the double is read at most once
    assert len(eta_calls) == len(set(eta_calls)) <= (span["tgtDim"] // 2) ** 2
