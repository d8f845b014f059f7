"""The acceptance battery: one test per criterion, exact tolerances (zero
residual everywhere), one printed pass/fail line each."""

import hashlib

import pytest

from jsalg import acceptance as acc


def _run(name, fn, **kw):
    report = fn(**kw)
    line = f"[{'PASS' if report.passed else 'FAIL'}] criterion {name}"
    if report.elapsed_ms:
        line += f" ({report.elapsed_ms / 1000:.1f}s)"
    print(line)
    if not report.passed:
        pytest.fail(f"criterion {name}: {report.counterexample}")
    return report


def test_criterion_1_jordan_identities():
    r = _run("1 jordan-identities", acc.criterion_1_jordan_identities)
    # the battery covers the whole catalog, both identities each
    assert len(r.details["subSuites"]) == 2 * 67
    # the canonical JSON, byte for byte as the relation (10) scan gave it
    assert _sha256(r) == "d95fd5c476b2e692b96e27a2675648f7b4fe8d62617bd4901f674fcd11d232c3"


def _sha256(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_criterion_2_brackets():
    r = _run("2 brackets", acc.criterion_2_brackets)
    assert all(s == "pass" for s in r.details["subStatus"])
    # the canonical JSON, byte for byte as the Fraction evaluation gave it
    assert _sha256(r) == "4d7114d4015847b1f02c202eab1a4ecb1b4fdd1c256ec5047ffa28724dae8682"


def test_criterion_3_schouten():
    r = _run("3 schouten", acc.criterion_3_schouten)
    assert _sha256(r) == "3cfc150299e6e628afb6e8907570a219fbc43f5208e114d30949528e709d9a4a"


# criteria 4-7 run the table product kernel; their canonical JSON is
# pinned as the Fraction accumulate loop of mul_vectors gave it


def test_criterion_4_tkk():
    r = _run("4 tkk", acc.criterion_4_tkk)
    assert _sha256(r) == "8f9d9ea2ae6bd560c3ec5f2f23b3d5dba578c40aff808deb0c7e35b4830eb53c"


def test_criterion_5_simplicity():
    r = _run("5 simplicity", acc.criterion_5_simplicity)
    assert _sha256(r) == "1581fb52ba974acdb55ea488ac3ac8b411673d7ab1ed52bd98756b9d30276341"


def test_criterion_6_short_gradings():
    r = _run("6 short-gradings", acc.criterion_6_short_gradings)
    assert _sha256(r) == "8af45a48e9bdb6cf34527d4bad17213fa6ebc1bcd7930ce3f9cc1cba6713385f"


def test_criterion_7_isomorphisms():
    r = _run("7 isomorphisms", acc.criterion_7_isomorphisms)
    assert _sha256(r) == "05d12dec58e304917322276ccf6ea00bc5c219ecf13185615a7938979e98e47c"


def test_criterion_8_semidirect():
    r = _run("8 semidirect", acc.criterion_8_semidirect)
    assert r.to_json() == (
        '{"certifiedSpan":[{"carrierDim":4,"s0Certified":8,"s0ComputableSpan":8,'
        '"s1Certified":3,"s1ComputableSpan":3,"sMinus1":3,"window":4},'
        '{"carrierDim":51,"s0Certified":22,"s0ComputableSpan":89,"s1Certified":8,'
        '"s1ComputableSpan":38,"sMinus1":8,"window":9}],'
        '"details":{"subStatus":["pass","pass"],'
        '"subSuites":["semidirect[K]","semidirect[JS|deg3]"]},'
        '"params":{"seed":0},"status":"pass","suite":"criterion-8-semidirect"}'
    )


def test_criterion_9_determinism():
    _run("9 determinism", acc.criterion_9_determinism)
