"""Bracket evaluations and the exhaustive identity drivers."""

from fractions import Fraction
from unittest import mock

import pytest

from jsalg.brackets import (
    BracketSpec,
    DerivationD,
    bracket,
    check_gen_leibniz,
    check_jacobi,
    check_kmc,
    gauge_twist,
    mul_by_inverse,
)
from jsalg.superpoly import SuperPoly, even_var, monomials, mul, odd_var


def xiv(m, n, j):
    return SuperPoly.variable(m, n, odd_var(j))


def xv(m, n, i):
    return SuperPoly.variable(m, n, even_var(i))


def test_pairing_on_generators():
    spec = BracketSpec.h_type(1, 0)
    p, q = xv(2, 0, 0), xv(2, 0, 1)
    assert bracket(spec, p, q) == SuperPoly.one(2, 0)
    assert bracket(spec, q, p) == -SuperPoly.one(2, 0)


def test_contact_bracket_on_constants():
    spec = BracketSpec.k_type(0, 3)
    one = SuperPoly.one(1, 3)
    g = mul(xv(1, 3, 0), xiv(1, 3, 0))
    # {1, g} = 2 dg/dt
    assert bracket(spec, one, g) == xiv(1, 3, 0).scale(2)


def test_contact_bracket_t_against_generator():
    spec = BracketSpec.k_type(0, 3)
    t = xv(1, 3, 0)
    assert bracket(spec, t, xiv(1, 3, 0)) == -xiv(1, 3, 0)


def test_h_bracket_lowers_even_degree_by_two():
    # on even monomials of degree <= 1 the value is a scalar
    spec = BracketSpec.h_type(2, 0)
    monos = monomials(4, 0, 1)
    for m1 in monos:
        for m2 in monos:
            val = bracket(
                spec,
                SuperPoly(4, 0, {m1: Fraction(1)}),
                SuperPoly(4, 0, {m2: Fraction(1)}),
            )
            assert set(val.terms) <= {((0,) * 4, ())}  # zero or a constant


def test_bracket_parity_preserving():
    spec = BracketSpec.h_type(1, 2)
    monos = monomials(2, 2, 2)
    for m1 in monos:
        for m2 in monos:
            f = SuperPoly(2, 2, {m1: Fraction(1)})
            g = SuperPoly(2, 2, {m2: Fraction(1)})
            v = bracket(spec, f, g)
            if v:
                assert v.parity() == (f.parity() + g.parity()) % 2


def test_signature_mismatch_rejected():
    spec = BracketSpec.h_type(1, 0)
    with pytest.raises(ValueError):
        bracket(spec, SuperPoly.one(1, 0), SuperPoly.one(1, 0))


def test_superskew_recognition():
    assert BracketSpec.h_type(1, 3).is_superskew()
    assert BracketSpec.k_type(1, 2).is_superskew()
    bad = BracketSpec.custom(2, 0, [[0, 1], [1, 0]])
    assert not bad.is_superskew()


def test_d_modified_poisson_case_is_plain_bracket():
    spec = BracketSpec.h_type(1, 1)
    dspec = BracketSpec.d_modified(spec)
    monos = monomials(2, 1, 2)
    for m1 in monos:
        for m2 in monos:
            f = SuperPoly(2, 1, {m1: Fraction(1)})
            g = SuperPoly(2, 1, {m2: Fraction(1)})
            assert bracket(dspec, f, g) == bracket(spec, f, g)


def test_d_modified_contact_constant():
    # {1, g}_D = dg/dt, D = 2 d/dt the derivation of the contact bracket
    dspec = BracketSpec.d_modified(BracketSpec.k_type(0, 2))
    one = SuperPoly.one(1, 2)
    g = mul(xv(1, 2, 0), xv(1, 2, 0))
    assert bracket(dspec, one, g) == xv(1, 2, 0).scale(2)
    assert not bracket(dspec, one, one)


def test_check_jacobi_passes_builtin():
    assert check_jacobi(BracketSpec.h_type(1, 2), 2).passed
    assert check_jacobi(BracketSpec.k_type(0, 3), 2).passed


def test_check_jacobi_negative_control():
    bad = BracketSpec.custom(2, 0, [[0, 1], [1, 0]])
    r = check_jacobi(bad, 2)
    assert not r.passed
    assert r.counterexample["identity"] == "antisymmetry"


def test_gen_leibniz_h_and_k():
    spec = BracketSpec.h_type(1, 1)
    assert check_gen_leibniz(spec, DerivationD.zero(2, 1), 2).passed
    speck = BracketSpec.k_type(0, 2)
    assert check_gen_leibniz(speck, DerivationD.multiple_of_dt(1, 2), 2).passed
    # D = 0 on the contact bracket must fail
    assert not check_gen_leibniz(speck, DerivationD.zero(1, 2), 2).passed


def test_kmc_identities():
    speck = BracketSpec.k_type(0, 2)
    assert check_kmc(speck, DerivationD.multiple_of_dt(1, 2), 2).passed
    # trivially-modified bracket degenerates to plain Leibniz facts
    spech = BracketSpec.h_type(1, 0)
    assert check_kmc(spech, DerivationD.zero(2, 0), 3).passed
    # corrupted derivation (d/dt instead of 2 d/dt) must fail
    r = check_kmc(speck, DerivationD.multiple_of_dt(1, 2, c=1), 2)
    assert not r.passed


def test_gauge_identity_element_is_noop():
    spec = BracketSpec.h_type(1, 0)
    phi = SuperPoly.one(2, 0)
    tw = gauge_twist(spec, phi)
    monos = monomials(2, 0, 3)
    for m1 in monos:
        for m2 in monos:
            f = SuperPoly(2, 0, {m1: Fraction(1)})
            g = SuperPoly(2, 0, {m2: Fraction(1)})
            assert bracket(tw, f, g, budget=8) == bracket(spec, f, g)


def test_gauge_twist_preserves_identities():
    spec = BracketSpec.h_type(1, 0)
    phi = SuperPoly.one(2, 0) + xv(2, 0, 0)
    tw = gauge_twist(spec, phi)
    assert check_jacobi(tw, 2).passed
    assert check_gen_leibniz(tw, tw.derivation(), 2).passed


def test_gauge_derivation_of_identity_twist():
    # for phi = 1 the twisted derivation equals the original on generators
    speck = BracketSpec.k_type(0, 1)
    tw = gauge_twist(speck, SuperPoly.one(1, 1))
    D = speck.derivation()
    Dp = tw.derivation()
    for v in (even_var(0), odd_var(0)):
        z = SuperPoly.variable(1, 1, v)
        assert D.apply(z) == Dp.apply(z)


def test_gauge_requires_even_invertible():
    spec = BracketSpec.h_type(0, 2)
    with pytest.raises(ValueError):
        gauge_twist(spec, xiv(0, 2, 0))
    with pytest.raises(ValueError):
        gauge_twist(spec, mul(xiv(0, 2, 0), xiv(0, 2, 1)))  # zero constant term


def test_gauge_preserves_failure_verdict():
    bad = BracketSpec.custom(2, 0, [[0, 1], [1, 0]])
    phi = SuperPoly.one(2, 0) + xv(2, 0, 0)
    tw = gauge_twist(bad, phi)
    assert not check_jacobi(bad, 2).passed
    assert not check_jacobi(tw, 2).passed


def test_series_inverse():
    phi = SuperPoly.one(1, 0) + xv(1, 0, 0)
    one = SuperPoly.one(1, 0)
    inv = mul_by_inverse(phi, one, 4)
    assert mul(phi, inv).truncate(4) == one


def test_k_type_requires_time_slot():
    with pytest.raises(ValueError):
        # custom contact spec over a signature without even variables
        BracketSpec.custom(0, 2, [[Fraction(-1), 0], [0, Fraction(-1)]],
                           has_time=True)


def test_derivation_leibniz_against_product():
    D = DerivationD.multiple_of_dt(1, 2)
    monos = monomials(1, 2, 2)
    for m1 in monos:
        for m2 in monos:
            f = SuperPoly(1, 2, {m1: Fraction(1)})
            g = SuperPoly(1, 2, {m2: Fraction(1)})
            assert D.apply(mul(f, g)) == mul(D.apply(f), g) + mul(f, D.apply(g))


# -- the integer-coded engine: failing reports pinned byte for byte -------------

THIRD = BracketSpec.custom(
    3, 1, [[0, Fraction(1, 3), 0], [Fraction(-1, 3), 0, 0], [0, 0, Fraction(-1, 3)]],
    has_time=True)

# canonical JSON recorded with the earlier Fraction-accumulating drivers
GOLDEN_FAILURES = [
    (lambda w: check_kmc(BracketSpec.k_type(0, 3), DerivationD.multiple_of_dt(1, 3, c=1),
                         3, workers=w),
     '{"certifiedSpan":{"kind":"k","maxEvenDegree":3,"monomials":32,"orderedTriples":32768,'
     '"signature":[1,3]},"counterexample":{"identity":"kmc-product","indices":[8,0,0],'
     '"monomials":["x1","1","1"],"residual":"1"},"params":{"kind":"k","m":1,"maxDeg":3,'
     '"n":3},"status":"fail","suite":"bracket-kmc"}'),
    (lambda w: check_gen_leibniz(BracketSpec.k_type(1, 0), DerivationD.zero(3, 0), 3,
                                 workers=w),
     '{"certifiedSpan":{"kind":"k","maxEvenDegree":3,"monomials":20,"orderedTriples":8000,'
     '"signature":[3,0]},"counterexample":{"identity":"generalized-leibniz",'
     '"indices":[10,0,0],"monomials":["x1","1","1"],"residual":"2"},"params":{"kind":"k",'
     '"m":3,"maxDeg":3,"n":0},"status":"fail","suite":"bracket-leibniz"}'),
    (lambda w: check_kmc(THIRD, DerivationD.multiple_of_dt(3, 1, c=Fraction(1, 3)), 2,
                         workers=w),
     '{"certifiedSpan":{"kind":"custom","maxEvenDegree":2,"monomials":20,'
     '"orderedTriples":8000,"signature":[3,1]},"counterexample":{"identity":"kmc-product",'
     '"indices":[12,0,0],"monomials":["x1","1","1"],"residual":"5/3"},'
     '"params":{"kind":"custom","m":3,"maxDeg":2,"n":1},"status":"fail",'
     '"suite":"bracket-kmc"}'),
    (lambda w: check_jacobi(BracketSpec.custom(2, 0, [[0, Fraction(1, 3)],
                                                      [Fraction(1, 3), 0]]), 2, workers=w),
     '{"certifiedSpan":{"kind":"custom","maxEvenDegree":2,"monomials":6,"orderedPairs":21,'
     '"signature":[2,0],"tripleMultisets":56},"counterexample":{"identity":"antisymmetry",'
     '"indices":[1,3],"monomials":["x2","x1"],"residual":"2/3"},"params":{"kind":"custom",'
     '"m":2,"maxDeg":2,"n":0},"status":"fail","suite":"bracket-jacobi"}'),
    # quadratic identities: the residual is divided by scale^2 (here 6^2)
    (lambda w: check_jacobi(BracketSpec.d_modified(THIRD), 2, workers=w),
     '{"certifiedSpan":{"kind":"dmod","maxEvenDegree":2,"monomials":20,"orderedPairs":210,'
     '"signature":[3,1],"tripleMultisets":1540},"counterexample":{"identity":"jacobi",'
     '"indices":[1,1,12],"monomials":["xi1","xi1","x1"],"residual":"1/3"},'
     '"params":{"kind":"dmod","m":3,"maxDeg":2,"n":1},"status":"fail",'
     '"suite":"bracket-jacobi"}'),
    (lambda w: check_kmc(BracketSpec.d_modified(BracketSpec.k_type(0, 2)),
                         DerivationD.multiple_of_dt(1, 2), 2, workers=w),
     '{"certifiedSpan":{"kind":"dmod","maxEvenDegree":2,"monomials":12,'
     '"orderedTriples":1728,"signature":[1,2]},"counterexample":{"identity":"kmc-jacobi",'
     '"indices":[1,2,4],"monomials":["xi1","xi1 xi2","x1"],"residual":"-1 xi1"},'
     '"params":{"kind":"dmod","m":1,"maxDeg":2,"n":2},"status":"fail",'
     '"suite":"bracket-kmc"}'),
]


@pytest.mark.parametrize("case", range(len(GOLDEN_FAILURES)))
def test_failing_reports_are_pinned(case):
    run, want = GOLDEN_FAILURES[case]
    assert run(1).to_json() == want


def test_failing_report_bytes_do_not_depend_on_workers():
    for run, want in GOLDEN_FAILURES:
        assert run(2).to_json() == want


def test_golden_failures_equal_the_scan_without_order_windows():
    # the window and the row tests of the rerun (see "Order windows") change
    # no failing report: each equals the whole-list scan at 1 and 2 workers
    import jsalg.brackets as br

    for run, want in GOLDEN_FAILURES:
        with mock.patch.dict(br._ORDER, clear=True):
            assert run(1).to_json() == want
        assert run(1).to_json() == run(2).to_json() == want


def test_kmc_prepass_reports_antisymmetry():
    # {.,.}_D must be super-antisymmetric before the multiset kmc-jacobi scan
    # may stand for every ordered triple
    r = check_kmc(BracketSpec.custom(2, 0, [[0, 1], [1, 0]]), DerivationD.zero(2, 0), 2)
    assert r.to_json() == (
        '{"certifiedSpan":{"kind":"custom","maxEvenDegree":2,"monomials":6,'
        '"orderedTriples":216,"signature":[2,0]},"counterexample":{"identity":"antisymmetry",'
        '"indices":[1,3],"monomials":["x2","x1"],"residual":"2"},"params":{"kind":"custom",'
        '"m":2,"maxDeg":2,"n":0},"status":"fail","suite":"bracket-kmc"}')


def test_kmc_antisymmetry_failure_in_a_later_chunk_is_reported_first():
    # {x1, x1} = 1 fails antisymmetry only at x1 (id 3, the second chunk of
    # two), while D = d/dx2 fails kmc in the first chunk
    import jsalg.brackets as br

    spec = BracketSpec.custom(2, 0, [[1, 0], [0, 0]])
    D = DerivationD(2, 0, ((SuperPoly.one(2, 0), even_var(1)),))
    monos = monomials(2, 0, 2)
    assert br._kmc_worker(((spec, D, monos, 2, None), 0, 3))[2] in ("kmc-product", "kmc-jacobi")
    assert br._kmc_worker(((spec, D, monos, 2, None), 3, 6))[2:4] == ("antisymmetry", (3, 3))
    for w in (1, 2):
        ce = check_kmc(spec, D, 2, workers=w).counterexample
        assert ce["identity"] == "antisymmetry" and ce["indices"] == [3, 3]


def test_drivers_reject_an_odd_derivation():
    # a coefficient of d/dv must be homogeneous of the parity of v
    x, xi = xv(1, 1, 0), xiv(1, 1, 0)
    even = [DerivationD.multiple_of_dt(1, 1), DerivationD(1, 1, ((mul(x, xi), odd_var(0)),))]
    odd = [DerivationD(1, 1, ((SuperPoly.one(1, 1), odd_var(0)),)),
           DerivationD(1, 1, ((x + xi, even_var(0)),))]
    assert all(D.is_even() for D in even) and not any(D.is_even() for D in odd)
    spec = BracketSpec.k_type(0, 1)
    for D in odd:
        for check in (check_gen_leibniz, check_kmc):
            with pytest.raises(ValueError, match="even"):
                check(spec, D, 1)


def test_gauge_with_nonunit_constant_term():
    # phi = 2 + x1: the scale carries the constant term's numerator
    spec = BracketSpec.h_type(1, 0)
    tw = gauge_twist(spec, SuperPoly.const(2, 0, 2) + xv(2, 0, 0))
    assert check_jacobi(tw, 2).passed
    assert check_gen_leibniz(tw, tw.derivation(), 2).passed
    assert check_kmc(tw, tw.derivation(), 2).passed


def test_scale_below_its_bound_raises(monkeypatch):
    import jsalg.brackets as br

    monkeypatch.setattr(br, "spec_scale", lambda spec, budget=None: 1)
    with pytest.raises(RuntimeError, match="scale"):
        check_jacobi(THIRD, 2)
    monkeypatch.setattr(br, "_derivation_den", lambda D: 1)
    with pytest.raises(RuntimeError, match="scale"):
        check_kmc(THIRD, DerivationD.multiple_of_dt(3, 1, c=Fraction(1, 3)), 2)


def test_jacobi_scan_covers_the_multisets_with_a_repeated_last_slot():
    # on [1, xi1, xi1 xi2, xi2]: {1, xi1} = -xi2, {xi1, 1} = xi2 and
    # {xi1, xi2} = {xi2, xi1} = -xi1 xi2, every other pair 0.  This passes
    # antisymmetry and fails Jacobi only at (1, xi1, xi1), so a scan whose
    # last slot starts after the middle one misses it
    from jsalg.brackets import first_jacobi_failure

    monos = monomials(0, 2, 0)
    one, x1, x12, x2 = monos
    table = {(one, x1): {x2: -1}, (x1, one): {x2: 1},
             (x1, x2): {x12: -1}, (x2, x1): {x12: -1}}
    kern = lambda a, b: table.get((a, b), {})
    assert first_jacobi_failure(monos, kern, 1) == ("jacobi", (0, 1, 1))
