"""The compiled integer kernels against per-term Fraction references, and
the orbit-reduced identity scans against scans of every ordered triple.

`bracket_kernel` (behind `bracket_monomials` and `bracket`) and
`schouten.ACPair.kernel` (behind `gpb_from_ac`) evaluate a compiled
presentation on ints, and `expand` extends a kernel bilinearly.  The
references below evaluate the same formulas term by term on Fractions,
straight from the spec or the pair; the pair kernel is also checked against
its per-pair form (`references.ac_pair_kernel`).  The Leibniz and kmc
workers visit one triple per orbit; the reference workers below visit
every ordered triple."""

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jsalg.brackets as br
import jsalg.schouten as sch
from jsalg.brackets import (
    BracketSpec,
    DerivationD,
    bracket,
    bracket_kernel,
    bracket_monomials,
    check_gen_leibniz,
    check_kmc,
    expand,
    gauge_twist,
)
from jsalg.schouten import (
    ACPair,
    _homogeneous_parts,
    gpb_from_ac,
    pairing_h_pair,
    pairing_k_pair,
)
from jsalg.superpoly import (
    SuperPoly,
    VarRef,
    even_var,
    mono_degree,
    mono_mul,
    mono_parity,
    mono_partial,
    monomials,
    monomials_total_degree,
    mul,
    odd_var,
    partial,
)

from references import ac_pair_kernel

THIRD = [[0, Fraction(1, 3), 0], [Fraction(-1, 3), 0, 0], [0, 0, Fraction(-1, 3)]]


def _add(acc, mono, c):
    acc[mono] = acc.get(mono, 0) + c


def _constant_part(spec, m1, m2, acc):
    """sum_even C_ij da/dX_i db/dX_j - (-1)^{p(a)} sum_odd C_ij da/dxi_i db/dxi_j."""
    t_off = 1 if spec.has_time else 0
    outer = -1 if mono_parity(m1) == 0 else 1
    for kind, entries, off, sgn in (("even", spec.c_even, t_off, 1),
                                    ("odd", spec.c_odd, 0, outer)):
        for i, j, cij in entries:
            d1 = mono_partial(m1, VarRef(kind, i + off))
            d2 = mono_partial(m2, VarRef(kind, j + off))
            if d1 is None or d2 is None:
                continue
            r = mono_mul(d1[1], d2[1])
            if r is not None:
                _add(acc, r[1], sgn * cij * d1[0] * d2[0] * r[0])


def _time_part(m1, m2, acc):
    """(2 - E) a db/dt - da/dt (2 - E) b on monomials; E skips t."""
    deg1 = mono_degree(m1) - m1[0][0]
    deg2 = mono_degree(m2) - m2[0][0]
    d2t = mono_partial(m2, even_var(0))
    if d2t is not None:
        r = mono_mul(m1, d2t[1])
        if r is not None:
            _add(acc, r[1], Fraction(2 - deg1) * d2t[0] * r[0])
    d1t = mono_partial(m1, even_var(0))
    if d1t is not None:
        r = mono_mul(d1t[1], m2)
        if r is not None:
            _add(acc, r[1], -Fraction(2 - deg2) * d1t[0] * r[0])


def ref_bracket_monomials(spec, m1, m2) -> dict:
    acc = {}
    if spec.kind == "dmod":
        acc = ref_bracket_monomials(spec.base, m1, m2)
        D = spec.base.derivation()
        f = SuperPoly(spec.m, spec.n, {m1: 1})
        g = SuperPoly(spec.m, spec.n, {m2: 1})
        for mono, c in (mul(f, D.apply(g)) - mul(D.apply(f), g)).terms.items():
            _add(acc, mono, -c / 2)
    else:
        _constant_part(spec, m1, m2, acc)
        if spec.has_time:
            _time_part(m1, m2, acc)
    return {mono: Fraction(c) for mono, c in acc.items() if c}


def ref_gpb_from_ac(pair, f, g):
    a = pair.a_derivation()
    out = mul(f, a.apply(g)) - mul(a.apply(f), g)
    for coeff, bv, dv in pair.c_pairs:
        for co in _homogeneous_parts(coeff):
            pb = (co.parity() + (1 if bv.kind == "odd" else 0)) & 1
            for fp in _homogeneous_parts(f):
                t = mul(mul(co, partial(fp, bv)), partial(g, dv))
                u = mul(partial(fp, dv), mul(co, partial(g, bv)))
                if pb:
                    t = t + u
                    if fp.parity():
                        t = -t
                else:
                    t = t - u
                out = out + t
    return out


def _same_pair_kernels(pair, monos):
    (S, kern), (S0, ref) = pair.kernel, ac_pair_kernel(pair)
    assert S == S0
    for x in monos:
        for y in monos:
            assert kern(x, y) == ref(x, y), (pair, x, y)


SPECS = {
    "h(1,2)": BracketSpec.h_type(1, 2),
    "h(0,4)": BracketSpec.h_type(0, 4),
    "k(1,1)": BracketSpec.k_type(1, 1),
    "k(0,3)": BracketSpec.k_type(0, 3),
    "third+t": BracketSpec.custom(3, 1, THIRD, has_time=True),
    "third": BracketSpec.custom(2, 1, THIRD),
    "-k(0,3)": BracketSpec.negated(BracketSpec.k_type(0, 3)),
    "-third+t": BracketSpec.negated(BracketSpec.custom(3, 1, THIRD, has_time=True)),
    "dmod k(0,2)": BracketSpec.d_modified(BracketSpec.k_type(0, 2)),
    "dmod h(1,1)": BracketSpec.d_modified(BracketSpec.h_type(1, 1)),
    "dmod third+t": BracketSpec.d_modified(BracketSpec.custom(3, 1, THIRD, has_time=True)),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_bracket_kernel_matches_the_reference_on_every_pair(name):
    spec = SPECS[name]
    monos = monomials(spec.m, spec.n, 3)
    S, kern = bracket_kernel(spec)
    for a in monos:
        for b in monos:
            want = ref_bracket_monomials(spec, a, b)
            assert bracket_monomials(spec, a, b) == want, (a, b)
            assert kern(a, b) == {y: int(c * S) for y, c in want.items()}, (a, b)


def _random_poly(rng, m, n, terms=4, deg=3):
    monos = monomials_total_degree(m, n, deg)
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(terms)]
    return SuperPoly(m, n, {rng.choice(monos): c for c in coeffs})


def _random_var(rng, m, n):
    j = rng.randrange(m + n)
    return even_var(j) if j < m else odd_var(j - m)


def test_bracket_of_polynomials_matches_the_reference():
    rng = random.Random(5)
    for spec in SPECS.values():
        for _ in range(10):
            f, g = (_random_poly(rng, spec.m, spec.n) for _ in range(2))
            want = {}
            for a, ca in f.terms.items():
                for b, cb in g.terms.items():
                    for y, c in ref_bracket_monomials(spec, a, b).items():
                        _add(want, y, ca * cb * c)
            assert bracket(spec, f, g) == SuperPoly(spec.m, spec.n, want)


@pytest.mark.parametrize("k, n", [(0, 3), (1, 2), (1, 3)])
def test_gpb_kernel_matches_the_reference_on_every_pair(k, n):
    for pair in (pairing_h_pair(k, n), pairing_k_pair(k, n)):
        monos = monomials_total_degree(pair.m, pair.n, 3)
        _same_pair_kernels(pair, monos)
        for a in monos:
            f = SuperPoly(pair.m, pair.n, {a: 1})
            for b in monos:
                g = SuperPoly(pair.m, pair.n, {b: 1})
                assert gpb_from_ac(pair, f, g) == ref_gpb_from_ac(pair, f, g), (a, b)


def test_gpb_kernel_matches_the_reference_on_random_polynomials():
    # random pairs with mixed-parity coefficients, not only the valid ones
    rng = random.Random(11)
    pairs = [pairing_h_pair(1, 3), pairing_k_pair(1, 2)]
    for m, n in ((2, 2), (1, 3), (3, 1)):
        for _ in range(3):
            a_terms = tuple((_random_poly(rng, m, n, 2, 1), _random_var(rng, m, n))
                            for _ in range(2))
            c_pairs = tuple((_random_poly(rng, m, n, 3, 2), _random_var(rng, m, n),
                             _random_var(rng, m, n)) for _ in range(3))
            pairs.append(ACPair(m, n, a_terms, c_pairs))
    for pair in pairs:
        for _ in range(25):
            f, g = (_random_poly(rng, pair.m, pair.n) for _ in range(2))
            assert gpb_from_ac(pair, f, g) == ref_gpb_from_ac(pair, f, g)


_DEN = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 7))


@st.composite
def _ac_pairs(draw):
    """A pair on m <= 3 even and 1 <= n <= 3 odd generators whose c list
    holds a coefficient with both homogeneous parts, a zero one and up to
    two more of any parity; a has up to two terms.  Denominators are <= 7.
    Nothing asks the pair to be even or to satisfy the closure conditions."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    monos = monomials_total_degree(m, n, 2)
    ev = [x for x in monos if not mono_parity(x)]
    od = [x for x in monos if mono_parity(x)]

    def poly(parts):
        return SuperPoly(m, n, {x: draw(_DEN) for part in parts
                                for x in draw(st.sets(st.sampled_from(part), min_size=1,
                                                      max_size=2))})

    var = st.sampled_from([even_var(i) for i in range(m)] + [odd_var(j) for j in range(n)])
    any_parity = st.sampled_from([[ev], [od], [ev, od]])
    c_pairs = [(poly([ev, od]), draw(var), draw(var)),
               (SuperPoly.zero(m, n), draw(var), draw(var))]
    c_pairs += [(poly(draw(any_parity)), draw(var), draw(var))
                for _ in range(draw(st.integers(0, 2)))]
    a_terms = [(poly(draw(any_parity)), draw(var)) for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(c_pairs))))
    return ACPair(m, n, tuple(a_terms), tuple(c_pairs[i] for i in order))


@settings(max_examples=30, deadline=None)
@given(_ac_pairs())
def test_pair_kernel_matches_its_per_pair_form_on_random_pairs(pair):
    _same_pair_kernels(pair, monomials_total_degree(pair.m, pair.n, 2))


def test_pair_jets_are_filled_once_per_monomial(monkeypatch):
    # a(x), each b_i(x) and each d_i x are computed once per monomial x,
    # however many pairs read them
    calls = Counter()
    for name in ("der_terms", "mono_partial"):
        fn = getattr(sch, name)
        monkeypatch.setattr(sch, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    pair = pairing_k_pair(1, 2)
    fields = len(pair.c_pairs)  # homogeneous coefficients: one field b_i each
    S, kern = pair.kernel
    monos = monomials_total_degree(pair.m, pair.n, 3)
    for _ in range(2):
        for x in monos:
            for y in monos:
                kern(x, y)
    N = len(monos)
    assert calls == {"der_terms": N * (1 + fields), "mono_partial": N * fields}
    # a second pair compiles its own kernel and memo
    calls.clear()
    f = SuperPoly(pair.m, pair.n, {monos[-1]: 1})
    gpb_from_ac(pairing_k_pair(1, 2), f, f)
    assert calls == {"der_terms": 1 + fields, "mono_partial": fields}


def ref_expand(S, kern, f, g) -> dict:
    """The bilinear extension on Fractions, term by term."""
    acc = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            for y, v in kern(a, b).items():
                _add(acc, y, ca * cb * Fraction(v, S))
    return {y: c for y, c in acc.items() if c}


def test_expand_matches_a_fraction_reference():
    rng = random.Random(28)
    kernels = [(spec.m, spec.n, bracket_kernel(spec)) for spec in SPECS.values()] + [
        (3, 1, pairing_k_pair(1, 1).kernel), (2, 3, pairing_h_pair(1, 3).kernel)]
    for m, n, (S, kern) in kernels:
        monos = monomials_total_degree(m, n, 3)
        for _ in range(8):
            f, g = (SuperPoly(m, n, {rng.choice(monos): Fraction(rng.randint(-5, 5),
                                                                 rng.choice([1, 2, 3, 5, 7, 12]))
                                     for _ in range(rng.randint(1, 5))}) for _ in range(2))
            out = expand(S, kern, f, g)
            assert out.terms == ref_expand(S, kern, f, g)
            assert all(type(c) is Fraction and c for c in out.terms.values())


def test_expand_stores_no_cancelled_term():
    p, q = (SuperPoly.variable(2, 0, even_var(i)) for i in range(2))
    S, kern = bracket_kernel(BracketSpec.h_type(1, 0))
    f = p + q
    # {p, q} + {q, p} cancels on the constant monomial, the pq part stays
    g = f + mul(p, q).scale(Fraction(1, 3))
    out = expand(S, kern, f, g)
    assert out.terms == ref_expand(S, kern, f, g) == {((1, 0), ()): Fraction(1, 3),
                                                       ((0, 1), ()): Fraction(-1, 3)}
    assert expand(S, kern, f, f).terms == {}


def test_gauge_bracket_values_are_pinned():
    # recorded before expand summed each argument's ints once
    x1, x2 = (SuperPoly.variable(2, 0, even_var(i)) for i in range(2))
    one = SuperPoly.one(2, 0)
    tw = gauge_twist(BracketSpec.h_type(1, 0), one + x1)
    f = x1 + x2.scale(Fraction(1, 2))
    g = mul(x2, x2) - mul(x1, x2).scale(Fraction(1, 3)) + one.scale(2)
    want = {((0, 0), ()): "-1", ((0, 1), ()): "13/6", ((0, 2), ()): "1/2",
            ((1, 0), ()): "-1/3", ((1, 1), ()): "25/6", ((2, 0), ()): "-2/3"}
    assert bracket(tw, f, g, 4) == SuperPoly(2, 0, {y: Fraction(c) for y, c in want.items()})
    assert bracket(tw, g, f, 4) == -bracket(tw, f, g, 4)


def test_compiling_checks_the_scale(monkeypatch):
    import jsalg.brackets as br

    spec = BracketSpec.custom(3, 1, THIRD, has_time=True)
    monkeypatch.setattr(br, "spec_scale", lambda spec, budget=None: 2)
    with pytest.raises(RuntimeError, match="scale"):
        bracket_kernel(spec)
    # an oracle scale that is not a multiple of its kernel's scale
    with pytest.raises(RuntimeError, match="scale"):
        br._PairCache(monomials(1, 0, 1), lambda a, b: {}, 3, 4)


def test_series_oracle_values_are_scaled_once():
    # D = (1/3) d/dt triples the oracle's scale over the series kernel's
    tw = gauge_twist(BracketSpec.k_type(0, 1),
                     SuperPoly.one(1, 1) + SuperPoly.variable(1, 1, even_var(0)))
    r = check_gen_leibniz(tw, DerivationD.multiple_of_dt(1, 1, c=Fraction(1, 3)), 2)
    assert r.counterexample == {"identity": "generalized-leibniz", "indices": [1, 0, 0],
                                "monomials": ["xi1", "1", "1"], "residual": "1 xi1"}


def test_a_spec_instance_compiles_once(monkeypatch):
    import pickle

    import jsalg.brackets as br

    kinds = []
    compile_ = br._compile
    monkeypatch.setattr(br, "_compile",
                        lambda spec, budget: kinds.append(spec.kind) or compile_(spec, budget))
    spec = BracketSpec.d_modified(BracketSpec.k_type(1, 1))
    f = SuperPoly.variable(3, 1, even_var(0)) + SuperPoly.variable(3, 1, odd_var(0))
    a, b = f.terms
    for _ in range(3):
        bracket(spec, f, f)
        bracket_monomials(spec, a, b)
    assert kinds == ["dmod", "k"]
    # an equal instance compiles its own kernel; pickling drops a kept one
    bracket_monomials(BracketSpec.d_modified(BracketSpec.k_type(1, 1)), a, b)
    assert kinds == ["dmod", "k"] * 2
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and "kernel" not in vars(clone) and "kernel" in vars(spec)
    # the series kind compiles per evaluation, over its base's kept kernel
    tw = gauge_twist(BracketSpec.k_type(1, 1),
                     SuperPoly.one(3, 1) + SuperPoly.variable(3, 1, even_var(1)))
    kinds.clear()
    bracket(tw, f, f, 3)
    bracket(tw, f, f, 3)
    assert kinds == ["gauge", "k", "gauge"]


# -- the orbit-reduced scans against every ordered triple -------------------------


def ref_leibniz_worker(args):
    """The generalized Leibniz rule on every ordered triple."""
    (spec, D, monos, max_deg, _win), lo, hi = args
    o = br._spec_oracle(spec, monos, max_deg, D)
    N, par, rows, ev, pr = o.size, o.par, o.br, o.ev, o.pr
    cnt = 0
    for i in range(lo, hi):
        ea, bi = ev[i], rows[i]
        for j in range(N):
            s = -1 if par[i] and par[j] else 1
            ab = bi[j]
            for k in range(N):
                acc = br._product_rule(pr, bi, ea, j, k, ab, s)
                cnt += 1
                if any(acc.values()) and o.certified(acc):
                    return cnt, 0, "generalized-leibniz", (i, j, k), o.residual(acc, 1)
    return cnt, 0, None, None, None


def ref_kmc_worker(args):
    """Both kmc identities on every ordered triple, product rule first."""
    (spec, D, monos, max_deg, _win), lo, hi = args
    o = br._spec_oracle(spec, monos, max_deg, D, halve=True)
    N, par, dm, ev, pr = o.size, o.par, o.dm, o.ev, o.pr
    cnt = 0
    for i in range(lo, hi):
        pf, ef, di = par[i], ev[i], dm[i]
        for j in range(N):
            pg, eg, dj = par[j], ev[j], dm[j]
            fg = di[j]
            s_fg = -1 if (pf and pg) else 1
            for k in range(N):
                acc = br._product_rule(pr, di, ef, j, k, fg, s_fg)
                cnt += 1
                if any(acc.values()) and o.certified(acc):
                    return cnt, 0, "kmc-product", (i, j, k), o.residual(acc, 1)
                ph = par[k]
                acc = br._jacobiator(dm, di, dj, k, fg, s_fg)
                if ef:
                    br._mul_into(acc, pr, ef, dj[k])
                if eg:
                    br._mul_into(acc, pr, eg, dm[k][i], -1 if (pf and (pg ^ ph)) else 1)
                if ev[k]:
                    br._mul_into(acc, pr, ev[k], fg, -1 if (ph and (pf ^ pg)) else 1)
                if any(acc.values()) and o.certified(acc):
                    return cnt, 0, "kmc-jacobi", (i, j, k), o.residual(acc, 2)
    return cnt, 0, None, None, None


def ref_check(name, spec, D, max_deg, workers):
    suite, worker = {"leibniz": ("bracket-leibniz", ref_leibniz_worker),
                     "kmc": ("bracket-kmc", ref_kmc_worker)}[name]
    return br._check(suite, worker, spec, D, max_deg, workers,
                     lambda N: {"orderedTriples": N**3})


def _random_superskew(rng, mp, n):
    C = [[0] * (mp + n) for _ in range(mp + n)]
    for i in range(mp):
        for j in range(i + 1, mp):
            C[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            C[j][i] = -C[i][j]
    for i in range(n):
        for j in range(i, n):
            C[mp + i][mp + j] = C[mp + j][mp + i] = Fraction(rng.randint(-2, 2),
                                                             rng.randint(1, 2))
    return C


def _derivations(spec):
    """D = 0, d/dt, 3 d/dt, d/dt / 2 and x d/dt (x the last even variable)."""
    m, n = spec.m, spec.n
    out = [DerivationD.zero(m, n)]
    if m:
        out += [DerivationD.multiple_of_dt(m, n, c) for c in (1, 3, Fraction(1, 2))]
        out.append(DerivationD(m, n, ((SuperPoly.variable(m, n, even_var(m - 1)),
                                       even_var(0)),)))
    return out


def _scan_cases():
    rng = random.Random(3)
    specs = [BracketSpec.h_type(1, 1), BracketSpec.h_type(0, 3), BracketSpec.k_type(0, 2),
             BracketSpec.k_type(1, 1), BracketSpec.d_modified(BracketSpec.k_type(0, 2)),
             BracketSpec.d_modified(BracketSpec.h_type(1, 1))]
    for mp, n, t in ((2, 1, False), (0, 3, True), (2, 2, True)):
        specs.append(BracketSpec.custom(mp + t, n, _random_superskew(rng, mp, n), has_time=t))
    cases = [(spec, D, 2) for spec in specs for D in _derivations(spec)]
    phi = SuperPoly.one(1, 1) + SuperPoly.variable(1, 1, even_var(0))
    tw = gauge_twist(BracketSpec.k_type(0, 1), phi)
    cases += [(tw, tw.derivation(), 2), (tw, DerivationD.multiple_of_dt(1, 1), 2)]
    return cases


SCAN_CASES = _scan_cases()


@pytest.mark.parametrize("name, identities", [
    ("leibniz", {"generalized-leibniz"}), ("kmc", {"kmc-product", "kmc-jacobi"})])
def test_orbit_scans_match_the_ordered_triple_scans(name, identities):
    check = {"leibniz": check_gen_leibniz, "kmc": check_kmc}[name]
    seen, passed = set(), 0
    for spec, D, deg in SCAN_CASES:
        r = check(spec, D, deg, workers=1)
        assert r.to_json() == ref_check(name, spec, D, deg, 1).to_json(), (spec, D)
        if r.passed:
            passed += 1
        else:
            seen.add(r.counterexample["identity"])
    # both verdicts occur, and every identity of the scan fails somewhere
    assert seen == identities and 0 < passed < len(SCAN_CASES)


@pytest.mark.parametrize("name", ["leibniz", "kmc"])
def test_orbit_scans_match_the_ordered_triple_scans_on_two_workers(name):
    check = {"leibniz": check_gen_leibniz, "kmc": check_kmc}[name]
    # k_type(1,1) with x d/dt and the dmod cases: kmc-jacobi failures deep in
    # the scan, a Leibniz pass and a pass of both
    for spec, D, deg in SCAN_CASES[15:22]:
        got = check(spec, D, deg, workers=2).to_json()
        assert got == ref_check(name, spec, D, deg, 2).to_json() == check(
            spec, D, deg, workers=1).to_json()


def test_kmc_jacobi_fails_at_a_multiset_with_a_repeated_odd_slot():
    # K(a, a, b) vanishes for an even a, not for an odd one: the first failure
    # here is (xi1, xi1, x1), which a scan of the multisets i < j <= k misses
    spec = BracketSpec.d_modified(BracketSpec.custom(1, 2, [[-1, -1], [-1, 0]],
                                                     has_time=True))
    D = DerivationD.multiple_of_dt(1, 2, -1)
    r = check_kmc(spec, D, 1)
    assert r.counterexample["identity"] == "kmc-jacobi"
    assert r.counterexample["monomials"] == ["xi1", "xi1", "x1"]
    assert r.to_json() == ref_check("kmc", spec, D, 1, 1).to_json()


def test_orbit_scan_visit_counts():
    # a passing scan: N^2 (N + 1) / 2 product triples; kmc adds the pairs of
    # its antisymmetry prepass and the multisets of kmc-jacobi
    spec = BracketSpec.k_type(0, 2)
    D = spec.derivation()
    monos = monomials(spec.m, spec.n, 2)
    N = len(monos)
    args = ((spec, D, monos, 2, None), 0, N)
    assert check_kmc(spec, D, 2).passed
    assert br._leibniz_worker(args) == (N * N * (N + 1) // 2, 0, None, None, None)
    assert br._kmc_worker(args) == (N * (N + 1) // 2 + N * N * (N + 1) // 2
                                    + N * (N + 1) * (N + 2) // 6, 0, None, None, None)
    assert ref_kmc_worker(args)[0] == ref_leibniz_worker(args)[0] == N**3


def test_a_root_matrix_that_is_not_superskew_scans_every_ordered_triple():
    # at max_deg 0 the list lacks the even generators, so the pair prepass
    # passes on a symmetric even block; kmc-jacobi then runs on all N^3
    spec = BracketSpec.custom(2, 2, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    D = DerivationD.zero(2, 2)
    monos = monomials(2, 2, 0)
    N = len(monos)
    assert not spec.is_superskew() and check_kmc(spec, D, 0).passed
    assert br._kmc_worker(((spec, D, monos, 0, None), 0, N)) == (
        N * (N + 1) // 2 + N * N * (N + 1) // 2 + N**3, 0, None, None, None)
    assert check_kmc(spec, D, 0).to_json() == ref_check("kmc", spec, D, 0, 1).to_json()


# -- order windows -----------------------------------------------------------------


def _derive(mono, vs):
    c = 1
    for v in vs:
        r = mono_partial(mono, even_var(v))
        if r is None:
            return None
        c, mono = c * r[0], r[1]
    return c, mono


def _order_two_kern(a, b):
    """{a, b} = a_xx b_y - a_y b_xx on signature (2, 0): order 2 in each slot."""
    acc = {}
    for s, va, vb in ((1, (0, 0), (1,)), (-1, (1,), (0, 0))):
        da, db = _derive(a, va), _derive(b, vb)
        if da and db:
            sg, y = mono_mul(da[1], db[1])
            _add(acc, y, s * sg * da[0] * db[0])
    return {y: v for y, v in acc.items() if v}


def test_a_bracket_of_order_two_passes_its_degree_two_window_and_fails_at_three():
    # its Jacobiator has order 4 in a slot, so the degree-<= 2 window proves
    # nothing about it: a hand kernel declares no order and is scanned whole
    assert br.first_jacobi_failure(monomials_total_degree(2, 0, 2), _order_two_kern, 1) == (
        None, None)
    assert br.first_jacobi_failure(monomials(2, 0, 2), _order_two_kern, 1) == (None, None)
    monos = monomials(2, 0, 3)
    assert br.first_jacobi_failure(monos, _order_two_kern, 1) == ("jacobi", (1, 5, 9))
    assert [monos[i] for i in (1, 5, 9)] == [((0, 1), ()), ((1, 1), ()), ((3, 0), ())]


def test_order_windows_scan_the_whole_list_when_they_do_not_apply(monkeypatch):
    sizes = []
    scan = br.scan
    monkeypatch.setattr(br, "scan", lambda w, p, n, workers=None: sizes.append(n) or scan(
        w, p, n, workers))

    def visits(check, *args):
        sizes.clear()
        r = check(*args)
        return r.passed, sizes[:]

    h, k = BracketSpec.h_type(1, 1), BracketSpec.k_type(0, 3)
    W1, W2 = (len(monomials_total_degree(2, 1, r)) for r in (1, 2))
    # a pass reads the window alone, a failure the window and then the list
    assert visits(br.check_jacobi, h, 3) == (True, [W2])
    assert visits(check_gen_leibniz, h, h.derivation(), 3) == (True, [W1])
    assert visits(check_kmc, h, h.derivation(), 3) == (True, [W2])
    assert visits(check_gen_leibniz, k, DerivationD.zero(1, 3), 2) == (
        False, [len(monomials_total_degree(1, 3, 1)), len(monomials(1, 3, 2))])
    # max_deg below the order: the window is not a sublist
    assert visits(br.check_jacobi, h, 1) == (True, [len(monomials(2, 1, 1))])
    assert visits(check_kmc, h, h.derivation(), 1) == (True, [len(monomials(2, 1, 1))])
    assert visits(check_gen_leibniz, h, h.derivation(), 0) == (True, [len(monomials(2, 1, 0))])
    # the series kind, and a worker that declares no order
    tw = gauge_twist(BracketSpec.h_type(1, 0),
                     SuperPoly.one(2, 0) + SuperPoly.variable(2, 0, even_var(0)))
    assert visits(br.check_jacobi, tw, 3) == (True, [len(monomials(2, 0, 3))])
    assert visits(check_gen_leibniz, tw, tw.derivation(), 3)[1] == [len(monomials(2, 0, 3))]
    assert visits(ref_check, "kmc", h, h.derivation(), 3, 1) == (True, [len(monomials(2, 1, 3))])


PLANTED = [BracketSpec.k_type(*kn) for kn in ((0, 3), (1, 0), (1, 1), (0, 4))]


@pytest.mark.parametrize("check", [check_gen_leibniz, check_kmc])
def test_planted_failures_equal_the_scan_without_order_windows(check):
    # the k specs with D = 0 and d/dt fail; their reports are the whole
    # list's at 1 and 2 workers, whatever rows the row tests skip
    for spec in PLANTED:
        for D in (DerivationD.zero(spec.m, spec.n), DerivationD.multiple_of_dt(spec.m, spec.n, 1)):
            with mock.patch.dict(br._ORDER, clear=True):
                want = check(spec, D, 3, 1).to_json()
            assert '"status":"fail"' in want
            assert check(spec, D, 3, 1).to_json() == check(spec, D, 3, 2).to_json() == want


def test_a_failing_window_scans_only_the_rows_that_fail_their_row_test(monkeypatch):
    # planted Leibniz on k(1,1): the failure is at (x1, 1, 1), x1 the list's
    # 21st monomial.  The 20 rows before it pass their row test of W1^2
    # window pairs each, so only x1's row is scanned, not 20 rows of
    # N (N + 1) / 2 triples
    spec = BracketSpec.k_type(1, 1)
    W1, N = len(monomials_total_degree(3, 1, 1)), len(monomials(3, 1, 3))
    calls = []
    rule = br._product_rule
    monkeypatch.setattr(br, "_product_rule", lambda *a: calls.append(1) or rule(*a))
    r = check_gen_leibniz(spec, DerivationD.zero(3, 1), 3, workers=1)
    assert r.counterexample["monomials"] == ["x1", "1", "1"]
    assert r.counterexample["indices"] == [20, 0, 0]
    assert len(calls) <= 20 * W1**2 + N**2 < 20 * N * (N + 1) // 2


@pytest.mark.parametrize("worker", [br._jacobi_worker, br._leibniz_worker, br._kmc_worker])
def test_rows_that_pass_their_row_test_count_the_tuples_they_skip(worker):
    # on passing specs every row passes its row test, and the counts are the
    # row scans' (the kmc ones with a superskew root and without)
    for spec, deg in ((BracketSpec.k_type(0, 2), 2), (BracketSpec.h_type(1, 1), 2),
                      (BracketSpec.custom(2, 2, [[0, 1, 0, 0], [1, 0, 0, 0],
                                                 [0, 0, 1, 0], [0, 0, 0, 1]]), 0)):
        monos = monomials(spec.m, spec.n, deg)
        win = tuple(range(len(monos)))
        D = DerivationD.zero(spec.m, spec.n) if spec.kind == "custom" else spec.derivation()
        scanned = worker(((spec, D, monos, deg, None), 0, len(monos)))
        assert scanned[2] is None
        assert worker(((spec, D, monos, deg, win), 0, len(monos))) == scanned


_COEFF = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def _window_cases(draw):
    """A custom (superskew or not, with or without time), h, k or dmod spec
    on at most 3 variables, and an even D in {0, c d/dt, x d/dt, xi1 d/dxi2}
    that its signature allows."""
    kind = draw(st.sampled_from(["custom", "h", "k"]))
    if kind == "custom":
        t = draw(st.booleans())
        mp = draw(st.integers(0, 2))
        n = draw(st.integers(0 if mp else 1, 3 - mp - t))
        skew = draw(st.booleans())
        C = [[0] * (mp + n) for _ in range(mp + n)]
        for a, b in draw(st.lists(st.tuples(st.integers(0, mp + n - 1),
                                            st.integers(0, mp + n - 1)), max_size=4)):
            if (a < mp) != (b < mp) or (skew and a == b < mp):
                continue
            C[a][b] = draw(_COEFF)
            if skew:
                C[b][a] = -C[a][b] if a < mp else C[a][b]
        spec = BracketSpec.custom(mp + t, n, C, has_time=t)
    else:
        kn = draw(st.sampled_from([(0, 1), (0, 2), (1, 0), (1, 1)] + (
            [(0, 3)] if kind == "h" else [])))
        spec = getattr(BracketSpec, f"{kind}_type")(*kn)
    if draw(st.booleans()):
        spec = BracketSpec.d_modified(spec)
    m, n = spec.m, spec.n
    Ds = [DerivationD.zero(m, n)]
    if m:
        Ds += [DerivationD.multiple_of_dt(m, n, draw(_COEFF)),
               DerivationD(m, n, ((SuperPoly.variable(m, n, even_var(m - 1)), even_var(0)),))]
    if n >= 2:
        Ds.append(DerivationD(m, n, ((SuperPoly.variable(m, n, odd_var(0)), odd_var(1)),)))
    return spec, draw(st.sampled_from(Ds)), draw(st.sampled_from([2, 3])), draw(
        st.sampled_from([1, 2]))


@settings(max_examples=40, deadline=None)
@given(_window_cases())
def test_an_order_window_report_equals_the_whole_list_scan(case):
    spec, D, deg, workers = case
    runs = [lambda w: br.check_jacobi(spec, deg, w),
            lambda w: check_gen_leibniz(spec, D, deg, w), lambda w: check_kmc(spec, D, deg, w)]
    for run in runs:
        got = run(workers).to_json()
        with mock.patch.dict(br._ORDER, clear=True):
            assert got == run(1).to_json(), (spec, D, deg)
