"""Planted-defect inputs for the refute jobs.

Every builder is a pure function of a correct input and the workload seed:
it copies the input, plants exactly one defect and returns the copy.  The
defect is placed so that the checker's failure is the identity it tests,
not a cheaper pre-check (supercommutativity, parity, invertibility).  The
benchmark counts a refute job as failed unless its report says ``fail`` at
the recorded identity, so a planted defect that is missed never adds to
``refute_s`` unnoticed.
"""

from __future__ import annotations

import random


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


def table_positions(J) -> list:
    """Candidate (i, j, k) positions for ``perturb_table``: the nonzero
    structure constants c_ij^k of the first row i that has any with i < j
    and not both basis vectors odd, in sorted order.

    Odd-odd products are left alone: moving the odd product of D_t(2) or
    gl(1,1)+ lands on another member of the family, which is still Jordan.
    Only the first row is used so that every seed stops the scans in their
    first outer row (see ``perturb_table``); where in that row still depends
    on the position, so a refute job's time varies with the seed, by up to
    2.4x on ``JCK|deg1`` (7-17 ms) and 2x on the other tables.
    """
    par = J.parities
    cands = sorted((i, j, k) for (i, j), vec in J.table.items()
                   if i < j and not (par[i] and par[j])
                   for k, c in vec.items() if c)
    return [p for p in cands if p[0] == cands[0][0]]


def perturb_table(J, seed: int, anti: bool = False, position=None):
    """Copy of the table J with one structure constant c_ij^k (i < j) moved
    by +1 (by +2 where +1 would cancel it), mirrored onto c_ji^k with the
    sign of supercommutativity, or of anticommutativity when ``anti``, so
    the table still passes the symmetry pre-check of every checker.

    Where the defect shows: ``check_jordan`` scans multisets a <= b <= c (then
    all x), ``check_relation10`` and ``check_lie_table`` scan ordered triples
    with a outermost.  The positions of ``table_positions`` sit in the first
    row i, and every scan stops with a residual while its outer index is
    still i (for all tables of the benchmark, i = 0), so a refute job times
    the checker's fixed per-call cost (pre-checks, table preparation) plus
    one row of the scan.
    """
    if position is None:
        position = _rng(seed, J.name).choice(table_positions(J))
    i, j, k = position
    table = {key: dict(vec) for key, vec in J.table.items()}
    c = table[(i, j)][k]
    c2 = c + (2 if c == -1 else 1)
    table[(i, j)][k] = c2
    sign = -1 if (J.parities[i] and J.parities[j]) else 1
    if anti:
        sign = -sign
    table.setdefault((j, i), {})[k] = c2 if sign > 0 else -c2
    return type(J)(list(J.labels), list(J.parities), table, J.out_of_span,
                   name=f"{J.name}|planted")


def witness_positions(w) -> list:
    """Candidate (i, j) entries for ``perturb_witness``: the even-to-even
    block of the matrix, in row-major order.  Odd-block entries are left
    alone: on the small shipped witnesses an off-diagonal odd shear can be
    an automorphism, and the perturbed map would still be an isomorphism."""
    S, T = w.source, w.target
    return [(i, j) for i in range(S.dim) for j in range(T.dim)
            if S.parities[i] == T.parities[j] == 0]


def perturb_witness(w, seed: int, position=None):
    """Copy of the isomorphism witness w with one even-block matrix entry
    moved by +1.  The matrix stays invertible at every candidate position
    (``selfcheck.py`` runs them all), so ``check_iso`` passes its parity
    and invertibility pre-checks.

    Where the defect shows: ``check_iso`` then tests intertwining on source
    pairs (a, b) in row-major order; the first pair that reads row i of the
    matrix, at the latest (i, 0), is the first that can fail.
    """
    if position is None:
        position = _rng(seed, f"{w.source.name}->{w.target.name}").choice(
            witness_positions(w))
    i, j = position
    matrix = [list(row) for row in w.matrix]
    matrix[i][j] = matrix[i][j] + 1
    return type(w)(w.source, w.target, matrix)


def wrong_derivation(js, spec, identity: str):
    """The derivation D that breaks a correct k-type bracket spec: D = 0 for
    the generalized Leibniz rule, D = d/dt (half the true 2 d/dt) for the
    kmc identities.

    Where the defect shows: at the ordered triple (t, 1, 1), the first with
    t as outer monomial, so both scans stop a quarter of the way through
    the outer loop on k_type(0,3) and half way on k_type(1,0).  The seed is
    not used: a wrong D has no position, and the early-exit prefix it times
    is the same on every seed.
    """
    if identity == "leibniz":
        return js.brackets.DerivationD.zero(spec.m, spec.n)
    if identity == "kmc":
        return js.brackets.DerivationD.multiple_of_dt(spec.m, spec.n, c=1)
    raise ValueError(f"no planted derivation for {identity!r}")
