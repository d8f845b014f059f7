"""Verification reports, deterministic JSON serialization, the identity
engine (`scan`) on worker pools and the seeded generator of sampled checks.

Reports are byte-identical across runs and worker counts: canonical JSON is
dumped with sorted keys and compact separators, rationals render as "num/den",
and wall-clock timings are kept out of the canonical form (the text format
shows them).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import get_context

from .scalars import rat_str


@dataclass
class Report:
    suite: str
    params: dict
    certified_span: object
    status: str  # "pass" | "fail" | "error"
    counterexample: dict | None = None
    details: dict | None = None
    elapsed_ms: float | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        d = {
            "suite": self.suite,
            "params": _jsonable(self.params),
            "certifiedSpan": _jsonable(self.certified_span),
            "status": self.status,
        }
        if self.counterexample is not None:
            d["counterexample"] = _jsonable(self.counterexample)
        if self.details is not None:
            d["details"] = _jsonable(self.details)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def text(self) -> str:
        lines = [f"[{self.status.upper()}] {self.suite}"]
        if self.params:
            lines.append(f"  params: {json.dumps(_jsonable(self.params), sort_keys=True)}")
        lines.append(f"  certified: {json.dumps(_jsonable(self.certified_span), sort_keys=True)}")
        if self.counterexample:
            lines.append(
                f"  counterexample: {json.dumps(_jsonable(self.counterexample), sort_keys=True)}"
            )
        if self.details:
            lines.append(f"  details: {json.dumps(_jsonable(self.details), sort_keys=True)}")
        if self.elapsed_ms is not None:
            lines.append(f"  elapsed: {self.elapsed_ms:.1f} ms")
        return "\n".join(lines)


def _jsonable(x):
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def merge_reports(suite: str, params: dict, reports: list[Report]) -> Report:
    """Combine sub-reports in their given (canonical) order."""
    status = "pass"
    ce = None
    for r in reports:
        if not r.passed and status == "pass":
            status = r.status
            ce = {"suite": r.suite, **(r.counterexample or {})}
    return Report(
        suite=suite,
        params=params,
        certified_span=[r.certified_span for r in reports],
        status=status,
        counterexample=ce,
        details={"subSuites": [r.suite for r in reports], "subStatus": [r.status for r in reports]},
    )


class DetRand:
    """Tiny deterministic LCG, stable across platforms and Python versions.

    Used by every sampled check (ideal-closure sampling, short-triple element
    sampling) so seeded runs are reproducible byte for byte.
    """

    __slots__ = ("state",)

    MASK = (1 << 64) - 1
    NUM_RANGE = 9  # rational() numerators lie in [-NUM_RANGE, NUM_RANGE]
    DEN_RANGE = 4  # and denominators in [1, DEN_RANGE]

    def __init__(self, seed: int = 0):
        self.state = (seed * 6364136223846793005 + 1442695040888963407) & self.MASK

    def next_int(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & self.MASK
        return self.state >> 16

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_int() % (hi - lo + 1)

    def rational(self) -> Fraction:
        num = self.randint(-self.NUM_RANGE, self.NUM_RANGE)
        den = self.randint(1, self.DEN_RANGE)
        return Fraction(num, den)


MAX_WORKERS = 64  # a scan forks up to this many processes


def resolve_workers(workers=None) -> int:
    """workers, else $JSALG_WORKERS, else 1; ValueError unless an int from
    1 to MAX_WORKERS (64), so a count no host could run starts no pool."""
    name, w = ("workers", workers) if workers is not None else (
        "JSALG_WORKERS", os.environ.get("JSALG_WORKERS") or "1")
    if not str(w).isdecimal() or int(w) < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {w!r}")
    if int(w) > MAX_WORKERS:
        raise ValueError(f"{name} must be at most {MAX_WORKERS}, got {w!r}")
    return int(w)


def scan(worker, payload, n: int, workers=None):
    """The identity engine: run worker((payload, lo, hi)) on contiguous
    chunks of range(n), one per worker, serially at one worker.  A worker
    scans the tuples whose first index is in [lo, hi) and returns
    (certified, skipped, identity, tuple, residual), identity None if none
    failed.  Returns (certified, skipped, (identity, tuple, residual) or
    None) for the first failure in chunk order, or the first "antisymmetry"
    failure (the multiset scans presume antisymmetry), with the counts
    summed over the chunks up to it."""
    w = min(resolve_workers(workers), max(1, n))
    size = max(1, -(-n // w))
    chunks = [(payload, lo, min(lo + size, n)) for lo in range(0, n, size)]
    if len(chunks) <= 1:
        results = [worker(ch) for ch in chunks]
    else:  # results keep the chunk order, so the merge below is schedule-independent
        with get_context("fork").Pool(len(chunks)) as pool:
            results = pool.map(worker, chunks)
    fails = [k for k, r in enumerate(results) if r[2]]
    last = min(fails, key=lambda k: (results[k][2] != "antisymmetry", k),
               default=len(results) - 1)
    done = results[:last + 1]
    return (sum(r[0] for r in done), sum(r[1] for r in done),
            results[last][2:] if fails else None)
