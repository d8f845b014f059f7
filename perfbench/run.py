"""The jsalg benchmark.

    python3 perfbench/run.py --workload brackets --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout; it imports jsalg from ``src/`` and exits
with status 2, printing no result, when that is missing.  The workload seed
picks the job order, the planted-defect positions and the ``seed=`` passed
to jsalg's sampled checks.  A run repeats rounds until ``--seconds`` is used
up; each round imports jsalg afresh and builds every input the jobs take
(set-up, repeated until it has taken ``SETUP_MIN_S``), then runs one pass
over the jobs, in one process, checking each job's output against
``perfbench/expected.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run: untraced passes alternating with traced rounds, in which every traced
jsalg function is wrapped (see ``tracing.py``); it prints the tracing
overhead and a per-job table, writes one span per job to ``perfbench/out/``
and reports the per-layer metrics.  The layers' numbers never feed the
end-to-end metrics.

Other modes: ``--size smoke`` runs the small job lists of the benchmark's own
tests, and ``--record`` rewrites ``expected.json`` from the current code.
``NOTES.md`` explains the choices.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

TAIL_BEYOND = 10  # job_s.tail is the job time with exactly this many jobs above it
SETUP_MIN_S = 0.5  # a round sets up again until its set-ups have taken this long

END_TO_END = [("setup_s", "s"), ("certify_s", "s"), ("refute_s", "s"),
              ("job_s.p50", "s"), ("job_s.tail", "s"), ("peak_rss_mb", "MB")]


def _jsalg_present() -> bool:
    return (SRC / "jsalg" / "__init__.py").is_file()


def _use_src():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _setup(workload: str, seed: int, size: str):
    """Import jsalg afresh and build the workload's jobs; returns the time
    from before the import to the first job being ready, and the jobs."""
    gc.collect()
    t0 = time.perf_counter()
    js = workloads.load_jsalg()
    jobs = workloads.WORKLOADS[workload](js, seed, size)
    return time.perf_counter() - t0, jobs


def _run_job(job):
    """Run one job: its report and the report's canonical JSON, timed.
    Returns (start, seconds, report or None, error or None)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        report = job.run()
        report.to_json()
    except Exception as exc:  # a crash is a failed job, reported below
        return t0, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return t0, time.perf_counter() - t0, report, None


class Pass:
    """Runs jobs in a fixed order and checks each against its record."""

    def __init__(self, workload: str, size: str, expected: dict):
        self.records = expected.get(workload, {}).get(size, {})
        self.attempted = 0
        self.failed = 0
        self.spans: list = []

    def run(self, jobs, order, label: str) -> dict:
        """One pass; returns each job's wall time by job name."""
        times = {}
        start = time.perf_counter()
        pass_id = len(self.spans)
        self.spans.append({"id": pass_id, "name": label, "parent": None, "job": None,
                           "start": start, "end": None})
        for idx in order:
            job = jobs[idx]
            t_start, dt, report, err = _run_job(job)
            self.attempted += 1
            times[job.name] = dt
            self.spans.append({"id": len(self.spans), "name": job.name, "kind": job.kind,
                               "parent": pass_id, "job": idx, "start": t_start,
                               "end": t_start + dt})
            if err is None:
                want = self.records.get(job.name)
                got = workloads.observe(job, report)
                if want is None:
                    err = "no recorded output"
                elif got != want:
                    err = f"output {got} differs from the recorded {want}"
            if err is not None:
                self.failed += 1
                print(f"FAILED {job.name}: {err}", file=sys.stderr)
        self.spans[pass_id]["end"] = time.perf_counter()
        return times


def _mean_times(passes: list) -> dict:
    """A job's wall time: its mean over the given passes, which spread it
    over the whole run and so over the host's slow and fast spells."""
    return {name: statistics.mean(p[name] for p in passes) for name in passes[0]}


def _order(jobs, seed: int) -> list:
    order = list(range(len(jobs)))
    random.Random(seed).shuffle(order)
    return order


def _load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def measure(workload: str, seed: int, seconds: int, size: str = "full",
            expected: dict | None = None) -> dict:
    """The untraced run; returns the result object."""
    _use_src()
    expected = _load_expected() if expected is None else expected
    # Each round sets up afresh and runs one pass; a new round starts only
    # if it is expected to end within --seconds, so a run takes about that
    # long on a slow host too.
    run = Pass(workload, size, expected)
    setups, passes = [], []
    order = None
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        spent = 0.0
        while spent < SETUP_MIN_S:
            jobs = None  # drop the previous copy of jsalg before importing again
            dt, jobs = _setup(workload, seed, size)
            setups.append(dt)
            spent += dt
        order = order or _order(jobs, seed)
        passes.append(run.run(jobs, order, f"pass {len(passes)}"))
        now = time.perf_counter()
        if now + (now - t_round) > start + seconds:
            break
    times = _mean_times(passes)
    per_job = sorted(times.values())
    values = {
        "setup_s": statistics.median(setups),
        "certify_s": sum(times[j.name] for j in jobs if j.kind == "certify"),
        "refute_s": sum(times[j.name] for j in jobs if j.kind == "refute"),
        "job_s.p50": statistics.median(per_job),
        "job_s.tail": per_job[max(0, len(per_job) - 1 - TAIL_BEYOND)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail_pct = 100 * (len(per_job) - TAIL_BEYOND) / len(per_job)
    print(f"{workload} seed {seed}: {len(passes)} passes x {len(jobs)} jobs "
          f"({sum(j.kind == 'refute' for j in jobs)} refute), "
          f"{len(setups)} set-ups, job_s.tail = p{tail_pct:.1f} of {len(per_job)} job times")
    walls = [sp["end"] - sp["start"] for sp in run.spans if sp["parent"] is None]
    print("  pass wall times: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    for kind in ("certify", "refute"):
        sums = [sum(p[j.name] for j in jobs if j.kind == kind) for p in passes]
        print(f"  {kind} per pass: " + " ".join(f"{x:.4f}" for x in sums) + " s")
    for name, unit in END_TO_END:
        print(f"  {name:12s} {values[name]:.6f} {unit}")
    print(f"  failed_frac  {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}}


def measure_traced(workload: str, seed: int, seconds: int, size: str = "full",
                   expected: dict | None = None) -> dict:
    """The traced run, on one imported jsalg and one job order: rounds of an
    untraced pass followed by a traced round (set-up and pass with the
    wrappers installed), until --seconds is used up.  The two kinds of pass
    alternate, so both see the same host spells.  Per-layer values are per
    traced round; returns the result object with the per-layer metrics."""
    _use_src()
    expected = _load_expected() if expected is None else expected
    build = workloads.WORKLOADS[workload]
    js = workloads.load_jsalg()
    tracer = tracing.Tracer(vars(js))
    run = Pass(workload, size, expected)
    plain, traced = [], []
    order = None
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        jobs = build(js, seed, size)
        order = order or _order(jobs, seed)
        plain.append(run.run(jobs, order, f"untraced {len(plain)}"))
        tracer.install()
        try:
            jobs = build(js, seed, size)
            traced.append(run.run(jobs, order, f"traced {len(traced)}"))
        finally:
            tracer.restore()
        now = time.perf_counter()
        if now + (now - t_round) > start + seconds:
            break
    untraced_t, traced_t = _mean_times(plain), _mean_times(traced)
    cert_u = sum(untraced_t[j.name] for j in jobs if j.kind == "certify")
    cert_t = sum(traced_t[j.name] for j in jobs if j.kind == "certify")
    overhead = cert_t / cert_u if cert_u else 0.0
    print(f"{workload} seed {seed}: {len(traced)} traced rounds, tracing overhead {overhead:.3f} "
          f"(mean traced certify_s {cert_t:.4f} s / mean untraced {cert_u:.4f} s)")
    records = expected.get(workload, {}).get(size, {})
    print(f"  {'job':52s} {'kind':8s} {'wall_s':>9s} {'traced_s':>9s} {'tuples':>9s}")
    for j in jobs:
        tuples = records.get(j.name, {}).get("tuples", 0)
        print(f"  {j.name:52s} {j.kind:8s} {untraced_t[j.name]:9.4f} "
              f"{traced_t[j.name]:9.4f} {tuples:9d}")
    print(f"  failed_frac  {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    OUT.mkdir(exist_ok=True)
    path = spans_path(workload, seed)
    path.write_text(json.dumps(run.spans, indent=1))
    print(f"  spans: {path.relative_to(HERE.parent)}")
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced run writes its spans."""
    return OUT / f"spans-{workload}-seed{seed}.json"


def record() -> dict:
    """Run every job of every workload once per size and store what it
    produced in ``expected.json``; a second seed must give the same records."""
    _use_src()
    out: dict = {}
    for workload in workloads.WORKLOADS:
        for size in ("full", "smoke"):
            recs = []
            for seed in (0, 1):
                _, jobs = _setup(workload, seed, size)
                if len({j.name for j in jobs}) != len(jobs):
                    raise RuntimeError(f"{workload}/{size}: job names are not unique")
                rec = {}
                for j in jobs:
                    _, _, report, err = _run_job(j)
                    if err is not None:
                        raise RuntimeError(f"{workload}/{size}: {j.name}: {err}")
                    rec[j.name] = workloads.observe(j, report)
                recs.append(rec)
                refute = {j.name for j in jobs if j.kind == "refute"}
            wrong = [k for k, v in recs[0].items()
                     if v["status"] != ("fail" if k in refute else "pass")]
            if wrong:
                raise RuntimeError(f"{workload}/{size}: unexpected verdicts: {wrong}")
            if recs[0] != recs[1]:
                diff = [k for k in recs[0] if recs[0][k] != recs[1].get(k)]
                raise RuntimeError(f"{workload}/{size}: records depend on the seed: {diff}")
            out.setdefault(workload, {})[size] = recs[0]
            print(f"recorded {workload}/{size}: {len(recs[0])} jobs", file=sys.stderr)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not _jsalg_present():
        print(f"perfbench: no jsalg sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds, args.size)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
