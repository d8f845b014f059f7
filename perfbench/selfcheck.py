"""The benchmark's own tests, on the small ``smoke`` job lists.

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps it out of the package's default test collection.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import planted
import run
import tracing
import workloads

ROOT = Path(run.__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def expected():
    return json.loads(run.EXPECTED.read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(workload, expected):
    result = run.measure(workload, seed=3, seconds=1, size="smoke", expected=expected)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_line_output():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_a_wrong_record_makes_failed_frac_nonzero(expected):
    broken = copy.deepcopy(expected)
    record = broken["tables"]["smoke"]["check_jordan D_t(2)"]
    record["span"] = "0" * 16
    result = run.measure("tables", seed=3, seconds=1, size="smoke", expected=broken)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def _wrapped_left(js) -> list:
    left = []
    for _, modname, path, _ in tracing.TARGETS:
        if "." in path:
            cls, attr = path.split(".")
            raw = vars(getattr(getattr(js, modname), cls))[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if hasattr(fn, "__wrapped__"):
                left.append(f"{modname}.{path}")
        else:
            for name in workloads.MODULES:
                value = vars(getattr(js, name)).get(path)
                if hasattr(value, "__wrapped__"):
                    left.append(f"{name}.{path}")
    return left


def _check_spans(workload, seed, result):
    """The traced run wrote one span per job attempted, each inside its pass."""
    spans = json.loads(run.spans_path(workload, seed).read_text())
    passes = {sp["id"]: sp for sp in spans if sp["parent"] is None}
    jobs = [sp for sp in spans if sp["parent"] is not None]
    assert len(jobs) == result["attempted"]
    rounds = len(passes) // 2
    assert [sp["name"] for sp in passes.values()] == [
        f"{kind} {i}" for i in range(rounds) for kind in ("untraced", "traced")]
    for sp in jobs:
        outer = passes[sp["parent"]]
        assert outer["start"] <= sp["start"] <= sp["end"] <= outer["end"]
        assert isinstance(sp["job"], int) and sp["kind"] in ("certify", "refute")


def test_traced_run_restores_every_wrapped_function(expected):
    run.spans_path("brackets", 3).unlink(missing_ok=True)
    a = run.measure_traced("brackets", seed=3, seconds=1, size="smoke", expected=expected)
    _check_spans("brackets", 3, a)
    js = SimpleNamespace(**{m: sys.modules[f"jsalg.{m}"] for m in workloads.MODULES})
    assert _wrapped_left(js) == []
    # aliases point at the originals again
    assert js.brackets.mul is js.superpoly.mul
    assert js.tkk.solve_linear is js.linalg.solve_linear
    names = dict(tracing.metric_names())
    names["trace.overhead"] = "ratio"
    assert {k: v["unit"] for k, v in a["metrics"].items()} == names
    assert {m["name"] for m in BENCH["per_layer"]} == set(names)
    assert a["correct"]
    assert a["metrics"]["superpoly.mono_mul.calls"]["value"] > 0
    assert a["metrics"]["tkk.TKK.assemble.busy_s"]["value"] == 0


def test_call_counts_repeat_exactly(expected):
    a = run.measure_traced("tables", seed=4, seconds=1, size="smoke", expected=expected)
    b = run.measure_traced("tables", seed=4, seconds=1, size="smoke", expected=expected)
    _check_spans("tables", 4, b)
    calls = [k for k in a["metrics"] if k.endswith(".calls")]
    assert calls
    assert [a["metrics"][k]["value"] for k in calls] == [b["metrics"][k]["value"] for k in calls]
    assert a["metrics"]["linalg.solve_linear.calls"]["value"] > 0
    assert a["metrics"]["brackets.check_kmc.busy_s"]["value"] == 0


def test_tracer_refuses_double_install():
    js = workloads.load_jsalg()
    tracer = tracing.Tracer(vars(js))
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    assert _wrapped_left(js) == []


# -- planted defects ------------------------------------------------------------------

@pytest.fixture(scope="module")
def js():
    run._use_src()
    return workloads.load_jsalg()


def _tables(js):
    return {name: js.jordan.build(*args, **kwargs)
            for size in ("full", "smoke") for name, args, kwargs, _ in workloads.TABLES[size]}


def test_every_table_position_is_caught(js):
    """Exhaustive over the candidate positions, so any seed plants a caught defect."""
    for name, J in _tables(js).items():
        for pos in planted.table_positions(J):
            bad = planted.perturb_table(J, 0, position=pos)
            for check in (js.jordan.check_jordan, js.jordan.check_relation10):
                r = check(bad, workers=1)
                assert r.status == "fail" and "reason" not in r.counterexample, (name, pos)


def test_every_lie_table_position_is_caught(js):
    tables = _tables(js)
    for name in set(workloads.LIE_TABLES["full"]) | set(workloads.LIE_TABLES["smoke"]):
        L = js.tkk.tkk(tables[name])[0].algebra
        for pos in planted.table_positions(L):
            r = js.tkk.check_lie_table(planted.perturb_table(L, 0, anti=True, position=pos))
            assert r.status == "fail" and "reason" not in r.counterexample, (name, pos)


def test_every_witness_position_is_caught(js):
    jd = js.jordan
    for w in (jd.witness_jp01_to_gl11(), jd.witness_form12_to_d1(),
              jd.witness_dt_inverse(2), jd.witness_dt_inverse(-3)):
        for pos in planted.witness_positions(w):
            r = jd.check_iso(planted.perturb_witness(w, 0, position=pos))
            assert r.status == "fail" and "reason" not in r.counterexample, pos


def test_planted_builders_are_pure_functions_of_input_and_seed(js):
    J = js.jordan.glplus(2, 2)
    assert planted.perturb_table(J, 7).table == planted.perturb_table(J, 7).table
    assert J.table == js.jordan.glplus(2, 2).table  # the input is not touched
    assert len({str(sorted(planted.perturb_table(J, s).table.items())) for s in range(8)}) > 1


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark files, the command fails
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "brackets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
