"""Self-tests of the benchmark: span arithmetic, output checks, wrappers.

Run from the repository root with ``python -m pytest perfbench/tests``.
The workloads here are shrunk copies of the benchmark's own, so the suite
takes seconds; the digests they compare against are recorded in-test.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, import_program

import_program()

from perfbench import layers, run  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Span,
    SpanRecorder,
    chrome_trace,
    leftover_wrappers,
    self_times,
)
from perfbench.workloads import (  # noqa: E402
    ScanWorkload,
    TpchWorkload,
    digest,
    execute,
)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def small_scan(reference=None) -> ScanWorkload:
    w = ScanWorkload("fig3-sweep", 42, rows=8192,
                     selectivities=(0.0, 0.5, 1.0), sweep=False)
    w.reference = dict(reference or {})
    return w


def recorded_reference() -> dict[str, str]:
    w = small_scan()
    return {op.name: digest(op.payload) for op in execute(w, 42).ops}


def traced_run(workload, seed):
    recorder = SpanRecorder()
    before = layers.ff_stats()
    result, counts, live = run.instrumented_run(workload, seed, recorder)
    metrics = layers.layer_metrics(recorder.spans, live, counts,
                                   layers.ff_delta(before, layers.ff_stats()))
    return result, metrics, recorder


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_child_coverage_once():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("b", 30, 60, 0),       # overlaps a: the union counts once
        Span("a.leaf", 15, 20, 1),
        Span("late", 90, 120, 0),   # sticks out of root: clipped to root
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 30]


def test_recorder_nests_calls_and_chrome_trace_roundtrips(tmp_path):
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2,
                          label=lambda a, k: f"x{a[0]}")
    assert outer(3) == 8
    names = [s.name for s in recorder.spans]
    assert names == ["outer.x3", "inner"]
    assert recorder.spans[1].parent == 0 and recorder.spans[0].parent == -1
    path = tmp_path / "t.json"
    chrome_trace(recorder.spans, path, {"k": 1})
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == names
    assert events[1]["args"]["parent"] == "outer.x3"
    assert all(e["ph"] == "X" and e["args"]["self_us"] <= e["dur"] for e in events)


# -- output checks ------------------------------------------------------------


def test_wrong_cpu_ps_raises_fail_frac(monkeypatch):
    import repro.analysis

    w = small_scan(recorded_reference())
    tally = run.Tally()
    tally.add(w, execute(w, 42).ops, 42, "honest")
    assert tally.failed == 0

    honest = repro.analysis.measure_point

    def skewed(*args, **kwargs):
        point = honest(*args, **kwargs)
        return dataclasses.replace(point, cpu_ps=point.cpu_ps + 1)

    monkeypatch.setattr(repro.analysis, "measure_point", skewed)
    tally.add(w, execute(w, 42).ops, 42, "skewed")
    assert tally.failed == 3 and tally.attempted == 6
    assert all("digest" in r for r in tally.reasons)


def test_exception_fails_only_its_call(monkeypatch):
    import repro.analysis

    honest = repro.analysis.measure_point

    def flaky(selectivity, *args, **kwargs):
        if selectivity == 0.5:
            raise RuntimeError("boom")
        return honest(selectivity, *args, **kwargs)

    monkeypatch.setattr(repro.analysis, "measure_point", flaky)
    w = small_scan()
    result = execute(w, 42)
    failures = w.check(result.ops, 42)
    assert set(failures) == {"s0.5"} and "boom" in failures["s0.5"]


def test_other_seed_changes_inputs_and_passes_seed_free_checks():
    w = small_scan(recorded_reference())
    default = {op.name: digest(op.payload) for op in execute(w, 42).ops}
    ops = execute(w, 7).ops
    assert w.check(ops, 7) == {}
    other = {op.name: digest(op.payload) for op in ops}
    assert other["s0.5"] != default["s0.5"]
    assert ops[1].payload.matches != execute(w, 42).ops[1].payload.matches


def test_seed_free_check_catches_a_wrong_count(monkeypatch):
    import repro.analysis

    honest = repro.analysis.measure_point

    def miscount(*args, **kwargs):
        point = honest(*args, **kwargs)
        return dataclasses.replace(point, matches=point.matches + 1)

    monkeypatch.setattr(repro.analysis, "measure_point", miscount)
    w = small_scan()
    failures = w.check(execute(w, 7).ops, 7)
    assert set(failures) == {"s0.0", "s0.5", "s1.0"}
    assert all("numpy count" in r for r in failures.values())


# -- metric names -------------------------------------------------------------


#: Per-layer metrics that ``run.traced`` adds to the layers' own.
RUN_METRICS = {"bench.span_overhead_pct", "bench.wall_raw_s",
               "bench.speed_probe_ms", "obs.trace_overhead_pct", "paper_err_pct"}


def test_every_metric_name_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in declared)
    assert len(layers.CATALOGUE) == len(set(layers.CATALOGUE))
    for m in spec["per_layer"]:
        assert m["name"] in layers.CATALOGUE
        assert m["unit"] == layers.unit_of(m["name"])

    _, metrics, _ = traced_run(small_scan(), 42)
    produced = set(metrics) | RUN_METRICS
    assert all(NAME_RE.fullmatch(n) for n in produced)
    assert produced <= set(layers.CATALOGUE), produced - set(layers.CATALOGUE)


@pytest.mark.parametrize("workload", [
    small_scan(),
    TpchWorkload("tpch-fig4", 1, scale=0.001, queries=("Q1", "Q6")),
], ids=["scan", "tpch"])
def test_declared_per_layer_metrics_are_defined_on_every_kind_of_workload(workload):
    # The result line must carry every declared per-layer metric, and a time
    # that is 0 on every run would read the same each time: the declared
    # set is the one that every workload reports, each time above zero.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - RUN_METRICS
    _, metrics, _ = traced_run(workload, workload.default_seed)
    assert declared <= set(metrics), declared - set(metrics)
    assert all(metrics[n] > 0 for n in declared), {
        n: metrics[n] for n in declared if metrics[n] <= 0}


# -- wrappers -------------------------------------------------------------------


def test_wrappers_are_restored_after_the_traced_run():
    import repro.analysis
    import repro.analysis.speedup
    from repro.compute import get_backend
    from repro.system import Machine

    backend_cls = type(get_backend())
    own_before = set(vars(backend_cls))
    originals = (repro.analysis.measure_point, repro.analysis.speedup.measure_point,
                 Machine.__init__)
    result, metrics, recorder = traced_run(small_scan(), 42)
    assert recorder.spans and metrics["compute.calls"] > 0
    assert leftover_wrappers("repro") == []
    assert (repro.analysis.measure_point, repro.analysis.speedup.measure_point,
            Machine.__init__) == originals
    assert set(vars(backend_cls)) == own_before

    recorded = len(recorder.spans)
    execute(small_scan(), 42)
    assert len(recorder.spans) == recorded


def test_missing_layers_read_as_absent(monkeypatch):
    monkeypatch.setattr(layers, "FF_STATS", ("repro.sim.fastforward", "GONE"))
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + (
        layers.Layer("gone", "repro.no_such_module:thing"),
        layers.Layer("gone", "repro.cpu.core:Core.no_such_method"),
    ))
    monkeypatch.setattr(layers, "SELF_METRICS",
                        {**layers.SELF_METRICS, "gone": "gone.self_s"})
    assert layers.ff_stats() is None
    result, metrics, _ = traced_run(small_scan(), 42)
    assert not any(n.startswith("sim.") for n in metrics)
    assert "gone.self_s" not in metrics
    assert metrics["cpu.stream_s"] > 0
    assert small_scan().check(result.ops, 42) == {}


# -- the command ------------------------------------------------------------------


def test_command_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-sweep",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 22
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    for name, value in doc["metrics"].items():
        assert units[name] == value["unit"]
    assert set(doc["metrics"]) == set(units)
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())
