"""End-to-end orchestrator tests at tiny scale: order, cache, deltas, CLI."""

import json

import pytest

from repro.bench import SweepConfig, enumerate_sweep, run_sweep, smoke_sweep
from repro.bench.__main__ import main as bench_main
from repro.bench.orchestrator import (HOST_ONLY_POINT_FIELDS,
                                      compare_backends, compute_deltas,
                                      diff_reports, simulated_view,
                                      write_results)
from repro.bench.store import cache_key

TINY = [
    SweepConfig("fig3_point", rows=2048, selectivity=0.0),
    SweepConfig("fig3_point", rows=2048, selectivity=1.0),
    SweepConfig("scan_estimate", rows=2048, selectivity=0.5),
]


class TestRunSweep:
    def test_report_keeps_config_order_and_shape(self, tmp_path):
        report = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        assert report["num_points"] == len(TINY)
        assert [p["name"] for p in report["points"]] == [c.name for c in TINY]
        assert report["cache_hits"] == 0
        for point in report["points"]:
            assert point["result"]
            assert len(point["key"]) == 64
            assert point["wall_s"] >= 0

    def test_second_run_hits_cache_with_identical_results(self, tmp_path):
        first = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        second = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        assert second["cache_hits"] == len(TINY)
        assert ([p["result"] for p in first["points"]]
                == [p["result"] for p in second["points"]])

    def test_no_cache_recomputes(self, tmp_path):
        run_sweep(TINY, cache_dir=tmp_path, serial=True)
        again = run_sweep(TINY, cache_dir=tmp_path, use_cache=False,
                          serial=True)
        assert again["cache_hits"] == 0

    def test_pool_and_serial_agree(self, tmp_path):
        serial = run_sweep(TINY, cache_dir=tmp_path / "a", serial=True)
        pooled = run_sweep(TINY, workers=2, cache_dir=tmp_path / "b")
        assert ([p["result"] for p in serial["points"]]
                == [p["result"] for p in pooled["points"]])
        assert ([p["key"] for p in serial["points"]]
                == [p["key"] for p in pooled["points"]])


class TestDeltasAndOutput:
    def test_deltas_flag_identical_simulated_output(self, tmp_path):
        first = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        second = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        deltas = compute_deltas(second, first)
        assert set(deltas["points"]) == {c.name for c in TINY}
        assert all(d["sim_identical"] for d in deltas["points"].values())

    def test_deltas_catch_changed_results(self, tmp_path):
        first = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        second = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        second["points"][0] = dict(second["points"][0],
                                   result={"cpu_ps": -1})
        deltas = compute_deltas(second, first)
        assert not deltas["points"][TINY[0].name]["sim_identical"]
        assert deltas["points"][TINY[1].name]["sim_identical"]

    def test_write_results_attaches_deltas_on_rewrite(self, tmp_path):
        out = tmp_path / "BENCH_results.json"
        report1 = run_sweep(TINY, cache_dir=tmp_path / "c", serial=True)
        written1 = write_results(report1, out)
        assert "deltas" not in written1
        report2 = run_sweep(TINY, cache_dir=tmp_path / "c", serial=True)
        written2 = write_results(report2, out)
        assert written2["deltas"]["points"]
        on_disk = json.loads(out.read_text())
        assert on_disk["deltas"] == written2["deltas"]


class TestWarmRerunCacheHits:
    """Regression: the top-level cache_hits counter must agree with the
    per-point ``cached`` flags on a warm rerun, in the report run_sweep
    assembles AND in the file write_results puts on disk."""

    def test_reduce_step_counts_per_point_flags(self, tmp_path):
        run_sweep(TINY, cache_dir=tmp_path, serial=True)
        warm = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        per_point = sum(1 for p in warm["points"] if p["cached"])
        assert per_point == len(TINY)
        assert warm["cache_hits"] == per_point

    def test_written_report_preserves_cache_hits(self, tmp_path):
        out = tmp_path / "BENCH_results.json"
        write_results(run_sweep(TINY, cache_dir=tmp_path, serial=True), out)
        write_results(run_sweep(TINY, cache_dir=tmp_path, serial=True), out)
        on_disk = json.loads(out.read_text())
        assert any(p["cached"] for p in on_disk["points"])
        assert (on_disk["cache_hits"]
                == sum(1 for p in on_disk["points"] if p["cached"]))


class TestFastForwardReporting:
    def test_fresh_points_report_lane_requests(self, tmp_path):
        report = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        for point in report["points"]:
            assert point["lane_requests"] is not None
        assert report["lane_requests"] == sum(
            p["lane_requests"] for p in report["points"])

    def test_cached_points_report_none(self, tmp_path):
        run_sweep(TINY, cache_dir=tmp_path, serial=True)
        warm = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        assert all(p["lane_requests"] is None for p in warm["points"])
        assert warm["lane_requests"] is None

    def test_exact_matches_fast_forward_simulated_fields(self, tmp_path):
        fast = run_sweep(TINY, cache_dir=tmp_path / "a", serial=True)
        exact = run_sweep(TINY, cache_dir=tmp_path / "b", serial=True,
                          exact=True)
        assert exact["exact"] is True
        assert diff_reports(fast, exact) == []
        assert ([p["result"] for p in fast["points"]]
                == [p["result"] for p in exact["points"]])


class TestSimulatedFieldDiff:
    def test_view_strips_exactly_the_host_fields(self, tmp_path):
        report = run_sweep(TINY[:1], cache_dir=tmp_path, serial=True)
        point = report["points"][0]
        view = simulated_view(point)
        for field in HOST_ONLY_POINT_FIELDS:
            assert field in point and field not in view
        assert "key" not in view
        assert view["result"] == point["result"]

    def test_diff_ignores_host_timing_fields(self, tmp_path):
        report = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        other = dict(report, points=[
            dict(p, wall_s=p["wall_s"] + 1.0, cached=not p["cached"],
                 lane_requests=None)
            for p in report["points"]])
        assert diff_reports(report, other) == []

    def test_diff_ignores_retired_host_fields(self, tmp_path):
        # Reports written while epoch skipping existed carry a per-point
        # skip count; they must still diff clean against current ones.
        report = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        older = dict(report, points=[
            dict(p, ff_skipped_events=1234) for p in report["points"]])
        assert diff_reports(report, older) == []

    def test_diff_catches_simulated_changes_and_missing_points(self, tmp_path):
        report = run_sweep(TINY, cache_dir=tmp_path, serial=True)
        changed = dict(report, points=[
            dict(report["points"][0], result={"cpu_ps": -1})
        ] + report["points"][1:])
        assert diff_reports(report, changed) == [TINY[0].name]
        shorter = dict(report, points=report["points"][1:])
        assert diff_reports(report, shorter) == [TINY[0].name]

    def test_cli_diff(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        write_results(run_sweep(TINY, cache_dir=tmp_path, serial=True), out_a)
        write_results(run_sweep(TINY, cache_dir=tmp_path, serial=True,
                                exact=True), out_b)
        assert bench_main(["--diff", str(out_a), str(out_b)]) == 0
        report = json.loads(out_b.read_text())
        report["points"][0]["result"] = {"cpu_ps": -1}
        out_b.write_text(json.dumps(report))
        assert bench_main(["--diff", str(out_a), str(out_b)]) == 1
        assert "differ" in capsys.readouterr().out


class TestBackendCacheIsolation:
    """Regression: backends share the cache *directory* but never entries.

    The results are bit-identical by contract, so cross-pollination would go
    unnoticed in outputs — but a cached python-backend point reported as a
    numpy run would falsify the wall-clock numbers and hide backend bugs
    from any uncached rerun. The backend therefore lives in the cache key.
    """

    def test_backend_is_part_of_cache_key(self):
        pytest.importorskip("numpy")
        cfg = TINY[0]
        assert (cache_key(cfg, "fp", "python")
                != cache_key(cfg, "fp", "numpy"))
        assert cache_key(cfg, "fp", "python") == cache_key(cfg, "fp", "python")

    def test_warm_rerun_never_crosses_backends(self, tmp_path):
        pytest.importorskip("numpy")
        cold_py = run_sweep(TINY, cache_dir=tmp_path, serial=True,
                            backend="python")
        assert cold_py["cache_hits"] == 0
        # A different backend over the same cache dir must also run cold.
        cold_np = run_sweep(TINY, cache_dir=tmp_path, serial=True,
                            backend="numpy")
        assert cold_np["cache_hits"] == 0
        # ...while each backend's own rerun is fully warm.
        warm_py = run_sweep(TINY, cache_dir=tmp_path, serial=True,
                            backend="python")
        warm_np = run_sweep(TINY, cache_dir=tmp_path, serial=True,
                            backend="numpy")
        assert warm_py["cache_hits"] == len(TINY)
        assert warm_np["cache_hits"] == len(TINY)
        for report in (cold_py, warm_py):
            assert report["backend"] == "python"
            assert all(p["backend"] == "python" for p in report["points"])
        for report in (cold_np, warm_np):
            assert report["backend"] == "numpy"
        # The bit-identity contract: all four reports diff clean.
        assert diff_reports(cold_py, cold_np) == []
        assert diff_reports(cold_py, warm_py) == []
        assert diff_reports(cold_py, warm_np) == []

    def test_compare_backends_reports_identity_and_walls(self, tmp_path):
        pytest.importorskip("numpy")
        report = compare_backends(TINY, cache_dir=tmp_path)
        compare = report["backend_compare"]
        assert compare["identical"] is True
        assert compare["mismatched_points"] == []
        assert set(compare["points"]) == {c.name for c in TINY}
        for walls in compare["points"].values():
            assert walls["python_wall_s"] >= 0
            assert walls["numpy_wall_s"] >= 0
        assert compare["total"]["wall_speedup"] > 0

    def test_cli_backend_flag(self, tmp_path, capsys):
        code = bench_main(["--smoke", "--serial", "--backend", "python",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--output", str(tmp_path / "out.json")])
        assert code == 0
        assert "python backend" in capsys.readouterr().out
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["backend"] == "python"


class TestSweepsAndCLI:
    def test_smoke_sweep_is_four_points(self):
        configs = smoke_sweep()
        assert len(configs) == 4
        assert len({c.name for c in configs}) == 4

    def test_enumerate_dedupes_across_sweeps(self):
        once = enumerate_sweep(["fig3"], rows=1024)
        twice = enumerate_sweep(["fig3", "fig3"], rows=1024)
        assert once == twice

    def test_cli_list_and_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert bench_main(["--smoke", "--list"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        code = bench_main(["--smoke", "--serial",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--output", str(tmp_path / "out.json")])
        assert code == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["num_points"] == 4
        # Second CLI run: all cached, deltas report identical sim output.
        code = bench_main(["--smoke", "--serial",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--output", str(tmp_path / "out.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 cached" in out
        assert "identical to previous run" in out
