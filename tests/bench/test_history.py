"""The committed perf trajectory: record-history append + regression gate,
and compare-backends input validation."""

import json

import pytest

from repro.bench import SweepConfig, run_sweep, smoke_sweep
from repro.bench.__main__ import main as bench_main
from repro.bench.orchestrator import (check_history_regression,
                                      compare_backends, read_history,
                                      record_history)
from repro.errors import ConfigError

TINY = [
    SweepConfig("fig3_point", rows=1024, selectivity=0.0),
    SweepConfig("fig3_point", rows=2048, selectivity=1.0),
]


def _fresh_report(tmp_path):
    return run_sweep(TINY, cache_dir=tmp_path / "cache", serial=True,
                     use_cache=False)


class TestRecordHistory:
    def test_entry_shape_and_append(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        report = _fresh_report(tmp_path)
        entry = record_history(report, history)
        assert entry["fingerprint"] == report["fingerprint"]
        assert entry["backend"] == report["backend"]
        assert entry["rows"] == 2048          # the largest row count swept
        assert entry["num_points"] == len(TINY)
        assert entry["total_wall_s"] == report["total_wall_s"]
        assert entry["total_wall_speedup"] is None   # no predecessor
        assert entry["lane_requests"] == report["lane_requests"]
        on_disk = read_history(history)
        assert on_disk == [entry]

    def test_speedup_vs_comparable_predecessor(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        first = record_history(_fresh_report(tmp_path), history)
        second = record_history(_fresh_report(tmp_path), history)
        assert second["total_wall_speedup"] == pytest.approx(
            first["total_wall_s"] / second["total_wall_s"])

    def test_different_point_set_not_compared(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        record_history(_fresh_report(tmp_path), history)
        other = run_sweep([SweepConfig("fig3_point", rows=512)],
                          cache_dir=tmp_path / "cache", serial=True,
                          use_cache=False)
        entry = record_history(other, history)
        assert entry["total_wall_speedup"] is None

    def test_cached_run_refused(self, tmp_path):
        warm = run_sweep(TINY, cache_dir=tmp_path / "cache", serial=True)
        warm = run_sweep(TINY, cache_dir=tmp_path / "cache", serial=True)
        assert warm["cache_hits"] > 0
        with pytest.raises(ConfigError):
            record_history(warm, tmp_path / "hist.jsonl")

    def test_corrupt_lines_skipped(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        history.write_text('not json\n{"points_sig": "x"}\n',
                           encoding="utf-8")
        assert read_history(history) == [{"points_sig": "x"}]


class TestHistoryGate:
    def _seed(self, history, wall, sig="a,b"):
        with history.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"points_sig": sig, "total_wall_s": wall}) + "\n")

    def test_empty_and_single_entry_pass(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        ok, _ = check_history_regression(history)
        assert ok
        self._seed(history, 1.0)
        ok, msg = check_history_regression(history)
        assert ok and "no comparable predecessor" in msg

    def test_within_tolerance_passes(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        self._seed(history, 1.0)
        self._seed(history, 1.05)
        ok, _ = check_history_regression(history)
        assert ok

    def test_regression_fails(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        self._seed(history, 1.0)
        self._seed(history, 1.2)
        ok, msg = check_history_regression(history)
        assert not ok and "regression" in msg

    def test_incomparable_signatures_pass(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        self._seed(history, 1.0, sig="a")
        self._seed(history, 9.0, sig="b")
        ok, _ = check_history_regression(history)
        assert ok

    def test_cli_record_and_gate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        history = tmp_path / "hist.jsonl"
        sig = ",".join(sorted(c.name for c in smoke_sweep()))
        argv = ["--smoke", "--serial", "--cache-dir", str(tmp_path / "c"),
                "--output", str(tmp_path / "out.json"),
                "--record-history", str(history), "--history-gate"]
        # A predecessor no real smoke run can be slower than: the passing
        # leg does not depend on how fast this host happens to be.
        self._seed(history, 3600.0, sig=sig)
        assert bench_main(argv) == 0
        entries = read_history(history)
        assert len(entries) == 2 and entries[-1]["points_sig"] == sig
        out = capsys.readouterr().out
        assert "history entry appended" in out
        assert "history gate: ok" in out
        # A predecessor 10x faster than the last real run makes the next
        # run a 10x regression: the CLI must fail the gate.
        self._seed(history, entries[-1]["total_wall_s"] / 10, sig=sig)
        assert bench_main(argv) != 0
        assert len(read_history(history)) == 4
        assert "wall-clock regression" in capsys.readouterr().out


class TestCompareBackendsDegradation:
    def test_all_backends_unavailable_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError):
            compare_backends([SweepConfig("fig3_point", rows=512)],
                             backends=("cuda",),
                             cache_dir=tmp_path / "cache")
