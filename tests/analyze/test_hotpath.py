"""The ``hotpath`` suite: hot-set closure, mutation fixtures, baseline."""

import ast
import json
import textwrap

from repro.analyze import run_analysis
from repro.analyze.core import Finding, ModuleSource, discover
from repro.analyze.hotpath import (
    BASELINE_SCHEMA,
    Interval,
    TOP,
    HotPurityPass,
    apply_baseline,
    compute_hot_records,
    hotpath_passes,
    main,
    write_baseline,
)

from .conftest import REPO_SRC


def _scan(*paths):
    return run_analysis([str(p) for p in paths], passes=hotpath_passes())


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestMutationFixtures:
    """Each seeded bug trips exactly its rule; the fixed twin is clean."""

    def test_unguarded_trace_mutation(self, fixture_tree):
        report = _scan(fixture_tree / "sim" / "hot_bad_trace.py")
        assert {f.rule for f in report.findings} == {"unguarded-trace"}
        # Both the _TRACE.tracer read and the tracer.emit() call fire.
        assert len(report.findings) == 2

    def test_guarded_trace_twin_is_clean(self, fixture_tree):
        report = _scan(fixture_tree / "sim" / "hot_good_trace.py")
        assert report.findings == []

    def test_backend_bypass_mutation(self, fixture_tree):
        report = _scan(fixture_tree / "sim" / "hot_bad_bypass.py")
        assert [f.rule for f in report.findings] == ["backend-bypass"]
        assert "values" in report.findings[0].message

    def test_backend_routed_twin_is_clean(self, fixture_tree):
        report = _scan(fixture_tree / "sim" / "hot_good_bypass.py")
        assert report.findings == []

    def test_removed_int64_guard_mutation(self, fixture_tree):
        report = _scan(fixture_tree / "compute" / "hot_bad_delta.py")
        assert {f.rule for f in report.findings} == {"int-overflow"}

    def test_guarded_delta_twin_is_clean(self, fixture_tree):
        report = _scan(fixture_tree / "compute" / "hot_good_delta.py")
        assert report.findings == []


class TestHotSet:
    def test_run_outside_sim_is_not_a_root(self, tmp_path):
        _write(tmp_path, "bench/runner.py", """
            class Harness:
                def run(self, values, lo, hi):
                    hits = []
                    for v in values:
                        if lo <= v <= hi:
                            hits.append(v)
                    return hits
        """)
        assert _scan(tmp_path).findings == []

    def test_callee_of_hot_root_inherits_hotness(self, tmp_path):
        _write(tmp_path, "sim/engine.py", """
            class Sim:
                def run(self):
                    return self._drain()

                def _drain(self):
                    total = 0
                    for v in self.values:
                        total = total + v
                    return total
        """)
        report = _scan(tmp_path)
        assert [f.rule for f in report.findings] == ["backend-bypass"]
        assert "_drain" in report.findings[0].message

    def test_backend_methods_are_roots(self, tmp_path):
        _write(tmp_path, "kernels.py", """
            class ToyBackend(ComputeBackend):
                def filter(self, row_values, hi):
                    out = []
                    for v in row_values:
                        if v < hi:
                            out.append(v)
                    return out
        """)
        report = _scan(tmp_path)
        assert [f.rule for f in report.findings] == ["backend-bypass"]

    def test_fast_path_switch_readers_are_roots(self, tmp_path):
        _write(tmp_path, "cpu/lane.py", """
            def fused_scan(row_values, hi):
                if not _FF.on:
                    return None
                total = 0
                for v in row_values:
                    total = total + v
                return total

            def offline_scan(row_values, hi):
                total = 0
                for v in row_values:
                    total = total + v
                return total
        """)
        report = _scan(tmp_path)
        assert [f.rule for f in report.findings] == ["backend-bypass"]
        assert "fused_scan" in report.findings[0].message

    def test_repo_fast_paths_are_hot(self):
        # The fused executors and the lane-log fold must stay policed:
        # they are reached from the functions that read the FF switch.
        purity = HotPurityPass()
        modules = []
        for path in discover([str(REPO_SRC)]):
            if purity.applies_to(path):
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                modules.append(ModuleSource(path, ast.parse(source), source))
        hot = {qualname for _, qualname in compute_hot_records(modules)}
        assert {
            "Core.stream_read_phase", "Core._stream_run_lane",
            "IMCCounters.fold_stream_log", "_fold_busy",
            "MemoryController._lane_try", "MemoryController.stream_read_ps",
            "MemoryController.submit", "JafarDevice._fused_row_run",
        } <= hot


class TestSuppression:
    """Hotpath rules honour the shared core suppression comment."""

    def test_ignore_comment_suppresses_the_named_rule(self, tmp_path):
        _write(tmp_path, "sim/engine.py", """
            class Sim:
                def run(self, values, hi):
                    n = 0
                    for v in values:  # analyze: ignore[backend-bypass]
                        if v < hi:
                            n = n + 1
                    return n
        """)
        assert _scan(tmp_path).findings == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        _write(tmp_path, "sim/engine.py", """
            class Sim:
                def run(self, values, hi):
                    n = 0
                    for v in values:  # analyze: ignore[hot-alloc]
                        if v < hi:
                            n = n + 1
                    return n
        """)
        report = _scan(tmp_path)
        assert [f.rule for f in report.findings] == ["backend-bypass"]


class TestInterval:
    def test_bounded_product_is_within_int64(self):
        got = Interval(0, 1 << 20) * Interval(0, 1 << 20)
        assert got.within(1 << 62)

    def test_top_is_not_within_anything(self):
        assert not TOP.within(1 << 62)

    def test_join_widens_both_ends(self):
        assert Interval(-4, 2).join(Interval(0, 9)) == Interval(-4, 9)


class TestBaseline:
    def _finding(self, path="src/m.py", rule="hot-alloc", line=3):
        return Finding(rule, "msg", path, line, 0)

    def test_grandfathers_up_to_count(self):
        findings = [self._finding(line=3), self._finding(line=9)]
        result = apply_baseline(
            findings, [{"path": "src/m.py", "rule": "hot-alloc", "count": 1}])
        assert result.grandfathered == 1
        assert [f.line for f in result.new_findings] == [9]
        assert result.stale == []

    def test_underused_entry_is_stale(self):
        result = apply_baseline(
            [self._finding()],
            [{"path": "src/m.py", "rule": "hot-alloc", "count": 2}])
        assert result.new_findings == []
        assert result.stale == [{"path": "src/m.py", "rule": "hot-alloc",
                                 "count": 2, "actual": 1}]

    def test_write_then_apply_roundtrip(self, tmp_path, fixture_tree):
        bad = fixture_tree / "sim" / "hot_bad_bypass.py"
        baseline = tmp_path / "bl.json"
        assert main([str(bad), "--write-baseline", str(baseline)]) == 0
        data = json.loads(baseline.read_text())
        assert data["schema"] == BASELINE_SCHEMA
        assert data["entries"][0]["rule"] == "backend-bypass"
        # With the fresh baseline the same tree is clean (exit 0) ...
        assert main([str(bad), "--baseline", str(baseline)]) == 0
        # ... and once the debt is fixed the stale entry blocks (exit 1).
        good = fixture_tree / "sim" / "hot_good_bypass.py"
        assert main([str(good), "--baseline", str(baseline)]) == 1

    def test_corrupt_baseline_exits_two(self, tmp_path, fixture_tree):
        baseline = tmp_path / "bl.json"
        baseline.write_text("{\"schema\": \"something-else\"}")
        good = fixture_tree / "sim" / "hot_good_bypass.py"
        assert main([str(good), "--baseline", str(baseline)]) == 2


class TestCLI:
    def test_parse_error_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "sim/broken.py", "def f(:\n")
        assert main([str(tmp_path), "--no-baseline"]) == 2
        assert "parse-error" in capsys.readouterr().out

    def test_json_payload_carries_baseline_and_timings(
            self, fixture_tree, capsys):
        bad = fixture_tree / "sim" / "hot_bad_bypass.py"
        rc = main([str(bad), "--no-baseline", "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ok", "files_scanned", "passes", "findings",
                                "parse_errors", "pass_timings_ms", "baseline"}
        assert payload["ok"] is False
        assert set(payload["baseline"]) == {"applied", "grandfathered",
                                            "stale"}
        assert set(payload["pass_timings_ms"]) == {"hot-purity", "hot-bounds"}

    def test_out_file_matches_stdout_payload(self, tmp_path, fixture_tree,
                                             capsys):
        bad = fixture_tree / "sim" / "hot_bad_bypass.py"
        out = tmp_path / "report.json"
        rc = main([str(bad), "--no-baseline", "--format", "json",
                   "--out", str(out)])
        assert rc == 1
        assert json.loads(out.read_text()) == json.loads(
            capsys.readouterr().out)

    def test_findings_sorted_for_reproducible_diffs(self, tmp_path, capsys):
        _write(tmp_path, "sim/engine.py", """
            class Sim:
                def run(self, values, hi):
                    n = 0
                    for v in values:
                        if v < hi:
                            n = n + 1
                    for v in values:
                        if v > hi:
                            n = n + 1
                    return n
        """)
        rc = main([str(tmp_path), "--no-baseline", "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        keys = [(f["path"], f["line"], f["rule"], f["col"])
                for f in payload["findings"]]
        assert len(keys) == 2
        assert keys == sorted(keys)

    def test_repo_src_is_clean_modulo_shipped_baseline(self, capsys):
        # The shipped baseline lives at the repo root; run from there the
        # gate must pass — this is exactly what CI executes.
        assert main(["src", "--baseline", "hotpath_baseline.json"]) == 0
        assert "clean" in capsys.readouterr().out
