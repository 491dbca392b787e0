"""Fused lanes vs event-driven path: bit-identity at the edges.

The fused lane executors (DESIGN.md §7) only run when fast-forward is on;
``exact_mode()`` forces every request down the per-event path.  These
tests run the same sweep configurations both ways and demand the simulated
payloads diff clean — the end-to-end form of the exactness invariant,
aimed squarely at the places a lane must stop and hand over to the exact
path:

* tREFI straddles — runs long enough that lanes hit refresh deadlines
  mid-run (every config beyond a few thousand rows crosses many 7.8 µs
  windows);
* buffer drains — a minimal 512-bit JAFAR buffer forces a write-back
  drain after every interior burst;
* degenerate selectivities 0.0 / 1.0 — all-skip and all-hit streams, the
  two extremes of lane run length.

Tier 1 keeps rows small; the ``slow`` campaign re-proves identity at the
paper-scale 262144-row point and completes a 4M-row fig3 point.
"""

import pytest

from repro.bench.configs import SweepConfig
from repro.bench.orchestrator import diff_reports, run_sweep
from repro.sim import fastforward as _ffm

# Under `pytest --simsan` (or REPRO_EXACT=1) every run is exact, so a test
# that asserts the fast run engaged the lanes must stand down.
needs_fastforward = pytest.mark.skipif(
    not _ffm.is_enabled(),
    reason="fast-forward disabled (REPRO_EXACT or SimSan forces exact mode)")


def _identity_case(configs):
    """Run configs fast-forwarded and exact; fail on any simulated diff.

    When fast-forward is on, every fig3 point of the fast run must have
    served requests in the fused lanes, or the comparison proved nothing
    about them (``scan_estimate`` points issue no memory traffic).
    """
    fast = run_sweep(configs, serial=True, use_cache=False, exact=False)
    exact = run_sweep(configs, serial=True, use_cache=False, exact=True)
    mismatched = diff_reports(fast, exact)
    assert not mismatched, (
        f"fused fast-forward path diverged from the event-driven path on "
        f"{mismatched}")
    if _ffm.is_enabled():
        lanes = {p["key"]: p["lane_requests"] for p in fast["points"]
                 if p["config"]["experiment"] == "fig3_point"}
        assert lanes and all(n > 0 for n in lanes.values()), lanes


class TestLaneVsEventDriven:
    @needs_fastforward
    def test_degenerate_selectivities(self):
        # All-skip and all-hit: the longest possible uniform lane runs.
        configs = [SweepConfig("fig3_point", rows=8192, selectivity=s)
                   for s in (0.0, 1.0)]
        _identity_case(configs)

    def test_trefi_straddle(self):
        # 8192 rows cross dozens of 7.8 us refresh windows: every lane run
        # eventually hits a tREFI deadline and must replay the straddling
        # request through the exact rank path.
        configs = [SweepConfig("fig3_point", rows=8192, selectivity=0.5)]
        _identity_case(configs)

    def test_buffer_drain_mid_run(self):
        # A minimal 512-bit buffer drains after every interior burst, so
        # write-back pressure interrupts lane runs as often as possible.
        configs = [SweepConfig("fig3_point", rows=2048, selectivity=0.5,
                               buffer_bits=512),
                   SweepConfig("fig3_point", rows=2048, selectivity=0.9,
                               buffer_bits=512)]
        _identity_case(configs)

    def test_mixed_grades_and_kernels(self):
        configs = [SweepConfig("fig3_point", rows=2048, selectivity=0.25,
                               grade="DDR3-1066G"),
                   SweepConfig("fig3_point", rows=2048, selectivity=0.75,
                               kernel="predicated"),
                   SweepConfig("scan_estimate", rows=2048, selectivity=0.5)]
        _identity_case(configs)


@pytest.mark.slow
class TestPaperScale:
    @needs_fastforward
    def test_identity_at_262144_rows(self):
        # The paper-scale point: lane-vs-event identity where the
        # wall-clock figures are quoted.
        configs = [SweepConfig("fig3_point", rows=262144, selectivity=s)
                   for s in (0.0, 0.5, 1.0)]
        _identity_case(configs)

    def test_4m_row_point_completes(self):
        # 4M rows as a routine benchmark: fast-forwarded only (the exact
        # run at this scale is a nightly-budget job, and identity is
        # already proven at 262144 rows above).
        _ffm.STATS.reset()
        report = run_sweep(
            [SweepConfig("fig3_point", rows=4194304, selectivity=0.5)],
            serial=True, use_cache=False)
        point = report["points"][0]
        result = point["result"]
        # The fused lanes are what make the point routine: they must have
        # served the bulk of the traffic.
        assert _ffm.STATS.lane_requests > 100_000
        assert result["matches"] == pytest.approx(4194304 * 0.5, rel=0.01)
        assert result["jafar_ps"] > 0 and result["cpu_ps"] > 0
