"""Fast-forward: the mode switch and bit-identity of the fused lanes.

The contract under test is absolute: any result observable from a simulation
— timings, stats counters, bitmasks, command traces — must be bit-identical
whether the fused lanes ran or the event-driven path executed everything.
"""

import dataclasses

import numpy as np
import pytest

from repro.analyze.protocol import replay_commands
from repro.analysis.speedup import measure_point
from repro.config import GEM5_PLATFORM
from repro.errors import SimulationError
from repro.jafar.device import JafarDevice
from repro.sim import fastforward as ffm
from repro.sim.fastforward import exact_mode
from repro.sim.trace import attach_trace
from repro.system import Machine


# -- control flags -------------------------------------------------------------


# Under `pytest --simsan` (or REPRO_EXACT=1) fast-forward is forced off for
# the whole run, so tests that assert the fast paths actually engage — or
# that manipulate the force stack — must stand down.
needs_fastforward = pytest.mark.skipif(
    not ffm.is_enabled(),
    reason="fast-forward disabled (REPRO_EXACT or SimSan forces exact mode)")


@needs_fastforward
class TestControl:
    def test_exact_mode_nests(self):
        assert ffm.FF.on
        with exact_mode():
            assert not ffm.FF.on
            with exact_mode():
                assert not ffm.FF.on
            assert not ffm.FF.on
        assert ffm.FF.on

    def test_set_enabled_round_trip(self):
        ffm.set_enabled(False)
        try:
            assert not ffm.is_enabled()
            with exact_mode():
                pass  # a scoped force under a global disable is fine
            assert not ffm.is_enabled()
        finally:
            ffm.set_enabled(True)
        assert ffm.is_enabled()

    def test_unbalanced_allow_raises(self):
        with pytest.raises(SimulationError):
            ffm.FF.allow()


# -- bit-identity --------------------------------------------------------------


N_ROWS = 32768  # 32 DRAM rows: several refresh deadlines land mid-stream


def _run_select(machine, rows=N_ROWS):
    values = np.arange(rows, dtype=np.int64)
    col = machine.alloc_array(values, dimm=0, pinned=True)
    out = machine.alloc_zeros(max(rows // 8, 1), dimm=0, pinned=True)
    result = machine.driver.select_column(col.vaddr, rows, rows // 4,
                                          3 * rows // 4, out.vaddr)
    bitmask = bytes(machine.read_array(out, max(rows // 8, 1)))
    return result, bitmask


@pytest.fixture
def fused_bursts(monkeypatch):
    """Counts the bursts ``JafarDevice._fused_row_run`` serves."""
    served = [0]
    original = JafarDevice._fused_row_run

    def counting(self, *args):
        done, cursor, alu_ready = original(self, *args)
        served[0] += done
        return done, cursor, alu_ready

    monkeypatch.setattr(JafarDevice, "_fused_row_run", counting)
    return served


def _dram_state(machine):
    """Every rank's and bank's timing state plus the machine's metrics."""
    ranks = [r for ch in machine.controller.channels for r in ch.all_ranks()]
    return (
        [(r.io_free_ps, tuple(r._act_times), r.refresh.next_refresh_ps,
          r.refresh.refreshes_issued, r.refresh.busy_ps) for r in ranks],
        [(b.open_row, b.next_act_ps, b.next_col_ps, b.next_pre_ps,
          b._data_free_ps, b.activations, b.row_hits, b.row_misses)
         for r in ranks for b in r.banks],
        machine.metrics.snapshot(),
    )


@needs_fastforward
class TestBitIdentity:
    def test_device_select_matches_exact(self, engine, fused_bursts):
        fast, fast_mask = _run_select(Machine(GEM5_PLATFORM))
        assert fused_bursts[0] > 0, "the JAFAR fused row run never engaged"
        with exact_mode():
            exact, exact_mask = _run_select(Machine(GEM5_PLATFORM))
        assert fast == exact
        assert fast_mask == exact_mask

    def test_measure_point_matches_exact(self, engine):
        """End to end: device run + CPU baseline + derived figures."""
        ffm.STATS.reset()
        fast = measure_point(0.3, 16384, config=GEM5_PLATFORM, seed=11,
                             kernel="branchy")
        assert ffm.STATS.lane_requests > 0, "the stream lane never engaged"
        with exact_mode():
            exact = measure_point(0.3, 16384, config=GEM5_PLATFORM, seed=11,
                                  kernel="branchy")
        assert fast == exact

    def test_cpu_stream_kernel_matches_exact(self):
        fast = measure_point(0.7, 16384, config=GEM5_PLATFORM, seed=5,
                             kernel="predicated")
        with exact_mode():
            exact = measure_point(0.7, 16384, config=GEM5_PLATFORM, seed=5,
                                  kernel="predicated")
        for field in dataclasses.fields(fast):
            assert getattr(fast, field.name) == getattr(exact, field.name)


@needs_fastforward
class TestRefreshDeadlineMidPeriod:
    """tREFI lands mid-stream: the fused row runs must stop at every refresh
    deadline, leave the refresh to the exact path, and still match the
    event-driven run state for state and command for command."""

    def test_ff_exits_early_and_replays_identically(self, fused_bursts):
        machine_ff = Machine(GEM5_PLATFORM)
        fast, fast_mask = _run_select(machine_ff)
        assert fused_bursts[0] > 0, "the JAFAR fused row run never engaged"

        # Refreshes were serviced by the exact path: the fused runs stopped
        # short of every tREFI deadline instead of serving bursts through
        # it (which would have corrupted bank state silently).
        refreshes = sum(r.refresh.refreshes_issued
                        for ch in machine_ff.controller.channels
                        for r in ch.all_ranks())
        assert refreshes > 0, "no tREFI deadline landed mid-stream"

        machine_ex = Machine(GEM5_PLATFORM)
        with exact_mode():
            exact, exact_mask = _run_select(machine_ex)
        assert fast == exact
        assert fast_mask == exact_mask
        assert _dram_state(machine_ff) == _dram_state(machine_ex)

        # A recorded trace keeps the device on the per-burst path, so the
        # traced fast-mode run must issue the exact run's command stream,
        # and that stream must be protocol-legal: replay it through the
        # DDR3 command checker used by the JEDEC sanitizer.
        machine_tr = Machine(GEM5_PLATFORM)
        trace_tr = attach_trace(machine_tr)
        traced, traced_mask = _run_select(machine_tr)
        machine_tx = Machine(GEM5_PLATFORM)
        trace_tx = attach_trace(machine_tx)
        with exact_mode():
            _run_select(machine_tx)
        assert (traced, traced_mask) == (fast, fast_mask)
        assert any(c.kind == "REF" for c in trace_tr.commands)
        assert trace_tr.commands == trace_tx.commands
        assert trace_tr.records == trace_tx.records
        violations = replay_commands(trace_tr.commands, machine_tr.timings)
        assert violations == []
