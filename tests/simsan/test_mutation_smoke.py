"""Mutation smoke tests: every sanitizer catches its seeded violation.

Each test breaks one model invariant on purpose (a subclass or patched
method standing in for a future bad refactor) and asserts the matching
sanitizer aborts with :class:`SanitizerError` — alongside a healthy-path
control showing the same operations pass unsanitized models untouched.
"""

import heapq

import numpy as np
import pytest

from repro.analyze import simsan
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.setassoc import SetAssociativeCache
from repro.config import GEM5_PLATFORM
from repro.dram import Agent
from repro.dram.iobuffer import IOBuffer
from repro.dram.rank import Rank
from repro.dram.timing import speed_grade
from repro.errors import SanitizerError
from repro.jafar.alu import ComparatorPair
from repro.jafar.ownership import RankOwnership
from repro.sim.engine import Event, Simulator
from repro.system import Machine

TIMINGS = speed_grade("DDR3-1600K")


@pytest.fixture()
def sanitizers():
    """Install the sanitizers for one test, restoring the prior state."""
    with simsan.sanitized():
        yield


# -- engine --------------------------------------------------------------------


def test_engine_catches_time_regression(sanitizers):
    sim = Simulator()
    sim.schedule_at(100, lambda: None)
    sim.run()
    assert sim.now == 100
    # Smuggle a past-dated event straight into the heap, bypassing the
    # schedule_at guard (the counter is kept honest so only the regression
    # trips).
    heapq.heappush(sim._queue, Event(50, 0, 0, 999, lambda: None, _owner=sim))
    sim._pending += 1
    with pytest.raises(SanitizerError, match="regressed"):
        sim.step()


def test_engine_catches_pending_counter_drift(sanitizers):
    sim = Simulator()
    sim.schedule_at(10, lambda: None)
    sim._pending += 1  # seeded accounting bug
    with pytest.raises(SanitizerError, match="drifted"):
        sim.run()


def test_engine_catches_orphan_event(sanitizers):
    sim = Simulator()
    heapq.heappush(sim._queue, Event(50, 0, 0, 0, lambda: None))  # ownerless
    sim._pending += 1
    with pytest.raises(SanitizerError, match="orphan"):
        sim.run(until_ps=10)  # the orphan is still queued at audit time


def test_engine_healthy_run_is_silent(sanitizers):
    sim = Simulator()
    fired = []
    sim.schedule_at(10, lambda: fired.append(sim.now))
    event = sim.schedule_at(20, lambda: fired.append(sim.now))
    event.cancel()
    assert sim.run() == 1
    assert fired == [10]


# -- JEDEC ---------------------------------------------------------------------


class _NoActSpacingRank(Rank):
    """A broken refactor that drops rank-level tRRD/tFAW enforcement."""

    def _act_floor_ps(self) -> int:
        return 0


def test_jedec_catches_dropped_act_spacing(sanitizers):
    rank = _NoActSpacingRank(TIMINGS, banks=8, refresh_enabled=False)
    rank.access(0, 0, 0, is_write=False)
    with pytest.raises(SanitizerError, match="trrd"):
        rank.access(1, 0, 0, is_write=False)  # ACT on bank 1 with zero gap


def test_jedec_healthy_rank_is_silent(sanitizers):
    rank = Rank(TIMINGS, banks=8, refresh_enabled=False)
    first = rank.access(0, 0, 0, is_write=False)
    second = rank.access(1, 0, 0, is_write=False)
    # The real model defers the second ACT to honour tRRD.
    assert second.cas_ps > first.cas_ps - TIMINGS.cycles_to_ps(TIMINGS.cl)


def test_jedec_standalone_bank_is_out_of_scope(sanitizers):
    from repro.dram.bank import Bank

    bank = Bank(TIMINGS)
    bank.access(0, 0, is_write=False)  # no rank context: not fed, no error


# -- ownership handoff ---------------------------------------------------------


def test_ownership_catches_issue_before_handoff_completes(sanitizers):
    rank = Rank(TIMINGS, banks=8, refresh_enabled=False)
    ownership = RankOwnership(TIMINGS)
    grant = ownership.acquire(rank, 0, 1_000_000)
    assert grant.ready_ps > 0
    with pytest.raises(SanitizerError, match="handoff"):
        rank.access(0, 0, 0, is_write=False, agent=Agent.JAFAR)


def test_ownership_catches_early_mpr_disable(sanitizers):
    rank = Rank(TIMINGS, banks=8, refresh_enabled=False)
    ownership = RankOwnership(TIMINGS)
    grant = ownership.acquire(rank, 0, 1_000_000)
    rank.mode_registers.disable_mpr()  # host unblocked while granted
    with pytest.raises(SanitizerError, match="MPR"):
        ownership.release(grant, grant.ready_ps + 10)


def test_ownership_healthy_grant_cycle_is_silent(sanitizers):
    rank = Rank(TIMINGS, banks=8, refresh_enabled=False)
    ownership = RankOwnership(TIMINGS)
    grant = ownership.acquire(rank, 0, 1_000_000)
    rank.access(0, 0, grant.ready_ps, is_write=False, agent=Agent.JAFAR)
    ownership.release(grant, grant.expires_ps)


# -- IO buffer -----------------------------------------------------------------


def test_iobuffer_catches_lost_dual_pumping(sanitizers, monkeypatch):
    buf = IOBuffer(TIMINGS)
    buf.beat_schedule(1000)  # healthy control

    def single_pumped(self, data_start_ps, time_ps):
        if time_ps <= data_start_ps:
            return 0
        # Seeded bug: forgets that beats land on BOTH clock edges.
        words = (time_ps - data_start_ps) // self._tck_ps
        return min(words, self.words_per_burst)

    monkeypatch.setattr(IOBuffer, "words_available_by", single_pumped)
    with pytest.raises(SanitizerError, match="dual-pumped"):
        buf.beat_schedule(1000)


# -- cache ---------------------------------------------------------------------


def _hierarchy():
    l1 = SetAssociativeCache("L1", 1024, line_bytes=64, ways=2,
                             hit_latency_cycles=1)
    l2 = SetAssociativeCache("L2", 4096, line_bytes=64, ways=4,
                             hit_latency_cycles=4)
    return CacheHierarchy([l1, l2])


def test_cache_catches_dropped_fill(sanitizers):
    hierarchy = _hierarchy()
    hierarchy.access(0)  # healthy control
    lying_level = hierarchy.levels[1]
    real_access = SetAssociativeCache.access

    def lossy(self, addr, is_write=False):
        result = real_access(self, addr, is_write=is_write)
        index, tag = self._index_tag(addr)
        self._sets[index] = [w for w in self._sets[index] if w[0] != tag]
        return result

    lying_level.access = lossy.__get__(lying_level)  # only L2 lies
    with pytest.raises(SanitizerError, match="L2"):
        hierarchy.access(64 * 999)


def test_cache_catches_sticky_invalidate(sanitizers):
    hierarchy = _hierarchy()
    hierarchy.access(0)
    hierarchy.levels[0].invalidate = lambda addr: False  # drops nothing
    with pytest.raises(SanitizerError, match="still holds"):
        hierarchy.invalidate_range(0, 64)


def test_cache_healthy_traffic_is_silent(sanitizers):
    hierarchy = _hierarchy()
    for addr in range(0, 64 * 64, 64):
        hierarchy.access(addr, is_write=(addr % 128 == 0))
    assert hierarchy.invalidate_range(0, 1024) > 0


# -- fast-forward --------------------------------------------------------------


def test_fastforward_catches_bad_extrapolation(monkeypatch):
    from repro.compute import get_backend

    backend_cls = type(get_backend())
    real = backend_cls.fused_hit_run

    def skewed(self, *args):
        # Seeded bug: the JAFAR fused row run returns an ALU-ready time a
        # microsecond late, so the lane-served bursts no longer equal the
        # per-burst Rank.access replay.
        out = real(self, *args)
        return out[:2] + (out[2] + 1_000_000,) + out[3:]

    monkeypatch.setattr(backend_cls, "fused_hit_run", skewed)
    # Under ``pytest --simsan`` the sanitizers are already installed (and
    # fast-forward already forced off), so the install-time cross-check
    # would never re-run; cycle the global install around the check.
    was_active = simsan.active()
    if was_active:
        simsan.uninstall()
    try:
        with pytest.raises(SanitizerError, match="divergence"):
            with simsan.sanitized():
                pass  # the install-time cross-check must already abort
    finally:
        monkeypatch.undo()  # heal fused_hit_run before any reinstall
        if was_active:
            simsan.install()


def test_fastforward_cross_check_refuses_to_pass_vacuously(monkeypatch):
    from repro.cpu.core import Core
    from repro.dram.controller import MemoryController

    # Seeded bug: neither the stream lane nor the controller lanes ever
    # engage, so agreeing with the exact run proves nothing about them.
    monkeypatch.setattr(Core, "_stream_run_lane", lambda self, k, *a: k)
    monkeypatch.setattr(MemoryController, "_lane_try",
                        lambda self, *a: None)
    was_active = simsan.active()
    if was_active:
        simsan.uninstall()
    try:
        with pytest.raises(SanitizerError, match="vacuous"):
            with simsan.sanitized():
                pass
    finally:
        monkeypatch.undo()
        if was_active:
            simsan.install()


def test_fastforward_forces_exact_mode_while_installed(sanitizers):
    from repro.sim.fastforward import FF

    assert not FF.on  # forced off for the other sanitizers' benefit


def test_fastforward_healthy_cross_check_is_silent():
    from repro.sim.fastforward import FF

    was_on = FF.on
    with simsan.sanitized():
        pass
    assert FF.on == was_on  # uninstall restored the fast paths


# -- scan equivalence ----------------------------------------------------------


N_ROWS = 512


def _run_select(machine):
    values = np.arange(N_ROWS, dtype=np.int64)  # row 100 sits on the bound
    col = machine.alloc_array(values, dimm=0, pinned=True)
    out = machine.alloc_zeros(max(N_ROWS // 8, 1), dimm=0, pinned=True)
    return machine.driver.select_page(col.vaddr, N_ROWS, 100, 500, out.vaddr)


def test_scan_equivalence_catches_broken_comparator(sanitizers, monkeypatch):
    real = ComparatorPair.compare_block

    def off_by_one(self, words):
        # Seeded bug: the low-bound ALU compares strictly.
        mask = real(self, words)
        return mask & (words != self.low)

    monkeypatch.setattr(ComparatorPair, "compare_block", off_by_one)
    machine = Machine(GEM5_PLATFORM)
    with pytest.raises(SanitizerError, match="scan equivalence"):
        _run_select(machine)


def test_scan_equivalence_healthy_device_is_silent(sanitizers):
    machine = Machine(GEM5_PLATFORM)
    result = _run_select(machine)
    assert result.matches > 0
