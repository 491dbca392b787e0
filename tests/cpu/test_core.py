"""Tests for the CPU core timing model."""

import numpy as np
import pytest

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.config import GEM5_PLATFORM
from repro.cpu import Core
from repro.dram import DRAMGeometry, MemoryController, speed_grade
from repro.errors import ConfigError

GEO = DRAMGeometry(channels=1, dimms_per_channel=1, ranks_per_dimm=1,
                   banks_per_rank=8, row_bytes=8192, rows_per_bank=256)


def make_core(prefetch_depth=8):
    timings = speed_grade(GEM5_PLATFORM.dram_grade)
    mc = MemoryController(timings, GEO, refresh_enabled=False)
    hierarchy = CacheHierarchy([
        SetAssociativeCache("L1", 65536, 64, 2, 4),
        SetAssociativeCache("L2", 131072, 64, 8, 12),
    ])
    return Core(GEM5_PLATFORM, mc, hierarchy, prefetch_depth=prefetch_depth)


def test_compute_phase_advances_clock():
    core = make_core()
    stats = core.compute_phase(1000)
    assert stats.duration_ps == 1000 * core.clock.period_ps
    assert core.now_ps == stats.end_ps


def test_cycles_for_uops_uses_ipc():
    core = make_core()
    assert core.cycles_for_uops(10) == pytest.approx(10 / core.cost.ipc)


def test_stream_phase_compute_bound():
    """With heavy per-line compute, duration approaches pure compute time."""
    core = make_core()
    nlines = 64
    stats = core.stream_read_phase(0, nlines * 64, cycles_per_line=500.0)
    compute_ps = core.clock.cycles_to_ps(500.0 * nlines)
    assert stats.duration_ps == pytest.approx(compute_ps, rel=0.1)
    assert stats.lines_read == nlines


def test_stream_phase_memory_bound():
    """With trivial compute, duration approaches the DRAM streaming rate."""
    core = make_core()
    nlines = 128
    stats = core.stream_read_phase(0, nlines * 64, cycles_per_line=0.1)
    timings = core.controller.timings
    floor_ps = nlines * timings.cycles_to_ps(timings.tccd)
    assert stats.duration_ps >= floor_ps * 0.9
    assert stats.stall_ps > 0


def test_prefetch_depth_hides_latency():
    deep = make_core(prefetch_depth=16)
    shallow = make_core(prefetch_depth=1)
    deep_stats = deep.stream_read_phase(0, 256 * 64, cycles_per_line=5.0)
    shallow_stats = shallow.stream_read_phase(0, 256 * 64, cycles_per_line=5.0)
    assert deep_stats.duration_ps < shallow_stats.duration_ps


def test_stream_phase_emits_write_traffic():
    core = make_core()
    stats = core.stream_read_phase(0, 64 * 64, cycles_per_line=10.0,
                                   write_bytes_per_line=32.0)
    # 64 lines x 32 B = 2048 B = 32 lines of output.
    assert stats.lines_written == 32
    assert core.controller.counters.writes.value == 32


def test_partial_write_backlog_flushes():
    core = make_core()
    stats = core.stream_read_phase(0, 3 * 64, cycles_per_line=10.0,
                                   write_bytes_per_line=10.0)
    assert stats.lines_written == 1  # 30 B rounds up to one line


def test_per_line_cycle_array():
    core = make_core()
    cycles = np.array([100.0, 0.0, 0.0, 0.0])
    stats = core.stream_read_phase(0, 4 * 64, cycles_per_line=cycles)
    assert stats.compute_cycles == pytest.approx(100.0)


def test_random_phase_dependent_is_slower_than_independent():
    addr_space = GEO.total_bytes
    rng = np.random.default_rng(7)
    addrs = rng.integers(0, addr_space // 64, size=300) * 64
    dep = make_core()
    indep = make_core()
    t_dep = dep.random_read_phase(addrs, cycles_per_access=2.0,
                                  dependent=True).duration_ps
    t_indep = indep.random_read_phase(addrs, cycles_per_access=2.0,
                                      dependent=False).duration_ps
    assert t_dep > t_indep


def test_random_phase_cached_addresses_cause_no_dram_traffic():
    core = make_core()
    addrs = np.zeros(50, dtype=np.int64)  # same line every time
    stats = core.random_read_phase(addrs, cycles_per_access=1.0)
    assert stats.lines_read == 1  # only the cold miss


def test_random_phase_empty_is_noop():
    core = make_core()
    stats = core.random_read_phase(np.array([]), 1.0)
    assert stats.duration_ps == 0


def test_invalid_arguments():
    core = make_core()
    with pytest.raises(ConfigError):
        core.stream_read_phase(0, 0, 1.0)
    with pytest.raises(ConfigError):
        core.random_read_phase(np.array([0]), -1.0)
    with pytest.raises(ConfigError):
        core.advance_cycles(-1)
    with pytest.raises(ConfigError):
        core.advance_ps(-1)


@pytest.mark.parametrize("cycles", [-5.0, float("nan"), float("inf"),
                                    np.array([1.0, -1.0, 1.0, 1.0])])
def test_stream_phase_rejects_invalid_cycles_per_line(cycles):
    core = make_core()
    with pytest.raises(ConfigError, match="cycles_per_line"):
        core.stream_read_phase(0, 4 * 64, cycles_per_line=cycles)
    assert core.now_ps == 0


@pytest.mark.parametrize("write_bytes", [-1.0, float("nan"), float("inf")])
def test_stream_phase_rejects_invalid_write_bytes(write_bytes):
    core = make_core()
    with pytest.raises(ConfigError, match="write_bytes_per_line"):
        core.stream_read_phase(0, 4 * 64, cycles_per_line=1.0,
                               write_bytes_per_line=write_bytes)
    assert core.controller.counters.writes.value == 0


def test_stream_phase_rejects_wrong_length_per_line_arrays():
    core = make_core()
    with pytest.raises(ConfigError, match="one entry per line"):
        core.stream_read_phase(0, 4 * 64, cycles_per_line=np.ones(3))
    with pytest.raises(ConfigError, match="one entry per line"):
        core.stream_read_phase(0, 4 * 64, cycles_per_line=1.0,
                               write_bytes_per_line=np.ones(5))


@pytest.mark.parametrize("cycles", [float("nan"), float("inf")])
def test_random_phase_rejects_non_finite_cycles(cycles):
    core = make_core()
    with pytest.raises(ConfigError, match="cycles_per_access"):
        core.random_read_phase(np.array([0, 64]), cycles)
