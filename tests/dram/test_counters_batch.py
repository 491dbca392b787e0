"""``IMCCounters.record_run`` must be bit-identical to per-request record.

The batched controller pipeline folds a window's counter updates into one
call (merged busy intervals, run-length-folded latencies, single counter
bumps).  These tests replay seeded random completion streams through both
paths and compare the full metrics snapshot — every counter, histogram
moment, bucket dict, busy span and idle-gap record.
"""

import random
from types import SimpleNamespace

import pytest

from repro.dram import DDR3_1600
from repro.dram.counters import IMCCounters
from repro.sim.stats import Histogram


def _fake_completed(rng, n, gap_chance):
    """Arrival-sorted fake completions with controllable idle gaps."""
    out = []
    t = 1000
    for _ in range(n):
        if rng.random() < gap_chance:
            t += rng.randrange(50_000, 200_000)   # force an idle gap
        else:
            t += rng.randrange(0, 2_000)          # stay inside the span
        arrival = t
        finish = arrival + rng.choice((13750, 13750, 13750, 21250, 0))
        out.append(SimpleNamespace(
            request=SimpleNamespace(is_write=rng.random() < 0.4,
                                    arrival_ps=arrival),
            finish_ps=finish,
            row_hits=rng.randrange(0, 3),
            row_misses=rng.randrange(0, 2),
        ))
    return out


def _snapshot(counters):
    counters.finish()
    return counters.metrics.snapshot()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("gap_chance", [0.0, 0.3])
def test_record_run_matches_per_request_record(seed, gap_chance):
    rng = random.Random(seed)
    completed = _fake_completed(rng, rng.randrange(1, 120), gap_chance)
    ref = IMCCounters(DDR3_1600)
    for done in completed:
        ref.record(done.request.is_write, done.request.arrival_ps,
                   done.finish_ps, done.row_hits, done.row_misses)
    run = IMCCounters(DDR3_1600)
    run.record_run(completed)
    assert _snapshot(ref) == _snapshot(run)


def test_record_run_empty_is_noop():
    counters = IMCCounters(DDR3_1600)
    before = _snapshot(counters)
    counters.record_run([])
    assert _snapshot(counters) == before


def test_histogram_record_n_matches_repeated_record():
    ref, fold = Histogram("ref"), Histogram("fold")
    for value, n in ((0, 3), (13750, 100), (1, 1), (1 << 40, 7)):
        for _ in range(n):
            ref.record(value)
        fold.record_n(value, n)
        fold.record_n(value, 0)   # n == 0 is a no-op
    assert (ref.count, ref.total, ref.total_sq, ref.min, ref.max,
            ref.buckets) == (fold.count, fold.total, fold.total_sq,
                             fold.min, fold.max, fold.buckets)


def _stream_log(rng, n, t0):
    """A CPU stream lane's access log: starts ratchet, ends strictly rise."""
    starts, ends, write_at = [], [], []
    floor = end = t0
    for _ in range(n):
        kind = rng.random()
        if kind < 0.3:
            start = end                                # abutting
        elif kind < 0.5:
            start = end + rng.randrange(1, 40_000)     # idle gap
        else:
            start = floor + rng.randrange(0, 3_000)    # overlapping
        start = max(start, floor)
        end = max(end, start) + rng.choice((1875, 3750, 13750))
        if rng.random() < 0.15:
            write_at.append(len(starts))
        starts.append(start)
        ends.append(end)
        floor = start
    return starts, ends, write_at


@pytest.mark.parametrize("seed", range(4))
def test_fold_stream_log_matches_per_access_record(engine, seed):
    rng = random.Random(seed)
    ref = IMCCounters(DDR3_1600)
    fold = IMCCounters(DDR3_1600)
    # Two logs back to back: the second folds onto open intervals.  Sizes
    # straddle the numpy backend's vectorisation threshold.
    t0 = 1000
    for n in (rng.randrange(1, 48), rng.randrange(48, 400)):
        starts, ends, write_at = _stream_log(rng, n, t0)
        t0 = ends[-1] - rng.randrange(0, 2000)
        writes = set(write_at)
        for i, (start, end) in enumerate(zip(starts, ends)):
            ref.record(i in writes, start, end, 0, 0)
        fold.fold_stream_log(starts, ends, write_at)
    # fold_stream_log leaves the scalar counters to its caller.
    fold.reads.add(ref.reads.value)
    fold.writes.add(ref.writes.value)
    assert _snapshot(ref) == _snapshot(fold)


def test_fold_stream_log_empty_is_noop():
    counters = IMCCounters(DDR3_1600)
    before = _snapshot(counters)
    counters.fold_stream_log([], [], [])
    assert _snapshot(counters) == before


def test_fold_stream_log_of_writes_only():
    starts, ends, _ = _stream_log(random.Random(7), 60, 1000)
    ref = IMCCounters(DDR3_1600)
    for start, end in zip(starts, ends):
        ref.record(True, start, end, 0, 0)
    fold = IMCCounters(DDR3_1600)
    fold.fold_stream_log(starts, ends, list(range(len(starts))))
    fold.writes.add(ref.writes.value)
    assert _snapshot(ref) == _snapshot(fold)
