"""``IMCCounters.fold_stream_log`` must be bit-identical to per-access record.

The CPU stream lane folds its access log into the counters once per lane
run.  These tests replay seeded random stream logs through both paths and
compare the full metrics snapshot — every counter, histogram moment,
bucket dict, busy span and idle-gap record.
"""

import random

import pytest

from repro.dram import DDR3_1600
from repro.dram.counters import IMCCounters


def _snapshot(counters):
    counters.finish()
    return counters.metrics.snapshot()


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
