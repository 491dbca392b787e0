"""Differential tests for the stream-lane kernels (DESIGN.md §12).

``batch_row_timing``, ``batch_mark_busy`` and ``batch_latency_hist`` are
exercised on seeded random inputs under every
backend and must agree with the python reference exactly.  Parametrisation
runs over every registered backend name except the reference itself.
"""

import numpy as np
import pytest

from repro.compute import BACKEND_NAMES, _build
from repro.compute.python_backend import PythonBackend

SEED = 20150601  # DaMoN'15

PY = PythonBackend()


@pytest.fixture(params=[n for n in BACKEND_NAMES if n != "python"])
def other(request):
    """Each non-reference backend."""
    return _build(request.param)


def _random_row_timing_case(rng):
    base = int(rng.integers(0, 10**9))
    return dict(
        n=int(rng.integers(1, 200)),
        arrival=base + int(rng.integers(0, 50_000)),
        col0=base + int(rng.integers(0, 50_000)),
        busfree0=base + int(rng.integers(0, 50_000)),
        latency=int(rng.integers(1, 20)) * 1000,
        burst=int(rng.integers(1, 10)) * 500,
        tccd=int(rng.integers(1, 8)) * 500,
    )


class TestBatchRowTiming:
    def test_matches_reference_on_random_state(self, other):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            case = _random_row_timing_case(rng)
            assert (PY.batch_row_timing(**case)
                    == other.batch_row_timing(**case)), case

    def test_single_burst_degenerate(self, other):
        case = dict(n=1, arrival=1000, col0=0, busfree0=0, latency=13750,
                    burst=5000, tccd=2500)
        assert (PY.batch_row_timing(**case)
                == other.batch_row_timing(**case))

    def test_matches_sequential_bank_recurrence(self):
        # The reference itself must equal the literal Bank.access row-hit
        # recurrence it documents.
        rng = np.random.default_rng(SEED)
        for _ in range(2):
            case = _random_row_timing_case(rng)
            col, busfree = case["col0"], case["busfree0"]
            cas_first = cas = de = None
            for i in range(case["n"]):
                cas = max(col, case["arrival"], busfree - case["latency"])
                de = cas + case["latency"] + case["burst"]
                busfree, col = de, cas + case["tccd"]
                if i == 0:
                    cas_first = cas
            assert PY.batch_row_timing(**case) == (cas_first, cas, de)


def _fresh_tracker_state():
    # The 12-slot pulled BusyTracker state batch_mark_busy mutates:
    # [cur_start, cur_end, busy_ps, intervals, last_end, first_start,
    #  gap-count, gap-total, gap-total_sq, gap-min, gap-max, gap-buckets].
    return [None, None, 0, 0, None, None, 0, 0, 0, None, None, {}]


class TestBatchFoldKernels:
    def test_batch_mark_busy_matches_reference(self, other):
        rng = np.random.default_rng(SEED)
        for _ in range(30):
            n = int(rng.integers(1, 80))
            starts = np.cumsum(rng.integers(0, 20_000, n)).astype(np.int64)
            ends = starts + rng.integers(1, 30_000, n).astype(np.int64)
            # ends must be non-decreasing too (bus-serialised callers).
            ends = np.maximum.accumulate(ends)
            s_ref = _fresh_tracker_state()
            s_got = _fresh_tracker_state()
            PY.batch_mark_busy(s_ref, starts, ends)
            other.batch_mark_busy(s_got, starts, ends)
            assert s_ref == s_got

    def test_batch_latency_hist_matches_reference(self, other):
        rng = np.random.default_rng(SEED)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            lats = rng.integers(0, 1 << 20, n).astype(np.int64)
            b_ref: dict = {}
            b_got: dict = {}
            ref = PY.batch_latency_hist(0, 0, 0, None, None, b_ref, lats)
            got = other.batch_latency_hist(0, 0, 0, None, None, b_got, lats)
            assert ref == got
            assert b_ref == b_got


def _lane_log(rng, n):
    """A stream-ordered access log shaped like the CPU stream lane's.

    Returns ``(starts, ends, write_at)``.  Ends strictly increase (one
    channel's bus serialises every access) and starts ratchet through an
    issue floor.  A write drain's entry is followed by a read issued at
    the same start (the drain raises the floor to its arrival); other
    reads start exactly at the previous end (abutting), inside the
    running interval, or after an idle gap.
    """
    starts, ends, write_at = [], [], []
    floor = end = 1_000_000
    for _ in range(n):
        r = rng.random()
        if starts and starts[-1] == floor and r < 0.2:
            start = floor                            # equal starts
        elif r < 0.4:
            start = end                              # abutting
        elif r < 0.6:
            start = end + int(rng.integers(1, 40_000))  # idle gap
        else:
            start = floor + int(rng.integers(0, 3_000))
        start = max(start, floor)
        end = max(end, start) + int(rng.integers(1, 4)) * 1875
        if rng.random() < 0.15:
            write_at.append(len(starts))
        starts.append(start)
        ends.append(end)
        floor = start
    return starts, ends, write_at


class TestLaneLogFolds:
    """The folds ``IMCCounters.fold_stream_log`` runs on a lane's log.

    The whole log goes to the any-queue tracker, its write and read
    entries (order-preserving subsequences) to the write and read queues,
    and the reads' ``end - start`` to the latency histogram — each under
    a fresh tracker and under one whose interval is still open.  Logs of
    48 entries and more take the numpy backend's vectorised path.
    """

    @pytest.mark.parametrize("fresh", [True, False])
    def test_batch_mark_busy_on_interleaved_log(self, other, fresh):
        rng = np.random.default_rng(SEED + fresh)
        for _ in range(30):
            n = int(rng.integers(1, 400))
            starts, ends, write_at = _lane_log(rng, n + 8)
            init = _fresh_tracker_state()
            if not fresh:
                # Leave an open interval (and some gap history) behind.
                PY.batch_mark_busy(init, np.array(starts[:8]),
                                   np.array(ends[:8]))
            log_s, log_e = np.array(starts[8:]), np.array(ends[8:])
            writes = [i - 8 for i in write_at if i >= 8]
            reads = np.ones(n, dtype=bool)
            reads[writes] = False
            for pick in (slice(None), writes, reads):
                s_part, e_part = log_s[pick], log_e[pick]
                if not len(s_part):
                    continue
                ref = init[:11] + [dict(init[11])]
                got = init[:11] + [dict(init[11])]
                PY.batch_mark_busy(ref, s_part, e_part)
                other.batch_mark_busy(got, s_part, e_part)
                assert ref == got

    def test_batch_latency_hist_on_read_entries(self, other):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(30):
            starts, ends, write_at = _lane_log(rng, int(rng.integers(1, 400)))
            reads = np.ones(len(starts), dtype=bool)
            reads[write_at] = False
            lats = (np.array(ends) - np.array(starts))[reads]
            if not len(lats):
                continue
            b_ref = {9: 2}
            b_got = {9: 2}
            ref = PY.batch_latency_hist(2, 1000, 500_000, 400, 600, b_ref,
                                        lats)
            got = other.batch_latency_hist(2, 1000, 500_000, 400, 600, b_got,
                                           lats)
            assert ref == got
            assert b_ref == b_got

    def test_log_shape_covers_the_edge_cases(self):
        # The generator must actually produce the shapes the folds are
        # claimed exact on, or the tests above prove less than they say.
        starts, ends, write_at = _lane_log(np.random.default_rng(SEED), 400)
        pairs = list(zip(starts, ends))
        assert any(s == pe for (s, _), (_, pe) in zip(pairs[1:], pairs))
        assert any(a == b for a, b in zip(starts[1:], starts))
        assert any(s > pe for (s, _), (_, pe) in zip(pairs[1:], pairs))
        assert all(b > a for a, b in zip(ends, ends[1:]))
        assert all(b >= a for a, b in zip(starts, starts[1:]))
        assert write_at


class TestFusedHitRunAllBackends:
    def test_matches_reference_on_random_state(self, other):
        rng = np.random.default_rng(SEED)
        for _ in range(40):
            cl = int(rng.integers(1, 20)) * 1000
            burst = int(rng.integers(1, 10)) * 500
            tccd = int(rng.integers(1, 8)) * 500
            trtp = int(rng.integers(1, 12)) * 500
            base = int(rng.integers(0, 10**9))
            state = [base + int(rng.integers(0, 50_000)) for _ in range(6)]
            n = int(rng.integers(1, 300))
            next_ref = (base + int(rng.integers(0, 10**7))
                        if rng.random() < 0.5 else 1 << 62)
            wp_full = float(rng.integers(0, 5000)) + float(rng.random())
            args = (n, *state, next_ref, cl, burst, tccd, trtp, wp_full)
            assert PY.fused_hit_run(*args) == other.fused_hit_run(*args), args
