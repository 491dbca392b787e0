"""Integrated-memory-controller performance counters.

§3.3 profiles a Xeon's IMC counters: cycles the read queue was busy
(``RC_busy``), cycles the write queue was busy (``WC_busy``), and the number
of reads and writes.  The paper then *estimates* controller idle time as::

    MC_empty = total_cycles - RC_busy - WC_busy          (lower bound)
    mean_idle_period = MC_empty / (#reads + #writes)     (pessimistic)

:class:`IMCCounters` maintains those counters for the simulated controller —
and, because this is a simulator, also the ground-truth idle-gap histogram
the real hardware could not expose, so the bound's pessimism is measurable.
"""

from __future__ import annotations

import numpy as np

from ..compute import get_backend
from .timing import DDR3Timings


class IMCCounters:
    """Counter block for one memory controller.

    All instruments are created through the machine's
    :class:`~repro.obs.metrics.MetricsRegistry`, so one ``snapshot()`` of the
    registry covers the whole block under the ``imc.*`` namespace.  A private
    registry is constructed when none is supplied (unit tests, standalone
    controllers).
    """

    def __init__(self, timings: DDR3Timings, registry=None) -> None:
        if registry is None:
            from ..obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.timings = timings
        self.metrics = registry
        self.read_queue = registry.busy_tracker("imc.read_queue")
        self.write_queue = registry.busy_tracker("imc.write_queue")
        self.combined = registry.busy_tracker("imc.any_queue")
        self.reads = registry.counter("imc.reads")
        self.writes = registry.counter("imc.writes")
        self.read_latency = registry.histogram("imc.read_latency_ps")
        self.row_hits = registry.counter("imc.row_hits")
        self.row_misses = registry.counter("imc.row_misses")

    def record(self, is_write: bool, arrival_ps: int, finish_ps: int,
               row_hits: int, row_misses: int) -> None:
        """Account one completed request."""
        if is_write:
            self.writes.add()
            self.write_queue.mark_busy(arrival_ps, finish_ps)
        else:
            self.reads.add()
            self.read_queue.mark_busy(arrival_ps, finish_ps)
            self.read_latency.record(finish_ps - arrival_ps)
        self.combined.mark_busy(arrival_ps, finish_ps)
        self.row_hits.add(row_hits)
        self.row_misses.add(row_misses)

    def record_run(self, completed: list) -> None:
        """Account a batch of completed requests, arrival-sorted.

        Bit-identical to calling :meth:`record` once per element in order,
        by construction: scalar counters are bumped once with the run
        totals; runs of equal read latencies fold into one
        ``Histogram.record_n``; and consecutive overlapping/abutting busy
        intervals are merged before marking — ``BusyTracker.mark_busy``
        would coalesce them into the same open interval anyway, and
        per-tracker input order (non-decreasing starts) is preserved, so
        busy_ps, interval counts, idle-gap records and the open-interval
        state all come out identical.  Zero-length intervals are dropped
        here exactly as ``mark_busy`` drops them.
        """
        reads = writes = hits = misses = 0
        r_s = r_e = w_s = w_e = c_s = c_e = None
        lat_v = None
        lat_n = 0
        rq, wq, cq = self.read_queue, self.write_queue, self.combined
        for done in completed:
            req = done.request
            a = done.request.arrival_ps
            f = done.finish_ps
            hits += done.row_hits
            misses += done.row_misses
            if req.is_write:
                writes += 1
                if f > a:
                    if w_s is None:
                        w_s, w_e = a, f
                    elif a <= w_e:
                        if f > w_e:
                            w_e = f
                    else:
                        wq.mark_busy(w_s, w_e)
                        w_s, w_e = a, f
            else:
                reads += 1
                lat = f - a
                if lat == lat_v:
                    lat_n += 1
                else:
                    if lat_n:
                        self.read_latency.record_n(lat_v, lat_n)
                    lat_v = lat
                    lat_n = 1
                if f > a:
                    if r_s is None:
                        r_s, r_e = a, f
                    elif a <= r_e:
                        if f > r_e:
                            r_e = f
                    else:
                        rq.mark_busy(r_s, r_e)
                        r_s, r_e = a, f
            if f > a:
                if c_s is None:
                    c_s, c_e = a, f
                elif a <= c_e:
                    if f > c_e:
                        c_e = f
                else:
                    cq.mark_busy(c_s, c_e)
                    c_s, c_e = a, f
        if lat_n:
            self.read_latency.record_n(lat_v, lat_n)
        if r_s is not None:
            rq.mark_busy(r_s, r_e)
        if w_s is not None:
            wq.mark_busy(w_s, w_e)
        if c_s is not None:
            cq.mark_busy(c_s, c_e)
        if reads:
            self.reads.add(reads)
        if writes:
            self.writes.add(writes)
        if hits:
            self.row_hits.add(hits)
        if misses:
            self.row_misses.add(misses)

    def fold_stream_log(self, starts, ends, write_at: list) -> None:
        """Account the busy intervals and read latencies of a stream log.

        ``starts``/``ends`` hold one ``[start, end)`` busy interval per
        access, in the order the CPU stream lane issued them; ``write_at``
        lists the indices of the write entries, every other entry is a
        read.  The whole log is marked on the any-queue tracker, the write
        entries on the write queue and the read entries on the read queue,
        and each read's ``end - start`` is recorded as its latency.  The
        scalar counters (reads, writes, row hits/misses) stay with the
        caller.

        Bit-identical to marking each access in turn, as :meth:`record`
        does: every entry of the log is served on one channel, so its ends
        strictly increase (bus serialisation) and its starts ratchet
        through the issue floor.  Each tracker's input is an
        order-preserving subsequence of the log, which is exactly what the
        backend's ``batch_mark_busy`` fold requires; the latency fold is
        order-free.
        """
        if not len(starts):
            return
        kernels = get_backend()
        s = np.asarray(starts, dtype=np.int64)
        e = np.asarray(ends, dtype=np.int64)
        _fold_busy(kernels, self.combined, s, e)
        if write_at:
            _fold_busy(kernels, self.write_queue, s[write_at], e[write_at])
            reads = np.ones(len(starts), dtype=bool)
            reads[write_at] = False
            s = s[reads]
            e = e[reads]
            if not len(s):
                return
        _fold_busy(kernels, self.read_queue, s, e)
        h = self.read_latency
        h.count, h.total, h.total_sq, h.min, h.max = kernels.batch_latency_hist(
            h.count, h.total, h.total_sq, h.min, h.max, h.buckets, e - s)

    def finish(self) -> None:
        """Close open busy intervals at the end of a run."""
        self.read_queue.finish()
        self.write_queue.finish()
        self.combined.finish()

    # -- the paper's derived quantities (§3.3) -----------------------------------

    def rc_busy_cycles(self) -> float:
        """Cycles the read queue was busy, in memory-bus clocks."""
        return self.timings.ps_to_cycles(self.read_queue.busy_ps)

    def wc_busy_cycles(self) -> float:
        """Cycles the write queue was busy, in memory-bus clocks."""
        return self.timings.ps_to_cycles(self.write_queue.busy_ps)

    def total_accesses(self) -> int:
        return self.reads.value + self.writes.value

    def mc_empty_cycles(self, total_cycles: float) -> float:
        """The paper's lower bound on idle cycles (assumes zero R/W overlap)."""
        return max(0.0, total_cycles - self.rc_busy_cycles() - self.wc_busy_cycles())

    def mean_idle_period_cycles(self, total_cycles: float) -> float:
        """The paper's pessimistic mean idle-period estimate, in bus cycles."""
        accesses = self.total_accesses()
        if accesses == 0:
            return total_cycles
        return self.mc_empty_cycles(total_cycles) / accesses

    def true_mean_idle_gap_cycles(self) -> float:
        """Ground truth: mean gap between busy spans of the combined queue."""
        gaps = self.combined.idle_gaps_ps()
        return self.timings.ps_to_cycles(round(gaps.mean)) if gaps.count else 0.0


def _fold_busy(kernels, tracker, starts, ends) -> None:
    """Fold ordered intervals into ``tracker`` via ``batch_mark_busy``.

    The kernel works on the tracker's state flattened into the 12-slot
    list [cur_start, cur_end, busy_ps, intervals, last_end, first_start,
    gap-count, gap-total, gap-total_sq, gap-min, gap-max, gap-buckets];
    the bucket dict is shared, so it is updated in place.
    """
    g = tracker._gaps
    s = [tracker._cur_start, tracker._cur_end, tracker.busy_ps,
         tracker.intervals, tracker._last_end, tracker._first_start,
         g.count, g.total, g.total_sq, g.min, g.max, g.buckets]
    kernels.batch_mark_busy(s, starts, ends)
    (tracker._cur_start, tracker._cur_end, tracker.busy_ps,
     tracker.intervals, tracker._last_end, tracker._first_start,
     g.count, g.total, g.total_sq, g.min, g.max, _) = s
