"""The ``numpy`` backend: vectorised batch kernels.

Bit-identical to :mod:`repro.compute.python_backend` by contract (enforced
by ``python -m repro.analyze backends``, the golden suite, and the
cross-backend fuzzer).  Where exact vectorisation is impossible the kernel
runs the sequential reference semantics instead of approximating:

* :meth:`NumpyBackend.fused_hit_run` executes live iterations until the
  per-iteration state delta is a *uniform positive shift*; the recurrence
  is translation-invariant max/plus arithmetic (plus a ``round`` that is
  invariant only for integral ``wp_full`` and magnitudes below 2**53), so
  once one uniform shift is observed every later iteration provably
  applies the same shift and the remainder is one O(1) jump.
"""

from __future__ import annotations

import numpy as np

from .base import MAX_EXACT_FLOAT, ComputeBackend
from .python_backend import batch_issue_reference, mark_busy_reference

#: Headroom subtracted from 2**53 before trusting ``round(ds + wp_full)``
#: to be exact along an extrapolated stretch (covers the per-iteration
#: constants added on top of the guarded state components).
_FLOAT_EXACT_LIMIT = int(MAX_EXACT_FLOAT) - (1 << 20)

#: int64 headroom for the vectorised sum-of-squares folds.
_INT64_SAFE = 1 << 62

#: Shared zero-length result for batch_issue early exits.
_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Below this element count the batch kernels run the sequential reference:
#: per-call ufunc dispatch (~1-2 µs/op, ~10 ops/solve) costs more than a
#: short Python loop, and the write-drain cadence makes short runs common.
_SMALL_N = 48


class NumpyBackend(ComputeBackend):
    """Vectorised kernels over the NumPy data plane."""

    name = "numpy"

    def range_mask(self, values: np.ndarray, low: int, high: int) -> np.ndarray:
        return (values >= low) & (values <= high)

    def count_in_range(self, values: np.ndarray, low: int, high: int) -> int:
        return int(((values >= low) & (values <= high)).sum())

    def kth_smallest(self, values: np.ndarray, k: int) -> int:
        return int(np.partition(values, k - 1)[k - 1])

    def pack_mask(self, mask: np.ndarray) -> np.ndarray:
        return np.packbits(mask.astype(np.uint8), bitorder="little")

    def unpack_mask(self, buf: np.ndarray, num_rows: int) -> np.ndarray:
        need = -(-num_rows // 8)
        bits = np.unpackbits(buf[:need].astype(np.uint8), bitorder="little")
        return bits[:num_rows].astype(bool)

    def popcount(self, mask: np.ndarray) -> int:
        return int(mask.sum())

    def flatnonzero(self, mask: np.ndarray) -> np.ndarray:
        return np.flatnonzero(mask).astype(np.int64)

    def merge_masked(self, current: np.ndarray, owned: np.ndarray,
                     update: np.ndarray) -> None:
        current[owned] = update[owned]

    def per_line_stats(self, mask: np.ndarray,
                       rows_per_line: int) -> tuple[np.ndarray, np.ndarray]:
        n = mask.size
        nlines = -(-n // rows_per_line)
        padded = np.zeros(nlines * rows_per_line, dtype=bool)
        padded[:n] = mask
        matches = padded.reshape(nlines, rows_per_line).sum(axis=1)
        transitions = np.empty(n, dtype=bool)
        transitions[0] = mask[0]  # predictor starts predicting "no match"
        np.not_equal(mask[1:], mask[:-1], out=transitions[1:])
        tpad = np.zeros(nlines * rows_per_line, dtype=bool)
        tpad[:n] = transitions
        mispredicts = tpad.reshape(nlines, rows_per_line).sum(axis=1)
        return matches.astype(np.float64), mispredicts.astype(np.float64)

    def fused_hit_run(self, n: int, cursor: int, alu_ready: int, io: int,
                      b_col: int, b_dfree: int, b_pre: int, next_ref: int,
                      cl: int, burst: int, tccd: int, trtp: int,
                      wp_full: float) -> tuple[int, int, int, int, int, int, int]:
        done = 0
        # round(ds + wp_full) is translation-invariant only when wp_full is
        # integral (a fractional part makes banker's rounding depend on
        # parity) — otherwise every iteration runs live, like the reference.
        extrapolate = wp_full.is_integer()
        wp_const = int(wp_full) if extrapolate else 0
        while done < n:
            if cursor >= next_ref:
                break
            prev_cursor = cursor
            prev_alu = alu_ready
            prev_io = io
            prev_col = b_col
            prev_dfree = b_dfree
            prev_pre = b_pre
            busy = io
            if alu_ready > busy:
                busy = alu_ready
            if b_dfree > busy:
                busy = b_dfree
            cas = b_col
            if cursor > cas:
                cas = cursor
            dflo = busy - cl
            if dflo > cas:
                cas = dflo
            ds = cas + cl
            de = ds + burst
            b_dfree = de
            b_col = cas + tccd
            npre = cas + trtp
            if npre > b_pre:
                b_pre = npre
            io = de
            # Reference semantics: exact while the command cursor stays
            # inside the 2**52 ps sim horizon; extrapolated iterations are
            # additionally fenced by the _FLOAT_EXACT_LIMIT check below.
            proc = round(ds + wp_full)  # analyze: ignore[float-exactness] ds < 2**52 sim horizon
            if de > proc:
                proc = de
            alu_ready = proc
            cursor = cas
            done += 1
            if not extrapolate:
                continue
            step = cursor - prev_cursor
            if (step <= 0
                    or alu_ready - prev_alu != step
                    or io - prev_io != step
                    or b_col - prev_col != step
                    or b_dfree - prev_dfree != step
                    or b_pre - prev_pre != step):
                continue
            # Uniform positive shift observed: the recurrence is pure
            # max/plus over the six components, so F(S + d*1) = F(S) + d*1
            # and by induction every remaining iteration shifts the state
            # by exactly `step`.  Jump as far as the refresh deadline, the
            # burst budget, and float-exactness of ds + wp_full allow.
            room = (next_ref - 1 - cursor) // step
            m = n - done
            if room < m:
                m = room
            if m <= 0:
                continue
            hi = cursor
            for component in (alu_ready, io, b_col, b_dfree, b_pre):
                if component > hi:
                    hi = component
            if hi + step * m + cl + burst + trtp + wp_const > _FLOAT_EXACT_LIMIT:
                continue
            shift = step * m
            cursor += shift
            alu_ready += shift
            io += shift
            b_col += shift
            b_dfree += shift
            b_pre += shift
            done += m
        return done, cursor, alu_ready, io, b_col, b_dfree, b_pre

    def batch_row_timing(self, n: int, arrival: int, col0: int, busfree0: int,
                         latency: int, burst: int, tccd: int,
                         chained: bool = False) -> tuple[int, int, int]:
        # First burst: the seeded hit branch.
        cas = col0
        if arrival > cas:
            cas = arrival
        dflo = busfree0 - latency
        if dflo > cas:
            cas = dflo
        # From the second burst on the recurrence is affine: busfree is the
        # previous data end (cas + latency + burst) and col is cas + tccd,
        # so cas_{i+1} = cas_i + G with the arrival term dominated (the
        # common arrival is <= cas_0; a chained arrival IS the previous data
        # end, already one of the max terms).
        if chained:
            step = latency + burst
            if tccd > step:
                step = tccd
        else:
            step = burst if burst > tccd else tccd
        cas_last = cas + (n - 1) * step
        return cas, cas_last, cas_last + latency + burst

    #: Fixpoint iterations tried before batch_issue defers to the sequential
    #: reference.  Positions below ``t * depth`` are exact after iteration
    #: ``t``, and a run entered mid-steady-state settles in one or two.
    _ISSUE_MAX_ITERS = 6

    def batch_issue(self, ft, floor0, now0, cps, outs, backlog0, post_budget,
                    line_bytes, col0, busfree0, next_ref, cl, burst, tccd):
        m_cap = int(cps.shape[0])
        posts_cum = None
        if m_cap < _SMALL_N:
            # Short runs (the write-drain cadence) are cheaper sequentially;
            # the reference breaks at the budget line, so it is O(done).
            return batch_issue_reference(ft, floor0, now0, cps, outs,
                                         backlog0, post_budget, line_bytes,
                                         col0, busfree0, next_ref, cl, burst,
                                         tccd)
        if outs is not None:
            # The backlog accumulates in float64, but every quantity is an
            # integral value far below 2**53, so the running float state
            # equals exact integer arithmetic and the post schedule is a
            # cumulative-sum division.  Non-integral volumes fall back to
            # the sequential reference (its float order is authoritative).
            if not (float(backlog0).is_integer()
                    and bool(np.all(outs == np.floor(outs)))):
                return batch_issue_reference(ft, floor0, now0, cps, outs,
                                             backlog0, post_budget,
                                             line_bytes, col0, busfree0,
                                             next_ref, cl, burst, tccd)
            posts_cum = ((int(backlog0) + np.cumsum(outs.astype(np.int64)))
                         // line_bytes)
            m_cap = int(np.searchsorted(posts_cum, post_budget, side="right"))
            if m_cap == 0:
                return (0, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, 0, 0,
                        backlog0, 0)
            if m_cap < _SMALL_N:
                # The post budget capped the run short; solve sequentially.
                return batch_issue_reference(ft, floor0, now0, cps, outs,
                                             backlog0, post_budget,
                                             line_bytes, col0, busfree0,
                                             next_ref, cl, burst, tccd)
        depth = len(ft)
        cps_a = cps[:m_cap]
        T = np.cumsum(cps_a)
        g = burst if burst > tccd else tccd
        k_idx = np.arange(m_cap, dtype=np.int64)
        kg = k_idx * g
        seed0 = col0
        dflo = busfree0 - cl
        if dflo > seed0:
            seed0 = dflo
        raw = np.empty(m_cap, dtype=np.int64)
        head = depth if depth < m_cap else m_cap
        raw[:head] = ft[:head]
        # Jacobi iteration from the no-stall lower bound: every operator is
        # monotone and each position depends only on strictly earlier ones,
        # so iterates climb to the unique (sequential) solution; a verify
        # pass that reproduces its own input is that solution.
        now = now0 + T
        issue = de = None
        cummax = np.maximum.accumulate
        maximum = np.maximum
        for _ in range(self._ISSUE_MAX_ITERS):
            if m_cap > depth:
                raw[depth:] = now[:m_cap - depth]
            issue = cummax(raw)
            maximum(issue, floor0, out=issue)
            b = issue.copy()
            if seed0 > b[0]:
                b[0] = seed0
            cas = cummax(b - kg) + kg
            de = cas + (cl + burst)
            adj = de.copy()
            adj[1:] -= T[:-1]
            run = cummax(adj)
            maximum(run, now0, out=run)
            new_now = run + T
            if np.array_equal(new_now, now):
                break
            now = new_now
        else:
            return batch_issue_reference(ft, floor0, now0, cps, outs,
                                         backlog0, post_budget, line_bytes,
                                         col0, busfree0, next_ref, cl, burst,
                                         tccd)
        done = int(np.searchsorted(issue, next_ref, side="left"))
        if done == 0:
            return 0, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, 0, 0, backlog0, 0
        if done < m_cap:
            issue = issue[:done]
            de = de[:done]
            now = now[:done]
            cas = cas[:done]
        now_prev = np.empty(done, dtype=np.int64)
        now_prev[0] = now0
        now_prev[1:] = now[:-1]
        stall = int(np.maximum(de - now_prev, 0).sum())
        if posts_cum is None:
            posts = 0
            backlog = backlog0
        else:
            posts = int(posts_cum[done - 1])
            backlog = float(int(backlog0)
                            + int(outs[:done].sum()) - posts * line_bytes)
        return done, issue, de, now, stall, posts, backlog, int(cas[-1])

    def batch_mark_busy(self, s: list, starts, ends) -> None:
        n = int(starts.shape[0])
        if n < _SMALL_N:
            for start, end in zip(starts.tolist(), ends.tolist()):
                mark_busy_reference(s, start, end)
            return
        # One scalar mark resolves the tracker's None states; the remaining
        # intervals then fold against concrete ints.
        mark_busy_reference(s, int(starts[0]), int(ends[0]))
        a = starts[1:]
        # Running coverage end before interval i: the current run's end is
        # max(cur_end, ends[:i].max), and ends is non-decreasing — a gap
        # resets the run to an end that already dominates cur_end.
        pe = np.maximum(np.int64(s[1]), ends[:-1])
        breaks = a > pe
        nb = int(breaks.sum())
        last_end = int(ends[-1])
        if nb == 0:
            if last_end > s[1]:
                s[1] = last_end
            return
        bidx = np.flatnonzero(breaks)
        run_starts = a[bidx]
        closed_ends = pe[bidx]
        closed_starts = np.empty(nb, dtype=np.int64)
        closed_starts[0] = s[0]
        closed_starts[1:] = run_starts[:-1]
        s[2] += int((closed_ends - closed_starts).sum())
        s[3] += nb
        s[4] = int(closed_ends[-1])
        gaps = run_starts - closed_ends
        s[6] += nb
        s[7] += int(gaps.sum())
        gmin = int(gaps.min())
        gmax = int(gaps.max())
        # total_sq needs exact Python ints; the vectorised dot stays exact
        # while the worst-case sum of squares fits int64, which covers any
        # realistic gap run (gaps are ps deltas within one phase).
        if nb * gmax * gmax < _INT64_SAFE:
            s[8] += int(np.dot(gaps, gaps))
        else:
            s[8] += sum(g * g for g in gaps.tolist())
        # Bucket key is bit_length; for positive ints below 2**53 that is
        # exactly the frexp exponent, so the histogram folds in one
        # bincount pass instead of a Python loop over values.
        blc = np.bincount(np.frexp(gaps)[1])
        buckets = s[11]
        for b, cnt in enumerate(blc.tolist()):
            if cnt:
                buckets[b] = buckets.get(b, 0) + cnt
        if s[9] is None or gmin < s[9]:
            s[9] = gmin
        if s[10] is None or gmax > s[10]:
            s[10] = gmax
        s[0] = int(run_starts[-1])
        s[1] = last_end

    def batch_latency_hist(self, count, total, total_sq, vmin, vmax, buckets,
                           lats) -> tuple:
        n = int(lats.shape[0])
        if n < _SMALL_N:
            for lat in lats.tolist():
                count += 1
                total += lat
                total_sq += lat * lat
                if vmin is None or lat < vmin:
                    vmin = lat
                if vmax is None or lat > vmax:
                    vmax = lat
                b = 0 if lat < 1 else lat.bit_length()
                buckets[b] = buckets.get(b, 0) + 1
            return count, total, total_sq, vmin, vmax
        count += n
        total += int(lats.sum())
        lo = int(lats.min())
        hi = int(lats.max())
        if n * hi * hi < _INT64_SAFE:
            total_sq += int(np.dot(lats, lats))
        else:
            total_sq += sum(v * v for v in lats.tolist())
        blc = np.bincount(np.frexp(lats)[1])
        for b, cnt in enumerate(blc.tolist()):
            if cnt:
                buckets[b] = buckets.get(b, 0) + cnt
        if vmin is None or lo < vmin:
            vmin = lo
        if vmax is None or hi > vmax:
            vmax = hi
        return count, total, total_sq, vmin, vmax
