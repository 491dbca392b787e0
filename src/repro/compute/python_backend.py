"""The ``python`` backend: per-element reference kernels.

Every kernel is a plain Python loop over Python scalars — the executable
specification of the batch semantics.  Arrays still go in and out as NumPy
(the data plane is unchanged); only the *kernel* runs element by element.
Deliberately unclever: when the numpy backend and this one disagree, this
one is right.
"""

from __future__ import annotations

import numpy as np

from .base import ComputeBackend


def mark_busy_reference(s: list, start: int, end: int) -> None:
    """BusyTracker.mark_busy on a pulled 12-slot state list (the shared
    scalar reference; batch kernels must fold intervals exactly like a
    sequence of these calls)."""
    cur_end = s[1]
    if s[0] is None:
        s[0] = start
        s[1] = end
        if s[5] is None:
            s[5] = start
        return
    if start <= cur_end:
        if end > cur_end:
            s[1] = end
        return
    s[2] += cur_end - s[0]
    s[3] += 1
    s[4] = cur_end
    gap = start - (cur_end or 0)
    s[6] += 1
    s[7] += gap
    s[8] += gap * gap
    if s[9] is None or gap < s[9]:
        s[9] = gap
    if s[10] is None or gap > s[10]:
        s[10] = gap
    b = 0 if gap < 1 else gap.bit_length()
    buckets = s[11]
    buckets[b] = buckets.get(b, 0) + 1
    s[0] = start
    s[1] = end


class PythonBackend(ComputeBackend):
    """Pure-Python per-element loops; the bit-identity reference."""

    name = "python"

    def range_mask(self, values: np.ndarray, low: int, high: int) -> np.ndarray:
        return np.fromiter((low <= v <= high for v in values.tolist()),
                           dtype=bool, count=values.size)

    def count_in_range(self, values: np.ndarray, low: int, high: int) -> int:
        count = 0
        for v in values.tolist():
            if low <= v <= high:
                count += 1
        return count

    def kth_smallest(self, values: np.ndarray, k: int) -> int:
        return int(sorted(values.tolist())[k - 1])

    def pack_mask(self, mask: np.ndarray) -> np.ndarray:
        bits = mask.tolist()
        out = bytearray((len(bits) + 7) // 8)
        for i, bit in enumerate(bits):
            if bit:
                out[i >> 3] |= 1 << (i & 7)
        # frombuffer over the bytearray keeps the array writable, matching
        # np.packbits output.
        return np.frombuffer(out, dtype=np.uint8)

    def unpack_mask(self, buf: np.ndarray, num_rows: int) -> np.ndarray:
        data = buf.tolist()
        return np.fromiter(((data[i >> 3] >> (i & 7)) & 1
                            for i in range(num_rows)),
                           dtype=bool, count=num_rows)

    def popcount(self, mask: np.ndarray) -> int:
        count = 0
        for bit in mask.tolist():
            if bit:
                count += 1
        return count

    def flatnonzero(self, mask: np.ndarray) -> np.ndarray:
        return np.array([i for i, bit in enumerate(mask.tolist()) if bit],
                        dtype=np.int64)

    def merge_masked(self, current: np.ndarray, owned: np.ndarray,
                     update: np.ndarray) -> None:
        for i, take in enumerate(owned.tolist()):
            if take:
                current[i] = update[i]

    def per_line_stats(self, mask: np.ndarray,
                       rows_per_line: int) -> tuple[np.ndarray, np.ndarray]:
        bits = mask.tolist()
        nlines = -(-len(bits) // rows_per_line)
        matches = [0] * nlines
        mispredicts = [0] * nlines
        prev = False  # predictor starts predicting "no match"
        for i, bit in enumerate(bits):
            line = i // rows_per_line
            if bit:
                matches[line] += 1
            if bit != prev:
                mispredicts[line] += 1
            prev = bit
        return (np.array(matches, dtype=np.float64),
                np.array(mispredicts, dtype=np.float64))

    def fused_hit_run(self, n: int, cursor: int, alu_ready: int, io: int,
                      b_col: int, b_dfree: int, b_pre: int, next_ref: int,
                      cl: int, burst: int, tccd: int, trtp: int,
                      wp_full: float) -> tuple[int, int, int, int, int, int, int]:
        done = 0
        while done < n:
            if cursor >= next_ref:
                break
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
            # inside the 2**52 ps sim horizon (MAX_EXACT_FLOAT is 2**53).
            proc = round(ds + wp_full)  # analyze: ignore[float-exactness] ds < 2**52 sim horizon
            if de > proc:
                proc = de
            alu_ready = proc
            cursor = cas
            done += 1
        return done, cursor, alu_ready, io, b_col, b_dfree, b_pre

    def batch_row_timing(self, n: int, arrival: int, col0: int, busfree0: int,
                         latency: int, burst: int,
                         tccd: int) -> tuple[int, int, int]:
        cas_first = cas = de = 0
        col = col0
        busfree = busfree0
        for i in range(n):
            cas = col
            if arrival > cas:
                cas = arrival
            dflo = busfree - latency
            if dflo > cas:
                cas = dflo
            de = cas + latency + burst
            busfree = de
            col = cas + tccd
            if i == 0:
                cas_first = cas
        return cas_first, cas, de

    def batch_mark_busy(self, s: list, starts, ends) -> None:
        for start, end in zip(starts.tolist(), ends.tolist()):
            mark_busy_reference(s, start, end)

    def batch_latency_hist(self, count, total, total_sq, vmin, vmax, buckets,
                           lats) -> tuple:
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
