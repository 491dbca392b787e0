"""The batch-compute backend interface (DESIGN.md §10).

Every hot-path batch kernel in the simulator — predicate evaluation over
column segments, bitmask pack/unpack/popcount, the fused interior-burst
hit algebra, the write-drain closed form and the stream-lane log folds —
is reached through one of the methods below.  Two implementations exist:

* ``python`` (:mod:`repro.compute.python_backend`) — per-element pure
  Python loops; the executable specification every other backend is
  measured against.
* ``numpy`` (:mod:`repro.compute.numpy_backend`) — vectorised batch
  kernels, bit-identical to the reference by contract.

**Bit-identity contract.**  A backend may change how a value is computed,
never what it is: every simulated-clock artifact (goldens, fig3 reports,
command traces, MetricsRegistry snapshots) must be byte-identical across
backends.  ``python -m repro.analyze backends`` and the cross-backend fuzz
suite enforce this.  A kernel may therefore vectorise only operations whose
batched semantics are exactly the sequential semantics: integer compare /
count / gather always qualify; float arithmetic qualifies only when every
intermediate is an exactly-representable integer below
:data:`MAX_EXACT_FLOAT` (otherwise the kernel must fall back to the
sequential order, as ``fused_hit_run`` does).
"""

from __future__ import annotations

import numpy as np

#: Largest magnitude at which consecutive float additions of integral
#: increments are guaranteed exact (and hence equal to extrapolation).
MAX_EXACT_FLOAT = float(2**53)


class ComputeBackend:
    """Abstract batch-kernel surface.  All array arguments are NumPy arrays
    (NumPy is the data plane regardless of backend; the backend decides how
    the *kernel* runs, not how data is stored)."""

    name = "abstract"

    # -- predicate evaluation ------------------------------------------------------

    def range_mask(self, values: np.ndarray, low: int, high: int) -> np.ndarray:
        """Boolean mask of ``low <= values[i] <= high`` (inclusive range).

        Dtype validation is the caller's job; ``values`` is integer-typed.
        """
        raise NotImplementedError

    def count_in_range(self, values: np.ndarray, low: int, high: int) -> int:
        """Number of elements inside the inclusive range."""
        raise NotImplementedError

    def kth_smallest(self, values: np.ndarray, k: int) -> int:
        """The k-th smallest element (1-based), as a Python int."""
        raise NotImplementedError

    # -- bitmask materialisation ---------------------------------------------------

    def pack_mask(self, mask: np.ndarray) -> np.ndarray:
        """Pack a boolean row mask into little-endian-bit uint8 bytes."""
        raise NotImplementedError

    def unpack_mask(self, buf: np.ndarray, num_rows: int) -> np.ndarray:
        """Inverse of :meth:`pack_mask`.  ``buf`` is pre-validated to hold
        at least ``ceil(num_rows / 8)`` bytes."""
        raise NotImplementedError

    def popcount(self, mask: np.ndarray) -> int:
        """Number of set bits in a boolean mask, as a Python int."""
        raise NotImplementedError

    def flatnonzero(self, mask: np.ndarray) -> np.ndarray:
        """Ascending int64 indices of the set bits of a boolean mask."""
        raise NotImplementedError

    def merge_masked(self, current: np.ndarray, owned: np.ndarray,
                     update: np.ndarray) -> None:
        """In place: ``current[i] = update[i]`` wherever ``owned[i]``."""
        raise NotImplementedError

    # -- CPU scan cost shaping -----------------------------------------------------

    def per_line_stats(self, mask: np.ndarray,
                       rows_per_line: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-cache-line ``(matches, mispredicts)`` float64 arrays.

        Mispredicts model a 1-bit predictor: the first row counts iff it
        matches (the predictor starts predicting "no match"); every later
        row counts iff its outcome differs from the previous row's.
        """
        raise NotImplementedError

    # -- fused-lane hit algebra ----------------------------------------------------

    def fused_hit_run(self, n: int, cursor: int, alu_ready: int, io: int,
                      b_col: int, b_dfree: int, b_pre: int, next_ref: int,
                      cl: int, burst: int, tccd: int, trtp: int,
                      wp_full: float) -> tuple[int, int, int, int, int, int, int]:
        """Service up to ``n`` consecutive row-hit bursts.

        Pure max/plus recurrence over integer picosecond state (the
        :meth:`Rank.access` row-hit branch plus ALU bookkeeping, localized).
        Stops early when ``cursor`` reaches ``next_ref``.  Returns
        ``(done, cursor, alu_ready, io, b_col, b_dfree, b_pre)`` exactly as
        the sequential reference computes them.
        """
        raise NotImplementedError

    # -- stream-lane kernels (DESIGN.md §12) ---------------------------------------
    #
    # The CPU stream lane serves a write drain's same-row bursts through
    # ``batch_row_timing`` and folds its access log into the IMC counters
    # through ``batch_mark_busy`` / ``batch_latency_hist``.

    def batch_row_timing(self, n: int, arrival: int, col0: int, busfree0: int,
                         latency: int, burst: int,
                         tccd: int) -> tuple[int, int, int]:
        """Timing of ``n >= 1`` consecutive same-row hit bursts on one bank.

        Every burst arrives at ``arrival`` (a write drain handing the whole
        pending queue over at once) and runs the ``Bank.access`` row-hit
        branch: ``cas_i = max(col_i, arrival, busfree_i - latency)``,
        ``de_i = cas_i + latency + burst``, ``col_{i+1} = cas_i + tccd``,
        ``busfree_{i+1} = de_i``.  Returns ``(cas_first, cas_last,
        de_last)``; intermediate values are affine in ``i``, so callers fold
        counters from the endpoints alone.
        """
        raise NotImplementedError

    def batch_mark_busy(self, s: list, starts: np.ndarray,
                        ends: np.ndarray) -> None:
        """Fold ordered busy intervals into a pulled BusyTracker state.

        ``s`` is the 12-slot list produced by the hot-loop ``pull``
        ([cur_start, cur_end, busy_ps, intervals, last_end, first_start,
        gap-count, gap-total, gap-total_sq, gap-min, gap-max, gap-buckets]);
        the kernel mutates it in place, exactly as marking each
        ``(starts[i], ends[i])`` in sequence would.  Preconditions the
        callers guarantee: both arrays non-empty, ``ends`` non-decreasing,
        and ``ends[i] > starts[i]``.  Starts need no ordering of their own
        (intervals may abut or share a start); the CPU stream lane's
        access log and each order-preserving subsequence of it qualify.
        """
        raise NotImplementedError

    def batch_latency_hist(self, count: int, total: int, total_sq: int,
                           vmin: int | None, vmax: int | None, buckets: dict,
                           lats: np.ndarray) -> tuple:
        """Fold a latency array into pulled Histogram scalars.

        Mutates ``buckets`` (the ``bit_length``-keyed dict) in place and
        returns the updated ``(count, total, total_sq, vmin, vmax)``.
        Totals are exact Python ints (``total_sq`` can exceed int64).
        """
        raise NotImplementedError
