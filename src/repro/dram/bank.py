"""Bank state machine with a timestamped-resource timing model.

Each bank tracks its open row and the earliest picosecond at which the next
ACT / column command / PRE may legally issue, enforcing the four §2.1 timing
parameters (CL, tRCD, tRP, tRAS) plus the secondary constraints (tCCD, tWR,
tRTP).  Commands are issued by calling :meth:`Bank.access`, which returns the
burst's data-bus window; callers (the memory controller or the JAFAR device)
serialise data-bus usage themselves via the owning rank's bus tracker.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DRAMTimingError
from .timing import DDR3Timings


@dataclass(slots=True)
class BurstTiming:
    """Timing outcome of one column burst on a bank.

    ``cas_ps`` is when the column command issued, ``data_start_ps`` when the
    first beat hits the bus, ``data_end_ps`` when the last beat completes.
    ``row_hit`` reports whether the burst hit the open row buffer.
    ``pre_ps``/``act_ps`` are the issue times of the PRE and ACT commands the
    burst required (None when the row buffer already held the row) — command
    tracing and the protocol replay validator consume them.

    ``[data_start_ps, data_end_ps)`` is the burst's exclusive data-bus
    window — the unit the timeline sampler (:mod:`repro.obs.timeline`)
    attributes to the issuing :class:`~repro.dram.commands.Agent`, so
    per-origin bus occupancy is exact by construction.
    """

    cas_ps: int
    data_start_ps: int
    data_end_ps: int
    row_hit: bool
    activated_row: bool
    pre_ps: int | None = None
    act_ps: int | None = None

    @property
    def bus_busy_ps(self) -> int:
        """Picoseconds of data-bus occupancy this burst contributed."""
        return self.data_end_ps - self.data_start_ps


class Bank:
    """One DRAM bank: open-row tracking plus next-legal-command timestamps."""

    __slots__ = ("timings", "index", "open_row", "next_act_ps", "next_col_ps",
                 "next_pre_ps", "_data_free_ps", "_last_act_ps", "_t",
                 "activations", "row_hits", "row_misses")

    def __init__(self, timings: DDR3Timings, index: int = 0) -> None:
        self.timings = timings
        self.index = index
        self.open_row: int | None = None
        # Earliest legal issue times for each command class, picoseconds.
        self.next_act_ps = 0
        self.next_col_ps = 0
        self.next_pre_ps = 0
        # The bank's data pins: enforces read/write turnaround (CL != CWL
        # means equal CAS spacing does not imply disjoint data windows).
        self._data_free_ps = 0
        self._last_act_ps = -(10**15)
        # Precomputed per-grade picosecond table for the hot path.
        self._t = timings.ps
        # Statistics.
        self.activations = 0
        self.row_hits = 0
        self.row_misses = 0

    # -- raw commands ----------------------------------------------------------

    def precharge(self, at_ps: int) -> int:
        """Close the open row.  Returns the PRE issue time."""
        t = self._t
        issue = max(at_ps, self.next_pre_ps, self._last_act_ps + t.tras_ps)
        self.open_row = None
        self.next_act_ps = max(self.next_act_ps, issue + t.trp_ps)
        return issue

    def activate(self, row: int, at_ps: int) -> int:
        """Open ``row``.  Returns the ACT issue time."""
        if self.open_row is not None:
            raise DRAMTimingError(
                f"bank {self.index}: ACT while row {self.open_row} is open"
            )
        t = self._t
        issue = max(at_ps, self.next_act_ps)
        self.open_row = row
        self._last_act_ps = issue
        self.activations += 1
        self.next_col_ps = max(self.next_col_ps, issue + t.trcd_ps)
        self.next_pre_ps = max(self.next_pre_ps, issue + t.tras_ps)
        return issue

    # -- transaction-level access -----------------------------------------------

    def access(self, row: int, at_ps: int, is_write: bool,
               bus_free_ps: int = 0) -> BurstTiming:
        """Perform one burst to ``row``, opening/closing rows as needed.

        ``bus_free_ps`` is the earliest time the shared data bus is free; the
        column command is delayed so its data window starts no earlier.
        Returns the burst timing; the caller must then advance its bus
        tracker to ``data_end_ps``.
        """
        t = self._t
        activated = False
        pre_at: int | None = None
        act_at: int | None = None
        open_row = self.open_row
        if open_row is not None and open_row != row:
            pre_at = self.precharge(at_ps)
            if pre_at > at_ps:
                at_ps = pre_at
            self.row_misses += 1
            open_row = None
        elif open_row == row:
            self.row_hits += 1
        if open_row is None:
            act_at = self.activate(row, at_ps)
            if act_at > at_ps:
                at_ps = act_at
            activated = True
            if self.open_row != row:  # pragma: no cover - defensive
                raise DRAMTimingError("activation did not open the requested row")

        latency_ps = t.cwl_ps if is_write else t.cl_ps
        # The column command must wait for tRCD/tCCD and for both the
        # external bus and the bank's own data pins to be free.
        data_floor = max(bus_free_ps, self._data_free_ps)
        cas = max(at_ps, self.next_col_ps, data_floor - latency_ps)
        data_start = cas + latency_ps
        data_end = data_start + t.burst_ps
        self._data_free_ps = data_end
        self.next_col_ps = cas + t.tccd_ps
        if is_write:
            # Write recovery delays the next precharge.
            next_pre = data_end + t.twr_ps
        else:
            next_pre = cas + t.trtp_ps
        if next_pre > self.next_pre_ps:
            self.next_pre_ps = next_pre
        return BurstTiming(cas, data_start, data_end, row_hit=not activated,
                           activated_row=activated, pre_ps=pre_at, act_ps=act_at)

    def block_until(self, time_ps: int) -> None:
        """Forbid any command before ``time_ps`` (refresh / ownership holds)."""
        self.next_act_ps = max(self.next_act_ps, time_ps)
        self.next_col_ps = max(self.next_col_ps, time_ps)
        self.next_pre_ps = max(self.next_pre_ps, time_ps)

    def idle_from(self) -> int:
        """Earliest time the bank could accept a fresh ACT."""
        return self.next_act_ps
