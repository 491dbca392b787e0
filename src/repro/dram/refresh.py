"""DRAM refresh bookkeeping.

DDR3 requires one REF command per rank every tREFI on average; a REF blocks
the whole rank for tRFC and closes all rows.  :class:`RefreshState` applies
refresh lazily at transaction level: when an access is about to issue, any
refresh windows that became due are settled first, blocking the rank's banks
past them.  This keeps refresh O(1) per transaction while preserving its
bandwidth and row-buffer effects.
"""

from __future__ import annotations

from .timing import DDR3Timings


class RefreshState:
    """Lazy refresh scheduler for one rank."""

    __slots__ = ("timings", "enabled", "next_refresh_ps", "refreshes_issued",
                 "busy_ps", "_trfc_ps", "_trefi_ps")

    def __init__(self, timings: DDR3Timings, enabled: bool = True) -> None:
        self.timings = timings
        self.enabled = enabled
        self.next_refresh_ps = timings.trefi_ps
        self.refreshes_issued = 0
        self.busy_ps = 0
        self._trfc_ps = timings.trfc_ps
        self._trefi_ps = timings.trefi_ps

    def settle(self, now_ps: int) -> int:
        """Apply refreshes due strictly before ``now_ps``.

        Returns the earliest time an ordinary command may issue (``now_ps``
        itself if no refresh interferes).  The caller is responsible for
        blocking its banks until the returned time and for closing open rows
        when a refresh fired (signalled by a return value > ``now_ps``).
        """
        if not self.enabled:
            return now_ps
        earliest = now_ps
        trfc_ps = self._trfc_ps
        while self.next_refresh_ps <= earliest:
            end = self.next_refresh_ps + trfc_ps
            self.refreshes_issued += 1
            self.busy_ps += trfc_ps
            self.next_refresh_ps += self._trefi_ps
            if end > earliest:
                earliest = end
        return earliest

    def overhead_fraction(self) -> float:
        """Steady-state fraction of time consumed by refresh (tRFC/tREFI)."""
        return self.timings.trfc_ps / self.timings.trefi_ps
