"""Memory-access scheduling policies.

§3.3 points at the memory-access-scheduling literature (FR-FCFS and friends)
as the key to coordinating JAFAR with the host.  At transaction level the
policy decides the *service order* of a window of outstanding requests:

* :class:`FCFSPolicy` — strict arrival order.
* :class:`FRFCFSPolicy` — first-ready FCFS: row-buffer hits bypass older
  row-miss requests within the window (the classic open-page scheduler).

Policies are pure ordering functions over request windows, so they are
trivially testable and swappable in the controller.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Protocol, Sequence

from .commands import MemRequest
from .geometry import AddressMapping

#: Sort key shared by both policies: (arrival_ps, req_id) arrival order.
_ARRIVAL_ORDER = attrgetter("arrival_ps", "req_id")


class SchedulingPolicy(Protocol):
    """Orders a window of outstanding requests for service."""

    name: str

    def order(self, window: Sequence[MemRequest],
              mapping: AddressMapping,
              open_rows: dict[tuple[int, int, int, int], int | None]) -> list[MemRequest]:
        """Return the service order.

        ``open_rows`` maps (channel, dimm, rank, bank) to the currently open
        row (or None), letting the policy detect row hits.
        """
        ...


class FCFSPolicy:
    """First-come first-served: arrival order, no reordering."""

    name = "fcfs"

    def order(self, window: Sequence[MemRequest],
              mapping: AddressMapping,
              open_rows: dict[tuple[int, int, int, int], int | None]) -> list[MemRequest]:
        return sorted(window, key=_ARRIVAL_ORDER)


class FRFCFSPolicy:
    """First-ready FCFS: row-buffer hits first, then arrival order.

    A greedy single-pass approximation: requests whose target row is already
    open in their bank are serviced before row-miss requests, preserving
    arrival order within each class.  This captures the first-order benefit
    (fewer ACT/PRE cycles on locality-rich streams) that the cited
    scheduling work [35, 36, 45] exploits.
    """

    name = "fr-fcfs"

    def order(self, window: Sequence[MemRequest],
              mapping: AddressMapping,
              open_rows: dict[tuple[int, int, int, int], int | None]) -> list[MemRequest]:
        hits: list[MemRequest] = []
        misses: list[MemRequest] = []
        decode = mapping.decode
        get_open_row = open_rows.get
        for req in sorted(window, key=_ARRIVAL_ORDER):
            loc = decode(req.addr)
            key = (loc.channel, loc.dimm, loc.rank, loc.bank)
            if get_open_row(key) == loc.row:
                hits.append(req)
            else:
                misses.append(req)
        return hits + misses


POLICIES: dict[str, type] = {
    FCFSPolicy.name: FCFSPolicy,
    FRFCFSPolicy.name: FRFCFSPolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by name (``"fcfs"`` or ``"fr-fcfs"``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown scheduling policy {name!r}; known: {known}") from None
