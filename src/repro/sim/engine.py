"""Timestamp-ordered discrete-event simulator.

Events are kept in a binary heap under an **explicit, documented total
order**::

    (time_ps, priority, tiebreak, seq)

* ``time_ps`` — integer picoseconds (see :mod:`repro.units`).  Earlier
  events fire first; nothing below this field can reorder across time.
* ``priority`` — the *declared ordering edge* between same-timestamp
  events.  Lower fires first.  Two handlers that may legitimately collide
  on the same picosecond and whose relative order matters MUST be given
  distinct priorities; the static race pass (``race-static`` in
  :mod:`repro.analyze.races`) and the dynamic race sanitizer
  (:mod:`repro.analyze.simsan.races`) both treat equal priorities as "no
  ordering edge declared".
* ``tiebreak`` — 0 in normal runs, a seeded pseudo-random key when the
  schedule perturber (:mod:`repro.sim.perturb`) is installed.  It sits
  *below* ``priority``, so perturbation can only permute orderings nobody
  declared.
* ``seq`` — the monotone scheduling sequence number.  It makes the order
  total (FIFO among exact ties) and is the only field two distinct events
  can never share, so heap *insertion* order is irrelevant to firing
  order: the key decides everything, which is what the confluence harness
  (``python -m repro.analyze races``) enforces bit-for-bit.

The order is implemented as the dataclass field order of :class:`Event` —
tuple comparison over exactly these four fields, in this sequence.  Do not
add compared fields or reorder them without updating the race tooling and
DESIGN.md §9.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from ..errors import SimulationError
from .perturb import PERTURB


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback, ordered by ``(time_ps, priority, tiebreak, seq)``."""

    time_ps: int
    priority: int
    tiebreak: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    # Owning simulator while the event is live (scheduled, not yet fired or
    # cancelled); keeps the owner's pending-event counter exact without a
    # queue scan.  Cleared when the event fires or is cancelled.
    _owner: "Simulator | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped.

        Idempotent, and a no-op on an event that has already fired.
        """
        if self.cancelled:
            return
        self.cancelled = True
        owner, self._owner = self._owner, None
        if owner is not None:
            owner._pending -= 1


class Simulator:
    """A deterministic discrete-event simulation loop.

    Usage::

        sim = Simulator()
        sim.schedule_at(ns(10), lambda: print("fired"))
        sim.run()

    The simulator never moves time backwards: scheduling an event in the past
    raises :class:`SimulationError`.
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._seq = 0
        self._now = 0
        self._running = False
        self._pending = 0

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events.

        O(1): a live counter maintained on schedule/cancel/fire rather than a
        scan of the heap (cancelled events stay queued until popped).
        """
        return self._pending

    def schedule_at(self, time_ps: int, callback: Callable[[], None],
                    priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute time ``time_ps``.

        ``priority`` declares an ordering edge among same-timestamp events:
        lower priorities fire first.  Events sharing both timestamp and
        priority fire in scheduling (FIFO) order — an ordering the schedule
        perturber is free to permute, so handlers must not rely on it.
        """
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule event at {time_ps} ps; time is {self._now} ps"
            )
        event = Event(time_ps, priority,
                      PERTURB.tiebreak(time_ps, priority, self._seq),
                      self._seq, callback, _owner=self)
        self._seq += 1
        self._pending += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(self, delay_ps: int, callback: Callable[[], None],
                       priority: int = 0) -> Event:
        """Schedule ``callback`` after a relative delay of ``delay_ps``."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        return self.schedule_at(self._now + delay_ps, callback, priority)

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            event._owner = None
            self._pending -= 1
            self._now = event.time_ps
            event.callback()
            return True
        return False

    def run(self, until_ps: int | None = None, max_events: int = 50_000_000) -> int:
        """Run until the queue drains or time exceeds ``until_ps``.

        Returns the number of events fired.  ``max_events`` guards against
        runaway self-rescheduling loops in model code.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        fired = 0
        try:
            while self._queue:
                head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until_ps is not None and head.time_ps > until_ps:
                    # Advance to the horizon so repeated bounded runs make
                    # forward progress even with a non-empty queue.
                    self._now = max(self._now, until_ps)
                    break
                if fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
                self.step()
                fired += 1
        finally:
            self._running = False
        return fired

    def advance_to(self, time_ps: int) -> None:
        """Move the clock forward without firing events.

        Used by direct-timestamp components to synchronise the global clock
        with work they accounted for analytically.  Moving backwards raises.
        """
        if time_ps < self._now:
            raise SimulationError(
                f"cannot advance to {time_ps} ps; time is {self._now} ps"
            )
        self._now = time_ps
