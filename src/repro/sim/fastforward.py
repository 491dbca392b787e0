"""The fast-path switch: fused lane executors on, or exact per-event execution.

The paper's headline experiments are dominated by long streaming phases in
which the memory controller issues row hits back to back and the JAFAR
device drains the IO buffer at a fixed rate.  The fused executors — the
CPU stream lane (``Core._stream_run_lane``), the controller's steady lanes
(``MemoryController._lane_try``) and the JAFAR fused row run
(``JafarDevice._fused_row_run``) — serve such runs in Python locals and
backend batch kernels instead of one event per burst.  Every one of them is
a replay of the per-event reference on localized state, so results are
bit-identical to exact execution; the golden suite, ``python -m repro.bench
--exact`` diffs and the SimSan fast-forward sanitizer enforce that.

Fast-forward is **on by default** and can be disabled three ways: the
``REPRO_EXACT=1`` environment variable, :func:`set_enabled` (the bench
``--exact`` escape hatch), or installing the SimSan sanitizers (the
fast-forward sanitizer forces exact execution so the other sanitizers see
the full command stream).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ..errors import SimulationError

#: Consecutive validated repeats a lane template needs before a fused lane
#: trusts it (the controller's steady lanes and the CPU stream lane's write
#: template).
CONFIRM_PERIODS = 2

ENV_VAR = "REPRO_EXACT"


class FastForwardState:
    """Process-wide fast-forward switch.

    ``on`` is the single flag the hot paths read; it folds together the
    user-facing enable (:func:`set_enabled`, ``REPRO_EXACT``) and any
    scoped forces (:func:`exact_mode`, the SimSan sanitizer).
    """

    __slots__ = ("on", "_enabled", "_forced_off")

    def __init__(self) -> None:
        self._enabled = os.environ.get(ENV_VAR, "") in ("", "0")
        self._forced_off = 0
        self.on = self._enabled

    def _recompute(self) -> None:
        self.on = self._enabled and self._forced_off == 0

    def set_enabled(self, enabled: bool) -> None:
        self._enabled = bool(enabled)
        self._recompute()

    def force_off(self) -> None:
        """Push one scoped exact-mode requirement (nestable)."""
        self._forced_off += 1
        self._recompute()

    def allow(self) -> None:
        """Pop one scoped exact-mode requirement."""
        if self._forced_off <= 0:
            raise SimulationError("fastforward.allow() without force_off()")
        self._forced_off -= 1
        self._recompute()


FF = FastForwardState()


def is_enabled() -> bool:
    """Whether fast-forward paths may run right now."""
    return FF.on


def set_enabled(enabled: bool) -> None:
    """Enable/disable fast-forward globally (the bench ``--exact`` switch)."""
    FF.set_enabled(enabled)


@contextmanager
def exact_mode():
    """Run a block with fast-forward forced off (nestable)."""
    FF.force_off()
    try:
        yield
    finally:
        FF.allow()


class FFStats:
    """Counters describing how much work the fused lanes served."""

    __slots__ = ("lane_requests",)

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lane_requests = 0  # requests served by the fused lanes

    def snapshot(self) -> dict:
        """MetricsRegistry-schema view (one ``snapshot()`` shape everywhere)."""
        return {
            "type": "ff_stats",
            "lane_requests": self.lane_requests,
        }

    def register_into(self, registry) -> None:
        """Expose each counter as an ``ff.*`` gauge on an obs registry."""
        for slot in self.__slots__:
            registry.gauge(f"ff.{slot}", lambda s=slot: getattr(self, s))


STATS = FFStats()
