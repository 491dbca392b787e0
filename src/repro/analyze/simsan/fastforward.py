"""Fast-forward sanitizer: force exact execution, after proving it's safe.

Steady-state fast-forward (:mod:`repro.sim.fastforward`) elides work the
other sanitizers want to see — the controller/CPU/JAFAR fused lanes run
inlined timing algebra and backend batch kernels instead of ``Bank.access``
— so while SimSan is installed the simulation must run exact.  But simply
switching the fast paths off would also exempt them from checking.  So on
install, *before* forcing exact mode, this sanitizer runs a short
cross-check: one measurement point simulated twice on identical fresh
machines, once fast-forwarded and once exact, and every simulated output
field compared.  The workload is sized so the fused lanes engage (the
check fails as vacuous when the stream lane served no request); any
divergence — a drifted inlined fast path, a skewed batch kernel — aborts
install with :class:`SanitizerError`.
"""

from __future__ import annotations

import dataclasses

from ...errors import SanitizerError
from ...sim.fastforward import FF, STATS, exact_mode


class FastForwardSanitizer:
    """Cross-checks fast-forward on install, then forces exact execution."""

    name = "fastforward"

    #: Rows in the cross-check column: large enough that the JAFAR fused
    #: row runs engage and the stream lanes serve thousands of requests,
    #: small enough to stay test-suite cheap.
    CHECK_ROWS = 8192
    CHECK_SELECTIVITY = 0.5
    CHECK_SEED = 3

    def __init__(self) -> None:
        self._forced = False

    def install(self) -> None:
        # The check runs first, while fast-forward is still permitted; if
        # the environment already forces exact mode there is nothing to
        # cross-check (and no fast path left enabled to worry about).
        if FF.on:
            self._cross_check()
        FF.force_off()
        self._forced = True

    def uninstall(self) -> None:
        if self._forced:
            FF.allow()
            self._forced = False

    def _cross_check(self) -> None:
        from ...analysis.speedup import measure_point
        from ...config import platform

        config = platform("gem5")
        STATS.reset()
        fast = measure_point(self.CHECK_SELECTIVITY, self.CHECK_ROWS,
                             config=config, seed=self.CHECK_SEED,
                             kernel="branchy")
        exercised = STATS.lane_requests > 0
        with exact_mode():
            exact = measure_point(self.CHECK_SELECTIVITY, self.CHECK_ROWS,
                                  config=config, seed=self.CHECK_SEED,
                                  kernel="branchy")
        if fast != exact:
            diffs = ", ".join(
                f"{field.name}: fast-forward {getattr(fast, field.name)!r} "
                f"!= exact {getattr(exact, field.name)!r}"
                for field in dataclasses.fields(fast)
                if getattr(fast, field.name) != getattr(exact, field.name))
            raise SanitizerError(
                f"fast-forward divergence: the fast-forwarded cross-check "
                f"run does not match the exact run bit for bit ({diffs})"
            )
        if not exercised:
            raise SanitizerError(
                "fast-forward cross-check was vacuous: no fused-lane "
                "request occurred, so the fast paths were not actually "
                "exercised"
            )
