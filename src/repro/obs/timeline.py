"""Counter-track timelines: windowed memory-system telemetry.

The span tracer (:mod:`repro.obs.tracer`) answers *what happened and in what
causal order*; this module answers *how loaded was the memory system at any
simulated instant, and whose traffic was it*.  A :class:`TimelineSampler`
rides along with every :class:`~repro.obs.tracer.SpanTracer` and folds the
same guarded hook sites into fixed-width windows on the simulated-ps clock:

* **data-bus occupancy per origin** — every burst's ``[data_start_ps,
  data_end_ps)`` window, attributed to the :class:`~repro.dram.commands.Agent`
  that issued it (``cpu`` / ``jafar``) or to ``refresh`` for tRFC windows,
  recorded at the rank (both the controller path and JAFAR's direct tap);
* **per-rank occupancy** — the same windows bucketed by rank track, so
  bank-parallel overlap is visible;
* **controller queue depth** — every request's ``[arrival_ps, finish_ps)``
  residency in the read or write queue (the §3.3 occupancy-counter
  semantics), accumulated per window so ``occupancy / window`` is the
  average depth;
* **ground-truth idle gaps** — the exact gap distribution between combined
  bus busy spans (value -> count, so percentiles are exact), quantifying how
  pessimistic the paper's Fig. 4 ``MC_empty / accesses`` bound is.

Fast-forward composition: the fused lanes never emit per-burst events, so
the hook sites that summarise them (``imc.fused_stream``,
``jafar.fused_row``) contribute *synthesized* samples via
:meth:`TimelineSampler.synth` — the known burst count times the burst
length, spread proportionally over the lane run's windows and flagged in a
dedicated ``synth`` slot so the report never presents summarised occupancy
as sampled occupancy.  Synthesized spans also break idle-gap tracking
(counted in ``synth_breaks``): a gap inside a lane run is unknowable, not
zero.

Invariants (shared with the tracer, proven by ``repro.obs.check`` and the
goldens-under-tracing suite):

* zero-cost when off — the sampler only exists on an installed tracer, and
  every hook is behind the same single ``TRACE.on`` guard;
* zero-perturbation — hooks pass already-computed timestamps; the sampler
  never reads back into simulation state.
"""

from __future__ import annotations

from ..errors import SimulationError

#: Default window width: 1 simulated microsecond (~800 DDR3-1600 bus cycles,
#: the scale of the paper's 200-800-cycle idle periods).
DEFAULT_WINDOW_PS = 1_000_000

#: Hard cap on distinct windows per sampler (across machines).  At the
#: default width this covers ~1 simulated second; beyond it new windows are
#: dropped (and counted), never raised — same policy as the event buffer.
MAX_WINDOWS = 1 << 20

#: Cap on distinct idle-gap values tracked exactly per machine.  Overflow
#: degrades percentiles to "over the tracked range", counted explicitly.
MAX_GAP_VALUES = 1 << 16

# Window accumulator slots (one list per window index).
CPU, JAFAR, REFRESH, SYNTH, RQ, WQ, READS, WRITES = range(8)
_ORIGIN_SLOT = {"cpu": CPU, "jafar": JAFAR, "refresh": REFRESH}

ORIGINS = ("cpu", "jafar", "refresh")


class _MachineTimeline:
    """Windowed accumulators for one machine prefix (``m0``, ``m1``, ...)."""

    __slots__ = ("windows", "ranks", "origin_busy_ps", "origin_bursts",
                 "synth_busy_ps", "gap_counts", "gap_overflow", "gap_total_ps",
                 "longest_gap_ps", "synth_breaks", "_last_end_ps",
                 "first_ts_ps", "last_ts_ps")

    def __init__(self) -> None:
        self.windows: dict[int, list] = {}
        self.ranks: dict[str, dict[int, int]] = {}
        self.origin_busy_ps = {origin: 0 for origin in ORIGINS}
        self.origin_bursts = {origin: 0 for origin in ORIGINS}
        self.synth_busy_ps = 0
        self.gap_counts: dict[int, int] = {}
        self.gap_overflow = 0
        self.gap_total_ps = 0
        self.longest_gap_ps = 0
        self.synth_breaks = 0
        self._last_end_ps: int | None = None
        self.first_ts_ps: int | None = None
        self.last_ts_ps = 0

    def note_span(self, start_ps: int, end_ps: int) -> None:
        if self.first_ts_ps is None or start_ps < self.first_ts_ps:
            self.first_ts_ps = start_ps
        if end_ps > self.last_ts_ps:
            self.last_ts_ps = end_ps

    def record_gap(self, start_ps: int, end_ps: int) -> None:
        """Idle-gap bookkeeping across combined bus busy spans."""
        last = self._last_end_ps
        if last is not None and start_ps > last:
            gap = start_ps - last
            if gap in self.gap_counts:
                self.gap_counts[gap] += 1
            elif len(self.gap_counts) < MAX_GAP_VALUES:
                self.gap_counts[gap] = 1
            else:
                self.gap_overflow += 1
            self.gap_total_ps += gap
            if gap > self.longest_gap_ps:
                self.longest_gap_ps = gap
        if last is None or end_ps > last:
            self._last_end_ps = end_ps

    def break_gap(self, end_ps: int) -> None:
        """A synthesized span interrupts gap tracking (the gap is unknown)."""
        self.synth_breaks += 1
        if self._last_end_ps is None or end_ps > self._last_end_ps:
            self._last_end_ps = end_ps


def _gap_quantile(counts: dict[int, int], total: int, q: float) -> int:
    """Exact quantile of a value->count distribution (nearest-rank)."""
    if total <= 0:
        return 0
    target = q * total
    cum = 0
    last = 0
    for value in sorted(counts):
        cum += counts[value]
        last = value
        if cum >= target:
            return value
    return last


class TimelineSampler:
    """Folds guarded hook samples into per-window counter tracks.

    One sampler per :class:`~repro.obs.tracer.SpanTracer`; the tracer's track
    registry supplies stable machine/rank names, cached per object id so the
    steady-state cost of a sample is dict lookups and integer arithmetic.
    """

    def __init__(self, tracer, window_ps: int = DEFAULT_WINDOW_PS,
                 max_windows: int = MAX_WINDOWS) -> None:
        if window_ps < 1:
            raise SimulationError("timeline window must be >= 1 ps")
        self._tracer = tracer
        self.window_ps = window_ps
        self.max_windows = max_windows
        self.dropped_windows = 0
        self._machines: dict[str, _MachineTimeline] = {}
        # id(rank) -> (machine timeline, rank track suffix); id(ctrl) -> tl.
        self._rank_keys: dict[int, tuple[_MachineTimeline, str]] = {}
        self._ctrl_keys: dict[int, _MachineTimeline] = {}
        self._window_budget = max_windows

    # -- key resolution --------------------------------------------------------

    def _machine(self, prefix: str) -> _MachineTimeline:
        tl = self._machines.get(prefix)
        if tl is None:
            tl = self._machines[prefix] = _MachineTimeline()
        return tl

    def _rank_key(self, rank) -> tuple[_MachineTimeline, str]:
        key = self._rank_keys.get(id(rank))
        if key is None:
            track = self._tracer.track_of(rank, "dram.rank")
            prefix, sep, suffix = track.partition(".")
            if not sep:
                prefix, suffix = "run", track
            key = self._rank_keys[id(rank)] = (self._machine(prefix), suffix)
        return key

    def _ctrl_key(self, controller) -> _MachineTimeline:
        tl = self._ctrl_keys.get(id(controller))
        if tl is None:
            track = self._tracer.track_of(controller, "imc")
            prefix = track.partition(".")[0] if "." in track else "run"
            tl = self._ctrl_keys[id(controller)] = self._machine(prefix)
        return tl

    # -- windowed accumulation -------------------------------------------------

    def _new_window(self, windows: dict[int, list], idx: int):
        """Allocate window ``idx`` against the budget; ``None`` if exhausted."""
        if self._window_budget <= 0:
            self.dropped_windows += 1
            return None
        self._window_budget -= 1
        win = windows[idx] = [0, 0, 0, 0, 0, 0, 0, 0]
        return win

    def _add_span(self, windows: dict[int, list], slot: int, start_ps: int,
                  end_ps: int) -> int:
        """Add ``[start_ps, end_ps)`` occupancy to ``slot``; returns added ps."""
        w = self.window_ps
        added = 0
        for idx in range(start_ps // w, (end_ps - 1) // w + 1):
            win = windows.get(idx)
            if win is None:
                win = self._new_window(windows, idx)
                if win is None:
                    continue
            lo = idx * w
            hi = lo + w
            overlap = min(end_ps, hi) - max(start_ps, lo)
            win[slot] += overlap
            added += overlap
        return added

    def _add_rank_span(self, tl: _MachineTimeline, suffix: str, start_ps: int,
                       end_ps: int) -> None:
        wins = tl.ranks.get(suffix)
        if wins is None:
            wins = tl.ranks[suffix] = {}
        w = self.window_ps
        for idx in range(start_ps // w, (end_ps - 1) // w + 1):
            lo = idx * w
            overlap = min(end_ps, lo + w) - max(start_ps, lo)
            if idx in wins:
                wins[idx] += overlap
            elif self._window_budget > 0:
                self._window_budget -= 1
                wins[idx] = overlap
            else:
                self.dropped_windows += 1

    # -- hook entry points -----------------------------------------------------

    def bus(self, rank, origin: str, start_ps: int, end_ps: int) -> None:
        """One exact data-bus window on ``rank``, attributed to ``origin``."""
        if end_ps <= start_ps:
            return
        tl, suffix = self._rank_key(rank)
        tl.note_span(start_ps, end_ps)
        tl.origin_busy_ps[origin] += end_ps - start_ps
        tl.origin_bursts[origin] += 1
        self._add_span(tl.windows, _ORIGIN_SLOT[origin], start_ps, end_ps)
        self._add_rank_span(tl, suffix, start_ps, end_ps)
        tl.record_gap(start_ps, end_ps)

    def queue(self, controller, is_write: bool, arrival_ps: int,
              finish_ps: int) -> None:
        """One request's read/write-queue residency on ``controller``."""
        tl = self._ctrl_key(controller)
        tl.note_span(arrival_ps, max(finish_ps, arrival_ps))
        windows = tl.windows
        if finish_ps > arrival_ps:
            self._add_span(windows, WQ if is_write else RQ, arrival_ps,
                           finish_ps)
        # The arrival itself still counts even for zero-length residency.
        w = self.window_ps
        idx = arrival_ps // w
        win = windows.get(idx)
        if win is None:
            win = self._new_window(windows, idx)
            if win is None:
                return
        win[WRITES if is_write else READS] += 1

    def synth(self, track: str, origin: str, start_ps: int, dur_ps: int,
              busy_ps: int, reads: int = 0, writes: int = 0) -> None:
        """A synthesized aggregate sample for one fused-lane run.

        ``busy_ps`` is the derived bus occupancy (burst count x burst
        length) of the lane-served work; it is spread over ``[start_ps,
        start_ps + dur_ps)`` proportionally to each window's overlap and
        mirrored into the ``synth`` slot, so per-origin totals stay honest
        while the report can mark the windows as summarised.
        """
        prefix = track.partition(".")[0] if "." in track else "run"
        tl = self._machine(prefix)
        end_ps = start_ps + max(dur_ps, 1)
        tl.note_span(start_ps, end_ps)
        tl.origin_busy_ps[origin] += busy_ps
        tl.origin_bursts[origin] += reads + writes
        tl.synth_busy_ps += busy_ps
        if busy_ps > 0:
            span = end_ps - start_ps
            w = self.window_ps
            windows = tl.windows
            remaining = busy_ps
            last_idx = (end_ps - 1) // w
            slot = _ORIGIN_SLOT[origin]
            for idx in range(start_ps // w, last_idx + 1):
                win = windows.get(idx)
                if win is None:
                    win = self._new_window(windows, idx)
                    if win is None:
                        continue
                lo = idx * w
                overlap = min(end_ps, lo + w) - max(start_ps, lo)
                share = busy_ps * overlap // span if idx != last_idx \
                    else remaining
                remaining -= share
                win[slot] += share
                win[SYNTH] += share
        idx = start_ps // self.window_ps
        win = tl.windows.get(idx)
        if win is not None:
            win[READS] += reads
            win[WRITES] += writes
        tl.break_gap(end_ps)

    # -- reading ---------------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not any(tl.windows for tl in self._machines.values())

    def counter_inventory(self) -> dict[str, int]:
        """``{counter series name: sample count}`` — matches the exported
        ``ph: "C"`` event stream exactly (satellite: truncation honesty)."""
        return counter_inventory(self.summary())

    def summary(self) -> dict:
        """The JSON-safe ``doc["timeline"]`` section: windows + derived stats."""
        machines: dict[str, dict] = {}
        for prefix in sorted(self._machines):
            tl = self._machines[prefix]
            if tl.first_ts_ps is None:
                continue
            span_ps = max(tl.last_ts_ps - tl.first_ts_ps, 1)
            busy = tl.origin_busy_ps
            total_busy = sum(busy.values())
            gap_count = sum(tl.gap_counts.values())
            rq_ps = sum(win[RQ] for win in tl.windows.values())
            wq_ps = sum(win[WQ] for win in tl.windows.values())
            machines[prefix] = {
                "span_ps": span_ps,
                "first_ts_ps": tl.first_ts_ps,
                "last_ts_ps": tl.last_ts_ps,
                "origins": {
                    origin: {
                        "busy_ps": busy[origin],
                        "bursts": tl.origin_bursts[origin],
                        "busy_pct": 100.0 * busy[origin] / span_ps,
                        "bus_share_pct": (100.0 * busy[origin] / total_busy
                                          if total_busy else 0.0),
                    }
                    for origin in ORIGINS
                },
                "bus_utilisation_pct": 100.0 * total_busy / span_ps,
                "synth": {
                    "busy_ps": tl.synth_busy_ps,
                    "busy_share_pct": (100.0 * tl.synth_busy_ps / total_busy
                                       if total_busy else 0.0),
                    "gap_breaks": tl.synth_breaks,
                },
                "queue": {
                    "read_depth_avg": rq_ps / span_ps,
                    "write_depth_avg": wq_ps / span_ps,
                    "reads": sum(w[READS] for w in tl.windows.values()),
                    "writes": sum(w[WRITES] for w in tl.windows.values()),
                },
                "idle": {
                    "count": gap_count,
                    "overflow": tl.gap_overflow,
                    "total_ps": tl.gap_total_ps,
                    "p50_ps": _gap_quantile(tl.gap_counts, gap_count, 0.50),
                    "p95_ps": _gap_quantile(tl.gap_counts, gap_count, 0.95),
                    "longest_ps": tl.longest_gap_ps,
                },
                "windows": [[idx] + tl.windows[idx]
                            for idx in sorted(tl.windows)],
                "ranks": {
                    suffix: [[idx, wins[idx]] for idx in sorted(wins)]
                    for suffix, wins in sorted(tl.ranks.items())
                },
            }
        return {
            "window_ps": self.window_ps,
            "dropped_windows": self.dropped_windows,
            "machines": machines,
        }


def counter_inventory(summary: dict) -> dict[str, int]:
    """``{series name: sample count}`` over a :meth:`TimelineSampler.summary`
    document — one entry per exported ``ph: "C"`` counter series, with the
    number of window samples each carries.  Computed from the summary (not
    the event stream), so the live tracer and a re-read document agree by
    construction."""
    out: dict[str, int] = {}
    for prefix in sorted(summary.get("machines", {})):
        machine = summary["machines"][prefix]
        n = len(machine["windows"])
        if n:
            out[f"{prefix}.bus_util_pct"] = n
            out[f"{prefix}.queue_depth"] = n
        for suffix in sorted(machine.get("ranks", {})):
            out[f"{prefix}.busy_pct.{suffix}"] = \
                len(machine["ranks"][suffix])
    return out


def render_timeline(summary: dict, width: int = 40) -> str:
    """Terminal report over a :meth:`TimelineSampler.summary` document."""
    machines = summary.get("machines", {})
    if not machines:
        return "(no timeline samples recorded)"
    window_ps = summary["window_ps"]
    lines: list[str] = []
    for prefix in sorted(machines):
        m = machines[prefix]
        lines.append(f"machine {prefix} — window {_fmt(window_ps)}, "
                     f"span {_fmt(m['span_ps'])}, "
                     f"{len(m['windows'])} sampled window(s)")
        util = m["bus_utilisation_pct"]
        shares = ", ".join(
            f"{origin} {m['origins'][origin]['busy_pct']:.1f}%"
            f" ({m['origins'][origin]['bus_share_pct']:.0f}% of traffic)"
            for origin in ORIGINS if m["origins"][origin]["busy_ps"])
        lines.append(f"  data-bus utilisation {util:.1f}%"
                     + (f": {shares}" if shares else ""))
        q = m["queue"]
        lines.append(f"  queue depth (avg): read {q['read_depth_avg']:.3f}, "
                     f"write {q['write_depth_avg']:.3f} "
                     f"({q['reads']} reads, {q['writes']} writes)")
        idle = m["idle"]
        if idle["count"]:
            lines.append(
                f"  idle gaps: n={idle['count']}, p50 {_fmt(idle['p50_ps'])}, "
                f"p95 {_fmt(idle['p95_ps'])}, "
                f"longest {_fmt(idle['longest_ps'])}, "
                f"total idle {_fmt(idle['total_ps'])}")
        if idle["overflow"]:
            lines.append(f"  ({idle['overflow']} gap value(s) beyond the "
                         "exact-tracking cap)")
        synth = m["synth"]
        if synth["busy_ps"]:
            lines.append(
                f"  fast-forward: {synth['busy_share_pct']:.1f}% of busy ps "
                "synthesized from fused-lane summaries; "
                f"{synth['gap_breaks']} idle-gap break(s)")
        for suffix, wins in sorted(m.get("ranks", {}).items()):
            busy = sum(b for _, b in wins)
            pct = 100.0 * busy / m["span_ps"]
            bar = "█" * max(1, round(width * min(pct, 100.0) / 100.0)) \
                if busy else ""
            lines.append(f"    {suffix:<34} {pct:5.1f}% busy  {bar}")
    if summary.get("dropped_windows"):
        lines.append(f"[{summary['dropped_windows']} window(s) dropped at "
                     "the window cap]")
    return "\n".join(lines)


def _fmt(ps: int) -> str:
    if ps >= 1_000_000:
        return f"{ps / 1_000_000:.3f}us"
    if ps >= 1000:
        return f"{ps / 1000:.1f}ns"
    return f"{ps}ps"
