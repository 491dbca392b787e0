"""The memory controller: address decode, queues, scheduling, counters.

The controller services transaction-level :class:`MemRequest` objects against
the bank/rank/channel timing state, honouring the §2.1 timing parameters and
the channel data bus.  Two entry points:

* :meth:`MemoryController.submit` — service one request in arrival order
  (what an in-order miss stream produces).
* :meth:`MemoryController.submit_batch` — service a *window* of outstanding
  requests in policy order (FR-FCFS by default), modelling the reordering a
  real controller applies across its queue window.

Completion times are computed by direct timestamp arithmetic, so each request
costs O(bursts) Python work and multi-million-transaction runs stay fast.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import DRAMError
from ..obs.tracer import TRACE as _TRACE
from ..sim.fastforward import CONFIRM_PERIODS, FF as _FF, STATS as _FF_STATS
from .commands import Agent, CompletedRequest, MemRequest
from .counters import IMCCounters
from .dimm import Channel
from .geometry import AddressMapping, DRAMGeometry
from .rank import Rank
from .scheduler import SchedulingPolicy, make_policy
from .timing import DDR3Timings


class _LaneTemplate:
    """One armed steady-state stream for the controller's fast lane.

    Records the (channel, rank, bank, row) a run of consecutive single-burst
    row hits has been walking, plus the row's contiguous physical-address
    span.  ``streak`` counts the consecutive matching requests serviced by
    the exact path; once it reaches the fast-forward confirm threshold the
    lane serves matching requests closed-form (see
    :mod:`repro.sim.fastforward`).  Every precondition is re-validated per
    request against live bank state, so a stale template is harmless — it
    simply fails the checks and the exact path re-arms it.
    """

    __slots__ = ("channel", "rank", "bank", "bank_index", "row",
                 "span_lo", "span_hi", "streak")

    def __init__(self, channel, rank, bank, bank_index: int, row: int,
                 span_lo: int, span_hi: int) -> None:
        self.channel = channel
        self.rank = rank
        self.bank = bank
        self.bank_index = bank_index
        self.row = row
        self.span_lo = span_lo
        self.span_hi = span_hi
        self.streak = 1


class MemoryController:
    """A multi-channel DDR3 memory controller."""

    def __init__(self, timings: DDR3Timings, geometry: DRAMGeometry,
                 policy: str | SchedulingPolicy = "fr-fcfs",
                 refresh_enabled: bool = True,
                 page_policy: str = "open",
                 metrics=None) -> None:
        if page_policy not in ("open", "closed"):
            raise DRAMError(
                f"page policy must be 'open' or 'closed', got {page_policy!r}"
            )
        self.timings = timings
        self.geometry = geometry
        self.page_policy = page_policy
        self.mapping = AddressMapping(geometry, timings)
        self.channels = [
            Channel(timings, geometry, index=c, refresh_enabled=refresh_enabled)
            for c in range(geometry.channels)
        ]
        self.policy: SchedulingPolicy = (
            make_policy(policy) if isinstance(policy, str) else policy
        )
        self.counters = IMCCounters(timings, metrics)
        self._last_arrival_ps = 0
        # Fast-forward steady lane (see repro.sim.fastforward).  Armed only
        # under the fill-first mapping (bank rotation / channel interleave
        # off), where a row's bytes are physically contiguous, and with the
        # open-page policy (closed-page auto-PREs every burst, so row-hit
        # templates can never recur).
        self._lane_ok = (
            page_policy == "open"
            and geometry.bank_rotate_bytes == 0
            and (geometry.channels == 1 or geometry.interleave_bytes == 0)
        )
        self._burst_bytes = self.mapping.burst_bytes
        self._row_bytes = geometry.row_bytes
        self._t = timings.ps
        self._read_tpl: _LaneTemplate | None = None
        self._write_tpl: _LaneTemplate | None = None

    @property
    def steady_lane_ok(self) -> bool:
        """Whether the mapping/page policy admit steady-state fast paths."""
        return self._lane_ok

    # -- topology helpers --------------------------------------------------------

    def rank_at(self, addr: int) -> Rank:
        """The rank that stores physical address ``addr``."""
        loc = self.mapping.decode(addr)
        return self.channels[loc.channel].rank(loc.dimm, loc.rank)

    def dimm_at(self, addr: int):
        """The DIMM that stores physical address ``addr``."""
        loc = self.mapping.decode(addr)
        return self.channels[loc.channel].dimms[loc.dimm]

    def open_rows(self) -> dict[tuple[int, int, int, int], int | None]:
        """Currently open row per (channel, dimm, rank, bank)."""
        rows: dict[tuple[int, int, int, int], int | None] = {}
        for channel in self.channels:
            for dimm in channel.dimms:
                for rank in dimm.ranks:
                    for bank in rank.banks:
                        rows[(channel.index, dimm.index, rank.index, bank.index)] = (
                            bank.open_row
                        )
        return rows

    # -- service -----------------------------------------------------------------

    def submit(self, req: MemRequest) -> CompletedRequest:
        """Service one request immediately (FCFS stream semantics).

        Requests must arrive in non-decreasing ``arrival_ps`` order; the
        cache/CPU models guarantee this for a single instruction stream.
        """
        if req.arrival_ps < self._last_arrival_ps:
            raise DRAMError(
                "submit() requires non-decreasing arrival times; "
                f"got {req.arrival_ps} after {self._last_arrival_ps}"
            )
        self._last_arrival_ps = req.arrival_ps
        completed = self._service(req)
        self.counters.record(req.is_write, req.arrival_ps, completed.finish_ps,
                             completed.row_hits, completed.row_misses)
        return completed

    def stream_read_ps(self, addr: int, nbytes: int, arrival_ps: int) -> int:
        """One CPU read; returns only its finish time.

        Semantically identical to ``submit(MemRequest(addr, nbytes, False,
        arrival_ps, Agent.CPU)).finish_ps``: a fast entry for per-line
        streaming loops that skips request/completion object construction
        when the steady lane is armed.  Falls back to :meth:`submit` (same
        ordering checks, same errors) otherwise.
        """
        if _FF.on:
            tpl = self._read_tpl
            if (tpl is not None and tpl.streak >= CONFIRM_PERIODS
                    and arrival_ps >= self._last_arrival_ps):
                timing = self._lane_try(tpl, addr, nbytes, arrival_ps,
                                        False, Agent.CPU)
                if timing is not None:
                    self._last_arrival_ps = arrival_ps
                    finish_ps = timing[2]
                    self.counters.record(False, arrival_ps, finish_ps, 1, 0)
                    return finish_ps
        return self.submit(
            MemRequest(addr, nbytes, False, arrival_ps, Agent.CPU)).finish_ps

    def stream_write_ps(self, addr: int, nbytes: int, arrival_ps: int) -> int:
        """One CPU write; returns only its finish time (see stream_read_ps)."""
        if _FF.on:
            tpl = self._write_tpl
            if (tpl is not None and tpl.streak >= CONFIRM_PERIODS
                    and arrival_ps >= self._last_arrival_ps):
                timing = self._lane_try(tpl, addr, nbytes, arrival_ps,
                                        True, Agent.CPU)
                if timing is not None:
                    self._last_arrival_ps = arrival_ps
                    finish_ps = timing[2]
                    self.counters.record(True, arrival_ps, finish_ps, 1, 0)
                    return finish_ps
        return self.submit(
            MemRequest(addr, nbytes, True, arrival_ps, Agent.CPU)).finish_ps

    def submit_batch(self, reqs: Sequence[MemRequest]) -> list[CompletedRequest]:
        """Service a window of outstanding requests in policy order.

        Counter busy intervals are recorded in arrival order regardless of
        service order, matching occupancy-counter semantics (a queue is busy
        from enqueue to completion).
        """
        if not reqs:
            return []
        ordered = self.policy.order(reqs, self.mapping, self.open_rows())
        completed = [self._service(req) for req in ordered]
        for done in sorted(completed, key=lambda c: c.request.arrival_ps):
            req = done.request
            self.counters.record(req.is_write, req.arrival_ps, done.finish_ps,
                                 done.row_hits, done.row_misses)
        self._last_arrival_ps = max(self._last_arrival_ps,
                                    max(r.arrival_ps for r in reqs))
        by_id = {c.request.req_id: c for c in completed}
        return [by_id[r.req_id] for r in reqs]

    def _lane_try(self, tpl: _LaneTemplate, addr: int, nbytes: int,
                  arrival_ps: int, is_write: bool,
                  agent: Agent) -> tuple[int, int, int] | None:
        """Serve one access closed-form via an armed lane template.

        Returns ``(cas_ps, data_start_ps, data_end_ps)``, or None when any
        precondition fails (caller falls back to the exact path).  The body
        is the Bank.access row-hit branch plus the controller's channel-bus
        update, inlined — identical max/plus arithmetic, so the resulting
        state and trace are bit-identical to the exact path.
        """
        if addr < tpl.span_lo or addr + nbytes > tpl.span_hi:
            return None
        bb = self._burst_bytes
        if addr % bb + nbytes > bb:
            return None  # straddles a burst boundary: multi-burst request
        bank = tpl.bank
        if bank.open_row != tpl.row:
            return None
        rank = tpl.rank
        refresh = rank.refresh
        if refresh.enabled and arrival_ps >= refresh.next_refresh_ps:
            return None
        if agent is not Agent.JAFAR and rank.mode_registers.mpr_enabled:
            return None
        t = self._t
        acts = rank._act_times
        if acts:
            floor = acts[-1] + t.trrd_ps
            if len(acts) == acts.maxlen:
                faw = acts[0] + t.tfaw_ps
                if faw > floor:
                    floor = faw
            if floor > bank.next_act_ps:
                bank.next_act_ps = floor
        bank.row_hits += 1
        latency = t.cwl_ps if is_write else t.cl_ps
        channel = tpl.channel
        busy = rank.io_free_ps
        if channel.bus_free_ps > busy:
            busy = channel.bus_free_ps
        if bank._data_free_ps > busy:
            busy = bank._data_free_ps
        cas = bank.next_col_ps
        if arrival_ps > cas:
            cas = arrival_ps
        data_floor = busy - latency
        if data_floor > cas:
            cas = data_floor
        data_start = cas + latency
        data_end = data_start + t.burst_ps
        bank._data_free_ps = data_end
        bank.next_col_ps = cas + t.tccd_ps
        next_pre = data_end + t.twr_ps if is_write else cas + t.trtp_ps
        if next_pre > bank.next_pre_ps:
            bank.next_pre_ps = next_pre
        rank.io_free_ps = data_end
        channel.bus_free_ps = data_end
        trace = rank.trace
        if trace is not None:
            trace.record_command(cas, "WR" if is_write else "RD", agent.value,
                                 rank.trace_rank_id, tpl.bank_index, tpl.row)
            trace.record(cas, agent.value, rank.index, tpl.bank_index,
                         tpl.row, is_write, True)
        _FF_STATS.lane_requests += 1
        if _TRACE.on:
            tracer = _TRACE.tracer
            tracer.complete("wr" if is_write else "rd",
                            tracer.track_of(self, "imc"), arrival_ps,
                            data_end - arrival_ps, lane=True)
            timeline = tracer.timeline
            timeline.bus(rank, agent.value, data_start, data_end)
            timeline.queue(self, is_write, arrival_ps, data_end)
        return cas, data_start, data_end

    def _service(self, req: MemRequest) -> CompletedRequest:
        if _FF.on:
            tpl = self._write_tpl if req.is_write else self._read_tpl
            if tpl is not None and tpl.streak >= CONFIRM_PERIODS:
                timing = self._lane_try(tpl, req.addr, req.nbytes,
                                        req.arrival_ps, req.is_write,
                                        req.agent)
                if timing is not None:
                    return CompletedRequest(req, timing[0], timing[1],
                                            timing[2], 1, 0)
        mapping = self.mapping
        decode = mapping.decode
        channels = self.channels
        closed_page = self.page_policy == "closed"
        arrival_ps = req.arrival_ps
        is_write = req.is_write
        agent = req.agent
        bursts = mapping.bursts_for(req.addr, req.nbytes)
        issue_ps: int | None = None
        first_data_ps: int | None = None
        finish_ps = arrival_ps
        hits = 0
        misses = 0
        loc = channel = rank = None
        for burst_addr in bursts:
            loc = decode(burst_addr)
            channel = channels[loc.channel]
            rank = channel.rank(loc.dimm, loc.rank)
            timing = rank.access(loc.bank, loc.row, arrival_ps, is_write,
                                 agent=agent, bus_free_ps=channel.bus_free_ps)
            data_end_ps = timing.data_end_ps
            channel.bus_free_ps = data_end_ps
            if closed_page:
                # Auto-precharge: the row closes right after the burst, so
                # every access pays ACT+CAS but never a conflict PRE.  The
                # implicit PRE still goes on the command bus, so the trace
                # (and the replay validator behind it) must see it.
                pre_ps = rank.banks[loc.bank].precharge(data_end_ps)
                if rank.trace is not None:
                    rank.trace.record_command(pre_ps, "PRE", "controller",
                                              rank.trace_rank_id, loc.bank)
                if _TRACE.on:
                    _TRACE.tracer.bank_precharge(rank, loc.bank, pre_ps)
            if issue_ps is None:
                issue_ps = timing.cas_ps
                first_data_ps = timing.data_start_ps
            if data_end_ps > finish_ps:
                finish_ps = data_end_ps
            if timing.row_hit:
                hits += 1
            else:
                misses += 1
        assert issue_ps is not None and first_data_ps is not None
        if self._lane_ok and len(bursts) == 1:
            # Lane cadence detection: consecutive single-burst row hits on
            # one (bank, row) arm a template; a miss (row crossing) clears
            # it so the next row's hits re-arm from scratch.
            tpl = self._write_tpl if is_write else self._read_tpl
            if hits == 1:
                bank_obj = rank.banks[loc.bank]
                if tpl is not None and tpl.bank is bank_obj and tpl.row == loc.row:
                    tpl.streak += 1
                else:
                    span_lo = bursts[0] - loc.column * self._burst_bytes
                    tpl = _LaneTemplate(channel, rank, bank_obj, loc.bank,
                                        loc.row, span_lo,
                                        span_lo + self._row_bytes)
                    if is_write:
                        self._write_tpl = tpl
                    else:
                        self._read_tpl = tpl
            elif tpl is not None:
                if is_write:
                    self._write_tpl = None
                else:
                    self._read_tpl = None
        if _TRACE.on:
            tracer = _TRACE.tracer
            tracer.complete("wr" if is_write else "rd",
                            tracer.track_of(self, "imc"), arrival_ps,
                            finish_ps - arrival_ps, hits=hits, misses=misses)
            tracer.timeline.queue(self, is_write, arrival_ps, finish_ps)
        return CompletedRequest(req, issue_ps, first_data_ps, finish_ps, hits, misses)

    # -- convenience --------------------------------------------------------------

    def stream(self, addrs: Iterable[int], nbytes: int, start_ps: int,
               gap_ps: int = 0, is_write: bool = False,
               agent: Agent = Agent.CPU) -> list[CompletedRequest]:
        """Service a request per address, spaced ``gap_ps`` apart.

        A convenience for tests and microbenchmarks of streaming access
        patterns; arrival of request *k* is ``start_ps + k * gap_ps``.
        """
        out = []
        t = start_ps
        for addr in addrs:
            out.append(self.submit(MemRequest(addr, nbytes, is_write, t, agent)))
            t += gap_ps
        return out

    def finish(self) -> None:
        """Flush counter state at the end of a measurement run."""
        self.counters.finish()
