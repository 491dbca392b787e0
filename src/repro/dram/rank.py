"""A DRAM rank: a set of banks behind one chip-select, with mode registers.

The rank is the arbitration unit of the paper: JAFAR is granted "ownership"
of a DRAM rank for a bounded number of cycles (§2.2), during which the memory
controller is blocked via the MR3/MPR mechanism.  Both agents' accesses flow
through :meth:`Rank.access`, so bank-state and refresh interference between
them is modeled naturally.
"""

from __future__ import annotations

from collections import deque

from ..errors import DRAMOwnershipError
from ..obs.tracer import TRACE as _TRACE
from ..sim.fastforward import FF as _FF
from .bank import Bank, BurstTiming
from .commands import Agent
from .iobuffer import IOBuffer
from .mode_registers import ModeRegisterFile
from .refresh import RefreshState
from .timing import DDR3Timings


class Rank:
    """Banks + mode registers + refresh state for one rank."""

    __slots__ = ("timings", "index", "banks", "mode_registers", "refresh",
                 "io_buffer", "io_free_ps", "_act_times", "_t", "trace",
                 "trace_rank_id")

    def __init__(self, timings: DDR3Timings, banks: int, index: int = 0,
                 refresh_enabled: bool = True) -> None:
        self.timings = timings
        self.index = index
        self.banks = [Bank(timings, i) for i in range(banks)]
        self.mode_registers = ModeRegisterFile()
        self.refresh = RefreshState(timings, enabled=refresh_enabled)
        self.io_buffer = IOBuffer(timings)
        # The rank's internal data path (chip IO). The channel bus is tracked
        # separately by the controller; JAFAR taps this path directly.
        self.io_free_ps = 0
        # Issue times of the most recent ACTs anywhere on the rank, for the
        # inter-bank tRRD spacing and the tFAW four-activate window.
        self._act_times: deque[int] = deque(maxlen=4)
        # Precomputed per-grade picosecond table for the hot path.
        self._t = timings.ps
        # Optional command trace (see repro.sim.trace.attach_trace);
        # trace_rank_id is a machine-wide unique id assigned at attach time
        # (Rank.index alone is only unique within one DIMM).
        self.trace = None
        self.trace_rank_id = index

    def _settle_refresh(self, at_ps: int) -> int:
        ready = self.refresh.settle(at_ps)
        if ready > at_ps:
            for bank in self.banks:
                bank.open_row = None  # REF requires precharge-all
                bank.block_until(ready)
            if self.trace is not None:
                self.trace.record_command(ready - self.timings.trfc_ps, "REF",
                                          "refresh", self.trace_rank_id, None)
            if _TRACE.on:
                tracer = _TRACE.tracer
                tracer.rank_refresh(self, ready - self.timings.trfc_ps)
                tracer.timeline.bus(self, "refresh",
                                    ready - self.timings.trfc_ps, ready)
        return ready

    def _act_floor_ps(self) -> int:
        """Earliest time the next ACT may issue anywhere on this rank."""
        acts = self._act_times
        if not acts:
            return 0
        t = self._t
        floor = acts[-1] + t.trrd_ps
        if len(acts) == acts.maxlen:
            floor = max(floor, acts[0] + t.tfaw_ps)
        return floor

    def access(self, bank: int, row: int, at_ps: int, is_write: bool,
               agent: Agent = Agent.CPU, bus_free_ps: int = 0) -> BurstTiming:
        """One burst access through this rank.

        ``bus_free_ps`` is the external constraint (channel bus for the
        controller; JAFAR passes its own ingest readiness).  Raises
        :class:`DRAMOwnershipError` when the host controller touches a rank
        whose MPR is engaged — the §2.2 blocking semantics.
        """
        refresh = self.refresh
        if (_FF.on
                and (not refresh.enabled or at_ps < refresh.next_refresh_ps)
                and (agent is Agent.JAFAR
                     or not self.mode_registers.mpr_enabled)):
            target = self.banks[bank]
            if target.open_row == row:
                # Steady-cadence hot path: a row hit with no refresh due is
                # the Bank.access hit branch inlined — identical max/plus
                # arithmetic, no state machine transitions skipped.  Gated
                # on the fast-forward flag so exact mode (and the SimSan
                # hooks on Bank.access) sees the full call graph.
                t = self._t
                acts = self._act_times
                if acts:
                    floor = acts[-1] + t.trrd_ps
                    if len(acts) == acts.maxlen:
                        faw = acts[0] + t.tfaw_ps
                        if faw > floor:
                            floor = faw
                    if floor > target.next_act_ps:
                        target.next_act_ps = floor
                target.row_hits += 1
                latency = t.cwl_ps if is_write else t.cl_ps
                busy = self.io_free_ps
                if bus_free_ps > busy:
                    busy = bus_free_ps
                if target._data_free_ps > busy:
                    busy = target._data_free_ps
                cas = target.next_col_ps
                if at_ps > cas:
                    cas = at_ps
                data_floor = busy - latency
                if data_floor > cas:
                    cas = data_floor
                data_start = cas + latency
                data_end = data_start + t.burst_ps
                target._data_free_ps = data_end
                target.next_col_ps = cas + t.tccd_ps
                next_pre = data_end + t.twr_ps if is_write else cas + t.trtp_ps
                if next_pre > target.next_pre_ps:
                    target.next_pre_ps = next_pre
                self.io_free_ps = data_end
                trace = self.trace
                if trace is not None:
                    trace.record_command(cas, "WR" if is_write else "RD",
                                         agent.value, self.trace_rank_id,
                                         bank, row)
                    trace.record(cas, agent.value, self.index, bank, row,
                                 is_write, True)
                if _TRACE.on:
                    _TRACE.tracer.timeline.bus(self, agent.value,
                                               data_start, data_end)
                return BurstTiming(cas, data_start, data_end, row_hit=True,
                                   activated_row=False)
        if agent is Agent.CPU and self.mode_registers.mpr_enabled:
            raise DRAMOwnershipError(
                f"rank {self.index}: MPR engaged; host reads/writes blocked"
            )
        at_ps = self._settle_refresh(at_ps)
        target = self.banks[bank]
        # Rank-level ACT spacing (tRRD) and the tFAW rolling window: raise
        # the bank's ACT floor before it decides whether to activate.  The
        # floor only ever grows, so applying it on row hits is harmless.
        target.next_act_ps = max(target.next_act_ps, self._act_floor_ps())
        timing = target.access(
            row, at_ps, is_write, bus_free_ps=max(bus_free_ps, self.io_free_ps)
        )
        self.io_free_ps = timing.data_end_ps
        if timing.act_ps is not None:
            self._act_times.append(timing.act_ps)
        if self.trace is not None:
            if timing.pre_ps is not None:
                self.trace.record_command(timing.pre_ps, "PRE", agent.value,
                                          self.trace_rank_id, bank)
            if timing.act_ps is not None:
                self.trace.record_command(timing.act_ps, "ACT", agent.value,
                                          self.trace_rank_id, bank, row)
            self.trace.record_command(timing.cas_ps, "WR" if is_write else "RD",
                                      agent.value, self.trace_rank_id, bank, row)
            self.trace.record(timing.cas_ps, agent.value, self.index, bank,
                              row, is_write, timing.row_hit)
        if _TRACE.on:
            tracer = _TRACE.tracer
            if timing.pre_ps is not None or timing.act_ps is not None:
                tracer.bank_access(self, bank, row, timing.pre_ps,
                                   timing.act_ps)
            tracer.timeline.bus(self, agent.value, timing.data_start_ps,
                                timing.data_end_ps)
        return timing

    def precharge_all(self, at_ps: int) -> int:
        """Close every open row; returns when the rank is fully precharged."""
        done = at_ps
        for bank in self.banks:
            if bank.open_row is not None:
                issue = bank.precharge(at_ps)
                if self.trace is not None:
                    self.trace.record_command(issue, "PRE", "controller",
                                              self.trace_rank_id, bank.index)
                if _TRACE.on:
                    _TRACE.tracer.bank_precharge(self, bank.index, issue)
                done = max(done, issue + self._t.trp_ps)
        return done

    @property
    def row_hits(self) -> int:
        return sum(b.row_hits for b in self.banks)

    @property
    def row_misses(self) -> int:
        return sum(b.row_misses for b in self.banks)

    @property
    def activations(self) -> int:
        return sum(b.activations for b in self.banks)
