"""The scan-oriented CPU core timing model.

:class:`Core` advances a local clock by charging compute cycles
(``µops / IPC``) and by issuing transaction-level memory traffic through the
cache hierarchy into the memory controller.  Two access-phase shapes cover
the paper's workloads:

* :meth:`Core.stream_read_phase` — a sequential sweep over a region with
  per-line compute costs; the stream prefetcher lets up to ``prefetch_depth``
  line fetches run ahead of the consuming instruction, so throughput is
  ``max(compute, DRAM service)`` per line after ramp-up, exactly the
  closed-loop behaviour a real scan exhibits.
* :meth:`Core.random_read_phase` — dependent (pointer-chase-like) accesses
  through the cache model, paying full latency on misses; the TPC-H hash
  joins and group-bys use this.

Output writes are fire-and-forget (write buffers drain asynchronously), so
they consume controller bandwidth and perturb the idle-period profile
without stalling the core — matching how write queues behave in the §3.3
measurement.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..cache import CacheHierarchy
from ..compute import get_backend
from ..config import SystemConfig
from ..dram import Agent, MemoryController, MemRequest
from ..errors import ConfigError
from ..obs.tracer import TRACE as _TRACE
from ..sim.clock import ClockDomain
from ..sim.fastforward import CONFIRM_PERIODS, FF as _FF, STATS as _FF_STATS


def _per_line(values: np.ndarray | float, nlines: int,
              name: str) -> np.ndarray:
    """``values`` broadcast to one float per line, checked finite and >= 0."""
    arr = np.asarray(values, dtype=np.float64)
    try:
        per_line = np.broadcast_to(arr, (nlines,))
    except ValueError:
        raise ConfigError(f"{name} needs a scalar or one entry per line "
                          f"({nlines}), got shape {arr.shape}") from None
    if not bool(np.all((arr >= 0) & (arr < math.inf))):
        raise ConfigError(f"{name} must be finite and non-negative")
    return per_line


@dataclass
class PhaseStats:
    """Outcome of one access phase."""

    start_ps: int
    end_ps: int
    lines_read: int = 0
    lines_written: int = 0
    compute_cycles: float = 0.0
    stall_ps: int = 0

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


class Core:
    """One CPU hardware context issuing memory traffic and compute."""

    def __init__(self, config: SystemConfig, controller: MemoryController,
                 hierarchy: CacheHierarchy, prefetch_depth: int = 8,
                 write_drain_batch: int = 16, start_ps: int = 0) -> None:
        if prefetch_depth < 0:
            raise ConfigError("prefetch depth must be non-negative")
        if write_drain_batch <= 0:
            raise ConfigError("write drain batch must be positive")
        self.config = config
        self.cost = config.cpu_cost
        self.controller = controller
        self.hierarchy = hierarchy
        self.clock = ClockDomain(config.cpu_freq_hz, "cpu")
        self.prefetch_depth = prefetch_depth
        self.write_drain_batch = write_drain_batch
        self.now_ps = start_ps
        self.line_bytes = hierarchy.line_bytes
        self._write_cursor = 0
        self._pending_writes: list[int] = []

    # -- posted writes ---------------------------------------------------------
    #
    # Stores retire into the write queue and drain in batches (real
    # controllers switch to write-drain mode when the queue fills), which
    # preserves row locality within the drained burst instead of thrashing
    # the row buffer against the concurrent read stream.

    def _post_write(self, addr: int, issue_floor: int) -> int:
        self._pending_writes.append(addr)
        if len(self._pending_writes) >= self.write_drain_batch:
            return self._drain_writes(issue_floor)
        return issue_floor

    def _drain_writes(self, issue_floor: int) -> int:
        issue_at = max(issue_floor, self.now_ps)
        if self._pending_writes:
            write_ps = self.controller.stream_write_ps
            nbytes = self.line_bytes
            for addr in self._pending_writes:
                write_ps(addr, nbytes, issue_at)
            self._pending_writes.clear()
        return issue_at

    # -- compute ------------------------------------------------------------------

    def cycles_for_uops(self, uops: float) -> float:
        return uops / self.cost.ipc

    def advance_cycles(self, cycles: float) -> None:
        if cycles < 0:
            raise ConfigError("cannot advance by negative cycles")
        self.now_ps += self.clock.cycles_to_ps(cycles)

    def advance_ps(self, ps: int) -> None:
        if ps < 0:
            raise ConfigError("cannot advance by negative time")
        self.now_ps += ps

    # -- streaming phase ------------------------------------------------------------

    def stream_read_phase(self, base_addr: int, nbytes: int,
                          cycles_per_line: np.ndarray | float,
                          write_bytes_per_line: np.ndarray | float = 0.0,
                          write_base: int | None = None) -> PhaseStats:
        """Sequentially consume ``[base_addr, base_addr+nbytes)``.

        ``cycles_per_line`` is the compute charged after each line arrives
        (scalar, or one entry per line).  ``write_bytes_per_line`` generates
        posted write traffic at ``write_base`` (defaults to just past the
        input region).
        """
        if nbytes <= 0:
            raise ConfigError("stream phase needs a positive size")
        nlines = -(-nbytes // self.line_bytes)
        per_line = _per_line(cycles_per_line, nlines, "cycles_per_line")
        out_per_line = _per_line(write_bytes_per_line, nlines,
                                 "write_bytes_per_line")
        if write_base is None:
            write_base = base_addr + nlines * self.line_bytes
        self._write_cursor = write_base

        start_ps = self.now_ps
        stats = PhaseStats(start_ps=start_ps, end_ps=start_ps, lines_read=nlines)
        # Hot loop: hoist attribute lookups and convert the numpy per-line
        # vectors to plain Python floats once (np.float64 -> float is exact).
        line_bytes = self.line_bytes
        controller = self.controller
        read_ps = controller.stream_read_ps
        per_line_f = per_line.tolist()
        out_per_line_f = out_per_line.tolist()
        # Pre-convert per-line compute to picoseconds.  np.rint rounds half
        # to even exactly like round(), so cps[k] == cycles_to_ps(per_line[k])
        # bit for bit.  Per-line cycle counts stay below ~1e6 at a ~1e3 ps
        # period, so the product is far inside int64.
        cps = np.rint(  # analyze: ignore[int-overflow] <=1e6 cycles * ~1e3 ps/cycle
            per_line * self.clock.period_ps).astype(np.int64).tolist()
        # The prefetcher keeps up to `depth` fetches in flight; a fetch for
        # line k is issued when the core finished consuming line k - depth
        # (or at phase start during ramp-up).  The deque is modelled as a
        # fixed ring: slot `ft_idx` always holds the oldest finish time.
        depth = max(self.prefetch_depth, 1)
        finish_times: list[int] = [start_ps] * depth
        ft_idx = 0
        issue_floor = start_ps
        write_backlog = 0.0
        stall_ps = 0
        lines_written = 0
        k = 0

        # Fused steady-state executor (see _stream_run_lane): eligible when
        # both stream lanes can serve whole runs of lines without leaving
        # Python locals.  Tried opportunistically; a failed attempt costs a
        # few attribute reads.
        fuse_gate = (_FF.on and controller.steady_lane_ok
                     and line_bytes == controller.mapping.burst_bytes
                     and base_addr % line_bytes == 0)
        has_writes = fuse_gate and any(out_per_line_f)
        fuse_retry = 0
        box = [0, 0, 0, 0.0, 0, 0]

        while k < nlines:
            if fuse_gate and k >= fuse_retry:
                box[0] = self.now_ps
                box[1] = issue_floor
                box[2] = stall_ps
                box[3] = write_backlog
                box[4] = lines_written
                box[5] = ft_idx
                new_k = self._stream_run_lane(k, nlines, base_addr, cps,
                                              out_per_line_f, finish_times,
                                              box, has_writes)
                if new_k > k:
                    if _TRACE.on:
                        # One synthesized span summarising the lane-served
                        # run (its per-request controller events are elided).
                        tracer = _TRACE.tracer
                        tracer.complete(
                            "imc.fused_stream",
                            tracer.track_of(controller, "imc"),
                            self.now_ps, box[0] - self.now_ps,
                            ff=True, lines=new_k - k)
                        # One burst per line by the fuse gate; box[4] holds
                        # the lane's updated write count, lines_written the
                        # pre-run one.
                        tracer.timeline.synth(
                            tracer.track_of(self, "cpu"), "cpu",
                            self.now_ps, box[0] - self.now_ps,
                            (new_k - k + box[4] - lines_written)
                            * controller._t.burst_ps,
                            reads=new_k - k, writes=box[4] - lines_written)
                    k = new_k
                    self.now_ps = box[0]
                    issue_floor = box[1]
                    stall_ps = box[2]
                    write_backlog = box[3]
                    lines_written = box[4]
                    ft_idx = box[5]
                    continue
                fuse_retry = k + 2
            addr = base_addr + k * line_bytes
            issue_at = finish_times[ft_idx]
            if issue_floor > issue_at:
                issue_at = issue_floor
            issue_floor = issue_at  # controller needs ordered arrivals
            data_ready = read_ps(addr, line_bytes, issue_at)
            if data_ready > self.now_ps:
                stall_ps += data_ready - self.now_ps
                self.now_ps = data_ready
            self.now_ps += cps[k]
            finish_times[ft_idx] = self.now_ps
            ft_idx += 1
            if ft_idx == depth:
                ft_idx = 0

            out = out_per_line_f[k]
            if out:
                write_backlog += out
                while write_backlog >= line_bytes:
                    write_backlog -= line_bytes
                    issue_floor = self._post_write(self._write_cursor,
                                                   issue_floor)
                    self._write_cursor += line_bytes
                    lines_written += 1
            k += 1
        if write_backlog > 0:
            issue_floor = self._post_write(self._write_cursor, issue_floor)
            self._write_cursor += line_bytes
            lines_written += 1
        self._drain_writes(issue_floor)
        # Order-independent accumulation: identical whether lines executed
        # one by one or in fused lane runs.
        stats.compute_cycles = math.fsum(per_line_f)
        stats.stall_ps = stall_ps
        stats.lines_written = lines_written
        stats.end_ps = self.now_ps
        return stats

    def _stream_run_lane(self, k: int, nlines: int, base_addr: int,
                         cps: list, outs: list, ft: list, box: list,
                         has_writes: bool) -> int:
        """Execute a run of stream lines entirely in Python locals.

        The per-line flow (prefetch issue, DRAM service, counter account,
        compute, posted writes, batch drains) is replayed op for op with the
        hot bank/channel/counter state held in local variables, so the
        result is bit-identical to the per-line path at a fraction of its
        interpreter overhead.  Busy-tracker and read-latency accounting is
        deferred: each access only appends its ``[start, end)`` interval to
        a stream-ordered log (one entry per read line, one per write
        drain), which :meth:`IMCCounters.fold_stream_log` folds once, on
        exit, before any slow-path call can record further traffic.  Every
        logged access is served on one channel, so the log's ends strictly
        increase and its starts ratchet through the issue floor — the
        ordering the vectorised fold needs to equal per-access marking
        (DESIGN.md §12).  Row hits use the inlined Bank.access hit
        algebra; row misses (the input/output row ping-pong around drains,
        row crossings) and refresh-deadline lines are replayed through the
        exact :meth:`Rank.access` path with the locals synced down and back
        up around the call (the rank settles the refresh inside the replay;
        the deadline is then reloaded).  A run covers at most the current bank and exits early — writing all
        state back — when a write drain cannot be validated; the caller's
        per-line loop handles the boundary exactly.

        ``box`` carries [now_ps, issue_floor, stall_ps, write_backlog,
        lines_written, ft_idx] in and out; ``ft`` is mutated in place.
        Returns the first unexecuted line index (== ``k`` when not entered).
        """
        controller = self.controller
        line_bytes = self.line_bytes
        addr = base_addr + k * line_bytes
        mapping = controller.mapping
        loc = mapping.decode(addr)
        channel = controller.channels[loc.channel]
        r_rank = channel.rank(loc.dimm, loc.rank)
        if r_rank.trace is not None or r_rank.mode_registers.mpr_enabled:
            return k
        geometry = controller.geometry
        bank_bytes = geometry.bank_bytes
        row_bytes = geometry.row_bytes
        bank_off = addr % bank_bytes
        bank_start = addr - bank_off
        limit = k + (bank_bytes - bank_off) // line_bytes
        if limit > nlines:
            limit = nlines
        if limit - k < 8:
            return k
        # Row-address linearity probe: the executor tracks rows by byte
        # arithmetic, which is only valid when the mapping lays rows out
        # contiguously inside the bank (the fill-first default).
        if bank_off // row_bytes != loc.row:
            return k
        probe = addr - addr % row_bytes + row_bytes
        if probe < bank_start + bank_bytes:
            p = mapping.decode(probe)
            if (p.channel != loc.channel or p.dimm != loc.dimm
                    or p.rank != loc.rank or p.bank != loc.bank
                    or p.row != loc.row + 1):
                return k
        r_bank = r_rank.banks[loc.bank]
        r_bank_index = loc.bank
        r_row = loc.row
        lpr = row_bytes // line_bytes
        row_countdown = (row_bytes - addr % row_bytes) // line_bytes

        now, floor, stall, backlog, lines_written, idx = box
        pending = self._pending_writes
        w_cursor = self._write_cursor
        batch = self.write_drain_batch

        # Write-side setup.  Mode 1: the output stream lives in the *same*
        # bank, so drains ping-pong rows and every access (hit or miss)
        # runs against the shared bank locals.  Mode 2: a confirmed write
        # template on another bank serves whole drains closed-form.  Mode
        # 0: no drain can be fused — posts still accumulate in locals and
        # the run bails out the moment a drain would trigger.
        w_mode = 0
        w_bank = w_rank = None
        w_span_lo = w_span_hi = 0
        w_row_tpl = 0
        w_open = True
        if has_writes or pending or backlog > 0.0:
            wloc = mapping.decode(w_cursor)
            if (wloc.channel == loc.channel and wloc.dimm == loc.dimm
                    and wloc.rank == loc.rank and wloc.bank == loc.bank
                    and wloc.row == (w_cursor % bank_bytes) // row_bytes):
                w_mode = 1
            else:
                wt = controller._write_tpl
                if (wt is not None and wt.streak >= CONFIRM_PERIODS
                        and wt.bank is not r_bank
                        and wt.channel is channel
                        and wt.bank.open_row == wt.row
                        and wt.rank.trace is None
                        and not wt.rank.mode_registers.mpr_enabled
                        and w_cursor % line_bytes == 0):
                    w_mode = 2
                    w_bank = wt.bank
                    w_rank = wt.rank
                    w_span_lo = wt.span_lo
                    w_span_hi = wt.span_hi
                    w_row_tpl = wt.row

        t = controller._t
        CL = t.cl_ps
        CWL = t.cwl_ps
        BURST = t.burst_ps
        TCCD = t.tccd_ps
        TRTP = t.trtp_ps
        TWR = t.twr_ps
        TRRD = t.trrd_ps
        TFAW = t.tfaw_ps
        BIG = 1 << 62

        r_refresh = r_rank.refresh
        r_next_ref = r_refresh.next_refresh_ps if r_refresh.enabled else BIG
        if w_mode == 2:
            w_refresh = w_rank.refresh
            w_next_ref = w_refresh.next_refresh_ps if w_refresh.enabled else BIG
        else:
            w_next_ref = r_next_ref

        acts_r = r_rank._act_times
        acts_max = acts_r.maxlen

        def act_floor(acts):
            # Rank._act_floor_ps: earliest legal ACT given tRRD/tFAW history.
            if not acts:
                return 0
            af = acts[-1] + TRRD
            if len(acts) == acts_max:
                faw = acts[0] + TFAW
                if faw > af:
                    af = faw
            return af

        # The exact hit branch raises the bank's ACT floor on every access.
        # The floor only changes when the ACT ring does (at a miss), so it
        # is cached here and re-derived after each slow-path replay.
        r_act_floor = act_floor(acts_r)
        shared_rank = w_rank is r_rank
        if w_mode == 2:
            acts_w = w_rank._act_times
            w_act_floor = act_floor(acts_w)
        else:
            w_act_floor = 0

        bus = channel.bus_free_ps
        open_row_l = r_bank.open_row
        r_next_act = r_bank.next_act_ps
        r_next_col = r_bank.next_col_ps
        r_dfree = r_bank._data_free_ps
        r_next_pre = r_bank.next_pre_ps
        r_hits = r_bank.row_hits
        r_io = r_rank.io_free_ps
        if w_mode == 2:
            w_next_act = w_bank.next_act_ps
            w_next_col = w_bank.next_col_ps
            w_dfree = w_bank._data_free_ps
            w_next_pre = w_bank.next_pre_ps
            w_hits = w_bank.row_hits
            w_io = w_rank.io_free_ps
        else:
            w_next_act = w_next_col = w_dfree = w_next_pre = w_hits = w_io = 0

        cnt = controller.counters
        reads_v = cnt.reads.value
        writes_v = cnt.writes.value
        rowh_v = cnt.row_hits.value
        rowm_v = cnt.row_misses.value

        # Access log: one [start, end) busy interval per access in stream
        # order, folded into the busy trackers and the read-latency
        # histogram once, at lane exit (IMCCounters.fold_stream_log).
        # w_at holds the log indices of the write entries.
        acc_s: list = []
        acc_e: list = []
        w_at: list = []
        log_s = acc_s.append
        log_e = acc_e.append

        lane_count = 0
        backend = get_backend()
        depth = len(ft)
        j = k
        bail_posts = 0
        while j < limit:
            if row_countdown == 0:
                r_row += 1
                row_countdown = lpr
            issue = ft[idx]
            if floor > issue:
                issue = floor
            if open_row_l == r_row and issue < r_next_ref:
                # Bank.access row-hit branch + channel bus update, inlined.
                if r_act_floor > r_next_act:
                    r_next_act = r_act_floor
                cas = r_next_col
                if issue > cas:
                    cas = issue
                dfloor = (bus if bus > r_dfree else r_dfree) - CL
                if dfloor > cas:
                    cas = dfloor
                de = cas + CL + BURST
                r_dfree = de
                r_next_col = cas + TCCD
                npre = cas + TRTP
                if npre > r_next_pre:
                    r_next_pre = npre
                bus = de
                r_io = de
                r_hits += 1
                rowh_v += 1
                lane_count += 1
            else:
                # Row miss or refresh deadline: sync the locals down and
                # replay through the exact rank path (refresh settle, PRE/
                # ACT floors, ACT-ring bookkeeping).  A refresh precharges
                # every bank on the rank, so this access is a miss either
                # way and the deadline line replays identically to the
                # event-driven path.
                refreshing = issue >= r_next_ref
                r_bank.next_act_ps = r_next_act
                r_bank.next_col_ps = r_next_col
                r_bank._data_free_ps = r_dfree
                r_bank.next_pre_ps = r_next_pre
                r_bank.row_hits = r_hits
                r_rank.io_free_ps = r_io
                if refreshing and shared_rank and w_mode == 2:
                    # The settle blocks every bank on the rank; hand the
                    # write bank's progress down first so the block lands
                    # on current floors, and re-pull it after.
                    w_bank.next_act_ps = w_next_act
                    w_bank.next_col_ps = w_next_col
                    w_bank._data_free_ps = w_dfree
                    w_bank.next_pre_ps = w_next_pre
                de = r_rank.access(r_bank_index, r_row, issue, False,
                                   bus_free_ps=bus).data_end_ps
                bus = de
                r_io = r_rank.io_free_ps
                open_row_l = r_row
                r_next_act = r_bank.next_act_ps
                r_next_col = r_bank.next_col_ps
                r_dfree = r_bank._data_free_ps
                r_next_pre = r_bank.next_pre_ps
                r_act_floor = act_floor(acts_r)
                if shared_rank:
                    w_act_floor = r_act_floor
                rowm_v += 1
                if refreshing:
                    r_next_ref = (r_refresh.next_refresh_ps
                                  if r_refresh.enabled else BIG)
                    if w_mode == 2:
                        if shared_rank:
                            w_next_ref = r_next_ref
                            w_next_act = w_bank.next_act_ps
                            w_next_col = w_bank.next_col_ps
                            w_dfree = w_bank._data_free_ps
                            w_next_pre = w_bank.next_pre_ps
                            # The refresh closed the write row; the next
                            # drain must reopen it through the exact path.
                            w_open = False
                    else:
                        w_next_ref = r_next_ref
            floor = issue
            # IMCCounters.record(False, issue, de, hit, miss), deferred.
            reads_v += 1
            log_s(issue)
            log_e(de)
            # Stall + compute + prefetch window.
            if de > now:
                stall += de - now
                now = de
            now += cps[j]
            ft[idx] = now
            idx += 1
            if idx == depth:
                idx = 0
            out = outs[j]
            j += 1
            row_countdown -= 1
            if not out:
                continue
            backlog += out
            while backlog >= line_bytes:
                if len(pending) + 1 >= batch:
                    # The next post triggers a drain; pre-validate it so a
                    # refused drain can fall back before any state moves.
                    if w_mode == 0:
                        bail_posts = 1
                        break
                    wi = floor if floor > now else now
                    if w_mode == 1:
                        if (wi >= r_next_ref
                                or (pending[0] if pending else w_cursor)
                                < bank_start
                                or w_cursor + line_bytes
                                > bank_start + bank_bytes
                                or w_cursor % line_bytes):
                            bail_posts = 1
                            break
                    elif (wi >= w_next_ref
                            or (pending[0] if pending else w_cursor)
                            < w_span_lo
                            or w_cursor + line_bytes > w_span_hi):
                        bail_posts = 1
                        break
                backlog -= line_bytes
                pending.append(w_cursor)
                w_cursor += line_bytes
                lines_written += 1
                if len(pending) >= batch:
                    # _drain_writes: every pending write at arrival wi.
                    wi = floor if floor > now else now
                    if w_mode == 1:
                        # Drain bursts arrive together at wi and the queue
                        # is line-sequential, so each same-row run collapses
                        # to one batch_row_timing call: per-burst state
                        # (next_col, data_free, next_pre) is affine in the
                        # burst index.  Row crossings (the input/output
                        # ping-pong) replay one burst through the exact rank
                        # path first.
                        n_pend = len(pending)
                        pos = 0
                        while pos < n_pend:
                            w_addr = pending[pos]
                            w_row = (w_addr - bank_start) // row_bytes
                            run = (bank_start + (w_row + 1) * row_bytes
                                   - w_addr) // line_bytes
                            if run > n_pend - pos:
                                run = n_pend - pos
                            if open_row_l != w_row:
                                r_bank.next_act_ps = r_next_act
                                r_bank.next_col_ps = r_next_col
                                r_bank._data_free_ps = r_dfree
                                r_bank.next_pre_ps = r_next_pre
                                r_bank.row_hits = r_hits
                                r_rank.io_free_ps = r_io
                                de = r_rank.access(
                                    r_bank_index, w_row, wi, True,
                                    bus_free_ps=bus).data_end_ps
                                bus = de
                                r_io = r_rank.io_free_ps
                                open_row_l = w_row
                                r_next_act = r_bank.next_act_ps
                                r_next_col = r_bank.next_col_ps
                                r_dfree = r_bank._data_free_ps
                                r_next_pre = r_bank.next_pre_ps
                                r_act_floor = act_floor(acts_r)
                                rowm_v += 1
                                writes_v += 1
                                pos += 1
                                run -= 1
                                if not run:
                                    continue
                            if r_act_floor > r_next_act:
                                r_next_act = r_act_floor
                            _, cas_l, de = backend.batch_row_timing(
                                run, wi, r_next_col,
                                bus if bus > r_dfree else r_dfree,
                                CWL, BURST, TCCD)
                            r_dfree = de
                            r_next_col = cas_l + TCCD
                            npre = de + TWR
                            if npre > r_next_pre:
                                r_next_pre = npre
                            bus = de
                            r_io = de
                            r_hits += run
                            rowh_v += run
                            lane_count += run
                            writes_v += run
                            pos += run
                    else:
                        # Whole drain in one batch_row_timing call: every
                        # burst is a hit on the confirmed write row with the
                        # common arrival wi, so only the endpoints matter.
                        count = len(pending)
                        if not w_open:
                            # A refresh closed the write row since the last
                            # drain: reopen it through the exact rank path
                            # (PRE/ACT floors, ACT ring), then serve the
                            # remaining bursts closed-form as row hits.
                            w_bank.next_act_ps = w_next_act
                            w_bank.next_col_ps = w_next_col
                            w_bank._data_free_ps = w_dfree
                            w_bank.next_pre_ps = w_next_pre
                            w_bank.row_hits = w_hits
                            w_rank.io_free_ps = w_io
                            de_l = w_rank.access(
                                w_bank.index, w_row_tpl, wi, True,
                                bus_free_ps=bus).data_end_ps
                            bus = de_l
                            w_io = w_rank.io_free_ps
                            w_next_act = w_bank.next_act_ps
                            w_next_col = w_bank.next_col_ps
                            w_dfree = w_bank._data_free_ps
                            w_next_pre = w_bank.next_pre_ps
                            w_hits = w_bank.row_hits
                            w_act_floor = act_floor(acts_w)
                            if shared_rank:
                                r_act_floor = w_act_floor
                            rowm_v += 1
                            writes_v += 1
                            lane_count += 1
                            w_open = True
                            count -= 1
                        if count:
                            if w_act_floor > w_next_act:
                                w_next_act = w_act_floor
                            _, cas_l, de_l = backend.batch_row_timing(
                                count, wi, w_next_col,
                                bus if bus > w_dfree else w_dfree,
                                CWL, BURST, TCCD)
                            w_dfree = de_l
                            w_next_col = cas_l + TCCD
                            npre = de_l + TWR
                            if npre > w_next_pre:
                                w_next_pre = npre
                            bus = de_l
                            w_io = de_l
                            w_hits += count
                            lane_count += count
                            writes_v += count
                            rowh_v += count
                    # One log entry per drain: every burst arrives at wi and
                    # ends strictly after the one before (the bus now ends
                    # at the last), so marking (wi, de_0) .. (wi, de_last)
                    # equals marking (wi, de_last) alone.
                    w_at.append(len(acc_s))
                    log_s(wi)
                    log_e(bus)
                    pending.clear()
                    floor = wi
            if bail_posts:
                break

        # Write everything back.
        box[0] = now
        box[1] = floor
        box[2] = stall
        box[3] = backlog
        box[4] = lines_written
        box[5] = idx
        self._write_cursor = w_cursor
        if j > k:
            controller._last_arrival_ps = floor
        channel.bus_free_ps = bus
        r_bank.next_act_ps = r_next_act
        r_bank.next_col_ps = r_next_col
        r_bank._data_free_ps = r_dfree
        r_bank.next_pre_ps = r_next_pre
        r_bank.row_hits = r_hits
        if w_mode == 2:
            w_bank.next_act_ps = w_next_act
            w_bank.next_col_ps = w_next_col
            w_bank._data_free_ps = w_dfree
            w_bank.next_pre_ps = w_next_pre
            w_bank.row_hits = w_hits
            if shared_rank:
                # One rank, two access kinds: io_free is the data end of
                # whichever access ran last, i.e. the larger of the two.
                r_rank.io_free_ps = r_io if r_io > w_io else w_io
            else:
                r_rank.io_free_ps = r_io
                w_rank.io_free_ps = w_io
        else:
            r_rank.io_free_ps = r_io
        cnt.reads.value = reads_v
        cnt.writes.value = writes_v
        cnt.row_hits.value = rowh_v
        cnt.row_misses.value = rowm_v
        cnt.fold_stream_log(acc_s, acc_e, w_at)
        _FF_STATS.lane_requests += lane_count
        if bail_posts:
            # Finish the interrupted line's posting via the slow path with
            # fully written-back state (identical to the per-line flow).
            self.now_ps = now
            while backlog >= line_bytes:
                backlog -= line_bytes
                floor = self._post_write(self._write_cursor, floor)
                self._write_cursor += line_bytes
                lines_written += 1
            box[1] = floor
            box[3] = backlog
            box[4] = lines_written
        return j

    # -- random-access phase -----------------------------------------------------------

    def random_read_phase(self, addrs: np.ndarray,
                          cycles_per_access: float,
                          dependent: bool = True) -> PhaseStats:
        """Access ``addrs`` through the cache hierarchy with compute between.

        ``dependent=True`` (hash-probe pointer chasing) serialises each miss;
        ``dependent=False`` allows ``prefetch_depth``-way overlap, modelling
        independent probes the OoO window can parallelise.
        """
        addrs = np.asarray(addrs)
        if addrs.size == 0:
            return PhaseStats(self.now_ps, self.now_ps)
        if not 0 <= cycles_per_access < math.inf:
            raise ConfigError("cycles_per_access must be finite and "
                              "non-negative")
        start_ps = self.now_ps
        stats = PhaseStats(start_ps=start_ps, end_ps=start_ps)
        lead = 1 if dependent else max(self.prefetch_depth, 1)
        finish_times: deque[int] = deque([start_ps] * lead, maxlen=lead)
        issue_floor = start_ps
        compute_ps = self.clock.cycles_to_ps(cycles_per_access)
        hierarchy_access = self.hierarchy.access
        cycles_to_ps = self.clock.cycles_to_ps
        submit = self.controller.submit
        line_bytes = self.line_bytes
        for addr in addrs:
            addr = int(addr)
            result = hierarchy_access(addr)
            self.now_ps += cycles_to_ps(result.latency_cycles)
            if result.dram_access:
                issue_at = max(finish_times[0], issue_floor)
                issue_floor = issue_at
                line_addr = (addr // line_bytes) * line_bytes
                done = submit(
                    MemRequest(line_addr, line_bytes, False, issue_at,
                               Agent.CPU))
                stats.lines_read += 1
                if done.finish_ps > self.now_ps:
                    stats.stall_ps += done.finish_ps - self.now_ps
                    self.now_ps = done.finish_ps
            for wb_addr in result.writebacks:
                issue_floor = self._post_write(wb_addr, issue_floor)
                stats.lines_written += 1
            stats.compute_cycles += cycles_per_access
            self.now_ps += compute_ps
            finish_times.append(self.now_ps)
        self._drain_writes(issue_floor)
        stats.end_ps = self.now_ps
        return stats

    # -- pure compute phase ---------------------------------------------------------

    def compute_phase(self, cycles: float) -> PhaseStats:
        """Advance time by pure computation (no memory traffic)."""
        start = self.now_ps
        self.advance_cycles(cycles)
        return PhaseStats(start, self.now_ps, compute_cycles=cycles)
