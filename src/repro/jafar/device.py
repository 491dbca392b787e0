"""The JAFAR device: the on-DIMM filtering engine (§2.2, Figure 1(b)).

Operation: the host programs the control registers and writes CTRL_START;
the device then requests bursts from its DIMM's ranks exactly as a memory
controller would — but the data never leaves the module.  It taps the
8n-prefetch IO buffer, consuming one 64-bit word per JAFAR cycle (the JAFAR
clock is twice the data-bus clock, so ingest keeps pace with the dual-pumped
beat stream).  Filter outcomes accumulate in the n-bit output buffer, whose
full contents are written back to DRAM at a pre-programmed location without
delaying the filter — which is why JAFAR's execution time is independent of
selectivity (§3.2).

Timing falls out of the shared :class:`~repro.dram.Rank` state machines, so
JAFAR and host traffic naturally interfere when they touch the same rank —
the effect §3.3 quantifies.  Output-buffer writebacks are posted into a
small on-device FIFO and drained when the read stream crosses a DRAM row
boundary (where a PRE/ACT gap exists anyway), honouring the paper's
no-stall claim while still charging every write burst to the rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel import JAFAR_RESOURCES, jafar_filter_body, pipeline_analysis
from ..compute import get_backend
from ..config import JafarCostModel
from ..dram import Agent, AddressMapping, DDR3Timings
from ..dram.dimm import DIMM
from ..errors import JafarBusyError, JafarProgrammingError
from ..mem import PhysicalMemory
from ..obs.tracer import TRACE as _TRACE
from ..sim.clock import ClockDomain
from ..sim.fastforward import FF as _FF
from .alu import ComparatorPair
from .bitmask import pack_mask
from .registers import CTRL_START, Reg, RegisterFile, Status

WORD_BYTES = 8


@dataclass
class JafarRunResult:
    """Timing and traffic summary of one JAFAR invocation."""

    start_ps: int
    end_ps: int
    words_processed: int
    matches: int
    bursts_read: int
    writeback_bursts: int
    bursts_skipped: int = 0  # bursts owned by a sibling DIMM (interleaving)

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


@dataclass
class DeviceStats:
    invocations: int = 0
    words_processed: int = 0
    bursts_read: int = 0
    writeback_bursts: int = 0
    busy_ps: int = 0
    row_boundaries_crossed: int = 0
    extra: dict[str, int] = field(default_factory=dict)


def modeled_words_per_cycle(resources: dict[str, int] | None = None) -> float:
    """Filter throughput derived from the Aladdin-style schedule.

    With the default datapath (two comparator ALUs) the loop body pipelines
    at II = 1 — one word per JAFAR cycle, the §2.2 design point.
    """
    bounds = pipeline_analysis(jafar_filter_body(), resources or JAFAR_RESOURCES)
    return bounds.words_per_cycle


class JafarDevice:
    """One JAFAR unit, mounted on one DIMM."""

    def __init__(self, timings: DDR3Timings, mapping: AddressMapping,
                 channel_index: int, dimm: DIMM, memory: PhysicalMemory,
                 cost: JafarCostModel | None = None) -> None:
        self.timings = timings
        self.mapping = mapping
        self.channel_index = channel_index
        self.dimm = dimm
        self.memory = memory
        self.cost = cost or JafarCostModel()
        self.clock: ClockDomain = timings.jafar_clock()
        self.registers = RegisterFile()
        self.stats = DeviceStats()
        self._pipeline_depth = pipeline_analysis(jafar_filter_body(),
                                                 JAFAR_RESOURCES).depth_cycles
        dimm.accelerator = self

    # -- host-facing MMIO -----------------------------------------------------------

    def mmio_write(self, reg: Reg, value: int) -> None:
        self.registers.write(reg, value)

    def mmio_read(self, reg: Reg) -> int:
        return self.registers.read(reg)

    def start(self, start_ps: int) -> JafarRunResult:
        """CTRL_START semantics: validate and run the programmed operation.

        The transaction-level model executes the whole operation eagerly and
        returns its timing; the driver converts that into the polled-status
        protocol the CPU sees.
        """
        if self.registers.status is Status.RUNNING:
            raise JafarBusyError("JAFAR started while an operation is running")
        self.registers.write(Reg.CTRL, CTRL_START)
        try:
            self.registers.validate_programmed()
        except JafarProgrammingError:
            self.registers.set_status(Status.ERROR)
            raise
        self.registers.set_status(Status.RUNNING)
        result = self._execute(start_ps)
        self.registers.set_matches(result.matches)
        self.registers.set_status(Status.DONE)
        return result

    # -- the filter engine ------------------------------------------------------------

    def _execute(self, start_ps: int) -> JafarRunResult:
        regs = self.registers
        col_addr = regs.read(Reg.COL_ADDR)
        out_addr = regs.read(Reg.OUT_ADDR)
        num_rows = regs.read(Reg.NUM_ROWS)
        comparator = ComparatorPair(regs.read(Reg.RANGE_LOW),
                                    regs.read(Reg.RANGE_HIGH))

        words = self.memory.view_words(col_addr, num_rows, dtype=np.int64)
        burst_bytes = self.timings.burst_bytes
        words_per_burst = burst_bytes // WORD_BYTES
        total_bytes = num_rows * WORD_BYTES
        first_burst = (col_addr // burst_bytes) * burst_bytes
        last_burst = ((col_addr + total_bytes - 1) // burst_bytes) * burst_bytes

        # Functional result, computed once (bit-exact with per-word ALU ops).
        mask = comparator.compare_block(words)

        word_period = self.clock.period_ps / self.cost.words_per_cycle
        buffer_bits = self.cost.output_buffer_bits

        cursor = start_ps
        alu_ready = 0
        bursts_read = 0
        bursts_skipped = 0
        writeback_bursts = 0
        results_done = 0        # words whose outcome has been produced
        writebacks_owed = 0     # full buffer flushes not yet written to DRAM
        out_cursor = out_addr
        owned = np.zeros(num_rows, dtype=bool)
        # Identity of the currently-open row as three scalars; -1 = no row
        # open yet.  A (rank, bank, row) tuple here would be a per-burst
        # allocation in the hottest loop of the device.
        cur_rank = cur_bank = cur_row = -1
        last_proc_done = start_ps
        owned_any = False

        decode = self.mapping.decode
        ranks = self.dimm.ranks
        dimm_index = self.dimm.index
        channel_index = self.channel_index
        stats = self.stats

        tracer = _TRACE.tracer if _TRACE.on else None
        if tracer is not None:
            trace_track = tracer.track_of(self, "jafar")
            tracer.begin("jafar.run", trace_track, start_ps, rows=num_rows)

        # Fused row executor (see _fused_row_run): after the first burst of
        # a row, the remaining interior bursts are consecutive row hits with
        # no drains in between — serviced in a tight local loop when the
        # mapping keeps the row's bytes contiguous.
        geometry = self.mapping.geometry
        fused_gate = (_FF.on and geometry.bank_rotate_bytes == 0
                      and (geometry.channels == 1
                           or geometry.interleave_bytes == 0))
        row_bytes = geometry.row_bytes
        interior_end = col_addr + total_bytes
        wp_full = words_per_burst * word_period

        addr = first_burst
        while addr <= last_burst:
            loc = decode(addr)
            if loc.channel != channel_index or loc.dimm != dimm_index:
                # Interleaved layout: this chunk belongs to a sibling DIMM's
                # JAFAR; skip it but keep the result-bit accounting aligned.
                bursts_skipped += 1
                results_done = self._advance_results(
                    addr, col_addr, words_per_burst, num_rows, results_done)
                addr += burst_bytes
                continue
            owned_any = True
            lo_word = max(0, (addr - col_addr) // WORD_BYTES)
            hi_word = min(num_rows,
                          (addr + burst_bytes - col_addr) // WORD_BYTES)
            owned[lo_word:hi_word] = True
            rank = ranks[loc.rank]
            if cur_rank >= 0 and (loc.rank != cur_rank or loc.bank != cur_bank
                                  or loc.row != cur_row):
                # Natural PRE/ACT gap: drain owed writebacks here.
                stats.row_boundaries_crossed += 1
                drain_start = cursor
                drained = writebacks_owed
                while writebacks_owed > 0:
                    cursor, out_cursor = self._write_back(out_cursor, cursor)
                    writebacks_owed -= 1
                    writeback_bursts += 1
                if tracer is not None and drained:
                    tracer.complete("jafar.drain", trace_track, drain_start,
                                    cursor - drain_start, bursts=drained)
            cur_rank, cur_bank, cur_row = loc.rank, loc.bank, loc.row

            timing = rank.access(loc.bank, loc.row, cursor, is_write=False,
                                 agent=Agent.JAFAR, bus_free_ps=alu_ready)
            bursts_read += 1
            words_here = self._words_in_burst(addr, col_addr, words_per_burst,
                                              num_rows, results_done)
            # words_here <= words_per_burst (single digits) at a ~1e3 ps word
            # period: the float sum stays far below 2**53, so round() is exact.
            proc_done = round(  # analyze: ignore[float-exactness] audited above
                timing.data_start_ps + words_here * word_period)
            proc_done = max(proc_done, timing.data_end_ps)
            alu_ready = proc_done
            cursor = timing.cas_ps  # next command no earlier than this CAS
            last_proc_done = proc_done

            before = results_done // buffer_bits
            results_done += words_here
            writebacks_owed += results_done // buffer_bits - before
            addr += burst_bytes

            if (fused_gate and rank.trace is None and addr >= col_addr
                    and addr <= last_burst):
                # Fuse the rest of this row: interior bursts only, stopping
                # at the row boundary, the column end, and the stream end.
                end = addr - addr % row_bytes + row_bytes
                if interior_end < end:
                    end = interior_end
                stop = last_burst + burst_bytes
                if stop < end:
                    end = stop
                n = (end - addr) // burst_bytes
                if n >= 4:
                    d0 = decode(addr)
                    dn = decode(addr + (n - 1) * burst_bytes)
                    if (d0.channel == channel_index
                            and d0.dimm == dimm_index
                            and dn.channel == channel_index
                            and dn.dimm == dimm_index
                            and d0.rank == loc.rank and dn.rank == loc.rank
                            and d0.bank == loc.bank and dn.bank == loc.bank
                            and d0.row == loc.row and dn.row == loc.row
                            and rank.banks[loc.bank].open_row == loc.row):
                        fused_start = cursor
                        done, cursor, alu_ready = self._fused_row_run(
                            rank, rank.banks[loc.bank], n, cursor,
                            alu_ready, wp_full)
                        if tracer is not None and done:
                            tracer.complete("jafar.fused_row", trace_track,
                                            fused_start,
                                            alu_ready - fused_start,
                                            ff=True, bursts=done)
                            tracer.timeline.synth(
                                trace_track, "jafar", fused_start,
                                alu_ready - fused_start,
                                done * rank._t.burst_ps, reads=done)
                        if done:
                            last_proc_done = alu_ready
                            bursts_read += done
                            nwords = done * words_per_burst
                            lo_word = (addr - col_addr) // WORD_BYTES
                            owned[lo_word:lo_word + nwords] = True
                            before = results_done // buffer_bits
                            results_done += nwords
                            writebacks_owed += (results_done // buffer_bits
                                                - before)
                            addr += done * burst_bytes

        if not owned_any:
            raise JafarProgrammingError(
                "no burst of the programmed column resides on this DIMM"
            )

        # Tail: flush remaining full buffers plus the partial one.
        cursor = max(cursor, last_proc_done)
        pending_tail = 1 if results_done % buffer_bits else 0
        tail_start = cursor
        tail_count = writebacks_owed + pending_tail
        for _ in range(tail_count):
            cursor, out_cursor = self._write_back(out_cursor, cursor)
            writeback_bursts += 1
        if tracer is not None and tail_count:
            tracer.complete("jafar.drain", trace_track, tail_start,
                            cursor - tail_start, bursts=tail_count, tail=True)

        # Drain the pipeline (a handful of JAFAR cycles).
        end_ps = max(last_proc_done, cursor) + self.clock.cycles_to_ps(
            self._pipeline_depth)

        # Functional writeback: overwrite ONLY the bits for rows this device
        # operated on (§2.2, Handling Data Interleaving) — sibling DIMMs'
        # JAFARs own the other bits.
        from .bitmask import unpack_mask
        backend = get_backend()
        nbytes = -(-num_rows // 8)
        current = unpack_mask(self.memory.read(out_addr, nbytes), num_rows)
        backend.merge_masked(current, owned, mask)
        self.memory.write(out_addr, pack_mask(current))

        matches = backend.popcount(mask)
        if tracer is not None:
            tracer.end(end_ps, bursts_read=bursts_read,
                       writeback_bursts=writeback_bursts, matches=matches)
        self.stats.invocations += 1
        self.stats.words_processed += num_rows
        self.stats.bursts_read += bursts_read
        self.stats.writeback_bursts += writeback_bursts
        self.stats.busy_ps += end_ps - start_ps
        return JafarRunResult(start_ps, end_ps, num_rows, matches,
                              bursts_read, writeback_bursts, bursts_skipped)

    def _fused_row_run(self, rank, bank, n: int, cursor: int,
                       alu_ready: int, wp_full: float
                       ) -> tuple[int, int, int]:
        """Service up to ``n`` consecutive row-hit bursts in Python locals.

        The caller guarantees every burst lands in ``bank``'s open row and
        carries a full burst of column words, so each iteration is exactly
        the :meth:`Rank.access` row-hit branch plus the ALU bookkeeping of
        the per-burst loop — replayed on localized state, bit for bit, by
        the active compute backend's ``fused_hit_run`` kernel.  Exits early
        at the rank's refresh deadline (the arrival check that gates the
        hit branch); the caller's loop resumes there exactly.  Returns
        ``(bursts_done, cursor, alu_ready)``.
        """
        t = rank._t
        CL = t.cl_ps
        BURST = t.burst_ps
        TCCD = t.tccd_ps
        TRTP = t.trtp_ps
        refresh = rank.refresh
        next_ref = refresh.next_refresh_ps if refresh.enabled else 1 << 62
        acts = rank._act_times
        if acts:
            # Constant during a hit run (the ring only changes at ACTs) and
            # next_act_ps is monotone, so one application equals one per
            # burst.
            floor = acts[-1] + t.trrd_ps
            if len(acts) == acts.maxlen:
                faw = acts[0] + t.tfaw_ps
                if faw > floor:
                    floor = faw
            if floor > bank.next_act_ps:
                bank.next_act_ps = floor
        done, cursor, alu_ready, io, b_col, b_dfree, b_pre = (
            get_backend().fused_hit_run(
                n, cursor, alu_ready, rank.io_free_ps, bank.next_col_ps,
                bank._data_free_ps, bank.next_pre_ps, next_ref,
                CL, BURST, TCCD, TRTP, wp_full))
        bank.next_col_ps = b_col
        bank._data_free_ps = b_dfree
        bank.next_pre_ps = b_pre
        bank.row_hits += done
        rank.io_free_ps = io
        return done, cursor, alu_ready

    def _words_in_burst(self, burst_addr: int, col_addr: int,
                        words_per_burst: int, num_rows: int,
                        results_done: int) -> int:
        """How many column words of this burst are real rows (edge bursts
        may be partially outside the column)."""
        start = max(burst_addr, col_addr)
        end = min(burst_addr + words_per_burst * WORD_BYTES,
                  col_addr + num_rows * WORD_BYTES)
        return max(0, (end - start) // WORD_BYTES)

    def _advance_results(self, burst_addr: int, col_addr: int,
                         words_per_burst: int, num_rows: int,
                         results_done: int) -> int:
        return results_done + self._words_in_burst(
            burst_addr, col_addr, words_per_burst, num_rows, results_done)

    def _write_back(self, out_cursor: int, cursor: int) -> tuple[int, int]:
        """One output-buffer flush: ``buffer_bits/8`` bytes of bitmask.

        JAFAR writes through its own module interface.  When the programmed
        output chunk resides on a sibling DIMM (interleaved layouts scatter
        the bitset), the device stages the partial bitset in a local scratch
        row instead; the host later merges partial bitsets, overwriting only
        the bits each unit operated on (§2.2; realised CPU-side via
        :func:`repro.mem.layout.merge_partial_bitmasks`).
        """
        flush_bytes = self.cost.output_buffer_bits // 8
        burst_bytes = self.timings.burst_bytes
        bursts = -(-flush_bytes // burst_bytes)
        for _ in range(bursts):
            loc = self.mapping.decode(out_cursor)
            if loc.channel != self.channel_index or loc.dimm != self.dimm.index:
                loc = self._staging_location()
            target_rank = self.dimm.ranks[loc.rank]
            timing = target_rank.access(loc.bank, loc.row, cursor,
                                        is_write=True, agent=Agent.JAFAR)
            cursor = timing.data_end_ps
            out_cursor += min(burst_bytes, flush_bytes)
            flush_bytes -= burst_bytes
        return cursor, out_cursor

    def _staging_location(self):
        """A scratch column in the last row of this DIMM's last bank."""
        from ..dram.geometry import Location

        geometry = self.mapping.geometry
        self._staging_col = (getattr(self, "_staging_col", -1) + 1) % (
            geometry.columns_per_row(self.timings.burst_bytes))
        return Location(self.channel_index, self.dimm.index, 0,
                        geometry.banks_per_rank - 1,
                        geometry.rows_per_bank - 1, self._staging_col, 0)
