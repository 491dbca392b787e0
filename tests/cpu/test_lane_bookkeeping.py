"""Stream-lane counter bookkeeping equals the per-access path.

The fused stream lane (``Core._stream_run_lane``) does not mark the IMC
busy trackers or the read-latency histogram as it serves each access: it
logs every access's ``[start, end)`` in stream order and folds the log once
at lane exit (``IMCCounters.fold_stream_log``).  Under ``exact_mode()``
every access instead goes through the controller and is marked in turn.
Each case runs the same stream phases both ways, under every compute
backend, and demands identical ``Machine.metrics.snapshot()`` output —
reads, writes, row hits and misses, all three busy trackers (busy time,
interval count, span, idle-gap count, total, min, max and buckets) and
``imc.read_latency_ps`` — both with the trackers' last interval still open
and after ``finish_counters()`` closes it.

Per-line compute costs vary and include long compute lines, so the
trackers see real idle gaps while the lane serves the bulk of the phase.
Each case runs two phases back to back, so the second phase's lanes fold
into trackers that already hold an open interval.  Write volumes include a
non-integral case, whose posted-write backlog accumulates in float.
"""

import numpy as np
import pytest

from repro import GEM5_PLATFORM, Machine
from repro.compute.numpy_backend import _SMALL_N
from repro.dram.counters import IMCCounters
from repro.sim import fastforward as ff
from repro.sim.fastforward import CONFIRM_PERIODS

LINE = 64


def _cycles(rng, nlines):
    return rng.choice([0.5, 2.0, 12.0, 40.0], size=nlines,
                      p=[0.4, 0.3, 0.2, 0.1])


def _outputs(rng, nlines, volumes=(0.0, 8.0, 64.0)):
    return rng.choice(volumes, size=nlines, p=[0.5, 0.3, 0.2])


def _write_free(core, bank_bytes, rng):
    for base in (0, 3000 * LINE):
        core.stream_read_phase(base, 3000 * LINE, _cycles(rng, 3000))


def _same_bank_output(core, bank_bytes, rng):
    # write_base defaults to just past the input: same bank (write mode 1).
    for base in (0, 4000 * LINE):
        core.stream_read_phase(base, 2000 * LINE, _cycles(rng, 2000),
                               write_bytes_per_line=_outputs(rng, 2000))


def _other_bank_output(core, bank_bytes, rng):
    # Output on bank 2 of the same rank: once the controller confirms the
    # write template, whole drains are served inside the lane (mode 2).
    for i in range(2):
        core.stream_read_phase(i * 4000 * LINE, 4000 * LINE,
                               _cycles(rng, 4000),
                               write_bytes_per_line=_outputs(rng, 4000),
                               write_base=2 * bank_bytes + i * 4000 * LINE)


def _drain_at_phase_end(core, bank_bytes, rng):
    # One output line per input line and a line count divisible by the
    # drain batch: the last line's post triggers a drain inside the lane,
    # so the phase ends on a write interval no later read covers.
    for base in (0, 4096 * LINE):
        core.stream_read_phase(base, 2048 * LINE, _cycles(rng, 2048),
                               write_bytes_per_line=64.0)


def _fractional_output(core, bank_bytes, rng):
    # Non-integral per-line volumes: the lane's float backlog crosses the
    # line size at fractional remainders, and a phase whose total is not a
    # line multiple ends on a partial line, posted after the lane returns.
    for i in range(2):
        core.stream_read_phase(i * 4000 * LINE, 4000 * LINE,
                               _cycles(rng, 4000),
                               write_bytes_per_line=_outputs(
                                   rng, 4000, (0.0, 2.5, 12.5)),
                               write_base=2 * bank_bytes + i * 4000 * LINE)


def _trefi_straddle(core, bank_bytes, rng):
    # ~20000 lines run far past tREFI (7.8 us) several times over.
    for base in (0, 10000 * LINE):
        core.stream_read_phase(base, 10000 * LINE, _cycles(rng, 10000),
                               write_bytes_per_line=_outputs(rng, 10000),
                               write_base=2 * bank_bytes + base)


CASES = {
    "write-free": _write_free,
    "same-bank-output": _same_bank_output,
    "drain-at-phase-end": _drain_at_phase_end,
    "other-bank-output": _other_bank_output,
    "fractional-output": _fractional_output,
    "trefi-straddle": _trefi_straddle,
}


def _run(phases, exact, monkeypatch):
    machine = Machine(GEM5_PLATFORM)
    rng = np.random.default_rng(2015)
    bank_bytes = machine.controller.geometry.bank_bytes
    fold_sizes = []
    fold = IMCCounters.fold_stream_log

    def counting_fold(self, starts, ends, write_at):
        fold_sizes.append(len(starts))
        fold(self, starts, ends, write_at)

    ff.STATS.reset()
    with monkeypatch.context() as patch:
        patch.setattr(IMCCounters, "fold_stream_log", counting_fold)
        if exact:
            with ff.exact_mode():
                phases(machine.core, bank_bytes, rng)
        else:
            phases(machine.core, bank_bytes, rng)
    lane = ff.STATS.snapshot()
    open_snap = machine.metrics.snapshot()
    machine.finish_counters()
    return machine, lane, fold_sizes, open_snap, machine.metrics.snapshot()


@pytest.mark.skipif(
    not ff.is_enabled(),
    reason="fast-forward disabled (REPRO_EXACT or SimSan forces exact mode)")
@pytest.mark.parametrize("case", sorted(CASES))
def test_lane_bookkeeping_matches_exact_mode(engine, case, monkeypatch):
    fast, lane, folds, fast_open, fast_closed = _run(
        CASES[case], exact=False, monkeypatch=monkeypatch)
    exact, exact_lane, _, exact_open, exact_closed = _run(
        CASES[case], exact=True, monkeypatch=monkeypatch)
    # The fast run must have folded long lane logs, or the comparison
    # proves nothing about the fold: at least one log reaches the numpy
    # backend's vectorisation threshold, so the vectorised fold ran, not
    # only the scalar fallback.
    assert lane["lane_requests"] > 0
    assert max(folds) >= _SMALL_N, folds
    assert exact_lane["lane_requests"] == 0
    assert fast_open == exact_open
    assert fast_closed == exact_closed
    assert fast_open["imc.read_latency_ps"]["count"] > 0
    assert fast_open["imc.any_queue"]["idle_gaps"]["count"] > 0
    if case != "write-free":
        assert fast_open["imc.writes"]["value"] > 0
        assert fast_open["imc.write_queue"]["intervals"] > 0
    if case == "other-bank-output":
        tpl = fast.controller._write_tpl
        assert tpl is not None and tpl.streak >= CONFIRM_PERIODS
    if case == "trefi-straddle":
        refreshes = [rank.refresh.refreshes_issued
                     for channel in fast.controller.channels
                     for rank in channel.all_ranks()]
        assert sum(refreshes) > 0
