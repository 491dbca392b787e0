"""The three benchmark workloads and the checks on their simulated outputs.

A workload is a list of :class:`Call` s of the public entry points of
:mod:`repro.analysis`; :func:`execute` runs them under the
:class:`SpeedSampler` and returns one :class:`Op` per operation (a Fig. 3
point or a TPC-H query).  :meth:`Workload.check` fails an operation when

* its payload digest differs from the reference recorded for the default
  seed (``reference.json``), or from the digest the same operation gave
  earlier in this process (determinism, any seed);
* a seed-independent property breaks: an independent NumPy count of the
  qualifying rows, CPU/JAFAR agreement, JAFAR time equal at every
  selectivity, per-query controller-profile sanity, or the paper-shape
  checks ``check_figure3_shape`` / ``check_figure4_shape``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

PAPER_SPEEDUP = {0.0: 5.0, 1.0: 9.0}   # Fig. 3 endpoints
PAPER_IDLE_CYCLES = 500.0              # Fig. 4 average idle period


@dataclass
class Op:
    """One operation of a workload run and its simulated payload."""

    name: str
    payload: object = None
    error: str | None = None


def digest(payload) -> str:
    """Stable hash of a simulated payload (dataclasses as sorted JSON)."""
    doc = dataclasses.asdict(payload) if dataclasses.is_dataclass(payload) else payload
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Call:
    """One call of a program entry point, giving one payload per op name."""

    ops: list[str]
    fn: Callable[[], list]


#: The speed probe: a fixed pure-Python loop, the time it is defined to
#: take, and how often it runs while the program runs.
PROBE_ITERATIONS = 50_000
PROBE_REFERENCE_S = 0.005
PROBE_PERIOD_S = 0.1


def speed_probe() -> tuple[float, float]:
    """``(start, seconds)`` this host takes, right now, for the probe loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i * i & 7
    return t0, time.perf_counter() - t0


class SpeedSampler:
    """Runs the speed probe every ``PROBE_PERIOD_S`` from a SIGALRM handler.

    The host's speed drifts by tens of percent for seconds at a time (other
    load on a shared machine); :meth:`adjusted` rescales each stretch of
    program time between two probes by how slow the host was then, so a
    time reads the same in a fast and a slow stretch.  Probe time itself is
    excluded.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(speed_probe())

    def __enter__(self) -> "SpeedSampler":
        self.samples = [speed_probe()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL if self._previous is None
                      else self._previous)
        self.samples.append(speed_probe())

    def adjusted(self, start: float, end: float) -> tuple[float, float]:
        """``(program seconds, reference seconds)`` inside ``[start, end]``."""
        work = adjusted = 0.0
        for (s0, d0), (s1, d1) in zip(self.samples, self.samples[1:]):
            stretch = min(s1, end) - max(s0 + d0, start)
            if stretch > 0:
                work += stretch
                adjusted += stretch * PROBE_REFERENCE_S / ((d0 + d1) / 2)
        return work, adjusted


@dataclass
class Run:
    """One run of a workload: its operations and its host time."""

    ops: list[Op]
    raw_s: float        # program seconds in the entry-point calls
    adjusted_s: float   # the same, rescaled to the probe's reference speed
    probes: list[float]


def execute(workload: "Workload", seed: int) -> Run:
    """Run every call of ``workload`` under the speed sampler.

    An exception fails every operation of its call; the run goes on with
    the next call.
    """
    ops: list[Op] = []
    spans: list[tuple[float, float]] = []
    with SpeedSampler() as sampler:
        for call in workload.calls(seed):
            t0 = time.perf_counter()
            try:
                payloads, error = list(call.fn()), None
            except Exception as exc:  # noqa: BLE001 - a failed op must not end the run
                payloads, error = [], f"{type(exc).__name__}: {exc}"
            spans.append((t0, time.perf_counter()))
            if error is None and len(payloads) != len(call.ops):
                error = f"{len(payloads)} results for {len(call.ops)} operations"
            if error is not None:
                payloads = [None] * len(call.ops)
            ops.extend(Op(name, payload, error)
                       for name, payload in zip(call.ops, payloads))
    raw = adjusted = 0.0
    for start, end in spans:
        work, scaled = sampler.adjusted(start, end)
        raw += work
        adjusted += scaled
    return Run(ops, raw, adjusted, [d for _, d in sampler.samples])


@dataclass
class Workload:
    """A named workload: set-up, one run, and the output checks."""

    name: str
    default_seed: int
    #: Digests by operation for ``default_seed`` (from ``reference.json``).
    reference: dict[str, str] = field(default_factory=dict)
    #: First digest seen per (seed, operation) in this process.
    _seen: dict = field(default_factory=dict, init=False, repr=False)

    def op_names(self) -> list[str]:
        raise NotImplementedError

    def setup(self, seed: int) -> dict[str, float]:
        raise NotImplementedError

    def calls(self, seed: int) -> list[Call]:
        """The entry-point calls that make up one run of the workload."""
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        """Build what the seed-independent checks need (not timed)."""

    def check(self, ops: list[Op], seed: int) -> dict[str, str]:
        """Failure reason by operation name; an empty dict means all passed."""
        failed = {op.name: op.error for op in ops if op.error}
        for op in ops:
            if op.name in failed:
                continue
            got = digest(op.payload)
            want = self.reference.get(op.name) if seed == self.default_seed else None
            if want is not None and got != want:
                failed[op.name] = f"digest {got} != reference {want}"
                continue
            first = self._seen.setdefault((seed, op.name), got)
            if got != first:
                failed[op.name] = f"digest {got} != earlier run {first}"
        good = [op for op in ops if op.name not in failed]
        for name, reason in self._properties(good, seed).items():
            failed.setdefault(name, reason)
        return failed

    def _properties(self, ops: list[Op], seed: int) -> dict[str, str]:
        raise NotImplementedError

    def paper_err_pct(self, ops: list[Op]) -> float | None:
        """Relative error (%) of the simulated headline against the paper,
        or None when the operations it needs failed."""
        raise NotImplementedError


@dataclass
class ScanWorkload(Workload):
    """Fig. 3 select scans on the GEM5 platform with the branchy kernel."""

    rows: int = 262_144
    selectivities: tuple[float, ...] = ()
    sweep: bool = True          # one run_figure3 call, else measure_point each
    #: ``(seed, column)`` for the independent NumPy count.
    _column: tuple | None = field(default=None, init=False, repr=False)

    def op_names(self) -> list[str]:
        return [f"s{s}" for s in self.selectivities]

    def setup(self, seed: int) -> dict[str, float]:
        from repro import GEM5_PLATFORM, Machine
        from repro.workloads import uniform_column

        t0 = time.perf_counter()
        values = uniform_column(self.rows, seed)
        t1 = time.perf_counter()
        machine = Machine(GEM5_PLATFORM)
        t2 = time.perf_counter()
        machine.alloc_array(values, dimm=0, pinned=True)
        machine.alloc_zeros(max(self.rows // 8, 1), dimm=0, pinned=True)
        t3 = time.perf_counter()
        return {"input_s": t1 - t0, "machine_s": t2 - t1, "placement_s": t3 - t2}

    def calls(self, seed: int) -> list[Call]:
        from repro import GEM5_PLATFORM
        from repro.analysis import measure_point, run_figure3

        if self.sweep:
            return [Call(self.op_names(), lambda: run_figure3(
                self.rows, self.selectivities, GEM5_PLATFORM, seed, "branchy"))]
        return [Call([name], lambda s=s: [measure_point(
                    s, self.rows, GEM5_PLATFORM, seed, "branchy")])
                for name, s in zip(self.op_names(), self.selectivities)]

    def prepare(self, seed: int) -> None:
        if self._column is None or self._column[0] != seed:
            from repro.workloads import uniform_column

            self._column = (seed, uniform_column(self.rows, seed))

    def _properties(self, ops: list[Op], seed: int) -> dict[str, str]:
        from repro.analysis import check_figure3_shape
        from repro.workloads import bounds_for_selectivity

        self.prepare(seed)
        values = self._column[1]
        failed: dict[str, str] = {}
        for op in ops:
            p = op.payload
            low, high = bounds_for_selectivity(p.selectivity)
            expected = int(np.count_nonzero((values >= low) & (values <= high)))
            if p.matches != expected:
                failed[op.name] = f"matches {p.matches} != numpy count {expected}"
            elif p.achieved_selectivity != p.matches / self.rows:
                failed[op.name] = "achieved selectivity disagrees with matches"
            elif p.cpu_ps <= 0 or p.jafar_ps <= 0:
                failed[op.name] = "non-positive simulated time"
        jafar = {op.payload.jafar_ps for op in ops}
        if len(jafar) > 1:
            for op in ops:
                failed.setdefault(op.name, f"JAFAR time varies with selectivity: {sorted(jafar)}")
        if len(ops) == len(self.selectivities) and len(ops) >= 2:
            shape = check_figure3_shape([op.payload for op in ops])
            bad = sorted(k for k, ok in shape.items() if not ok)
            if bad:
                for op in ops:
                    failed.setdefault(op.name, f"figure 3 shape: {bad}")
        return failed

    def paper_err_pct(self, ops: list[Op]) -> float | None:
        by_sel = {op.payload.selectivity: op.payload.speedup
                  for op in ops if op.payload is not None}
        errs = [abs(by_sel[s] / want - 1.0)
                for s, want in PAPER_SPEEDUP.items() if s in by_sel]
        return 100.0 * max(errs) if errs else None


@dataclass
class TpchWorkload(Workload):
    """Fig. 4 TPC-H idle-period profile on the XEON platform."""

    scale: float = 0.01
    queries: tuple[str, ...] = ("Q1", "Q3", "Q6", "Q18", "Q22")

    def op_names(self) -> list[str]:
        return list(self.queries)

    def setup(self, seed: int) -> dict[str, float]:
        from repro import XEON_PLATFORM, Machine
        from repro.columnstore import StorageManager
        from repro.tpch import generate

        t0 = time.perf_counter()
        data = generate(scale=self.scale, seed=seed)
        t1 = time.perf_counter()
        machine = Machine(XEON_PLATFORM)
        t2 = time.perf_counter()
        storage = StorageManager(machine, default_dimm=None)
        for table in data.tables():
            storage.load_table(table)
        t3 = time.perf_counter()
        return {"input_s": t1 - t0, "machine_s": t2 - t1, "placement_s": t3 - t2}

    def calls(self, seed: int) -> list[Call]:
        from repro.analysis import run_figure4

        return [Call(self.op_names(), lambda: run_figure4(
            scale=self.scale, seed=seed, queries=self.queries))]

    def _properties(self, ops: list[Op], seed: int) -> dict[str, str]:
        from repro.analysis import check_figure4_shape

        failed: dict[str, str] = {}
        for op in ops:
            prof = op.payload.profile
            if prof.reads + prof.writes <= 0:
                failed[op.name] = "no memory traffic"
            elif not 0.0 < prof.mean_idle_period_cycles < prof.total_cycles:
                failed[op.name] = f"idle period {prof.mean_idle_period_cycles} out of window"
            elif prof.rc_busy_cycles > prof.total_cycles:
                failed[op.name] = "read queue busier than the window"
        if len(ops) == len(self.queries):
            shape = check_figure4_shape([op.payload for op in ops])
            bad = sorted(k for k, ok in shape.items() if not ok)
            if bad:
                for op in ops:
                    failed.setdefault(op.name, f"figure 4 shape: {bad}")
        return failed

    def paper_err_pct(self, ops: list[Op]) -> float | None:
        idles = [op.payload.mean_idle_cycles for op in ops if op.payload is not None]
        if not idles:
            return None
        return 100.0 * abs(sum(idles) / len(idles) / PAPER_IDLE_CYCLES - 1.0)


FIG3_SELECTIVITIES = tuple(round(0.1 * i, 1) for i in range(11))


def make_workloads(reference: dict | None = None) -> dict[str, Workload]:
    """The benchmark's workloads by name, with their reference digests."""
    reference = reference or {}
    workloads = [
        ScanWorkload("fig3-sweep", 42, rows=262_144,
                     selectivities=FIG3_SELECTIVITIES, sweep=True),
        ScanWorkload("scan-4m", 42, rows=4_000_000, selectivities=(0.0, 1.0),
                     sweep=False),
        TpchWorkload("tpch-fig4", 1, scale=0.01),
    ]
    for w in workloads:
        entry = reference.get(w.name, {})
        if entry.get("seed") == w.default_seed:
            w.reference = dict(entry.get("ops", {}))
    return {w.name: w for w in workloads}
