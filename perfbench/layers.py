"""Which entry points each layer owns, and the per-layer metrics they give.

Every target is looked up defensively: a module, class or function that no
longer exists makes its layer *missing*, and a missing layer's metrics are
left out of the report (absent), never reported as 0 and never a failure.
That lets layers such as epoch skipping or a compute backend be deleted
without touching this benchmark.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from .spans import Patcher, SpanRecorder, marked, self_times

PACKAGE = "repro"
LINE_BYTES = 64


def _selectivity_label(args, kwargs) -> str:
    return f"s{args[0] if args else kwargs['selectivity']}"


def _stream_lines(args, kwargs) -> int:
    # Core.stream_read_phase(self, base_addr, nbytes, ...)
    nbytes = args[2] if len(args) > 2 else kwargs["nbytes"]
    return -(-int(nbytes) // LINE_BYTES)


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module:Class.method`` or ``module:function``."""

    span: str
    target: str
    label: object = None
    work: object = None


_COLUMNSTORE_OPS = (
    "scan:select", "scan:select_cpu", "scan:select_jafar", "scan:expand_bitset",
    "project:fetch", "aggregate:scalar_aggregate", "aggregate:group_by",
    "join:hash_join", "join:semi_join_mask", "sort:sort_by", "sort:top_n",
)

LAYERS: tuple[Layer, ...] = (
    Layer("analysis.point", "repro.analysis.speedup:measure_point",
          label=_selectivity_label),
    Layer("system.profile", "repro.system.profiler:profile_controller"),
    Layer("system.profile", "repro.system.profiler:utilisation_summary"),
    Layer("cpu.select", "repro.cpu.kernels:branchy_select"),
    Layer("cpu.select", "repro.cpu.kernels:predicated_select"),
    Layer("cpu.stream", "repro.cpu.core:Core.stream_read_phase",
          work=_stream_lines),
    Layer("cpu.random", "repro.cpu.core:Core.random_read_phase"),
    Layer("jafar.select", "repro.jafar.driver:JafarDriver.select_column"),
    Layer("jafar.select", "repro.jafar.driver:JafarDriver.select_page"),
    Layer("dram.submit", "repro.dram.controller:MemoryController.submit"),
    Layer("system.machine", "repro.system.machine:Machine.__init__"),
    Layer("mem.alloc", "repro.system.machine:Machine.alloc_array"),
    Layer("mem.alloc", "repro.system.machine:Machine.alloc_zeros"),
    Layer("workloads.gen", "repro.workloads.generators:uniform_column"),
    Layer("tpch.generate", "repro.tpch.datagen:generate"),
    Layer("columnstore.load", "repro.columnstore.storage:StorageManager.load_table"),
    Layer("columnstore", "repro.columnstore.executor:QueryExecutor.execute"),
) + tuple(Layer("columnstore", f"repro.columnstore.operators.{op}")
          for op in _COLUMNSTORE_OPS)

#: Span name -> self-time metric.  Spans not listed report inclusive time
#: per label (``analysis.point.s0.5`` -> ``analysis.point_s.s0.5``).
SELF_METRICS = {
    "cpu.select": "cpu.select_s",
    "cpu.stream": "cpu.stream_s",
    "cpu.random": "cpu.random_s",
    "jafar.select": "jafar.select_s",
    "dram.submit": "dram.submit_s",
    "compute": "compute.self_s",
    "columnstore": "columnstore.self_s",
    "columnstore.load": "columnstore.load_s",
    "workloads.gen": "workloads.gen_s",
    "system.machine": "system.machine_s",
    "system.profile": "system.profile_s",
    "mem.alloc": "mem.alloc_s",
    "tpch.generate": "tpch.generate_s",
}
INCLUSIVE_METRICS = {"analysis.point": "analysis.point_s",
                     "tpch.query": "tpch.query_s"}
#: Layers whose self times add up to ``inputs.gen_s``: whatever builds the
#: workload's inputs, so the metric is defined on every workload.
INPUT_LAYERS = ("workloads.gen", "tpch.generate", "columnstore.load")

#: Every per-layer metric the traced run can report; the run prints each one
#: or names it absent.  The ``per_layer`` section of ``BENCHMARK.json`` is
#: the subset that every workload reports, and only it enters the result
#: line.
CATALOGUE: tuple[str, ...] = (
    "cpu.select_s", "cpu.stream_s", "cpu.random_s", "cpu.ns_per_req",
    "compute.calls", "compute.self_s", "jafar.select_s", "jafar.ns_per_burst",
    "dram.submit_s", "dram.submit_calls", "columnstore.self_s",
    "sim.lane_requests", "sim.batched_frac", "sim.ff_skipped_events",
    "sim.ff_skip_yield", "dram.transactions",
    "cache.accesses", "cache.hit_ratio.L1", "cache.hit_ratio.L2",
    "cache.hit_ratio.L3",
    "tpch.query_s.Q1", "tpch.query_s.Q3", "tpch.query_s.Q6",
    "tpch.query_s.Q18", "tpch.query_s.Q22",
    "inputs.gen_s", "workloads.gen_s", "tpch.generate_s", "columnstore.load_s",
    "system.machine_s", "mem.alloc_s", "system.profile_s",
) + tuple(f"analysis.point_s.s{i / 10}" for i in range(11)) + (
    "dram.reads", "dram.writes", "dram.row_hit_ratio", "jafar.bursts_read",
    "jafar.writeback_bursts", "paper_err_pct", "obs.trace_overhead_pct",
    "bench.span_overhead_pct", "bench.wall_raw_s", "bench.speed_probe_ms",
)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms"):
        return "ms"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(("_ratio", "_frac", "_yield")) or ".hit_ratio." in name:
        return "fraction"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def _resolve(target: str):
    """``(owner, attr, is_method)`` for a target, or None when it is gone."""
    module_name, _, path = target.rpartition(":")
    if not module_name:
        module_name, _, path = target.rpartition(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if getattr(owner, attr, None) is None:
        return None
    return owner, attr, isinstance(owner, type)


def optional(module_name: str, attr: str):
    """``module.attr`` if both exist, else None."""
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        return None


#: Where the epoch-skip / lane counters live, and the ones read.
FF_STATS = ("repro.sim.fastforward", "STATS")
_FF_FIELDS = ("skipped_events", "skips", "refused", "lane_requests",
              "batched_requests")


def ff_stats() -> dict | None:
    """Epoch-skip / lane counters so far, or None when that layer is gone."""
    stats = optional(*FF_STATS)
    if stats is None:
        return None
    return {n: getattr(stats, n) for n in _FF_FIELDS if hasattr(stats, n)}


def ff_delta(before: dict | None, after: dict | None) -> dict | None:
    """The counters' growth between two :func:`ff_stats` readings."""
    if before is None or after is None:
        return None
    return {n: after[n] - before[n] for n in after if n in before}


def _install(patcher: Patcher, owner, attr: str, is_method: bool, make) -> bool:
    if is_method:
        return patcher.wrap_method(owner, attr, make)
    return patcher.wrap_function(owner, attr, make, PACKAGE)


class Harvester:
    """Reads every Machine's simulated counts as each operation finishes.

    Wraps ``Machine.__init__`` to learn of machines, and the per-operation
    entry points to read and drop them when the operation returns, so no
    machine outlives its operation by more than the read.
    """

    OP_TARGETS = ("repro.analysis.speedup:measure_point",
                  "repro.analysis.idle:run_query_profile")

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._pending: list = []

    def install(self, patcher: Patcher) -> None:
        resolved = _resolve("repro.system.machine:Machine.__init__")
        if resolved is None:
            return
        pending = self._pending

        def make_init(fn):
            def __init__(machine, *args, **kwargs):
                fn(machine, *args, **kwargs)
                pending.append(machine)
            return __init__

        _install(patcher, *resolved, lambda fn: marked(make_init(fn), fn))
        for target in self.OP_TARGETS:
            resolved = _resolve(target)
            if resolved is not None:
                _install(patcher, *resolved,
                         lambda fn: marked(self._after(fn), fn))

    def _after(self, fn):
        def op(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.harvest()
        return op

    def harvest(self) -> None:
        """Add the pending machines' counts and forget the machines."""
        while self._pending:
            for name, value in machine_counts(self._pending.pop()).items():
                self.counts[name] = self.counts.get(name, 0) + value


_COUNTERS = {"imc.reads": "dram.reads", "imc.writes": "dram.writes",
             "imc.row_hits": "dram.row_hits", "imc.row_misses": "dram.row_misses",
             "jafar.bursts_read": "jafar.bursts_read",
             "jafar.writeback_bursts": "jafar.writeback_bursts"}


def machine_counts(machine) -> dict[str, int]:
    """Simulated counts of one machine: IMC, JAFAR and cache levels."""
    out: dict[str, int] = {}
    metrics = getattr(machine, "metrics", None)
    snapshot = metrics.snapshot() if metrics is not None else {}
    for source, name in _COUNTERS.items():
        value = snapshot.get(source, {}).get("value")
        if value is not None:
            out[name] = int(value)
    levels = getattr(getattr(machine, "hierarchy", None), "levels", None) or ()
    for level in levels:
        if hasattr(level, "hits") and hasattr(level, "misses"):
            out[f"cache.{level.name}.hits"] = int(level.hits)
            out[f"cache.{level.name}.misses"] = int(level.misses)
    first = f"cache.{levels[0].name}" if levels else None
    if first is not None and f"{first}.hits" in out:
        out["cache.accesses"] = out[f"{first}.hits"] + out[f"{first}.misses"]
    return out


def simulated_requests(counts: dict[str, int]) -> int | None:
    """IMC reads + writes + JAFAR bursts read and written back."""
    parts = ("dram.reads", "dram.writes", "jafar.bursts_read",
             "jafar.writeback_bursts")
    if not all(p in counts for p in parts):
        return None
    return sum(counts[p] for p in parts)


def install_spans(patcher: Patcher, recorder: SpanRecorder) -> set[str]:
    """Wrap every layer entry point that exists; return the live span names."""
    live: set[str] = set()
    for layer in LAYERS:
        resolved = _resolve(layer.target)
        if resolved and _install(patcher, *resolved, lambda fn, la=layer:
                                 recorder.wrap(la.span, fn, la.label, la.work)):
            live.add(layer.span)
    queries = optional("repro.tpch.queries", "PROFILED_QUERIES") or {}
    for qname, module in queries.items():
        if patcher.wrap_function(module, "run", lambda fn, q=qname:
                                 recorder.wrap(f"tpch.query.{q}", fn), PACKAGE):
            live.add("tpch.query")
    get_backend = optional("repro.compute", "get_backend")
    if get_backend is not None:
        cls = type(get_backend())
        for attr in sorted(dir(cls)):
            if not attr.startswith("_") and patcher.wrap_method(
                    cls, attr, lambda fn: recorder.wrap("compute", fn)):
                live.add("compute")
    return live


def _ratio(num, den):
    return None if num is None or not den else num / den


def layer_metrics(spans, live: set[str], counts: dict[str, int],
                  ff: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced run; undefined ones are left out."""
    out: dict[str, float] = {}
    own = self_times(spans)
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for span, s_ns in zip(spans, own):
        base = span.name
        for prefix in INCLUSIVE_METRICS:
            if base.startswith(prefix + "."):
                metric = INCLUSIVE_METRICS[prefix] + base[len(prefix):]
                out[metric] = out.get(metric, 0.0) + span.duration_ns / 1e9
                base = prefix
                break
        self_ns[base] = self_ns.get(base, 0) + s_ns
        total_ns[base] = total_ns.get(base, 0) + span.duration_ns
        calls[base] = calls.get(base, 0) + 1
        work[base] = work.get(base, 0) + span.work
    for span_name, metric in SELF_METRICS.items():
        if span_name in live:
            out[metric] = self_ns.get(span_name, 0) / 1e9
    if live.intersection(INPUT_LAYERS):
        out["inputs.gen_s"] = sum(self_ns.get(s, 0) for s in INPUT_LAYERS) / 1e9
    if "compute" in live:
        out["compute.calls"] = calls.get("compute", 0)
    if "dram.submit" in live:
        out["dram.submit_calls"] = calls.get("dram.submit", 0)
    if "cpu.stream" in live and work.get("cpu.stream"):
        out["cpu.ns_per_req"] = total_ns.get("cpu.stream", 0) / work["cpu.stream"]

    for name in ("dram.reads", "dram.writes", "jafar.bursts_read",
                 "jafar.writeback_bursts"):
        if name in counts:
            out[name] = counts[name]
    transactions = simulated_requests(counts)
    if transactions is not None:
        out["dram.transactions"] = transactions
    if "dram.row_hits" in counts and "dram.row_misses" in counts:
        ratio = _ratio(counts["dram.row_hits"],
                       counts["dram.row_hits"] + counts["dram.row_misses"])
        if ratio is not None:
            out["dram.row_hit_ratio"] = ratio
    bursts = None
    if "jafar.bursts_read" in counts and "jafar.writeback_bursts" in counts:
        bursts = counts["jafar.bursts_read"] + counts["jafar.writeback_bursts"]
    if "jafar.select" in live:
        value = _ratio(total_ns.get("jafar.select", 0), bursts)
        if value is not None:
            out["jafar.ns_per_burst"] = value
    if "cache.accesses" in counts:
        out["cache.accesses"] = counts["cache.accesses"]
    for key in sorted(counts):
        if key.startswith("cache.") and key.endswith(".hits"):
            level = key[len("cache."):-len(".hits")]
            ratio = _ratio(counts[key],
                           counts[key] + counts.get(f"cache.{level}.misses", 0))
            if ratio is not None:
                out[f"cache.hit_ratio.{level}"] = ratio

    if ff is not None:
        if "skipped_events" in ff:
            out["sim.ff_skipped_events"] = ff["skipped_events"]
        if "skips" in ff and "refused" in ff:
            value = _ratio(ff["skips"], ff["skips"] + ff["refused"])
            if value is not None:
                out["sim.ff_skip_yield"] = value
        if "lane_requests" in ff:
            out["sim.lane_requests"] = ff["lane_requests"]
            if "batched_requests" in ff:
                value = _ratio(ff["batched_requests"], ff["lane_requests"])
                if value is not None:
                    out["sim.batched_frac"] = value
    return out
