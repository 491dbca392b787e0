#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig3-sweep --seed 42 --seconds 25 --trace 0

``--workload all`` runs ``fig3-sweep``, ``scan-4m`` and ``tpch-fig4`` in
turn in this one process.  Each workload:

1. times ``SETUP_REPS`` fresh interpreters that import the program,
   resolve the compute backend, generate the inputs and build and fill the
   first Machine (``setup_s`` is their median);
2. runs once with a counter harvester wrapped around ``Machine`` (warm-up;
   the simulated DRAM transaction count comes from here);
3. runs unpatched, repeatedly, for ``--seconds`` seconds
   (``wall_s`` is the median run, in speed-adjusted seconds: see
   :class:`perfbench.workloads.SpeedSampler`);
4. with ``--trace 1``, runs once more with host-clock spans wrapped around
   every layer entry point (per-layer metrics, a Chrome trace under
   ``.perfbench/``), removes the wrappers, proves them gone, and runs once
   under ``repro.obs.tracer.tracing()``.

Every run's simulated outputs are checked; a failed check fails that
operation and the runs go on.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread: set before NumPy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import ROOT, ProgramMissing, import_program  # noqa: E402
from perfbench.layers import (  # noqa: E402
    CATALOGUE,
    Harvester,
    ff_delta,
    ff_stats,
    install_spans,
    layer_metrics,
    optional,
    simulated_requests,
    unit_of,
)
from perfbench.spans import (  # noqa: E402
    Patcher,
    SpanRecorder,
    chrome_trace,
    leftover_wrappers,
)
from perfbench.workloads import (  # noqa: E402
    PROBE_REFERENCE_S,
    digest,
    execute,
    make_workloads,
    speed_probe,
)

RUN_PY = pathlib.Path(__file__).resolve()
REFERENCE = RUN_PY.parent / "reference.json"
TRACE_DIR = ROOT / ".perfbench"
PACKAGE = "repro"

#: Fresh-interpreter set-ups timed per workload; ``setup_s`` is their median.
SETUP_REPS = 5


def load_units() -> dict[str, dict[str, str]]:
    """Declared unit of every metric, by section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def tail_summary(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} s, n={n}"
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        pct = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
        return text + f", p{q} {pct:.4f} s"
    return (text + f", max {max(values):.4f} s "
            "(no percentile above the median has 10 runs beyond it)")


class Tally:
    """Operations attempted and failed across every run of a workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, workload, ops, seed: int, stage: str) -> None:
        failures = workload.check(ops, seed)
        self.attempted += len(ops)
        self.failed += len(failures)
        for name, reason in sorted(failures.items()):
            self.reasons.append(f"{stage} {name}: {reason}")


def run_setup_probe(workload, seed: int) -> dict:
    """One set-up in a fresh interpreter; its wall time includes imports."""
    cmd = [sys.executable, str(RUN_PY), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    _, before = speed_probe()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    wall = time.perf_counter() - t0
    _, after = speed_probe()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
    parts = json.loads(proc.stdout.strip().splitlines()[-1])
    parts["raw_s"] = wall
    parts["adjusted_s"] = wall * PROBE_REFERENCE_S / ((before + after) / 2)
    return parts


def instrumented_run(workload, seed: int, recorder: SpanRecorder | None = None):
    """One run with the counter harvester, and with ``recorder`` the layer
    spans, installed; every wrapper is removed and shown gone afterwards.

    Returns the run, the simulated counts and the span names installed.
    """
    patcher, harvester = Patcher(), Harvester()
    live: set[str] = set()
    try:
        if recorder is not None:
            live = install_spans(patcher, recorder)
        harvester.install(patcher)
        run = execute(workload, seed)
    finally:
        harvester.harvest()
        patcher.restore()
    left = leftover_wrappers(PACKAGE)
    if patcher.installed or left:
        raise RuntimeError(f"wrappers left installed: {left}")
    return run, harvester.counts, live


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """All runs of one workload; returns its metrics and tallies."""
    tally = Tally()
    setups = [run_setup_probe(workload, seed) for _ in range(SETUP_REPS)]
    workload.prepare(seed)

    # Warm-up, and the simulated transaction count (deterministic: once).
    run, counts, _ = instrumented_run(workload, seed)
    tally.add(workload, run.ops, seed, "warm-up")
    sim_requests = simulated_requests(counts)

    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + runs[-1].raw_s <= seconds:
        gc.collect()
        runs.append(execute(workload, seed))
        tally.add(workload, runs[-1].ops, seed, f"run {len(runs)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(r.adjusted_s for r in runs)

    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(p["adjusted_s"] for p in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    if sim_requests is not None:
        end_to_end["sim_mreq_per_s"] = sim_requests / wall / 1e6
    result = {"workload": workload.name, "seed": seed, "runs": runs,
              "setups": setups, "tally": tally, "end_to_end": end_to_end,
              "sim_requests": sim_requests,
              "paper_err_pct": workload.paper_err_pct(runs[-1].ops)}
    if trace:
        result.update(traced(workload, seed, result))
    return result


def traced(workload, seed: int, result: dict) -> dict:
    """The span-traced run, then one run under the program's own tracer."""
    runs, tally = result["runs"], result["tally"]
    wall = result["end_to_end"]["wall_s"]
    recorder = SpanRecorder()
    before = ff_stats()
    run, counts, live = instrumented_run(workload, seed, recorder)
    tally.add(workload, run.ops, seed, "span-traced")
    per_layer = layer_metrics(recorder.spans, live, counts,
                              ff_delta(before, ff_stats()))
    if result["paper_err_pct"] is not None:
        per_layer["paper_err_pct"] = result["paper_err_pct"]
    per_layer["bench.span_overhead_pct"] = 100.0 * (run.adjusted_s / wall - 1.0)
    per_layer["bench.wall_raw_s"] = statistics.median(r.raw_s for r in runs)
    per_layer["bench.speed_probe_ms"] = 1000.0 * statistics.median(
        p for r in runs for p in r.probes)

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{workload.name}-seed{seed}.json"
    chrome_trace(recorder.spans, trace_path,
                 {"workload": workload.name, "seed": seed,
                  "untraced_median_adjusted_s": wall,
                  "traced_raw_s": run.raw_s, "traced_adjusted_s": run.adjusted_s})

    tracing = optional("repro.obs.tracer", "tracing")
    if tracing is not None:
        recorded = len(recorder.spans)
        with tracing():
            run = execute(workload, seed)
        if len(recorder.spans) != recorded:
            raise RuntimeError("a span wrapper ran after the wrappers were removed")
        tally.add(workload, run.ops, seed, "obs-traced")
        per_layer["obs.trace_overhead_pct"] = 100.0 * (run.adjusted_s / wall - 1.0)
    return {"per_layer": per_layer, "trace_path": trace_path,
            "span_count": len(recorder.spans)}


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(result: dict, units: dict, backend: str) -> None:
    """Human-readable lines: every metric by name with its unit."""
    name, tally = result["workload"], result["tally"]
    print(f"== {name}  seed={result['seed']}  backend={backend}  "
          f"nproc={os.cpu_count()}  python={sys.version.split()[0]}")
    runs = result["runs"]
    print(f"  runs, adjusted: {tail_summary([r.adjusted_s for r in runs])}")
    print(f"  runs, raw wall: {tail_summary([r.raw_s for r in runs])}")
    probes = [p for r in runs for p in r.probes]
    print(f"  speed probe: median {1000 * statistics.median(probes):.3f} ms, "
          f"min {1000 * min(probes):.3f} ms, max {1000 * max(probes):.3f} ms "
          f"(reference {1000 * PROBE_REFERENCE_S:.0f} ms)")
    setups = result["setups"]
    print("  set-ups, adjusted: " + ", ".join(f"{p['adjusted_s']:.4f}" for p in setups)
          + " s; last split: " + ", ".join(f"{k} {v:.4f} s" for k, v in
                                          setups[-1].items() if k.endswith("_s")))
    print(f"  simulated DRAM transactions per run: {result['sim_requests']}")
    err = result["paper_err_pct"]
    print(f"  paper_err_pct = {'absent' if err is None else fmt(err)} % "
          "(simulated headline against the paper)")
    for metric, value in result["end_to_end"].items():
        print(f"  {metric} = {fmt(value)} {units['end_to_end'].get(metric, '?')}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  fail_frac = {frac:.6g} ({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons[:20]:
        print(f"  FAILED {reason}")
    if "per_layer" in result:
        per_layer = result["per_layer"]
        for metric in sorted(per_layer):
            print(f"  {metric} = {fmt(per_layer[metric])} {unit_of(metric)}")
        absent = [m for m in CATALOGUE if m not in per_layer]
        print(f"  absent on this workload: {', '.join(absent) or 'none'}")
        print(f"  spans recorded: {result['span_count']}; "
              f"trace: {result['trace_path'].relative_to(ROOT)}")


def json_metrics(result: dict, units: dict[str, str], prefix: str = "") -> dict:
    """The declared metrics of one workload, as ``{name: {value, unit}}``."""
    values = result["per_layer"] if "per_layer" in result else result["end_to_end"]
    missing = [k for k in units if k not in values]
    if missing:
        print(f"perfbench: {result['workload']} did not produce the declared "
              f"metrics {', '.join(missing)}", file=sys.stderr)
    return {f"{prefix}{k}": {"value": values[k], "unit": unit}
            for k, unit in units.items() if k in values}


def write_reference(workloads: dict) -> int:
    """Record each workload's payload digests at its default seed."""
    doc = {}
    for w in workloads.values():
        ops = execute(w, w.default_seed).ops
        failures = w.check(ops, w.default_seed)
        if failures:
            print(f"{w.name}: not recording, checks failed: {failures}", file=sys.stderr)
            return 1
        doc[w.name] = {"seed": w.default_seed,
                       "ops": {op.name: digest(op.payload) for op in ops}}
        print(f"{w.name}: {doc[w.name]}")
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="fig3-sweep, scan-4m, tpch-fig4, or all (default)")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: 42 for the scans, 1 for TPC-H)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="how long the repeated untraced runs last")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="record default-seed payload digests to reference.json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        import_program()
        from repro.compute import get_backend
        backend = get_backend().name
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    workloads = make_workloads(reference)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)} or all", file=sys.stderr)
        return 2

    if args.setup_probe:
        w = workloads[names[0]]
        seed = w.default_seed if args.seed is None else args.seed
        parts = {"import_s": import_s, **w.setup(seed)}
        print(json.dumps(parts))
        return 0
    if args.write_reference:
        return write_reference(workloads)

    units = load_units()
    results = []
    for name in names:
        w = workloads[name]
        seed = w.default_seed if args.seed is None else args.seed
        result = measure(w, seed, args.seconds, bool(args.trace))
        report(result, units, backend)
        results.append(result)

    attempted = sum(r["tally"].attempted for r in results)
    failed = sum(r["tally"].failed for r in results)
    metrics: dict = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        section = "per_layer" if args.trace else "end_to_end"
        metrics.update(json_metrics(r, units[section], prefix))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
