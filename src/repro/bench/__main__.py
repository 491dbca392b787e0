"""``python -m repro.bench`` — the benchmark-orchestrator CLI.

Examples::

    python -m repro.bench --smoke --workers 2
    python -m repro.bench --sweep fig3 --sweep grades --workers 4
    python -m repro.bench --sweep fig3 --serial --no-cache
    python -m repro.bench --list

See EXPERIMENTS.md ("Benchmark orchestrator") for the cache-key scheme and
the CI wiring.
"""

from __future__ import annotations

import argparse
import sys

import json

from ..compute import BACKEND_NAMES
from ..errors import ReproError
from .configs import DEFAULT_ROWS, DEFAULT_SCALE, SWEEPS, enumerate_sweep, smoke_sweep
from .orchestrator import (
    DEFAULT_HISTORY,
    DEFAULT_OUTPUT,
    check_history_regression,
    compare_backends,
    diff_reports,
    record_history,
    run_sweep,
    write_results,
)
from .store import DEFAULT_CACHE_DIR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Enumerate benchmark sweeps, fan them out over a process "
                    "pool, cache deterministic results, and write "
                    "BENCH_results.json.",
    )
    parser.add_argument("--sweep", action="append", default=[],
                        choices=sorted(SWEEPS),
                        help="sweep(s) to run (repeatable; default: fig3)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the fast 4-point CI smoke set instead")
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                        help=f"column rows per point (default {DEFAULT_ROWS})")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help=f"TPC-H scale factor (default {DEFAULT_SCALE})")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size (default 1)")
    parser.add_argument("--serial", action="store_true",
                        help="run in-process even if --workers > 1")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help=f"report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                        help=f"result store root (default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result store entirely")
    parser.add_argument("--exact", action="store_true",
                        help="disable steady-state fast-forward (the escape "
                             "hatch; results are bit-identical either way)")
    parser.add_argument("--perturb-seed", type=int, default=None,
                        metavar="SEED",
                        help="shuffle same-timestamp event tie-breaks with "
                             "this seed (schedule-confluence contract: "
                             "simulated outputs are bit-identical anyway; "
                             "forces a cache bypass)")
    parser.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                        help="compute backend for the simulations (default: "
                             "the REPRO_BACKEND env var, else numpy when "
                             "available; part of the cache key)")
    parser.add_argument("--compare-backends", action="store_true",
                        help="run every point under each backend "
                             "(serial, uncached), record per-backend "
                             "wall-clock in the report's backend_compare "
                             "section, and exit nonzero if simulated "
                             "outputs differ")
    parser.add_argument("--record-history", nargs="?", metavar="PATH",
                        const=str(DEFAULT_HISTORY), default=None,
                        help="append this run's summary (fingerprint, "
                             "backend, rows, total_wall_speedup, "
                             f"lane_requests) to PATH (default "
                             f"{DEFAULT_HISTORY}); implies --no-cache so "
                             "wall-clock is real")
    parser.add_argument("--history-gate", action="store_true",
                        help="after recording, exit nonzero if the newest "
                             "history entry is >10%% slower than the "
                             "previous entry for the same point set")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two report files on simulated fields "
                             "only and exit nonzero on any mismatch")
    parser.add_argument("--trace", metavar="PATH",
                        help="record a causal span trace of the sweep and "
                             "write Chrome-trace/Perfetto JSON to PATH "
                             "(forces --serial and --no-cache so every "
                             "point actually simulates in-process)")
    parser.add_argument("--list", action="store_true",
                        help="print the configs a run would execute, then exit")
    return parser


def run_diff(path_a: str, path_b: str) -> int:
    """``--diff``: compare two reports, ignoring host-timing fields."""
    with open(path_a, encoding="utf-8") as handle:
        report_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        report_b = json.load(handle)
    mismatched = diff_reports(report_a, report_b)
    if mismatched:
        print(f"simulated outputs differ between {path_a} and {path_b}: "
              f"{', '.join(mismatched)}")
        return 1
    print(f"simulated outputs identical between {path_a} and {path_b} "
          f"({len(report_a.get('points', []))} point(s))")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.diff:
        return run_diff(*args.diff)
    if args.smoke:
        configs = smoke_sweep()
    else:
        configs = enumerate_sweep(args.sweep or ["fig3"], rows=args.rows,
                                  scale=args.scale)
    if args.list:
        for config in configs:
            print(config.name)
        return 0

    if args.compare_backends:
        report = compare_backends(configs, cache_dir=args.cache_dir,
                                  exact=args.exact)
        report = write_results(report, args.output)
        compare = report["backend_compare"]
        for name, entry in compare["points"].items():
            walls = "  ".join(f"{b}={entry[f'{b}_wall_s']:.3f}s"
                              for b in compare["backends"])
            speedup = entry["wall_speedup"]
            tag = f"  {speedup:.2f}x" if speedup else ""
            print(f"  {name:<44} {walls}{tag}")
        verdict = ("bit-identical" if compare["identical"] else
                   f"MISMATCHED: {', '.join(compare['mismatched_points'])}")
        total = compare["total"]
        speedup = total["wall_speedup"]
        print(f"{len(compare['points'])} point(s) x "
              f"{len(compare['backends'])} backend(s): {verdict}"
              + (f", {speedup:.2f}x total" if speedup else "")
              + f" -> {args.output}")
        return 0 if compare["identical"] else 1

    if args.trace:
        from ..obs.tracer import tracing

        # Tracing only observes in-process simulations: run serially with
        # the cache bypassed so every point executes (and is recorded) here.
        with tracing(args.trace):
            report = run_sweep(configs, workers=1,
                               cache_dir=args.cache_dir,
                               use_cache=False, serial=True,
                               exact=args.exact,
                               perturb_seed=args.perturb_seed,
                               backend=args.backend)
        print(f"trace written to {args.trace}")
    else:
        use_cache = not args.no_cache and args.record_history is None
        report = run_sweep(configs, workers=args.workers,
                           cache_dir=args.cache_dir,
                           use_cache=use_cache, serial=args.serial,
                           exact=args.exact,
                           perturb_seed=args.perturb_seed,
                           backend=args.backend)
    report = write_results(report, args.output)

    for point in report["points"]:
        tag = "cache" if point["cached"] else f"{point['wall_s']:6.2f}s"
        lanes = point["lane_requests"]
        ff = "" if lanes is None else f" lane_requests={lanes}"
        print(f"  {point['name']:<44} [{tag}]{ff}")
    mode = "exact" if report["exact"] else "fast-forward"
    if report.get("perturb_seed") is not None:
        mode += f", perturb-seed {report['perturb_seed']}"
    mode += f", {report['backend']} backend"
    print(f"{report['num_points']} point(s), {report['cache_hits']} cached, "
          f"{report['total_wall_s']:.2f}s wall on {report['workers']} "
          f"worker(s), {mode} -> {args.output}")
    deltas = report.get("deltas")
    if deltas:
        mismatched = [name for name, d in deltas["points"].items()
                      if not d["sim_identical"]]
        if mismatched:
            print(f"simulated outputs CHANGED vs previous run: "
                  f"{', '.join(sorted(mismatched))}")
        elif deltas["points"]:
            print("simulated outputs identical to previous run")
        if deltas["total_wall_speedup"]:
            print(f"wall-clock vs previous run: "
                  f"{deltas['total_wall_speedup']:.2f}x")
    if args.record_history is not None:
        entry = record_history(report, args.record_history)
        speedup = entry["total_wall_speedup"]
        tag = f", {speedup:.2f}x vs previous entry" if speedup else ""
        print(f"history entry appended to {args.record_history}: "
              f"{entry['total_wall_s']:.3f}s wall{tag}")
        if entry.get("bus_utilisation_pct") is not None:
            print(f"  utilisation (informational): bus "
                  f"{entry['bus_utilisation_pct']:.1f}%, idle-gap p50 "
                  f"{entry['idle_gap_p50_cycles']:.0f} / p95 "
                  f"{entry['idle_gap_p95_cycles']:.0f} bus cycles")
        if args.history_gate:
            ok, message = check_history_regression(args.record_history)
            print(message)
            if not ok:
                return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
