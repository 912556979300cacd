"""End-to-end benchmark: ad-hoc walks, serving with deltas, an mmap analyst.

Run from the repository root::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``adhoc``, ``serve``, ``analyst``.  Each
run builds its platform ``SETUP_REPEATS`` times (the median is
``setup_s``), sends one untimed warm-up query, then runs its closed loop
until the timed calls have taken ``--seconds`` seconds and the current
pass over the workload's query set is complete.  Answers are checked as
they arrive, outside the timed calls: bills, accuracy against exact
ground truth, and bit-identity with a twin computed another way.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics:

* ``query_ms`` — mean time of one query, a batch's time shared equally
  among its queries (runs end on a pass boundary, so the mean is over the
  same query mix every time; the median of a mix of cheap and costly
  shapes jumps between them);
* ``calls_per_s`` — budgeted API calls answered per second of timed work
  (for ``serve`` the timed work includes delta ingestion and compaction);
* ``setup_s`` — median platform build time.

These times are rescaled to a reference host speed: a fixed calibration
loop is timed just before and after every timed call, and the call's wall
time is multiplied by ``Calibrator.REFERENCE_S`` over the loop's mean time
(``workloads.Calibrator``; the loop runs in a child process, so only the
host's speed moves it).  On a shared host whose speed drifts by tens of
percent within minutes this keeps figures comparable across runs; the
median wall time per query is printed on standard error for reference.

``--trace 1`` wraps each layer's entry point (``spans.py``) and reports
per-layer figures instead, each averaged per query: ``<layer>_ms`` is the
layer's wall self time, ``<layer>_calls`` the budgeted API calls made
under it (they sum to ``api_calls``), the other names are counts.

Exit status 2 means the source tree is missing (no result is printed).
Scratch files (the mmap plane's columns) go under ``.bench_build/`` in the
checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

END_TO_END = {"query_ms": "ms", "calls_per_s": "1/s", "setup_s": "s"}
LAYER_TIMES = (
    "walk",
    "pilot",
    "seeds",
    "discovery",
    "classify",
    "dp",
    "recount",
    "prefetch",
    "api",
    "resilience",
    "service_admit",
    "service_execute",
    "service_collect",
    "delta_ingest",
    "compact",
)
LAYER_COUNTS = (
    "api_calls",
    "timeline_calls",
    "connections_calls",
    "search_calls",
    "retries_calls",
    "client_cache_hits",
    "walk_instances",
    "result_cache_hits",
    "interval_cache_hits",
    "pilot_runs",
)
RESOLVER_COUNTS = ("fastpath_resolved", "kernel_resolved")
CALL_LAYERS = ("pilot", "seeds", "classify")
"""Layers whose budgeted API calls are reported as ``<layer>_calls``; the
calls of every other layer are ``other_layer_calls``.  A walk step's
calls are made by the classification it triggers, so ``classify`` carries
the walks' calls."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("adhoc", "serve", "analyst"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, workdir: str, calibrator):
    from workloads import SETUP_REPEATS, WORKLOADS, Run

    workload = WORKLOADS[args.workload](args.seed, workdir)
    run = Run(calibrator)
    for _ in range(SETUP_REPEATS):
        run.setup_s.append(run.calibrator.time(workload.setup)[2])
    workload.warm_up()

    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        recorder.active = True
        run.recorder = recorder
    # Runs end on a pass boundary so every seed measures the same query mix.
    # The wall guard keeps a run whose checks turned slow inside its time
    # limit; normally the loop ends on timed work alone.
    wall_limit = time.perf_counter() + max(3 * args.seconds, args.seconds + 60)
    while (run.busy_s < args.seconds or not workload.pass_complete()) and (
        time.perf_counter() < wall_limit
    ):
        workload.step(run)
    if recorder is not None:
        recorder.active = False
        attributed = sum(recorder.api_calls.values())
        if attributed != run.counts["api_calls"]:
            run.problems.append(
                f"{attributed} API calls attributed to layers, {run.counts['api_calls']} billed"
            )
    workload.finish(run)
    return run, recorder


def metrics_of(run, recorder):
    if recorder is None:
        # No completed query means a broken run, already marked incorrect;
        # zeros keep the output valid JSON.
        latencies = [seconds * 1000 for seconds in run.latencies] or [0.0]
        values = {
            "query_ms": statistics.fmean(latencies),
            "calls_per_s": run.calls / run.busy_ref_s if run.busy_ref_s else 0.0,
            "setup_s": statistics.median(run.setup_s),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    queries = max(run.attempted, 1)
    metrics = {
        f"{layer}_ms": {"value": recorder.self_ns[layer] / 1e6 / queries, "unit": "ms"}
        for layer in LAYER_TIMES
    }
    counts = dict(run.counts)
    counts["classified_nodes"] = recorder.calls["classify"]
    counts.update(recorder.resolved)
    for layer in CALL_LAYERS:
        counts[f"{layer}_calls"] = recorder.api_calls[layer]
    counts["other_layer_calls"] = sum(recorder.api_calls.values()) - sum(
        recorder.api_calls[layer] for layer in CALL_LAYERS
    )
    names = LAYER_COUNTS + ("classified_nodes",) + RESOLVER_COUNTS
    names += tuple(f"{layer}_calls" for layer in CALL_LAYERS) + ("other_layer_calls",)
    for name in names:
        metrics[name] = {"value": counts.get(name, 0) / queries, "unit": "count"}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)  # any temp file the program makes stays in the checkout
    # A terminated run still removes its scratch files (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import Calibrator

    try:
        with Calibrator() as calibrator:
            run, recorder = measure(args, str(workdir), calibrator)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = {agg: round(statistics.median(e), 4) for agg, e in sorted(run.errors.items())}
    wall_ms = statistics.median(run.wall_latencies) * 1000 if run.wall_latencies else 0.0
    print(
        f"perfbench: {args.workload} seed {args.seed}: {run.attempted} queries, "
        f"{run.busy_s:.2f}s timed, median wall query {wall_ms:.1f} ms, "
        f"median relative error {errors}",
        file=sys.stderr,
    )
    for problem in run.problems[:20]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    summary = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics_of(run, recorder),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
