"""Walk hot-path benchmark: fast path + compiled kernel vs the layered path.

A client stack runs in one of two configurations: the fast path
(:mod:`repro.api.fastpath`) with the compiled walk kernel
(:mod:`repro.core.kernels`) on top, or fully layered.  A context whose
kernel does not resolve drops its fast path too, so switching the kernel
off (``set_kernel_enabled(False)`` in process, ``REPRO_NO_KERNEL=1`` in
a subprocess) selects the layered path.  This bench times that pair on
identical inputs and asserts the two runs **bit-identical** in estimate,
total cost and per-kind cost (``retries`` included on a fault stack) —
the speedup must come purely from doing the same accounting with less
interpreter work.

The full run:

* per algorithm, interleaved best-of-``TIMING_REPEATS`` layered vs
  kernel serial ``estimate()`` at ``BUDGET`` (the harness default), every
  run from a **cold store** (``FrozenStore.drop_caches``: the
  process-cached bench platform memoises materialised timelines, so
  without the reset only the first run would pay the materialisation
  cost the fast path exists to avoid), each pair asserted bit-identical;
  **gate**: ``ma-tarw`` speedup ≥ ``KERNEL_SPEEDUP_FLOOR``.  The speedup
  is read off these unprofiled timings;
* a phase breakdown from a *separate* cProfile run per (algorithm,
  configuration), split into ``classify`` (``LevelByLevelOracle._classify``
  cumulative), ``dp`` (``_run_dp_if_dirty`` cumulative, MA-TARW only) and
  ``step`` (everything else: RNG draws, walk bookkeeping, charge
  pipeline), with the run's dump at
  ``benchmarks/results/walk_hotpath_*.pstats`` (binary, git-ignored) for
  ad-hoc inspection with ``python -m pstats``;
* the guard counters from a metrics-attached kernel run:
  ``fastpath.resolved`` and ``kernel.resolved`` ≥ 1, zero
  ``fastpath.fallback{reason}`` / ``kernel.fallback{reason}``;
* a ``hostile`` row: ``ma-tarw`` at the same shape behind
  ``FAULT_PROFILES["hostile"]`` and the default resilient layer, where
  the kernel reads row pages through the fault stack — interleaved
  best-of-``TIMING_REPEATS`` layered vs kernel, asserted bit-identical
  with the ``retries`` column, phases and guard counters as above
  (reported, not gated);
* one 10M-row mmap cell (reusing ``bench_scale.py --cell`` in fresh
  subprocesses) asserted bit-identical across the switch; **gate**:
  kernel walk throughput ≥ ``MMAP_GATE_RATIO`` × the pre-kernel
  ``calls_per_sec`` basis pinned in the JSON.

The table lands in ``benchmarks/results/walk_hotpath.txt`` and the
summary in ``BENCH_walk_hotpath.json`` at the repo root.

``--quick`` is the CI smoke mode: a small platform, one layered-vs-kernel
identity check per algorithm and stack (clean and ``hostile``) plus the
guard counters, no timing gates (CI wall-clock is noise).  On the
hostile stack too the kernel must resolve with zero fallbacks, so a
silent fall back to the layered path fails CI.
"""

import argparse
import json
import os
import pathlib
import pstats
import subprocess
import sys
import time

from repro.api.accounting import RETRIES
from repro.api.faults import FAULT_PROFILES
from repro.bench import bench_platform, emit, format_table, run_estimator
from repro.bench.profiling import profiled
from repro.core.kernels import set_kernel_enabled
from repro.core.query import count_users
from repro.obs import MetricsRegistry, Observability

ALGORITHMS = ("ma-tarw", "ma-srw")
NUM_USERS = 30_000
BUDGET = 30_000
"""The gate runs at ``run_estimator``'s default budget."""
SEED = 3
TIMING_REPEATS = 3
QUICK_NUM_USERS = 4_000
QUICK_BUDGET = 2_000
KERNEL_SPEEDUP_FLOOR = 2.0
MMAP_GATE_RATIO = 3.0
MMAP_CELL = dict(users=2_000, bg_mean=5_000.0, chunk_rows=262_144)
"""The 10M-row cell exactly as ``bench_scale.py``'s sweep runs it, so
the pre-kernel number in ``BENCH_data_plane.json`` is an apples
comparison."""

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_walk_hotpath.json"
DATA_PLANE_JSON_PATH = REPO_ROOT / "BENCH_data_plane.json"
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

CONFIGURATIONS = (("layered", False), ("kernel", True))
"""(label, kernel switch) for the two configurations a clean stack has."""

PHASE_FUNCS = {
    # phase -> (filename suffix, function name); cumulative times
    "classify": ("graph_builder.py", "_classify"),
    "dp": ("tarw.py", "_run_dp_if_dirty"),
}
GUARDS = ("fastpath", "kernel")
"""Resolvers whose ``<name>.resolved`` / ``<name>.fallback`` counters
guard the bench stacks."""
STACKS = (("clean", None), ("hostile", FAULT_PROFILES["hostile"]))
"""(label, fault plan) of the client stacks the bench runs: the bare
simulator, and the hostile profile behind the default resilient layer."""
HOSTILE_ALGORITHM = "ma-tarw"
"""The walker of the full run's hostile row."""


def _run(platform, query, algorithm, kernel, budget=BUDGET, obs=None, fault_plan=None):
    """One estimate run, kernel on (fast path + kernel) or off (layered)."""
    previous = set_kernel_enabled(kernel)
    try:
        return run_estimator(
            platform, query, algorithm, budget=budget, seed=SEED, obs=obs,
            fault_plan=fault_plan,
        )
    finally:
        set_kernel_enabled(previous)


def _identical(a, b):
    return (
        a.value == b.value
        and a.cost_total == b.cost_total
        and a.cost_by_kind == b.cost_by_kind
    )


def _guards(platform, query, algorithm, budget, failures, fault_plan=None, name=None):
    """Resolved counters of a metrics-attached kernel run; records a
    failure for a resolver that never resolved or fell back."""
    name = name or algorithm
    metrics = MetricsRegistry()
    _run(
        platform, query, algorithm, True, budget, obs=Observability(metrics=metrics),
        fault_plan=fault_plan,
    )
    counters = metrics.snapshot()["counters"]
    resolved = {}
    for guard in GUARDS:
        resolved[guard] = counters.get(f"{guard}.resolved", 0)
        fallbacks = {
            k: v for k, v in counters.items() if k.startswith(f"{guard}.fallback")
        }
        if resolved[guard] < 1:
            failures.append(f"{name}: {guard} never resolved (guard counter 0)")
        if fallbacks:
            failures.append(f"{name}: {guard} fell back to the layered path: {fallbacks}")
    return resolved


def _phase_breakdown(platform, query, algorithm, kernel, label, fault_plan=None):
    """Profile one run, dump its .pstats, and split time into phases."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    dump = RESULTS_DIR / f"walk_hotpath_{algorithm.replace('-', '_')}_{label}.pstats"
    platform.store.drop_caches()
    previous = set_kernel_enabled(kernel)
    try:
        with profiled(str(dump)) as profiler:
            run_estimator(
                platform, query, algorithm, budget=BUDGET, seed=SEED,
                fault_plan=fault_plan,
            )
    finally:
        set_kernel_enabled(previous)
    stats = pstats.Stats(profiler)
    stats.stream = None  # keep the object picklable/printable-free
    phases = {name: 0.0 for name in PHASE_FUNCS}
    for (filename, _line, func), (_cc, _nc, _tt, cum, _callers) in stats.stats.items():
        for name, (suffix, target) in PHASE_FUNCS.items():
            if func == target and filename.endswith(suffix):
                phases[name] += cum
    total = stats.total_tt
    phases["step"] = max(total - sum(phases.values()), 0.0)
    phases["profiled_total"] = total
    return phases, dump


def _spawn_scale_cell(kernel):
    """One 10M-row mmap cell in a fresh process via bench_scale's CLI."""
    command = [
        sys.executable, str(REPO_ROOT / "benchmarks" / "bench_scale.py"),
        "--cell", "mmap",
        "--users", str(MMAP_CELL["users"]),
        "--bg-mean", str(MMAP_CELL["bg_mean"]),
        "--chunk-rows", str(MMAP_CELL["chunk_rows"]),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if kernel:
        env.pop("REPRO_NO_KERNEL", None)
    else:
        env["REPRO_NO_KERNEL"] = "1"
    label = "kernel" if kernel else "layered"
    print(f"  [10M mmap] {label}: building + walking ...", flush=True)
    proc = subprocess.run(command, capture_output=True, text=True, cwd=str(REPO_ROOT), env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"10M mmap cell ({label}) failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _mmap_gate_basis():
    """The pre-kernel 10M throughput the mmap gate compares against.

    Prefers the basis pinned in ``BENCH_walk_hotpath.json`` — the
    data-plane sweep refreshes its own numbers with the kernel active, so
    reading it live would gate this bench against itself.  Falls back to
    ``BENCH_data_plane.json`` (correct while it still holds pre-kernel
    numbers), then to this run's own layered cell.
    """
    try:
        payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
        return float(payload["mmap_10m"]["basis_calls_per_sec"])
    except (OSError, KeyError, ValueError, TypeError):
        pass
    try:
        payload = json.loads(DATA_PLANE_JSON_PATH.read_text(encoding="utf-8"))
        for scale in payload["scale"]["results"]:
            if scale["label"] == "10M":
                return float(scale["cells"]["mmap"]["calls_per_sec"])
    except (OSError, KeyError, ValueError, TypeError):
        pass
    return None


def _mmap_cell(failures):
    basis = _mmap_gate_basis()
    layered = _spawn_scale_cell(kernel=False)
    kernel = _spawn_scale_cell(kernel=True)
    fields = ("value_repr", "cost_total", "cost_by_kind", "trace_sha256")
    for field in fields:
        if layered[field] != kernel[field]:
            failures.append(
                f"10M mmap: kernel diverges on {field}: "
                f"layered={layered[field]!r} kernel={kernel[field]!r}"
            )
    if not kernel.get("kernel_resolved"):
        failures.append("10M mmap: kernel.resolved never fired")
    if basis is None:
        basis = layered["calls_per_sec"]
        print(
            "  [10M mmap] no pinned basis; gating against this run's "
            f"layered cell ({basis} calls/s)"
        )
    ratio = kernel["calls_per_sec"] / basis
    if ratio < MMAP_GATE_RATIO:
        failures.append(
            f"10M mmap: kernel {kernel['calls_per_sec']} calls/s is only "
            f"{ratio:.2f}x the basis {basis} (< {MMAP_GATE_RATIO}x)"
        )
    print(
        f"10M mmap: kernel {kernel['calls_per_sec']} calls/s vs layered "
        f"{layered['calls_per_sec']} (basis {basis}): {ratio:.2f}x"
    )
    return {
        "num_posts": kernel["num_posts"],
        "bit_identical": all(layered[f] == kernel[f] for f in fields),
        "layered_calls_per_sec": layered["calls_per_sec"],
        "kernel_calls_per_sec": kernel["calls_per_sec"],
        "basis_calls_per_sec": basis,
        "ratio_vs_basis": round(ratio, 2),
        "gate_ratio": MMAP_GATE_RATIO,
    }


def _report(failures, ok):
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(ok)
    return 0


def _timed_pair(platform, query, algorithm, failures, fault_plan=None, name=None):
    """Interleaved best-of-N layered/kernel wall seconds and the last
    pair of results; records a failure when a pair is not bit-identical."""
    name = name or algorithm
    best = {label: float("inf") for label, _ in CONFIGURATIONS}
    results = {}
    # Interleaved best-of-N: layered/kernel pairs alternate so drift in
    # the shared machine hits both sides equally.
    for _ in range(TIMING_REPEATS):
        for label, kernel in CONFIGURATIONS:
            platform.store.drop_caches()
            start = time.perf_counter()
            results[label] = _run(platform, query, algorithm, kernel, fault_plan=fault_plan)
            best[label] = min(best[label], time.perf_counter() - start)
        if not _identical(results["layered"], results["kernel"]):
            failures.append(
                f"{name}: kernel run not bit-identical (layered "
                f"{results['layered'].value!r}/{results['layered'].cost_by_kind}, "
                f"kernel {results['kernel'].value!r}/{results['kernel'].cost_by_kind})"
            )
            break
    return best, results


def _measure(platform, query, algorithm, failures, rows, stack="clean", fault_plan=None):
    """Time, identity-check, guard and profile one (algorithm, stack)
    cell; appends its table rows and returns its JSON entry."""
    name = algorithm if fault_plan is None else f"{algorithm} {stack}"
    best, results = _timed_pair(platform, query, algorithm, failures, fault_plan, name)
    result = results["layered"]
    if fault_plan is not None and result.cost_by_kind.get(RETRIES, 0) == 0:
        failures.append(f"{name}: the fault profile caused no retries")
    resolved = _guards(platform, query, algorithm, BUDGET, failures, fault_plan, name)
    speedup = best["layered"] / best["kernel"]
    gated = fault_plan is None and algorithm == "ma-tarw"
    if gated and speedup < KERNEL_SPEEDUP_FLOOR:
        failures.append(
            f"{name}: kernel speedup {speedup:.2f}x under the "
            f"{KERNEL_SPEEDUP_FLOOR}x floor"
        )
    configurations = {}
    for label, kernel in CONFIGURATIONS:
        dump_label = label if fault_plan is None else f"{stack}_{label}"
        phases, dump = _phase_breakdown(
            platform, query, algorithm, kernel, dump_label, fault_plan
        )
        configurations[label] = {
            "wall_seconds": round(best[label], 4),
            "phases_seconds": {k: round(v, 4) for k, v in phases.items()},
            "pstats": str(dump.relative_to(REPO_ROOT)),
        }
        rows.append([
            name, label, best[label], phases["profiled_total"],
            phases["classify"], phases.get("dp", 0.0), phases["step"],
            "" if kernel else f"{speedup:.2f}x", result.value, result.cost_total,
        ])
    print(f"{name}: {speedup:.2f}x kernel speedup, bit-identical")
    entry = {
        "value": result.value,
        "cost_total": result.cost_total,
        "bit_identical": _identical(results["layered"], results["kernel"]),
        "speedup": round(speedup, 2),
        "gated": gated,
        "resolved": resolved,
        "configurations": configurations,
    }
    if fault_plan is not None:
        entry = {
            "algorithm": algorithm,
            "fault_profile": stack,
            "cost_by_kind": result.cost_by_kind,
            **entry,
        }
    return entry


def run_full():
    platform = bench_platform(NUM_USERS)
    query = count_users("privacy")
    failures = []
    rows = []
    payload = {
        "num_users": NUM_USERS,
        "budget": BUDGET,
        "seed": SEED,
        "query": "count_users('privacy')",
        "speedup_floor": KERNEL_SPEEDUP_FLOOR,
        "algorithms": {},
    }
    for algorithm in ALGORITHMS:
        payload["algorithms"][algorithm] = _measure(
            platform, query, algorithm, failures, rows
        )
    payload["hostile"] = _measure(
        platform, query, HOSTILE_ALGORITHM, failures, rows, *STACKS[1]
    )
    payload["mmap_10m"] = _mmap_cell(failures)
    table = format_table(
        "Walk hot path: fully layered vs fast path + compiled kernel "
        f"({NUM_USERS:,} users, budget {BUDGET:,}, seed {SEED}; the hostile "
        "row runs behind FAULT_PROFILES['hostile']; wall is "
        f"interleaved best-of-{TIMING_REPEATS}, unprofiled and cold-store; "
        "phase columns are from a separate cProfile run and sum to "
        "'profiled s')",
        ["algorithm", "configuration", "wall s", "profiled s", "classify s",
         "dp s", "step s", "speedup", "estimate", "cost"],
        rows,
    )
    emit("walk_hotpath", table)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {JSON_PATH.name}")
    return _report(failures, "walk hot path OK: every gate passed")


def run_quick():
    """CI smoke: layered-vs-kernel identity + the guard counters, on the
    clean and the hostile stack."""
    platform = bench_platform(QUICK_NUM_USERS)
    query = count_users("privacy")
    failures = []
    for algorithm in ALGORITHMS:
        for stack, plan in STACKS:
            name = f"{algorithm} {stack}"
            layered = _run(platform, query, algorithm, False, QUICK_BUDGET, fault_plan=plan)
            kernel = _run(platform, query, algorithm, True, QUICK_BUDGET, fault_plan=plan)
            if not _identical(layered, kernel):
                failures.append(
                    f"{name}: kernel run not bit-identical "
                    f"(layered {layered.value!r}/{layered.cost_by_kind}, "
                    f"kernel {kernel.value!r}/{kernel.cost_by_kind})"
                )
            if plan is not None and layered.cost_by_kind.get(RETRIES, 0) == 0:
                failures.append(f"{name}: the fault profile caused no retries")
            resolved = _guards(platform, query, algorithm, QUICK_BUDGET, failures, plan, name)
            print(f"{name}: identical={_identical(layered, kernel)} resolved={resolved}")
    return _report(
        failures,
        "hot-path smoke OK: fast path and kernel resolved on the clean and "
        "hostile stacks, no fallbacks, bit-identical",
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small platform, identity + guard counters only",
    )
    args = parser.parse_args(argv)
    return run_quick() if args.quick else run_full()


if __name__ == "__main__":
    sys.exit(main())
