"""Walk hot-path benchmark: the flattened fast path before/after.

Times one serial budgeted ``estimate()`` per algorithm with the fast
path disabled (the layered slow path) and enabled (pre-resolved
:mod:`repro.api.fastpath` operations) on identical inputs, asserting the
two runs are **bit-identical** in estimate, total cost and per-kind cost
— the speedup must come purely from doing the same accounting with less
interpreter work.

Output per (algorithm, mode):

* unprofiled wall-clock (best of ``TIMING_REPEATS``; the speedup claim
  is read off these — profiling overhead would distort it).  Every
  timed run starts from a **cold store** (``FrozenStore.drop_caches``):
  the process-cached bench platform memoises materialised timelines, so
  without the reset only the first run would pay the materialisation
  cost the fast path exists to avoid — warm-cache timings would
  understate the user-facing first-run speedup;
* a phase breakdown from a *separate* cProfile run, split into
  ``classify`` (``LevelByLevelOracle._classify`` cumulative), ``dp``
  (``_run_dp_if_dirty`` cumulative, MA-TARW only) and ``step``
  (everything else: RNG draws, walk bookkeeping, charge pipeline);
* the run's cProfile dump at ``benchmarks/results/walk_hotpath_*.pstats``
  (binary, git-ignored) for ad-hoc inspection with ``python -m pstats``.

Tables land in ``benchmarks/results/walk_hotpath.txt`` and the
machine-readable summary in ``BENCH_walk_hotpath.json`` at the repo
root.

``--quick`` is the CI perf-smoke mode: a small platform, one
fast-vs-slow identity check per algorithm, plus the *guard counters* —
the run fails if ``fastpath.resolved`` never fired or any
``fastpath.fallback{reason}`` did, i.e. if the clean bench stack
silently stopped resolving to the fast path.

``--kernel`` benches the compiled walk kernel against the layered path.
A context whose kernel does not resolve drops its fast path too, so
kernel-off runs are fully layered and kernel-on runs use fast path +
kernel — the only two configurations a clean stack has:

* per algorithm, interleaved best-of-N kernel-off vs kernel-on serial
  ``estimate()`` at ``KERNEL_BUDGET`` (the harness default), each pair
  asserted bit-identical; **gate**: ``ma-tarw`` speedup ≥
  ``KERNEL_SPEEDUP_FLOOR``;
* one 10M-row mmap cell (reusing ``bench_scale.py --cell`` in fresh
  subprocesses, kernel off via ``REPRO_NO_KERNEL``) asserted
  bit-identical across the switch; **gate**: kernel-on walk throughput
  ≥ ``MMAP_GATE_RATIO`` × the PR-7 ``calls_per_sec`` recorded in
  ``BENCH_data_plane.json``;
* the kernel guard counters (``kernel.resolved`` ≥ 1, zero
  ``kernel.fallback{reason}``) from a metrics-attached run.

Summary lands in ``BENCH_walk_kernel.json``.  ``--kernel --quick`` is
the CI smoke variant: small platform, identity + guard counters, no
timing gates (CI wall-clock is noise).
"""

import argparse
import json
import os
import pathlib
import pstats
import subprocess
import sys
import time

from repro.api.fastpath import set_fast_path_enabled
from repro.bench import bench_platform, emit, format_table, run_estimator
from repro.bench.profiling import profiled
from repro.core.kernels import set_kernel_enabled
from repro.core.query import count_users
from repro.obs import MetricsRegistry, Observability

ALGORITHMS = ("ma-tarw", "ma-srw")
NUM_USERS = 30_000
BUDGET = 8_000
SEED = 3
TIMING_REPEATS = 2
QUICK_NUM_USERS = 4_000
QUICK_BUDGET = 2_000

KERNEL_BUDGET = 30_000
"""The kernel gate runs at ``run_estimator``'s default budget."""
KERNEL_TIMING_REPEATS = 3
KERNEL_SPEEDUP_FLOOR = 2.0
MMAP_GATE_RATIO = 3.0
MMAP_CELL = dict(users=2_000, bg_mean=5_000.0, chunk_rows=262_144)
"""The 10M-row cell exactly as ``bench_scale.py``'s sweep runs it, so
the PR-7 number in ``BENCH_data_plane.json`` is an apples comparison."""

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_walk_hotpath.json"
KERNEL_JSON_PATH = REPO_ROOT / "BENCH_walk_kernel.json"
DATA_PLANE_JSON_PATH = REPO_ROOT / "BENCH_data_plane.json"
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

PHASE_FUNCS = {
    # phase -> (filename suffix, function name); cumulative times
    "classify": ("graph_builder.py", "_classify"),
    "dp": ("tarw.py", "_run_dp_if_dirty"),
}


def _run(platform, query, algorithm, fast, budget=BUDGET, obs=None):
    """One estimate run with the fast path forced on/off."""
    previous = set_fast_path_enabled(fast)
    try:
        return run_estimator(
            platform, query, algorithm, budget=budget, seed=SEED, obs=obs
        )
    finally:
        set_fast_path_enabled(previous)


def _timed(platform, query, algorithm, fast):
    """Best-of-N cold-store wall-clock plus the (deterministic) result."""
    best = float("inf")
    result = None
    for _ in range(TIMING_REPEATS):
        platform.store.drop_caches()
        start = time.perf_counter()
        result = _run(platform, query, algorithm, fast)
        best = min(best, time.perf_counter() - start)
    return result, best


def _phase_breakdown(platform, query, algorithm, fast, mode_label):
    """Profile one run, dump its .pstats, and split time into phases."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    dump = RESULTS_DIR / f"walk_hotpath_{algorithm.replace('-', '_')}_{mode_label}.pstats"
    platform.store.drop_caches()
    previous = set_fast_path_enabled(fast)
    try:
        with profiled(str(dump)) as profiler:
            run_estimator(platform, query, algorithm, budget=BUDGET, seed=SEED)
    finally:
        set_fast_path_enabled(previous)
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


def _identical(a, b):
    return (
        a.value == b.value
        and a.cost_total == b.cost_total
        and a.cost_by_kind == b.cost_by_kind
    )


def run_full():
    platform = bench_platform(NUM_USERS)
    query = count_users("privacy")
    rows = []
    payload = {
        "num_users": NUM_USERS,
        "budget": BUDGET,
        "seed": SEED,
        "query": "count_users('privacy')",
        "algorithms": {},
    }
    for algorithm in ALGORITHMS:
        slow, t_slow = _timed(platform, query, algorithm, fast=False)
        fast, t_fast = _timed(platform, query, algorithm, fast=True)
        if not _identical(slow, fast):
            print(
                f"FAIL: {algorithm} fast path is not bit-identical: "
                f"slow={slow.value!r}/{slow.cost_by_kind} "
                f"fast={fast.value!r}/{fast.cost_by_kind}",
                file=sys.stderr,
            )
            return 1
        modes = {}
        for mode_label, is_fast, wall, result in (
            ("slow", False, t_slow, slow),
            ("fast", True, t_fast, fast),
        ):
            phases, dump = _phase_breakdown(platform, query, algorithm, is_fast, mode_label)
            modes[mode_label] = {
                "wall_seconds": round(wall, 4),
                "phases_seconds": {k: round(v, 4) for k, v in phases.items()},
                "pstats": str(dump.relative_to(REPO_ROOT)),
            }
            rows.append([
                algorithm,
                mode_label,
                wall,
                phases["profiled_total"],
                phases["classify"],
                phases.get("dp", 0.0),
                phases["step"],
                result.value,
                result.cost_total,
            ])
        payload["algorithms"][algorithm] = {
            "value": slow.value,
            "cost_total": slow.cost_total,
            "bit_identical": True,
            "speedup": round(t_slow / t_fast, 2),
            "modes": modes,
        }
        print(f"{algorithm}: {t_slow / t_fast:.2f}x serial speedup, bit-identical")
    table = format_table(
        "Walk hot path: layered slow path vs flattened fast path "
        f"({NUM_USERS:,} users, budget {BUDGET:,}, seed {SEED}; wall is "
        "unprofiled and cold-store, phase columns are from a separate "
        "cProfile run and sum to 'profiled s')",
        ["algorithm", "mode", "wall s", "profiled s", "classify s", "dp s",
         "step s", "estimate", "cost"],
        rows,
    )
    emit("walk_hotpath", table)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {JSON_PATH.name}")
    return 0


def run_quick():
    """CI perf-smoke: identity + the fast-path guard counters."""
    platform = bench_platform(QUICK_NUM_USERS)
    query = count_users("privacy")
    failures = []
    for algorithm in ALGORITHMS:
        slow = _run(platform, query, algorithm, fast=False, budget=QUICK_BUDGET)
        metrics = MetricsRegistry()
        obs = Observability(metrics=metrics)
        fast = _run(
            platform, query, algorithm, fast=True, budget=QUICK_BUDGET, obs=obs
        )
        if not _identical(slow, fast):
            failures.append(
                f"{algorithm}: fast path not bit-identical "
                f"(slow {slow.value!r}, fast {fast.value!r})"
            )
        counters = metrics.snapshot()["counters"]
        resolved = counters.get("fastpath.resolved", 0)
        fallbacks = {k: v for k, v in counters.items() if k.startswith("fastpath.fallback")}
        if resolved < 1:
            failures.append(f"{algorithm}: fast path never resolved (guard counter 0)")
        if fallbacks:
            failures.append(f"{algorithm}: fast path fell back to slow path: {fallbacks}")
        print(
            f"{algorithm}: identical={_identical(slow, fast)} "
            f"resolved={resolved} fallbacks={fallbacks or 'none'}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-smoke OK: fast path resolved, no fallbacks, bit-identical")
    return 0


# ----------------------------------------------------------------------
# --kernel: compiled walk kernel vs the layered path
# ----------------------------------------------------------------------
def _kernel_run(platform, query, algorithm, enabled, budget, obs=None):
    """One estimate run with the kernel forced on/off (off = fully layered)."""
    previous = set_kernel_enabled(enabled)
    try:
        return run_estimator(
            platform, query, algorithm, budget=budget, seed=SEED, obs=obs
        )
    finally:
        set_kernel_enabled(previous)


def _kernel_guards(platform, query, algorithm, budget, failures):
    """kernel.resolved >= 1 and zero kernel.fallback{reason} counters."""
    metrics = MetricsRegistry()
    obs = Observability(metrics=metrics)
    _kernel_run(platform, query, algorithm, True, budget, obs=obs)
    counters = metrics.snapshot()["counters"]
    resolved = counters.get("kernel.resolved", 0)
    fallbacks = {k: v for k, v in counters.items() if k.startswith("kernel.fallback")}
    if resolved < 1:
        failures.append(f"{algorithm}: kernel never resolved (guard counter 0)")
    if fallbacks:
        failures.append(f"{algorithm}: kernel fell back to interpreted: {fallbacks}")
    return resolved, fallbacks


def _spawn_scale_cell(kernel_enabled):
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
    if kernel_enabled:
        env.pop("REPRO_NO_KERNEL", None)
    else:
        env["REPRO_NO_KERNEL"] = "1"
    label = "on" if kernel_enabled else "off"
    print(f"  [10M mmap] kernel {label}: building + walking ...", flush=True)
    proc = subprocess.run(command, capture_output=True, text=True, cwd=str(REPO_ROOT), env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"10M mmap cell (kernel {label}) failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _mmap_gate_basis():
    """PR-7's recorded 10M throughput: the pre-kernel gate basis.

    Prefers the basis pinned in ``BENCH_walk_kernel.json`` by the first
    kernel bench run — the data-plane sweep refreshes its own numbers
    with the kernel active, so reading it live after that would gate
    this bench against itself.  Falls back to ``BENCH_data_plane.json``
    (correct while it still holds pre-kernel numbers), then to this
    run's own kernel-off cell.
    """
    try:
        payload = json.loads(KERNEL_JSON_PATH.read_text(encoding="utf-8"))
        return float(payload["mmap_10m"]["pr7_basis_calls_per_sec"])
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


def run_kernel_full():
    platform = bench_platform(NUM_USERS)
    query = count_users("privacy")
    failures = []
    rows = []
    payload = {
        "num_users": NUM_USERS,
        "budget": KERNEL_BUDGET,
        "seed": SEED,
        "query": "count_users('privacy')",
        "speedup_floor": KERNEL_SPEEDUP_FLOOR,
        "algorithms": {},
    }
    for algorithm in ALGORITHMS:
        t_off = t_on = float("inf")
        off = on = None
        # Interleaved best-of-N: off/on pairs alternate so drift in the
        # shared machine hits both sides equally.
        for _ in range(KERNEL_TIMING_REPEATS):
            platform.store.drop_caches()
            start = time.perf_counter()
            off = _kernel_run(platform, query, algorithm, False, KERNEL_BUDGET)
            t_off = min(t_off, time.perf_counter() - start)
            platform.store.drop_caches()
            start = time.perf_counter()
            on = _kernel_run(platform, query, algorithm, True, KERNEL_BUDGET)
            t_on = min(t_on, time.perf_counter() - start)
            if not _identical(off, on):
                failures.append(
                    f"{algorithm}: kernel run not bit-identical "
                    f"(off {off.value!r}/{off.cost_by_kind}, "
                    f"on {on.value!r}/{on.cost_by_kind})"
                )
                break
        resolved, fallbacks = _kernel_guards(
            platform, query, algorithm, KERNEL_BUDGET, failures
        )
        speedup = t_off / t_on
        gated = algorithm == "ma-tarw"
        if gated and speedup < KERNEL_SPEEDUP_FLOOR:
            failures.append(
                f"{algorithm}: kernel speedup {speedup:.2f}x under the "
                f"{KERNEL_SPEEDUP_FLOOR}x floor"
            )
        rows.append([
            algorithm, t_off, t_on, speedup,
            "yes" if gated else "no", off.value, off.cost_total,
        ])
        payload["algorithms"][algorithm] = {
            "value": off.value,
            "cost_total": off.cost_total,
            "bit_identical": True,
            "kernel_off_seconds": round(t_off, 4),
            "kernel_on_seconds": round(t_on, 4),
            "speedup": round(speedup, 2),
            "gated": gated,
            "kernel_resolved": resolved,
        }
        print(f"{algorithm}: {speedup:.2f}x kernel speedup, bit-identical")

    basis = _mmap_gate_basis()
    cell_off = _spawn_scale_cell(kernel_enabled=False)
    cell_on = _spawn_scale_cell(kernel_enabled=True)
    for field in ("value_repr", "cost_total", "cost_by_kind", "trace_sha256"):
        if cell_off[field] != cell_on[field]:
            failures.append(
                f"10M mmap: kernel diverges on {field}: "
                f"off={cell_off[field]!r} on={cell_on[field]!r}"
            )
    if not cell_on.get("kernel_resolved"):
        failures.append("10M mmap: kernel.resolved never fired")
    if basis is None:
        basis = cell_off["calls_per_sec"]
        print(
            "  [10M mmap] no PR-7 record in BENCH_data_plane.json; "
            f"gating against this run's kernel-off cell ({basis} calls/s)"
        )
    mmap_ratio = cell_on["calls_per_sec"] / basis
    if mmap_ratio < MMAP_GATE_RATIO:
        failures.append(
            f"10M mmap: kernel-on {cell_on['calls_per_sec']} calls/s is only "
            f"{mmap_ratio:.2f}x the PR-7 basis {basis} (< {MMAP_GATE_RATIO}x)"
        )
    print(
        f"10M mmap: kernel on {cell_on['calls_per_sec']} calls/s vs "
        f"off {cell_off['calls_per_sec']} (basis {basis}): {mmap_ratio:.2f}x"
    )
    payload["mmap_10m"] = {
        "num_posts": cell_on["num_posts"],
        "bit_identical": all(
            cell_off[f] == cell_on[f]
            for f in ("value_repr", "cost_total", "cost_by_kind", "trace_sha256")
        ),
        "kernel_off_calls_per_sec": cell_off["calls_per_sec"],
        "kernel_on_calls_per_sec": cell_on["calls_per_sec"],
        "pr7_basis_calls_per_sec": basis,
        "ratio_vs_basis": round(mmap_ratio, 2),
        "gate_ratio": MMAP_GATE_RATIO,
    }

    table = format_table(
        "Compiled walk kernel vs layered path "
        f"({NUM_USERS:,} users, budget {KERNEL_BUDGET:,}, seed {SEED}; "
        "interleaved best-of-"
        f"{KERNEL_TIMING_REPEATS} cold-store wall; kernel off = fully layered)",
        ["algorithm", "off s", "on s", "speedup", "gated", "estimate", "cost"],
        rows,
    )
    emit("walk_kernel", table)
    KERNEL_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {KERNEL_JSON_PATH.name}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def run_kernel_quick():
    """CI kernel-smoke: identity + guard counters, no timing gates."""
    platform = bench_platform(QUICK_NUM_USERS)
    query = count_users("privacy")
    failures = []
    for algorithm in ALGORITHMS:
        off = _kernel_run(platform, query, algorithm, False, QUICK_BUDGET)
        on = _kernel_run(platform, query, algorithm, True, QUICK_BUDGET)
        if not _identical(off, on):
            failures.append(
                f"{algorithm}: kernel run not bit-identical "
                f"(off {off.value!r}, on {on.value!r})"
            )
        resolved, fallbacks = _kernel_guards(
            platform, query, algorithm, QUICK_BUDGET, failures
        )
        print(
            f"{algorithm}: identical={_identical(off, on)} "
            f"kernel_resolved={resolved} fallbacks={fallbacks or 'none'}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("kernel-smoke OK: kernel resolved, no fallbacks, bit-identical")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI perf-smoke: small platform, identity + guard counters only",
    )
    parser.add_argument(
        "--kernel",
        action="store_true",
        help="bench the compiled walk kernel against the layered path "
        "(with --quick: CI identity + guard smoke)",
    )
    args = parser.parse_args(argv)
    if args.kernel:
        return run_kernel_quick() if args.quick else run_kernel_full()
    return run_quick() if args.quick else run_full()


if __name__ == "__main__":
    sys.exit(main())
