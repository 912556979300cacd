"""Scale benchmark: data-plane build cost and resident set at 100k–10M rows.

Sweeps platform sizes across the ``frozen`` (in-RAM) and ``mmap``
(out-of-core) data planes and records, per (scale, plane) cell:

* build wall-clock and post count;
* **peak RSS delta** over the interpreter baseline, captured separately
  after the build and after a budgeted estimate — the build delta is the
  number the out-of-core plane exists to flatten;
* the sharded layout's on-disk size (mmap cells), so the RSS claim can
  be read against the data the process *didn't* hold;
* a budgeted ``ma-tarw`` estimate: value, per-kind cost, walk calls/sec,
  and the sha256 of the canonical trace bytes.

Every cell runs in a **fresh subprocess**: ``ru_maxrss`` is a
process-lifetime high-water mark, so planes measured in one process
would contaminate each other.  The parent then asserts the planes are
*bit-identical* — same estimate repr, same per-kind costs, same trace
bytes — at every scale both can run, and that the 1M-row mmap build's
RSS delta sits at least :data:`RSS_RATIO_FLOOR` times under the frozen
plane's.

Tables land in ``benchmarks/results/scale.txt`` and the machine-readable
summary merges into the ``"scale"`` section of ``BENCH_data_plane.json``
at the repo root.

``--quick`` is the CI scale-smoke mode: one small frozen-vs-mmap
identity cell, plus a ~2M-row mmap streaming build gated on a fixed RSS
ceiling (:data:`QUICK_RSS_CEILING`) that the resulting on-disk layout
must itself exceed — proof the build never held its output — failing on
any ``fastpath.fallback`` counter in mmap mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_data_plane.json"
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

SEED = 20140622
WALK_SEED = 7
BUDGET = 3_000
RSS_RATIO_FLOOR = 4.0
"""The 1M-row acceptance gate: mmap build RSS delta must be at least
this many times smaller than the frozen plane's."""

# Few users x heavy posting: the row count dominates, so the dict-of-sets
# social graph (which both planes keep in RAM for cascade dynamics) stays
# a rounding error and the cells measure the *post column* planes.
SCALES = (
    dict(label="100k", users=2_000, bg_mean=50.0, planes=("frozen", "mmap")),
    dict(label="1M", users=1_000, bg_mean=1_000.0, planes=("frozen", "mmap"),
         ratio_floor=RSS_RATIO_FLOOR),
    dict(label="10M", users=2_000, bg_mean=5_000.0, planes=("mmap",)),
)

QUICK_IDENTITY = dict(label="identity", users=500, bg_mean=100.0,
                      planes=("frozen", "mmap"))
QUICK_STREAM = dict(label="stream-2.5M", users=1_000, bg_mean=2_500.0,
                    planes=("mmap",))
QUICK_RSS_CEILING = 100 * 1024 * 1024
"""Build RSS-delta ceiling for the quick streaming cell (~2.5M rows whose
sharded layout is ~130 MB — bigger than this ceiling by construction)."""

IDENTITY_FIELDS = ("value_repr", "cost_total", "cost_by_kind", "trace_sha256")


# ----------------------------------------------------------------------
# child: one (scale, plane) cell in a clean process
# ----------------------------------------------------------------------
def run_cell(args: argparse.Namespace) -> None:
    from repro.core.query import count_users
    from repro.obs import MetricsRegistry, Observability
    from repro.obs.export import trace_lines
    from repro.obs.trace import RecordingSink
    from repro.platform.outofcore import peak_rss_bytes
    from repro.platform.simulator import PlatformConfig, build_platform

    baseline = peak_rss_bytes()
    config = PlatformConfig(
        num_users=args.users,
        background_posts_mean=args.bg_mean,
        seed=SEED,
        data_plane=args.cell,
        build_chunk_rows=args.chunk_rows,
    )
    start = time.perf_counter()
    platform = build_platform(config)
    build_seconds = time.perf_counter() - start
    build_peak = peak_rss_bytes()

    layout_bytes = None
    source_dir = getattr(platform.store, "source_dir", None)
    if source_dir:
        layout_bytes = sum(
            entry.stat().st_size for entry in pathlib.Path(source_dir).iterdir()
        )

    report = {
        "plane": args.cell,
        "num_users": args.users,
        "background_posts_mean": args.bg_mean,
        "num_posts": int(platform.store.num_posts),
        "build_seconds": round(build_seconds, 3),
        "baseline_rss": baseline,
        "build_rss_delta": build_peak - baseline,
        "layout_bytes": layout_bytes,
    }

    if not args.skip_estimate:
        obs = Observability(
            trace_sink=RecordingSink(), metrics=MetricsRegistry()
        )
        from repro.core.analyzer import MicroblogAnalyzer

        analyzer = MicroblogAnalyzer(
            platform, algorithm="ma-tarw", seed=WALK_SEED, obs=obs
        )
        start = time.perf_counter()
        result = analyzer.estimate(count_users("privacy"), budget=BUDGET)
        estimate_seconds = time.perf_counter() - start
        trace = ("\n".join(trace_lines(obs.trace_records())) + "\n").encode("ascii")
        counters = obs.metrics.snapshot()["counters"]
        diagnostics = result.diagnostics or {}
        walk_steps = diagnostics.get("instances", 0.0) * diagnostics.get(
            "mean_path_length", 0.0
        )
        report.update(
            estimate_seconds=round(estimate_seconds, 3),
            value_repr=repr(result.value),
            cost_total=result.cost_total,
            cost_by_kind=dict(sorted(result.cost_by_kind.items())),
            calls_per_sec=round(result.cost_total / max(estimate_seconds, 1e-9), 1),
            walk_steps_per_sec=round(walk_steps / max(estimate_seconds, 1e-9), 1),
            trace_sha256=hashlib.sha256(trace).hexdigest(),
            fallbacks=sorted(
                key
                for key in counters
                if key.startswith(("fastpath.fallback", "kernel.fallback"))
            ),
            fastpath_resolved=counters.get("fastpath.resolved", 0),
            kernel_resolved=counters.get("kernel.resolved", 0),
        )
    report["total_rss_delta"] = peak_rss_bytes() - baseline
    print(json.dumps(report))


def spawn_cell(plane: str, scale: dict, chunk_rows: int, skip_estimate: bool) -> dict:
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--cell", plane,
        "--users", str(scale["users"]),
        "--bg-mean", str(scale["bg_mean"]),
        "--chunk-rows", str(chunk_rows),
    ]
    if skip_estimate:
        command.append("--skip-estimate")
    print(f"  [{scale['label']}] {plane}: building ...", flush=True)
    proc = subprocess.run(
        command, capture_output=True, text=True, cwd=str(REPO_ROOT)
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"cell ({scale['label']}, {plane}) failed")
    cell = json.loads(proc.stdout.strip().splitlines()[-1])
    print(
        f"  [{scale['label']}] {plane}: {cell['num_posts']:,} posts, "
        f"build {cell['build_seconds']}s, "
        f"build RSS +{cell['build_rss_delta'] / 2**20:,.0f} MB",
        flush=True,
    )
    return cell


# ----------------------------------------------------------------------
# parent: sweep + identity / RSS assertions
# ----------------------------------------------------------------------
def check_identity(scale_label: str, cells: dict, failures: list) -> None:
    planes = [p for p in ("frozen", "mmap") if p in cells and "value_repr" in cells[p]]
    if len(planes) < 2:
        return
    a, b = cells[planes[0]], cells[planes[1]]
    for field in IDENTITY_FIELDS:
        if a[field] != b[field]:
            failures.append(
                f"[{scale_label}] planes diverge on {field}: "
                f"{planes[0]}={a[field]!r} {planes[1]}={b[field]!r}"
            )


def check_mmap_guards(scale_label: str, cells: dict, failures: list) -> None:
    mmap_cell = cells.get("mmap")
    if mmap_cell is None or "value_repr" not in mmap_cell:
        return
    if mmap_cell["fallbacks"]:
        failures.append(
            f"[{scale_label}] mmap estimate left the fast path: "
            f"{mmap_cell['fallbacks']}"
        )
    if not mmap_cell["fastpath_resolved"]:
        failures.append(f"[{scale_label}] fastpath.resolved never fired on mmap")
    if not mmap_cell.get("kernel_resolved"):
        failures.append(f"[{scale_label}] kernel.resolved never fired on mmap")


def run_sweep(scales, chunk_rows: int, skip_estimate_planes=()) -> tuple:
    results, failures = [], []
    for scale in scales:
        cells = {}
        for plane in scale["planes"]:
            cells[plane] = spawn_cell(
                plane, scale, chunk_rows, skip_estimate=plane in skip_estimate_planes
            )
        check_identity(scale["label"], cells, failures)
        check_mmap_guards(scale["label"], cells, failures)
        floor = scale.get("ratio_floor")
        if floor and "frozen" in cells and "mmap" in cells:
            ratio = cells["frozen"]["build_rss_delta"] / max(
                cells["mmap"]["build_rss_delta"], 1
            )
            cells["rss_ratio_frozen_over_mmap"] = round(ratio, 2)
            if ratio < floor:
                failures.append(
                    f"[{scale['label']}] mmap build RSS delta only {ratio:.1f}x "
                    f"under frozen (floor {floor}x)"
                )
        results.append(dict(label=scale["label"], cells=cells))
    return results, failures


def render(results) -> str:
    from repro.bench import format_table

    rows = []
    for entry in results:
        for plane, cell in entry["cells"].items():
            if not isinstance(cell, dict):
                continue
            rows.append([
                entry["label"], plane, cell["num_posts"],
                cell["build_seconds"],
                round(cell["build_rss_delta"] / 2**20, 1),
                round(cell["layout_bytes"] / 2**20, 1) if cell["layout_bytes"] else None,
                cell.get("calls_per_sec"),
                cell.get("walk_steps_per_sec"),
            ])
    return format_table(
        "Data-plane scale sweep (per-cell subprocess; RSS deltas over interpreter baseline)",
        ["scale", "plane", "posts", "build s", "build RSS MB", "layout MB",
         "walk calls/s", "walk steps/s"],
        rows,
    )


def main() -> int:
    from repro.platform.simulator import DATA_PLANES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI scale-smoke: identity cell + gated 2M-row streaming build")
    parser.add_argument("--chunk-rows", type=int, default=262_144)
    parser.add_argument("--cell", choices=DATA_PLANES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--users", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--bg-mean", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--skip-estimate", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.cell:
        run_cell(args)
        return 0

    if args.quick:
        results, failures = run_sweep(
            [QUICK_IDENTITY, QUICK_STREAM], args.chunk_rows
        )
        stream = results[1]["cells"]["mmap"]
        if stream["build_rss_delta"] > QUICK_RSS_CEILING:
            failures.append(
                f"[stream-2M] build RSS delta {stream['build_rss_delta'] / 2**20:.0f} MB "
                f"exceeds the {QUICK_RSS_CEILING / 2**20:.0f} MB ceiling"
            )
        if stream["layout_bytes"] <= QUICK_RSS_CEILING:
            failures.append(
                "[stream-2M] layout smaller than the RSS ceiling — the gate "
                "no longer proves an out-of-core build; grow the cell"
            )
        print(render(results))
        if failures:
            print("\nFAILURES:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("\nscale-smoke OK: planes bit-identical, streaming build under the RSS ceiling")
        return 0

    results, failures = run_sweep(list(SCALES), args.chunk_rows)
    table = render(results)
    from repro.bench import emit

    emit("scale", table)
    payload = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
    payload["scale"] = {
        "seed": SEED,
        "budget": BUDGET,
        "walk_seed": WALK_SEED,
        "rss_ratio_floor": RSS_RATIO_FLOOR,
        "results": results,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {JSON_PATH}")
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
