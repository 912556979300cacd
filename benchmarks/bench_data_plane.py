"""Data-plane benchmark: build time and walk throughput per serving form.

Two in-RAM data planes (see ``repro.platform.simulator.DATA_PLANES``):

* ``legacy`` — vectorized columnar build, mutable dict/list serving;
* ``frozen`` — vectorized build compiled to FrozenStore + CSR graph.

For each platform scale this bench measures ``build_platform`` wall time
and random-walk throughput over the connections API (steps/sec through a
``CachingClient``, the estimators' serving path), then times an
end-to-end ``replicate_runs`` on the bench platform.  Results go to
``benchmarks/results/data_plane.txt`` and a machine-readable trajectory
file ``BENCH_data_plane.json`` at the repo root.

The pre-columnar scalar build (the removed ``baseline`` plane) is no
longer measured; its last committed rows ride along verbatim as
:data:`HISTORICAL_BASELINE`, labelled "not re-measured" in the JSON.
"""

import json
import pathlib
import time

from repro._rng import ensure_rng
from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.bench import BENCH_PLATFORM_SEED, emit, format_table, replicate_runs
from repro.core.query import count_users
from repro.platform.simulator import PlatformConfig, build_platform

SCALES = (
    # (num_users, background_posts_mean)
    (8_000, 45.0),
    (30_000, 45.0),
    (100_000, 6.0),
)
PLANES = ("legacy", "frozen")
WALK_STEPS = 50_000
REPLICATES = 3
REPLICATE_BUDGET = 8_000
JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_data_plane.json"
HISTORICAL_BASELINE = {
    "note": "not re-measured: last committed rows of the removed scalar 'baseline' plane",
    "scales": {
        "8000": {"build_seconds": 2.106, "walk_steps_per_sec": 705223.8, "num_posts": 396764},
        "30000": {"build_seconds": 7.332, "walk_steps_per_sec": 390907.2, "num_posts": 1454489},
    },
    "replicate_runs": {
        "build_seconds": 2.088,
        "estimate_seconds": 1.579,
        "total_seconds": 3.667,
    },
}


def _build(num_users, mean, plane, repeats=1):
    """Build once per *repeats*, returning the last platform and the best
    wall time (min-of-N damps scheduler noise on the timing claim)."""
    config = PlatformConfig(
        num_users=num_users,
        background_posts_mean=mean,
        seed=BENCH_PLATFORM_SEED,
        data_plane=plane,
    )
    best = float("inf")
    platform = None
    for _ in range(repeats):
        del platform  # release the previous build before re-timing
        start = time.perf_counter()
        platform = build_platform(config)
        best = min(best, time.perf_counter() - start)
    return platform, best


def _walk_steps_per_sec(platform, steps=WALK_STEPS, seed=7):
    """Random walk over the connections API via a caching client.

    This is the estimators' hot serving path: uncached requests hit the
    store/graph, repeats hit the client cache — both legs are in the mix,
    as they are in a real walk.
    """
    client = CachingClient(SimulatedMicroblogClient(platform))
    rng = ensure_rng(seed)
    current = platform.store.user_ids()[0]
    start = time.perf_counter()
    for _ in range(steps):
        neighbors = client.user_connections(current)
        if not neighbors:
            current = rng.choice(platform.store.user_ids())
            continue
        current = neighbors[rng.randrange(len(neighbors))]
    return steps / (time.perf_counter() - start)


def compute():
    record = {"seed": BENCH_PLATFORM_SEED, "scales": [], "replicate_runs": {}}
    rows = []
    for num_users, mean in SCALES:
        entry = {"num_users": num_users, "background_posts_mean": mean, "planes": {}}
        timings = {}
        for plane in PLANES:
            platform, build_seconds = _build(num_users, mean, plane, repeats=2)
            walk_rate = _walk_steps_per_sec(platform)
            timings[plane] = (build_seconds, walk_rate)
            entry["planes"][plane] = {
                "build_seconds": round(build_seconds, 3),
                "walk_steps_per_sec": round(walk_rate, 1),
                "num_posts": platform.store.num_posts,
            }
            del platform  # free before the next (possibly 100k-user) build
        speedup = timings["legacy"][0] / timings["frozen"][0]
        entry["build_speedup_frozen_vs_legacy"] = round(speedup, 2)
        record["scales"].append(entry)
        for plane in PLANES:
            build_seconds, walk_rate = timings[plane]
            rows.append(
                [
                    f"{num_users:,}",
                    plane,
                    build_seconds,
                    walk_rate,
                    speedup if plane == "frozen" else None,
                ]
            )

    # End-to-end replicate_runs (build + replicates) on the bench-scale
    # platform, per plane.  The frozen plane shifts post materialisation
    # from build time to first serving access, so build and estimation are
    # reported separately but compared as a whole — the time a user waits
    # from cold start to results.
    query = count_users("privacy")
    for plane in PLANES:
        platform, build_seconds = _build(8_000, 45.0, plane)
        start = time.perf_counter()
        replicate_runs(
            platform, query, "ma-tarw", replicates=REPLICATES, budget=REPLICATE_BUDGET
        )
        estimate_seconds = time.perf_counter() - start
        record["replicate_runs"][plane] = {
            "build_seconds": round(build_seconds, 3),
            "estimate_seconds": round(estimate_seconds, 3),
            "total_seconds": round(build_seconds + estimate_seconds, 3),
        }
        del platform
    record["replicate_runs"]["speedup"] = round(
        record["replicate_runs"]["legacy"]["total_seconds"]
        / record["replicate_runs"]["frozen"]["total_seconds"],
        2,
    )
    record["historical_baseline"] = HISTORICAL_BASELINE

    # bench_scale.py owns the "scale" section of the same file; keep it.
    if JSON_PATH.exists():
        previous = json.loads(JSON_PATH.read_text(encoding="utf-8"))
        if "scale" in previous:
            record["scale"] = previous["scale"]
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return rows, record


def test_data_plane_speedups(once):
    rows, record = once(compute)
    emit(
        "data_plane",
        format_table(
            f"Columnar data plane: build time and walk throughput (seed {BENCH_PLATFORM_SEED})",
            ["users", "plane", "build s", "walk steps/s", "frozen speedup"],
            rows,
        )
        + "\n\n"
        + format_table(
            f"replicate_runs end-to-end (8k users, ma-tarw, {REPLICATES}x{REPLICATE_BUDGET} budget)",
            ["plane", "build s", "estimate s", "total s"],
            [
                [
                    plane,
                    record["replicate_runs"][plane]["build_seconds"],
                    record["replicate_runs"][plane]["estimate_seconds"],
                    record["replicate_runs"][plane]["total_seconds"],
                ]
                for plane in PLANES
            ]
            + [["speedup", None, None, record["replicate_runs"]["speedup"]]],
        ),
    )
    # Same-machine comparisons against the mutable legacy plane: the frozen
    # build must be faster at every scale, and so must end-to-end
    # estimation (cold start to results).
    for entry in record["scales"]:
        assert entry["build_speedup_frozen_vs_legacy"] > 1.0, entry["num_users"]
    assert record["replicate_runs"]["speedup"] > 1.0
