"""Command-line interface: ``python -m repro <command> ...``.

Lets a user drive the full pipeline without writing Python:

* ``simulate`` — build a deterministic platform and save it (``.npz``
  archive, or a sharded memmap directory for any other path; add
  ``--data-plane mmap`` to stream the build itself out of core);
* ``keywords`` — list a platform's keywords with population statistics;
* ``estimate`` — run an aggregate estimation under a budget (optionally
  with a replicate confidence interval) and compare to ground truth;
* ``truth``    — print only the exact ground-truth answer.

Examples::

    python -m repro simulate --users 10000 --seed 42 --out platform.npz
    python -m repro keywords --platform platform.npz
    python -m repro estimate --platform platform.npz --keyword privacy \\
        --aggregate count --algorithm ma-tarw --budget 15000
    python -m repro estimate --users 5000 --keyword boston \\
        --aggregate avg --measure followers --budget 8000 --replicates 4
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

from repro.api.faults import FAULT_PROFILES
from repro.core.analyzer import ALGORITHMS, GRAPH_DESIGNS, MicroblogAnalyzer
from repro.core.query import (
    AggregateQuery,
    Aggregate,
    CONSTANT_ONE,
    DISPLAY_NAME_LENGTH,
    FOLLOWERS,
    MATCHING_POST_COUNT,
    MEAN_LIKES,
    TOTAL_LIKES,
)
from repro.errors import ReproError
from repro.groundtruth import exact_value, relative_error
from repro.platform.clock import DAY
from repro.platform.profiles import ALL_PROFILES
from repro.platform.outofcore import DEFAULT_CHUNK_ROWS
from repro.platform.serialization import load_platform, save_platform
from repro.platform.simulator import (
    DATA_PLANES,
    PlatformConfig,
    SimulatedPlatform,
    build_platform,
)

MEASURES = {
    "one": CONSTANT_ONE,
    "followers": FOLLOWERS,
    "display_name_length": DISPLAY_NAME_LENGTH,
    "matching_post_count": MATCHING_POST_COUNT,
    "mean_likes": MEAN_LIKES,
    "total_likes": TOTAL_LIKES,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aggregate estimation over a simulated microblog platform "
        "(SIGMOD 2014 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="build a platform and save it")
    _platform_build_args(simulate)
    simulate.add_argument("--out", required=True,
                          help="output path: a .npz archive, or (any other "
                               "path) a sharded layout directory that loads "
                               "via memmap")

    keywords = sub.add_parser("keywords", help="list keywords with statistics")
    _platform_source_args(keywords)

    estimate = sub.add_parser("estimate", help="estimate an aggregate query")
    _platform_source_args(estimate)
    _query_args(estimate)
    estimate.add_argument("--algorithm", default="ma-tarw", choices=ALGORITHMS,
                          help="estimation walker from the registry (default "
                               "ma-tarw; see docs/ALGORITHMS.md for the catalog)")
    estimate.add_argument("--graph-design", default="level-by-level",
                          choices=GRAPH_DESIGNS,
                          help="walkable graph design over the topic subgraph "
                               "(default level-by-level; ma-tarw requires it)")
    estimate.add_argument("--budget", type=int, default=15_000,
                          help="maximum API calls (default 15000)")
    estimate.add_argument("--interval-days", type=float, default=1.0,
                          help="level bucket width in days; 0 = auto-select")
    estimate.add_argument("--replicates", type=int, default=1,
                          help=">1 splits the budget and reports a 95%% CI")
    estimate.add_argument("--walk-seed", type=int, default=0,
                          help="random-walk seed (default 0); a fixed seed "
                               "makes estimates and traces deterministic")
    estimate.add_argument("--workers", type=int, default=None,
                          help="run the walk budget as parallel shards on this "
                               "many workers (walkers with a parallel driver: "
                               "ma-tarw, ma-srw, rewired-srw, wnw, frontier; "
                               "the point estimate is worker-count-invariant)")
    estimate.add_argument("--executor", default="auto",
                          choices=["auto", "process", "thread", "serial"],
                          help="worker pool kind for --workers (default auto)")
    estimate.add_argument("--fault-profile", default="none",
                          choices=sorted(FAULT_PROFILES),
                          help="inject seeded API faults (transient errors, "
                               "timeouts, truncated pages, duplicates) healed "
                               "by the resilient retry layer; estimates stay "
                               "bit-identical to a fault-free run")
    estimate.add_argument("--fault-seed", type=int, default=0,
                          help="seed for the injected-fault draws")
    estimate.add_argument("--trace-out", metavar="PATH",
                          help="write the structured walk trace as canonical "
                               "JSONL (byte-stable under a fixed seed; see "
                               "docs/OBSERVABILITY.md)")
    estimate.add_argument("--metrics", action="store_true",
                          help="print the run's metrics registry (query mix, "
                               "cache hits, walk-length histograms) as JSON")
    estimate.add_argument("--report", action="store_true",
                          help="print a human convergence report (estimate "
                               "stream mixing, burn-in adequacy, ESTIMATE-p "
                               "agreement, query mix)")
    estimate.add_argument("--profile", metavar="PATH",
                          help="run the estimation under cProfile and dump "
                               "binary stats to PATH (.pstats; inspect with "
                               "python -m pstats PATH — see docs/BENCHMARKS.md)")

    truth = sub.add_parser("truth", help="print the exact ground-truth answer")
    _platform_source_args(truth)
    _query_args(truth)

    serve = sub.add_parser(
        "serve",
        help="run a multi-tenant query workload through the estimation service",
    )
    _platform_source_args(serve)
    serve.add_argument("--tenants", required=True, metavar="PATH",
                       help="workload JSON: tenant grants (budgets, rate limits, "
                            "admission policy) plus the queries to run — see "
                            "repro.service.workload for the format")
    serve.add_argument("--algorithm", default="ma-tarw", choices=ALGORITHMS,
                       help="estimation walker every query runs (default ma-tarw)")
    serve.add_argument("--graph-design", default="level-by-level",
                       choices=GRAPH_DESIGNS,
                       help="graph design for every query (default level-by-level)")
    serve.add_argument("--interval-days", type=float, default=0.0,
                       help="level bucket width in days; 0 = auto-select with "
                            "the cross-query interval cache (default)")
    serve.add_argument("--service-seed", type=int, default=0,
                       help="service seed; per-query seeds derive from it and "
                            "each query's fingerprint (default 0)")
    serve.add_argument("--fault-profile", default="none",
                       choices=sorted(FAULT_PROFILES),
                       help="inject seeded API faults under every query")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the injected-fault draws")
    serve.add_argument("--truth", action="store_true",
                       help="also print each query's exact answer and error")
    serve.add_argument("--trace-out", metavar="PATH",
                       help="write the service-level trace (service.* admission "
                            "and query events) as canonical JSONL")
    serve.add_argument("--metrics", action="store_true",
                       help="print the service metrics registry (per-tenant "
                            "query/call counters, queue depths) as JSON")

    evolve = sub.add_parser(
        "evolve",
        help="stream synthetic deltas into the platform and track "
             "sliding-window estimates across epochs",
    )
    _platform_source_args(evolve)
    evolve.add_argument("--epochs", type=int, default=4,
                        help="delta epochs to ingest (default 4)")
    evolve.add_argument("--epoch-days", type=float, default=7.0,
                        help="simulated days each delta spans (default 7)")
    evolve.add_argument("--window-days", type=float, default=7.0,
                        help="sliding-window length for the per-epoch "
                             "queries: users who mentioned the keyword in "
                             "the trailing N days (default 7)")
    evolve.add_argument("--budget", type=int, default=6_000,
                        help="API-call budget per query (default 6000)")
    evolve.add_argument("--algorithm", default="ma-tarw", choices=ALGORITHMS,
                        help="estimation walker every query runs (default ma-tarw)")
    evolve.add_argument("--graph-design", default="level-by-level",
                        choices=GRAPH_DESIGNS,
                        help="graph design for every query (default level-by-level)")
    evolve.add_argument("--service-seed", type=int, default=0,
                        help="service seed (per-query seeds derive from it)")
    evolve.add_argument("--delta-seed", type=int, default=0,
                        help="base seed for the synthesized deltas (default 0)")
    evolve.add_argument("--new-users", type=int, default=20,
                        help="new users arriving per epoch (default 20)")
    evolve.add_argument("--keyword-posts", type=int, default=150,
                        help="new mentions per keyword per epoch (default 150)")
    evolve.add_argument("--background-posts", type=int, default=400,
                        help="keyword-free posts per epoch (default 400)")
    evolve.add_argument("--compact-every", type=int, default=0,
                        help="re-freeze frozen+tail every K epochs "
                             "(0 = never; serving is identical either way)")
    evolve.add_argument("--truth", action="store_true",
                        help="also print each epoch's exact answer and error")
    return parser


def _platform_build_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=10_000,
                        help="platform size when building (default 10000)")
    parser.add_argument("--seed", type=int, default=42,
                        help="platform generation seed (default 42)")
    parser.add_argument("--api-profile", default="twitter", choices=sorted(ALL_PROFILES),
                        help="API restriction profile (default twitter)")
    parser.add_argument("--data-plane", default="frozen", choices=DATA_PLANES,
                        help="post-store backend when building (default frozen; "
                             "'mmap' streams the build through an on-disk "
                             "sharded layout and serves columns via memmap — "
                             "bit-identical estimates at a flat RSS)")
    parser.add_argument("--chunk-rows", type=int, default=DEFAULT_CHUNK_ROWS,
                        help="rows per streaming chunk for the mmap plane "
                             f"(default {DEFAULT_CHUNK_ROWS})")
    parser.add_argument("--progress", action="store_true",
                        help="echo build progress (rows flushed, resident set) "
                             "to stderr while the platform is generated")


def _platform_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", help="load a saved .npz platform")
    _platform_build_args(parser)


def _query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--query",
                        help="full SQL-ish query, e.g. \"SELECT AVG(followers) FROM "
                             "users WHERE timeline CONTAINS 'privacy'\"; overrides "
                             "the flags below")
    parser.add_argument("--keyword",
                        help="topic keyword defining the user population")
    parser.add_argument("--aggregate", default="count",
                        choices=["count", "sum", "avg"],
                        help="aggregate function over matching users (default count)")
    parser.add_argument("--measure", default=None, choices=sorted(MEASURES),
                        help="f(u); defaults to 'one' for count and to "
                             "'followers' for sum/avg")
    parser.add_argument("--window-days", nargs=2, type=float, metavar=("START", "END"),
                        help="restrict matches to [START, END) in days since epoch")


def _resolve_platform(
    args: argparse.Namespace,
    obs=None,
    spill_dir: Optional[str] = None,
) -> SimulatedPlatform:
    if getattr(args, "platform", None):
        platform = load_platform(args.platform)
    else:
        plane = getattr(args, "data_plane", "frozen")
        print(f"building platform ({args.users:,} users, seed {args.seed}, "
              f"{plane} plane)...", file=sys.stderr)
        config = PlatformConfig(
            num_users=args.users,
            seed=args.seed,
            data_plane=plane,
            build_chunk_rows=getattr(args, "chunk_rows", None) or DEFAULT_CHUNK_ROWS,
            spill_dir=spill_dir,
        )
        platform = build_platform(
            config, obs=obs, progress=True if getattr(args, "progress", False) else None
        )
    profile = ALL_PROFILES[args.api_profile]
    if platform.profile.name != profile.name:
        platform = platform.with_profile(profile)
    return platform


def _resolve_query(args: argparse.Namespace) -> AggregateQuery:
    if getattr(args, "query", None):
        from repro.core.sql import parse_query

        return parse_query(args.query)
    if not args.keyword:
        raise ReproError("provide --keyword (or a full --query)")
    aggregate = Aggregate[args.aggregate.upper()]
    measure_name = args.measure
    if measure_name is None:
        measure_name = "one" if aggregate is Aggregate.COUNT else "followers"
    window = None
    if args.window_days:
        window = (args.window_days[0] * DAY, args.window_days[1] * DAY)
    return AggregateQuery(
        keyword=args.keyword,
        aggregate=aggregate,
        measure=MEASURES[measure_name],
        window=window,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    # An mmap-plane build headed for a directory streams straight into the
    # destination: the spool IS the sharded layout, so the final save only
    # has to write the platform header.
    spill_dir = None
    if getattr(args, "data_plane", "frozen") == "mmap" and not args.out.endswith(".npz"):
        spill_dir = args.out
    platform = _resolve_platform(args, spill_dir=spill_dir)
    save_platform(platform, args.out)
    print(f"saved platform to {args.out} "
          f"({platform.store.num_users:,} users, {platform.store.num_posts:,} posts)")
    return 0


def cmd_keywords(args: argparse.Namespace) -> int:
    platform = _resolve_platform(args)
    store = platform.store
    now = platform.now
    print(f"{'keyword':16s} {'users':>8s} {'posts':>8s} {'recent posters':>15s}")
    for keyword in sorted(store.keywords()):
        users = len(store.users_mentioning(keyword))
        posts = sum(1 for _ in store.keyword_posts(keyword))
        recent = len(store.users_mentioning(keyword, now - 7 * DAY, now))
        print(f"{keyword:16s} {users:8,} {posts:8,} {recent:15,}")
    return 0


def cmd_truth(args: argparse.Namespace) -> int:
    platform = _resolve_platform(args)
    query = _resolve_query(args)
    value = exact_value(platform.store, query)
    print(f"{query.describe()}\n= {value:,.4f}")
    return 0


def _build_obs(args: argparse.Namespace):
    """Telemetry handles for the estimate run, or None when dark."""
    if not (args.trace_out or args.metrics or args.report):
        return None
    from repro.obs import MetricsRegistry, Observability
    from repro.obs.trace import RecordingSink

    return Observability(
        trace_sink=RecordingSink() if args.trace_out else None,
        metrics=MetricsRegistry() if (args.metrics or args.report) else None,
    )


def _emit_obs(args: argparse.Namespace, obs, result=None, truth=None) -> None:
    """Render the report / metrics / trace outputs after an estimate run."""
    from repro.obs.export import metrics_json, render_report, write_trace

    if args.report:
        if result is not None:
            print()
            print(render_report(result, metrics=obs.metrics, truth=truth))
        else:
            print("report   : unavailable with --replicates "
                  "(per-replicate results are pooled into the interval)")
    if args.metrics:
        print()
        print(metrics_json(obs.metrics))
    if args.trace_out:
        count = write_trace(obs.trace_records(), args.trace_out)
        print(f"trace    : {count:,} records -> {args.trace_out}")


def cmd_estimate(args: argparse.Namespace) -> int:
    obs = _build_obs(args)
    platform = _resolve_platform(args, obs=obs)
    query = _resolve_query(args)
    interval = "auto" if args.interval_days == 0 else args.interval_days * DAY
    fault_plan = None
    profile_plan = FAULT_PROFILES[args.fault_profile]
    if profile_plan.active:
        fault_plan = dataclasses.replace(profile_plan, seed=args.fault_seed)
    analyzer = MicroblogAnalyzer(
        platform,
        algorithm=args.algorithm,
        graph_design=args.graph_design,
        interval=interval,
        seed=args.walk_seed,
        n_workers=args.workers,
        executor=args.executor,
        fault_plan=fault_plan,
        obs=obs,
    )
    truth = exact_value(platform.store, query)
    print(query.describe())
    from repro.bench.profiling import profiled

    if args.replicates > 1:
        with profiled(args.profile):
            ci = analyzer.estimate_with_confidence(
                query, budget=args.budget, replicates=args.replicates
            )
        if args.profile:
            print(f"profile  : cProfile stats -> {args.profile}")
        print(f"estimate : {ci}")
        print(f"truth    : {truth:,.4f}  "
              f"({'inside' if ci.contains(truth) else 'outside'} the interval)")
        print(f"rel. err : {relative_error(ci.mean, truth):.2%}")
        if obs is not None:
            _emit_obs(args, obs, result=None, truth=truth)
        return 0
    with profiled(args.profile):
        result = analyzer.estimate(query, budget=args.budget)
    if args.profile:
        print(f"profile  : cProfile stats -> {args.profile}")
    if result.value is None:
        print("no estimate produced (budget too small for this algorithm)")
        if obs is not None:
            _emit_obs(args, obs, result=result, truth=truth)
        return 1
    print(f"estimate : {result.value:,.4f}")
    print(f"truth    : {truth:,.4f}")
    print(f"rel. err : {relative_error(result.value, truth):.2%}")
    print(f"cost     : {result.cost_total:,} API calls {result.cost_by_kind}")
    retry_calls = result.cost_by_kind.get("retries", 0)
    if retry_calls:
        print(f"faults   : {retry_calls:,} retried calls absorbed "
              f"(profile {args.fault_profile!r}; budget spend unaffected)")
    if result.walk_stats is not None:
        print(f"parallel : {result.walk_stats.summary()}")
    if obs is not None:
        _emit_obs(args, obs, result=result, truth=truth)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, Observability
    from repro.obs.trace import RecordingSink
    from repro.service import EstimationService, load_workload

    obs = None
    if args.trace_out or args.metrics:
        obs = Observability(
            trace_sink=RecordingSink() if args.trace_out else None,
            metrics=MetricsRegistry() if args.metrics else None,
        )
    platform = _resolve_platform(args)
    tenants, requests = load_workload(args.tenants)
    if not requests:
        raise ReproError(f"workload {args.tenants} defines no queries")
    fault_plan = None
    profile_plan = FAULT_PROFILES[args.fault_profile]
    if profile_plan.active:
        fault_plan = dataclasses.replace(profile_plan, seed=args.fault_seed)
    interval = "auto" if args.interval_days == 0 else args.interval_days * DAY
    service = EstimationService(
        platform,
        tenants,
        algorithm=args.algorithm,
        graph_design=args.graph_design,
        interval=interval,
        seed=args.service_seed,
        fault_plan=fault_plan,
        obs=obs if obs is not None else None,
    )
    outcomes = service.run_workload(requests)
    print(f"{'id':>4s} {'tenant':12s} {'status':9s} {'keyword':14s} "
          f"{'estimate':>14s} {'cost':>8s} {'cached':>6s}")
    for outcome in outcomes:
        value = "-" if outcome.result is None or outcome.result.value is None \
            else f"{outcome.result.value:,.2f}"
        cost = "-" if outcome.result is None else f"{outcome.result.cost_total:,}"
        note = outcome.reason or outcome.error
        line = (f"{outcome.request_id:4d} {outcome.request.tenant:12s} "
                f"{outcome.status:9s} {outcome.request.query.keyword:14s} "
                f"{value:>14s} {cost:>8s} {'yes' if outcome.cached else 'no':>6s}")
        if note:
            line += f"  ({note})"
        print(line)
        if args.truth and outcome.result is not None and outcome.result.value is not None:
            truth = exact_value(platform.store, outcome.request.query)
            print(f"     truth {truth:,.2f}  "
                  f"rel. err {relative_error(outcome.result.value, truth):.2%}")
    print()
    for name in sorted(service.tenants):
        tenant = service.tenants[name]
        bill = service.tenant_bill(name)
        spent = sum(v for k, v in bill.items() if k != "retries")
        allowance = "unlimited" if tenant.allowance is None else f"{tenant.allowance:,}"
        print(f"tenant {name:12s} reserved {tenant.reserved:,}/{allowance} "
              f"spent {spent:,} {bill} queued {service.queue_depth(name)}")
    stats = service.stats()
    print(f"service  : {stats['completed']} ok, {stats['failed']} failed, "
          f"{stats['rejected']} rejected, {stats['queued']} queued; "
          f"result cache {stats['result_hits']} hits / {stats['result_misses']} misses; "
          f"interval cache {stats['reuse_interval_hits']} hits, "
          f"{stats['reuse_pilot_runs']} pilot runs")
    if obs is not None and args.metrics:
        from repro.obs.export import metrics_json

        print()
        print(metrics_json(obs.metrics))
    if obs is not None and args.trace_out:
        from repro.obs.export import write_trace

        count = write_trace(obs.trace_records(), args.trace_out)
        print(f"trace    : {count:,} records -> {args.trace_out}")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    from repro.core.query import count_users, sliding_window
    from repro.platform.evolve import evolve_platform, synthesize_delta
    from repro.service import EstimationService
    from repro.service.tenants import TenantConfig

    platform = evolve_platform(_resolve_platform(args))
    service = EstimationService(
        platform,
        [TenantConfig("evolve")],
        algorithm=args.algorithm,
        graph_design=args.graph_design,
        seed=args.service_seed,
    )
    from repro.service.service import QueryRequest

    keywords = sorted(platform.store.keywords())
    print(f"{'epoch':>5s} {'keyword':14s} {'window users':>13s} "
          f"{'cost':>8s}  (trailing {args.window_days:g}-day window)")

    def query_epoch(epoch: int) -> None:
        window = sliding_window(platform.clock.now(), args.window_days)
        requests = [
            QueryRequest("evolve", count_users(kw, window=window), args.budget)
            for kw in keywords
        ]
        for outcome in service.run_workload(requests):
            result = outcome.result
            value = "-" if result is None or result.value is None \
                else f"{result.value:,.1f}"
            cost = "-" if result is None else f"{result.cost_total:,}"
            line = (f"{epoch:5d} {outcome.request.query.keyword:14s} "
                    f"{value:>13s} {cost:>8s}")
            if outcome.status != "ok":
                line += f"  ({outcome.error or outcome.reason})"
            elif args.truth:
                truth = exact_value(platform.store, outcome.request.query)
                err = "-" if result is None or result.value is None \
                    else f"{relative_error(result.value, truth):.1%}"
                line += f"  truth {truth:,.1f} rel. err {err}"
            print(line)

    query_epoch(0)
    for epoch in range(1, args.epochs + 1):
        delta = synthesize_delta(
            platform,
            seed=args.delta_seed * 10_000 + epoch,
            epoch_days=args.epoch_days,
            new_users=args.new_users,
            keyword_posts=args.keyword_posts,
            background_posts=args.background_posts,
        )
        stats = service.advance(delta)
        print(f"--- delta {stats.epoch}: +{stats.posts:,} posts, "
              f"+{stats.users:,} users, +{stats.edges:,} edges")
        if args.compact_every and epoch % args.compact_every == 0:
            service.compact()
            print(f"--- compacted at epoch {stats.epoch} "
                  f"(tail re-frozen; caches kept warm)")
        query_epoch(epoch)

    print()
    print("drift report (per query identity):")
    for key, entry in sorted(service.drift_report().items()):
        line = (f"  {key:30s} n={entry['n']:.0f} "
                f"{entry['first']:,.1f} -> {entry['last']:,.1f}")
        if "relative_drift" in entry:
            line += f"  drift {entry['relative_drift']:.1%}"
        if "ess" in entry:
            line += f"  ess {entry['ess']:.1f}"
        if "geweke_z" in entry:
            line += f"  geweke z {entry['geweke_z']:+.2f}"
        print(line)
    stats = service.stats()
    print(f"service  : {stats['completed']} ok, {stats['failed']} failed; "
          f"{stats['reuse_pilot_runs']} pilot runs, "
          f"{stats['reuse_interval_hits']} interval hits")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "keywords": cmd_keywords,
    "estimate": cmd_estimate,
    "truth": cmd_truth,
    "serve": cmd_serve,
    "evolve": cmd_evolve,
}


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
