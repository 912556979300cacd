"""The benchmark's workloads: who sends which queries, and what is checked.

Every workload is a closed loop: one client sends its next query (or
batch) only after the previous answer arrived.  The inputs (query order,
walk seeds, fault seeds, platform deltas) all derive from the run's
``--seed``; the simulated platform itself is fixed, so every seed queries
the same data.

``adhoc``
    An analyst issuing fresh MA-TARW / MA-SRW ``estimate()`` calls on the
    in-RAM frozen plane.  The client stack is clean, so the fast path and
    the walk kernel serve classification.
``serve``
    Three tenants querying an :class:`EstimationService` over an evolving
    platform, in batches shaped like ``benchmarks/bench_service.py``'s
    (in-batch repeats, four worker threads), each sent cold and then warm;
    a delta is ingested after each epoch and every second epoch compacts.
``analyst``
    The ad-hoc analyst on the memory-mapped plane, alternating a clean
    client stack (walk kernel and page prefetcher) with one behind the
    ``hostile`` fault profile: every call may fail, time out, truncate or
    duplicate, and the resilient client heals it on the interpreted path.

Correctness is checked outside the timed calls: bills against budgets,
relative error against exact ground truth, and bit-identity with a twin
computed another way (the interpreted path, a fault-free stack, or a
one-thread cold service).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.accounting import RETRIES
from repro.api.fastpath import set_fast_path_enabled
from repro.api.faults import FAULT_PROFILES
from repro.core.analyzer import MicroblogAnalyzer
from repro.core.kernels import set_kernel_enabled
from repro.core.query import (
    FOLLOWERS,
    MATCHING_POST_COUNT,
    AggregateQuery,
    avg_of,
    count_users,
    sum_of,
)
from repro.errors import EstimationError, ReproError
from repro.groundtruth import exact_value
from repro.platform.clock import DAY
from repro.platform.evolve import evolve_platform, synthesize_delta
from repro.platform.simulator import PlatformConfig, build_platform
from repro.service import EstimationService, QueryRequest, TenantConfig

PLATFORM_SEED = 20140622
NUM_USERS = 8_000
SETUP_REPEATS = 5
KEYWORDS = ("privacy", "boston", "tunisia", "obamacare", "super bowl", "oprah winfrey")

QUERY_KINDS = {
    "count": count_users,
    "avg_followers": lambda keyword: avg_of(keyword, FOLLOWERS),
    "sum_posts": lambda keyword: sum_of(keyword, MATCHING_POST_COUNT),
}
MAX_MEDIAN_ERROR = {"COUNT": 0.8, "SUM": 0.8, "AVG": 0.25}
"""Ceilings on a run's median relative error per aggregate.  COUNT and SUM
undershoot at these budgets because the walks cover only part of each
keyword subgraph; AVG is a ratio and stays close.  The ceilings catch an
estimator that went wrong, not one that got slightly worse."""


class Calibrator:
    """A fixed reference loop that measures how fast the host runs right now.

    Shared hosts drift: identical runs of this benchmark took from 98 to
    165 ms per query within a few minutes, and a fixed interpreter loop
    drifts with them.  Timing the loop just before and just after each
    timed call, and rescaling the call to a host on which the loop takes
    :data:`REFERENCE_S`, cancels that drift.  The loop
    (``reference_loop.py``) runs in a child process, so it sees the host's
    speed but nothing the program does to this process: a program that
    slows itself down still reads slower.  Use as a context manager; the
    child ends on exit.
    """

    REFERENCE_S = 0.0025

    def __init__(self) -> None:
        script = pathlib.Path(__file__).with_name("reference_loop.py")
        self.child = subprocess.Popen(
            [sys.executable, str(script)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.child.stdin.close()
        try:
            self.child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()

    def sample(self) -> float:
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        return float(self.child.stdout.readline())

    def time(self, fn, *args):
        """``(fn(*args), wall seconds, seconds rescaled to the reference host)``."""
        before = self.sample()
        start = time.perf_counter()
        value = fn(*args)
        elapsed = time.perf_counter() - start
        after = self.sample()
        return value, elapsed, elapsed * 2 * self.REFERENCE_S / (before + after)


@dataclasses.dataclass
class Run:
    """What one workload run measured and found.

    Timings are kept twice: as wall seconds, and rescaled by the
    :class:`Calibrator` to the reference host.  The end-to-end metrics use
    the rescaled ones.
    """

    calibrator: Calibrator
    recorder: object = None
    """The :class:`spans.SpanRecorder` of a traced run, else None."""
    setup_s: List[float] = dataclasses.field(default_factory=list)
    """Rescaled seconds per platform set-up."""
    latencies: List[float] = dataclasses.field(default_factory=list)
    """Rescaled seconds per query."""
    wall_latencies: List[float] = dataclasses.field(default_factory=list)
    busy_s: float = 0.0
    """Wall time spent in timed calls: queries, plus deltas and compactions."""
    busy_ref_s: float = 0.0
    """The same, rescaled."""
    calls: int = 0
    """Budgeted API calls the timed queries made (cache replays make none)."""
    attempted: int = 0
    failed: int = 0
    counts: Counter = dataclasses.field(default_factory=Counter)
    errors: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)

    def timed(self, fn, *args):
        """Call *fn* as timed work; returns its value and its rescaled time."""
        value, elapsed, scaled = self.calibrator.time(fn, *args)
        self.busy_s += elapsed
        self.busy_ref_s += scaled
        return value, elapsed, scaled

    def timed_query(self, fn, *args):
        return self.timed_batch(1, fn, *args)

    def timed_batch(self, queries: int, fn, *args):
        """Time *fn* answering *queries* queries at once; each query is
        charged an equal share of the time."""
        value, elapsed, scaled = self.timed(fn, *args)
        self.wall_latencies.extend([elapsed / queries] * queries)
        self.latencies.extend([scaled / queries] * queries)
        return value

    @contextlib.contextmanager
    def untimed(self):
        """Pause span recording around the benchmark's own checks."""
        recorder = self.recorder
        was_active = recorder is not None and recorder.active
        if was_active:
            recorder.active = False
        try:
            yield
        finally:
            if was_active:
                recorder.active = True

    def record_result(self, result, budget: int) -> None:
        """Fold one freshly computed estimate into counts and bill checks."""
        self.calls += result.cost_total
        kinds = result.cost_by_kind
        for kind, calls in kinds.items():
            self.counts[f"{kind}_calls"] += calls
        self.counts["api_calls"] += result.cost_total
        self.counts["client_cache_hits"] += int(result.diagnostics.get("cache_hits", 0))
        self.counts["walk_instances"] += result.num_samples
        billed = sum(calls for kind, calls in kinds.items() if kind != RETRIES)
        if billed != result.cost_total:
            self.problems.append(f"bill {kinds} does not sum to cost {result.cost_total}")
        if result.cost_total > budget:
            self.problems.append(f"cost {result.cost_total} over budget {budget}")

    def check_accuracy(self, query: AggregateQuery, value, truth: Optional[float]) -> None:
        if value is None or not math.isfinite(value) or value <= 0:
            self.problems.append(f"{query.describe()}: estimate {value!r}")
            return
        if truth:
            self.errors.setdefault(query.aggregate.value, []).append(
                abs(value - truth) / abs(truth)
            )

    def finish_accuracy(self) -> None:
        for aggregate, errors in sorted(self.errors.items()):
            median = statistics.median(errors)
            if median > MAX_MEDIAN_ERROR[aggregate]:
                self.problems.append(
                    f"median {aggregate} relative error {median:.3f} over "
                    f"{MAX_MEDIAN_ERROR[aggregate]}"
                )


def _bill(result, drop_retries: bool = False) -> Tuple:
    return tuple(
        sorted(
            (kind, calls)
            for kind, calls in result.cost_by_kind.items()
            if not (drop_retries and kind == RETRIES)
        )
    )


class _TruthCache:
    """Exact answers, computed once per (platform epoch, query)."""

    def __init__(self) -> None:
        self._values: Dict[Tuple, Optional[float]] = {}

    def get(self, store, query: AggregateQuery) -> Optional[float]:
        key = (
            id(store),
            getattr(store, "delta_epoch", 0),
            query.keyword,
            query.aggregate.value,
            query.measure.name,
            query.window,
        )
        if key not in self._values:
            try:
                self._values[key] = exact_value(store, query)
            except EstimationError:  # AVG over nobody: no error to measure
                self._values[key] = None
        return self._values[key]


def _shuffled(rng: random.Random, items) -> List:
    items = list(items)
    rng.shuffle(items)
    return items


def _frozen_platform():
    return build_platform(PlatformConfig(num_users=NUM_USERS, seed=PLATFORM_SEED))


# ----------------------------------------------------------------------
# adhoc
# ----------------------------------------------------------------------
class AdHoc:
    """Fresh walks per query on the RAM plane, checked against the
    interpreted path every ``TWIN_EVERY`` queries.

    A pass sends every shape once, in a seeded order; runs end on a pass
    boundary, so every seed measures the same mix of shapes.
    """

    NAME = "adhoc"
    # MA-SRW answers only AVG: its COUNT and SUM need collisions between
    # samples to size the population, and at this budget some walk seeds
    # draw none, so the estimate is legitimately missing.
    SHAPES = [(k, q, "ma-tarw") for k in KEYWORDS for q in QUERY_KINDS] + [
        (k, "avg_followers", "ma-srw") for k in KEYWORDS
    ]
    BUDGET = 4_000
    TWIN_EVERY = 12

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(f"{self.NAME}:{seed}")
        self.queue: List[Tuple] = []
        self.truth = _TruthCache()
        self.platform = None

    def pass_complete(self) -> bool:
        return not self.queue

    def setup(self) -> None:
        self.platform = _frozen_platform()

    def _estimate(self, shape, walk_seed: int, **kwargs):
        keyword, kind, algorithm = shape[:3]
        query = QUERY_KINDS[kind](keyword)
        analyzer = MicroblogAnalyzer(
            self.platform, algorithm=algorithm, interval=DAY, seed=walk_seed, **kwargs
        )
        return query, analyzer

    def warm_up(self) -> None:
        query, analyzer = self._estimate(("boston", "count", "ma-tarw"), 0)
        analyzer.estimate(query, self.BUDGET)

    def step(self, run: Run) -> None:
        if not self.queue:
            self.queue = _shuffled(self.rng, self.SHAPES)
        shape = self.queue.pop()
        walk_seed = self.rng.getrandbits(32)
        query, analyzer = self._estimate(shape, walk_seed)
        run.attempted += 1
        try:
            result = run.timed_query(analyzer.estimate, query, self.BUDGET)
        except ReproError as err:  # the failure modes estimate() documents
            run.failed += 1
            run.problems.append(f"{shape}: {err}")
            return
        with run.untimed():
            run.record_result(result, self.BUDGET)
            run.check_accuracy(query, result.value, self.truth.get(self.platform.store, query))
            if self._wants_twin(run, shape):
                self._check_twin(run, shape, walk_seed, result)

    def _wants_twin(self, run: Run, shape) -> bool:
        return run.attempted % self.TWIN_EVERY == 1

    def _check_twin(self, run: Run, shape, walk_seed: int, result) -> None:
        """The kernel/fast path must equal the layered interpreted path."""
        kernel = set_kernel_enabled(False)
        fast = set_fast_path_enabled(False)
        try:
            query, analyzer = self._estimate(shape, walk_seed)
            twin = analyzer.estimate(query, self.BUDGET)
        finally:
            set_kernel_enabled(kernel)
            set_fast_path_enabled(fast)
        if (twin.value, _bill(twin)) != (result.value, _bill(result)):
            run.problems.append(
                f"{shape} seed {walk_seed}: fast path {result.value} {_bill(result)} "
                f"!= interpreted {twin.value} {_bill(twin)}"
            )

    def finish(self, run: Run) -> None:
        run.finish_accuracy()


# ----------------------------------------------------------------------
# analyst
# ----------------------------------------------------------------------
class MmapAnalyst(AdHoc):
    """The ad-hoc loop on the mmap plane.  Every shape is sent twice per
    pass: once on a clean client stack (the walk kernel with its page
    prefetcher) and once behind the hostile fault profile (resilient
    retries on the interpreted path).  Every ``TWIN_EVERY``-th hostile
    query is checked against a fault-free twin."""

    NAME = "analyst"
    SHAPES = [
        (k, kind, algorithm, stack)
        for k in KEYWORDS
        for kind, algorithm in (("count", "ma-tarw"), ("avg_followers", "ma-srw"))
        for stack in ("clean", "hostile")
    ]
    BUDGET = 4_000
    TWIN_EVERY = 4
    BACKGROUND_POSTS_MEAN = 100.0
    """Deeper timelines than the RAM workloads (about 825k posts), so the
    memory-mapped columns hold most of the data a walk reads."""

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.fault_plan = dataclasses.replace(
            FAULT_PROFILES["hostile"], seed=self.rng.getrandbits(32)
        )
        self.workdir = workdir
        self.builds = 0
        self.hostile_queries = 0

    def setup(self) -> None:
        previous = self.platform
        spill_dir = f"{self.workdir}/mmap-{self.builds}"
        self.builds += 1
        self.platform = build_platform(
            PlatformConfig(
                num_users=NUM_USERS,
                seed=PLATFORM_SEED,
                background_posts_mean=self.BACKGROUND_POSTS_MEAN,
                data_plane="mmap",
                spill_dir=spill_dir,
            )
        )
        if previous is not None:
            shutil.rmtree(previous.store.source_dir, ignore_errors=True)

    def warm_up(self) -> None:
        for stack in ("clean", "hostile"):
            query, analyzer = self._estimate(("boston", "count", "ma-tarw", stack), 0)
            analyzer.estimate(query, self.BUDGET)

    def _estimate(self, shape, walk_seed: int, **kwargs):
        if shape[3] == "hostile":
            kwargs.setdefault("fault_plan", self.fault_plan)
        return super()._estimate(shape, walk_seed, **kwargs)

    def _wants_twin(self, run: Run, shape) -> bool:
        if shape[3] != "hostile":
            return False
        self.hostile_queries += 1
        return self.hostile_queries % self.TWIN_EVERY == 1

    def _check_twin(self, run: Run, shape, walk_seed: int, result) -> None:
        """Healed faults must leave the estimate and the query bill exactly
        those of a fault-free run (which takes the kernel path)."""
        query, analyzer = self._estimate(shape, walk_seed, fault_plan=None)
        twin = analyzer.estimate(query, self.BUDGET)
        if (twin.value, _bill(twin)) != (result.value, _bill(result, drop_retries=True)):
            run.problems.append(
                f"{shape} seed {walk_seed}: faulted {result.value} {_bill(result)} "
                f"!= fault-free {twin.value} {_bill(twin)}"
            )

    def finish(self, run: Run) -> None:
        super().finish(run)
        if run.counts[f"{RETRIES}_calls"] == 0:
            run.problems.append("hostile fault profile caused no retries")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Serving:
    """A multi-tenant service over an evolving platform, sent the request
    batches of the repository's service benchmark
    (``benchmarks/bench_service.py``).

    Each epoch sends one cold batch shaped like that benchmark's workload,
    nine requests from three tenants over three keywords on ``THREADS``
    worker threads, whose last three requests repeat its first three
    exactly (the batch planner answers them by in-batch dedup); then the
    same batch again warm, answered from the result cache.  Then one
    delta, with the sizes ``synthesize_delta`` gives one week of platform
    life by default, is ingested.  A pass is two epochs, one per keyword
    group of :data:`BATCH_KEYWORDS` in a seeded order, and ends with a
    compaction; runs end on a pass boundary, so every seed measures the
    same mix.  The first epoch is checked against a one-thread cold
    service.
    """

    BUDGET = 6_000
    """``bench_service``'s budget for its small platform."""
    THREADS = 4
    BATCH_KEYWORDS = (("privacy", "boston", "obamacare"), ("tunisia", "super bowl", "oprah winfrey"))
    """``bench_service``'s keywords, and the other three."""
    KINDS = {
        **QUERY_KINDS,
        "avg_posts": lambda keyword: avg_of(keyword, MATCHING_POST_COUNT),
    }
    BATCH = (
        # (tenant, query kind, keyword slot), as in bench_service.workload
        ("growth", "count", 0),
        ("ads", "count", 1),
        ("research", "avg_followers", 0),
        ("growth", "sum_posts", 1),
        ("ads", "count", 2),
        ("research", "avg_posts", 1),
        ("ads", "count", 0),
        ("research", "count", 1),
        ("growth", "avg_followers", 0),
    )
    REPEATS = 3
    """The last ``REPEATS`` requests of :data:`BATCH` repeat the first ones."""
    TENANTS = ("growth", "ads", "research")

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.rng = random.Random(f"serve:{seed}")
        self.truth = _TruthCache()
        self.platform = None
        self.service = None
        self.epoch = 0
        self.pass_batches: List[Tuple[str, ...]] = []
        self.outcomes: List = []

    def pass_complete(self) -> bool:
        return self.epoch % 2 == 0

    def _service(self):
        return EstimationService(
            self.platform,
            [TenantConfig(name) for name in self.TENANTS],
            seed=self.seed,
            n_threads=self.THREADS,
        )

    def setup(self) -> None:
        self.platform = evolve_platform(_frozen_platform())
        self.service = self._service()

    def warm_up(self) -> None:
        # A throwaway service, so the measured one starts with empty caches
        # and zero bills.
        self._service().run_workload(self._batch(self.BATCH_KEYWORDS[0])[:1])

    def _batch(self, keywords) -> List[QueryRequest]:
        return [
            QueryRequest(tenant, self.KINDS[kind](keywords[slot]), self.BUDGET)
            for tenant, kind, slot in self.BATCH
        ]

    def step(self, run: Run) -> None:
        if self.epoch % 2 == 0:
            self.pass_batches = _shuffled(self.rng, self.BATCH_KEYWORDS)
        batch = self._batch(self.pass_batches.pop())
        cold = run.timed_batch(len(batch), self.service.run_workload, batch)
        warm = run.timed_batch(len(batch), self.service.run_workload, batch)
        run.attempted += 2 * len(batch)
        with run.untimed():
            self.outcomes.extend(cold + warm)
            fresh = len(batch) - self.REPEATS
            for index, outcome in enumerate(cold + warm):
                if outcome.status != "ok" or outcome.result is None:
                    run.failed += 1
                    run.problems.append(
                        f"{outcome.request.query.describe()}: {outcome.status} {outcome.error}"
                    )
                elif index < fresh:
                    run.record_result(outcome.result, self.BUDGET)
                    # Ground truth is recomputed per epoch; checking the
                    # first epoch of each pass covers every keyword.
                    truth = (
                        self.truth.get(self.platform.store, outcome.request.query)
                        if self.epoch % 2 == 0
                        else None
                    )
                    run.check_accuracy(outcome.request.query, outcome.result.value, truth)
                else:
                    # In-batch repeats follow the batch's first requests;
                    # the warm batch replays the cold one.
                    leader = index - fresh if index < len(batch) else index - len(batch)
                    self._check_replay(run, outcome, cold[leader])
            if self.epoch == 0:
                # Four worker threads must answer exactly as one.
                solo = self._service().run_workload(batch, n_threads=1)
                if [_snapshot(o) for o in solo] != [_snapshot(o) for o in cold]:
                    run.problems.append(f"epoch {self.epoch}: {self.THREADS} threads != 1 thread")
            delta = synthesize_delta(self.platform, seed=self.rng.getrandbits(32))
        run.timed(self.service.advance, delta)
        self.epoch += 1
        if self.epoch % 2 == 0:
            run.timed(self.service.compact)

    def _check_replay(self, run: Run, outcome, leader) -> None:
        if not outcome.cached:
            run.problems.append(f"repeat of {leader.request.query.describe()} not served from cache")
        if _snapshot(outcome) != _snapshot(leader):
            run.problems.append(f"cached repeat of {leader.request.query.describe()} differs")

    def finish(self, run: Run) -> None:
        run.finish_accuracy()
        billed: Dict[str, Counter] = {name: Counter() for name in self.TENANTS}
        for outcome in self.outcomes:
            if outcome.result is not None:
                billed[outcome.request.tenant].update(outcome.result.cost_by_kind)
        for tenant in self.TENANTS:
            bill = {k: v for k, v in self.service.tenant_bill(tenant).items() if v}
            if bill != {k: v for k, v in billed[tenant].items() if v}:
                run.problems.append(f"tenant {tenant} bill {bill} != outcomes {dict(billed[tenant])}")
        stats = self.service.stats()
        run.counts["result_cache_hits"] += stats["result_hits"]
        run.counts["interval_cache_hits"] += stats["reuse_interval_hits"]
        run.counts["pilot_runs"] += stats["reuse_pilot_runs"]


def _snapshot(outcome) -> Tuple:
    result = outcome.result
    return (
        outcome.status,
        None if result is None else result.value,
        None if result is None else _bill(result),
        outcome.trace_bytes(),
    )


WORKLOADS = {"adhoc": AdHoc, "serve": Serving, "analyst": MmapAnalyst}
