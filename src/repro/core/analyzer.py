"""MICROBLOG-ANALYZER: the system facade of §3.1.

Wires together a budgeted, rate-limited, caching API client, GRAPH-BUILDER
(the neighbor oracle for the chosen graph design), the time-interval
selector, and GRAPH-WALKER (one of the estimation algorithms), mirroring
the architecture of Figure 1.  System inputs: an aggregate query and a
query budget; system output: an aggregate estimation.

>>> analyzer = MicroblogAnalyzer(platform)
>>> result = analyzer.estimate(count_users("privacy"), budget=20_000)
>>> result.value, result.cost_total
"""

from __future__ import annotations

from typing import Optional, Union

from repro._rng import RandomLike, ensure_rng, spawn
from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.api.faults import FaultInjectingClient, FaultPlan
from repro.api.resilient import ResilientClient, RetryPolicy
from repro.core.frontier import FrontierConfig
from repro.core.graph_builder import (
    LevelByLevelOracle,
    QueryContext,
    SocialGraphOracle,
    TermInducedOracle,
)
from repro.core.interval import select_time_interval
from repro.core.levels import LevelIndex
from repro.core.mr import MRConfig
from repro.core.query import AggregateQuery
from repro.core.registry import GRAPH_DESIGNS, get_walker, walker_names
from repro.core.results import EstimateResult
from repro.core.reuse import SharedQueryState
from repro.core.rewired import RewiredConfig
from repro.core.srw import SRWConfig
from repro.core.tarw import TARWConfig
from repro.core.wnw import WNWConfig
from repro.errors import BudgetExhaustedError, EstimationError
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import TRACE_SCHEMA_VERSION
from repro.platform.clock import DAY
from repro.platform.simulator import SimulatedPlatform

ALGORITHMS = walker_names()


class MicroblogAnalyzer:
    """Budgeted aggregate estimation over one simulated platform.

    ``interval`` is the level bucket width in seconds, or the string
    ``"auto"`` to run the pilot-walk selection of §4.2.3 (its query cost
    is charged against the same budget, as in the paper).
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        algorithm: str = "ma-tarw",
        graph_design: str = "level-by-level",
        interval: Union[float, str] = DAY,
        level_index=None,
        srw_config: Optional[SRWConfig] = None,
        tarw_config: Optional[TARWConfig] = None,
        mr_config: Optional[MRConfig] = None,
        rewired_config: Optional[RewiredConfig] = None,
        wnw_config: Optional[WNWConfig] = None,
        frontier_config: Optional[FrontierConfig] = None,
        keep_intra_fraction: float = 0.0,
        seed: RandomLike = None,
        n_workers: Optional[int] = None,
        n_shards: Optional[int] = None,
        executor: str = "auto",
        api_latency: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
        reuse: Optional[SharedQueryState] = None,
    ) -> None:
        spec = get_walker(algorithm)  # raises EstimationError when unknown
        if graph_design not in GRAPH_DESIGNS:
            raise EstimationError(
                f"unknown graph design {graph_design!r}; choose from {GRAPH_DESIGNS}"
            )
        if graph_design not in spec.designs:
            raise EstimationError(
                f"{algorithm} requires the {' / '.join(spec.designs)} graph design"
            )
        self.platform = platform
        self.algorithm = algorithm
        self.walker_spec = spec
        self.graph_design = graph_design
        self.interval = interval
        self.level_index = level_index
        """Explicit level index (e.g. a QuantileLevelIndex); overrides
        ``interval`` when set."""
        overrides = {
            "ma-tarw": tarw_config,
            "ma-srw": srw_config,
            "rewired-srw": rewired_config,
            "wnw": wnw_config,
            "frontier": frontier_config,
            "m&r": mr_config,
        }
        override = overrides.get(algorithm)
        self.walker_config = override if override is not None else spec.config_cls()
        """The chosen walker's resolved config: the matching ``*_config``
        kwarg when given, the registry default otherwise."""
        self.keep_intra_fraction = keep_intra_fraction
        self.rng = ensure_rng(seed)
        self.api_latency = api_latency
        """Real seconds of emulated network latency per API call (0 =
        pure CPU).  See ``SimulatedMicroblogClient.latency``."""
        self.fault_plan = fault_plan
        """Seeded fault injection (see :mod:`repro.api.faults`).  When set
        (and active) the client stack becomes
        ``CachingClient(ResilientClient(FaultInjectingClient(simulator)))``
        — injected faults are retried, healed or degraded below the cache,
        and per-shard parallel clients rebuild the same stack."""
        self.retry_policy = retry_policy
        """Backoff/breaker settings for the resilient layer; None uses
        :class:`RetryPolicy` defaults whenever a fault plan is active."""
        self.obs = obs if obs is not None else NULL_OBS
        """The run's telemetry plane (see :mod:`repro.obs`): every layer of
        the client stack and the chosen estimator emit into it.  Defaults
        to the shared disabled instance — a dark run pays one attribute
        read per instrumented site and is bit-identical to a traced one."""
        self.reuse = reuse
        """Cross-query reuse cache (see :mod:`repro.core.reuse`).  When
        set, ``interval="auto"`` resolves through the shared keyword →
        interval cache (cold queries record a pilot ledger, warm queries
        replay it — identical charges/trace bytes, no pilot CPU) and the
        fast path's first-mention columns come from the shared memo.
        The pilot phase then draws from the cache's keyword-scoped RNG
        instead of this analyzer's run stream, so two analyzers sharing
        one cache — and one analyzer asked twice — agree bit for bit.
        ``None`` (the default) keeps the classic self-contained run."""
        self.parallel = None
        """Walk-shard execution plan for walkers with a parallel driver
        (``parallel_kind`` of ``"hh"`` or ``"samples"``), built from
        ``n_workers``/``n_shards``/``executor``.  ``n_workers=None``
        (the default) keeps the classic single-walker serial run; any
        integer — including 1 — switches to the shard-merge engine, whose
        point estimate depends on the seed and shard count but never on
        the worker count.  The walker without a driver (``m&r``) ignores
        it."""
        if n_workers is not None:
            from repro.parallel.engine import ParallelConfig

            self.parallel = ParallelConfig(
                n_workers=n_workers, n_shards=n_shards, executor=executor
            )
        self.n_workers = n_workers
        self.executor = executor

    # ------------------------------------------------------------------
    def estimate(self, query: AggregateQuery, budget: int) -> EstimateResult:
        """Estimate *query* spending at most *budget* API calls."""
        if budget < 1:
            raise EstimationError("budget must be >= 1")
        obs = self.obs
        inner = SimulatedMicroblogClient(
            self.platform, budget=budget, latency=self.api_latency, obs=obs
        )
        obs.bind_clock(inner.clock)
        if obs.trace is not None:
            obs.trace.event(
                "run.begin",
                schema=TRACE_SCHEMA_VERSION,
                algorithm=self.algorithm,
                design=self.graph_design,
                keyword=query.keyword,
                aggregate=query.aggregate.value,
                budget=budget,
            )
        if self.fault_plan is not None and self.fault_plan.active:
            inner = FaultInjectingClient(inner, self.fault_plan, obs=obs)
        if (self.fault_plan is not None and self.fault_plan.active) or (
            self.retry_policy is not None
        ):
            inner = ResilientClient(inner, self.retry_policy, obs=obs)
        client = CachingClient(inner, obs=obs)
        context = QueryContext(client, query, obs=obs)
        if self.reuse is not None and context.fast is not None:
            self.reuse.bind_first_mention_columns(
                context.fast, self.platform, query.keyword
            )
        run_rng = spawn(self.rng, f"run:{query.keyword}:{query.aggregate.value}")

        oracle = self._build_oracle(context, run_rng)
        spec = self.walker_spec
        estimator = spec.estimator(
            context,
            oracle,
            self.walker_config,
            seed=run_rng,
            parallel=self.parallel if spec.parallel_kind is not None else None,
        )
        result = estimator.estimate()
        if result.walk_stats is None:
            result.diagnostics["simulated_wait_seconds"] = client.inner.simulated_wait  # type: ignore[attr-defined]
            result.diagnostics["cache_hits"] = float(client.hits)
            if isinstance(inner, ResilientClient):
                result.diagnostics["degraded_serves"] = float(inner.degraded_serves)
                result.diagnostics["backoff_wait_seconds"] = inner.backoff_wait
        else:
            # Sharded runs account their own waits/hits; fold any cost the
            # outer client paid before sharding (interval selection) in.
            result.diagnostics["cache_hits"] += float(client.hits)
        if obs.trace is not None:
            obs.trace.event("run.end", value=result.value, cost=result.cost_total)
        return result

    def estimate_with_confidence(
        self,
        query: AggregateQuery,
        budget: int,
        replicates: int = 5,
        confidence: float = 0.95,
    ):
        """Split *budget* across independent runs and return a t-interval.

        Each replicate gets ``budget // replicates`` calls and a fresh
        client (no shared cache — the runs must be independent for the
        interval to be honest).  See :mod:`repro.core.confidence`.
        """
        from repro.core.confidence import combine_replicates

        if replicates < 2:
            raise EstimationError("need at least two replicates for an interval")
        per_run = budget // replicates
        if per_run < 1:
            raise EstimationError(f"budget {budget} too small for {replicates} replicates")
        runs = [self.estimate(query, budget=per_run) for _ in range(replicates)]
        return combine_replicates(runs, confidence=confidence)

    # ------------------------------------------------------------------
    def _build_oracle(self, context: QueryContext, run_rng):
        if self.graph_design == "social":
            return SocialGraphOracle(context)
        if self.graph_design == "term-induced":
            return TermInducedOracle(context)
        if self.level_index is not None:
            index = self.level_index
        else:
            interval = self._resolve_interval(context, run_rng)
            index = LevelIndex(interval=interval, origin=0.0)
        return LevelByLevelOracle(
            context,
            index,
            keep_intra_fraction=self.keep_intra_fraction,
            edge_seed=run_rng.randrange(2**31),
        )

    def _resolve_interval(self, context: QueryContext, run_rng) -> float:
        if self.interval != "auto":
            interval = float(self.interval)  # type: ignore[arg-type]
            if interval <= 0:
                raise EstimationError("interval must be positive")
            return interval
        try:
            if self.reuse is not None:
                selection = self.reuse.interval_for(
                    context,
                    self.platform,
                    budget=context.client.meter.budget,  # type: ignore[attr-defined]
                    token=self._reuse_token(),
                )
            else:
                selection = select_time_interval(
                    context,
                    seed=run_rng,
                    n_workers=self.n_workers,
                    executor=self.executor,
                )
        except BudgetExhaustedError:
            raise EstimationError("budget exhausted during interval selection") from None
        return selection.interval

    def _reuse_token(self) -> tuple:
        """Stack configuration folded into shared-cache keys.

        Anything that can change what the pilot phase *observes* — the
        fault plan shapes responses and retry charges, latency shapes the
        simulated clock — must split the cache, or a replayed ledger
        would assert a history this stack never produced.  Frozen
        dataclass reprs are content-based and deterministic.
        """
        return (
            self.graph_design,
            repr(self.fault_plan),
            repr(self.retry_policy),
            self.api_latency,
        )
