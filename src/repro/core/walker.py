"""The common Walker protocol: shared substrate of every estimator.

Every estimation algorithm in the zoo — MA-TARW, MA-SRW, the rewired and
Walk-Not-Wait variants, the frontier sampler and M&R — is a *budgeted
walker*: it consumes a :class:`~repro.core.graph_builder.
QueryContext` (memoised API knowledge + cost accounting), steps a neighbor
oracle under a query budget, and assembles an
:class:`~repro.core.results.EstimateResult`.  This module extracts the
machinery those walkers used to duplicate:

* **construction** — context/oracle/config binding, RNG stream creation
  (:func:`repro._rng.ensure_rng`), observability inheritance from the
  context (falling back to the shared :data:`~repro.obs.NULL_OBS`), and
  fast-path cost-meter pre-binding (one attribute read per cost probe
  instead of a delegation chain);
* **parallel dispatch** — :meth:`BaseWalker.estimate` hands walkers whose
  ``parallel_kind`` declares a shard-merge strategy to
  :func:`repro.parallel.walkers.run_parallel_estimate`;
* **fault recovery, stage 1** — :meth:`BaseWalker._oracle_step` retries a
  failed oracle lookup in place without consuming walker RNG, so runs
  whose faults all heal stay bit-identical to fault-free runs;
* **step accounting** — :meth:`BaseWalker._cost` /
  :meth:`BaseWalker._cost_by_kind` read the pre-bound meter;
* **chain state + sample assembly** — :class:`ChainSampleWalker` carries
  the degree-reweighted sample machinery shared by every SRW-family
  walker (chain buffers, Geweke burn-in, thinning, the AVG/COUNT/SUM
  assembly, trace/metric emission, and the ``shard_samples`` partials the
  parallel merge consumes).

The :class:`Walker` protocol is what the registry
(:mod:`repro.core.registry`), the analyzer facade and the parallel engine
program against; anything satisfying it plugs into the whole system —
sharding, fault profiles, observability — unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, List, Optional, Protocol, Tuple, Type

from repro._rng import RandomLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.parallel.engine import ParallelConfig
from repro.core.graph_builder import QueryContext
from repro.core.query import Aggregate
from repro.core.results import EstimateResult, TracePoint
from repro.errors import BudgetExhaustedError, EstimationError, TransientAPIError
from repro.obs import NULL_OBS, Observability
from repro.obs.diagnostics import srw_burn_in_report
from repro.sampling.diagnostics import detect_burn_in
from repro.sampling.estimators import ratio_average
from repro.sampling.mark_recapture import katzir_count


class Walker(Protocol):
    """What the registry, analyzer and parallel engine require of a walker.

    ``algorithm`` is the registry name; ``parallel_kind`` declares the
    shard-merge strategy (``"hh"`` for Hansen–Hurwitz partial sums,
    ``"samples"`` for pooled degree-reweighted samples, None for walkers
    without a parallel driver).  :meth:`estimate` runs the walk to budget
    exhaustion and returns the assembled result.
    """

    algorithm: ClassVar[str]
    parallel_kind: ClassVar[Optional[str]]
    context: QueryContext
    oracle: object
    config: object

    def estimate(self) -> EstimateResult: ...

    def algorithm_id(self) -> str: ...


class BaseWalker:
    """Shared constructor, dispatch, fault recovery and cost probes.

    Subclasses set the class attributes below and implement
    :meth:`_estimate_serial`; everything else — parallel dispatch, the
    in-place step-retry fault hook, meter-bound cost probes — is
    inherited.  The constructor signature is part of the Walker contract:
    the parallel engine rebuilds shard walkers via
    ``type(estimator)(context, oracle, config, seed=...)``.
    """

    algorithm: ClassVar[str] = "?"
    """Registry name (also the default ``algorithm_id`` prefix)."""
    parallel_kind: ClassVar[Optional[str]] = None
    """Shard-merge strategy: ``"hh"``, ``"samples"`` or None."""
    config_cls: ClassVar[Type] = type(None)
    """Constructed with no arguments when ``config`` is not supplied."""

    def __init__(
        self,
        context: QueryContext,
        oracle,
        config=None,
        seed: RandomLike = None,
        parallel: Optional["ParallelConfig"] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.context = context
        self.oracle = oracle
        self.config = config if config is not None else self.config_cls()
        self.rng = ensure_rng(seed)
        self.parallel = parallel
        """When set (and ``parallel_kind`` declares a merge strategy),
        :meth:`estimate` partitions the budget into logical walk shards
        executed by :mod:`repro.parallel` — each shard a full serial run
        of this walker class on its own client and RNG stream — and
        merges the shard partials.  None keeps the classic run."""
        if obs is None:
            obs = getattr(context, "obs", None)
        self.obs = obs if obs is not None else NULL_OBS
        self.fault_step_retries = 0
        self._meter = getattr(getattr(context, "client", None), "meter", None)
        """Pre-bound cost meter (None for stub contexts/clients without
        one), so the per-step cost probe is one attribute read instead
        of a delegation chain."""
        oracle_context = getattr(oracle, "context", None)
        self._bind_kernel(getattr(
            oracle_context if oracle_context is not None else context, "kernel", None
        ))

    def _bind_kernel(self, kernel) -> None:
        """Bind the oracle's compiled kernel (:mod:`repro.core.kernels`).

        Bound from the *oracle's* context — Walk-Not-Wait rebinds its
        oracle to a probing context, and the kernel must describe the
        stack the oracle actually steps."""
        self._kernel = kernel
        """The oracle's kernel, or None on the layered path."""
        self._faultless = kernel is not None and kernel.faultless
        """True when the oracle steps the bare clean stack, where
        :class:`TransientAPIError` cannot surface: hot loops may then call
        the oracle directly instead of through the :meth:`_oracle_step`
        retry wrapper — a guaranteed no-op there — with
        ``BudgetExhaustedError`` propagating identically.  A kernel over
        a fault or resilient stack keeps the wrapper."""

    # ------------------------------------------------------------------
    def algorithm_id(self) -> str:
        """Result label; most walkers tag the oracle they walked over."""
        return f"{self.algorithm}[{self.oracle.name}]"

    def estimate(self) -> EstimateResult:
        """Walk until the budget (or the config's step cap) is exhausted."""
        if self.parallel is not None:
            if self.parallel_kind is None:
                raise EstimationError(
                    f"no parallel driver for {type(self).__name__}"
                )
            from repro.parallel.walkers import run_parallel_estimate

            return run_parallel_estimate(self)
        return self._estimate_serial()

    def _estimate_serial(self) -> EstimateResult:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _oracle_step(self, lookup, node):
        """Walk-level fault recovery, stage 1: retry a step in place.

        *lookup* is an oracle/context accessor.  A transient failure
        (everything below — resilient retries, degraded fallbacks —
        already gave up) re-issues the same lookup up to the config's
        ``step_retries`` times.  No walker RNG is consumed, so recovery
        never perturbs the walk's random stream; past the retries the
        error propagates and the walker's stage-2 recovery (abort the
        instance, reseed the chain) takes over.
        """
        for _ in range(getattr(self.config, "step_retries", 0)):
            try:
                return lookup(node)
            except TransientAPIError:
                self.fault_step_retries += 1
        return lookup(node)

    def _cost(self) -> int:
        meter = self._meter
        if meter is not None:
            return meter.query_total
        return self.context.client.total_cost  # type: ignore[attr-defined]

    def _cost_by_kind(self) -> dict:
        return self.context.client.meter.by_kind()  # type: ignore[attr-defined]


class ChainSampleWalker(BaseWalker):
    """Degree-reweighted chain samplers (the SRW family).

    Carries the state and assembly every SRW-style walker shares: raw
    per-chain ``(node, degree)`` buffers, the Geweke-burn-in + thinning
    sample filter, the AVG / COUNT / SUM estimate assembly over the
    stationary-probability-∝-degree reweighting, restart/excursion
    telemetry, and the ``shard_samples`` partials the parallel merge
    pools.  The default :meth:`_estimate_serial` is the round-robin
    multi-chain loop of MA-SRW; subclasses customise stepping
    (:meth:`_advance`), the recorded degree (:meth:`_sample_degree`),
    burn-in (:meth:`_burn_in_for`) or the whole loop (the frontier
    sampler's degree-proportional scheduling).
    """

    parallel_kind: ClassVar[Optional[str]] = "samples"
    obs_prefix: ClassVar[str] = "walker"
    """Namespace for trace events and metrics (``srw`` keeps MA-SRW's
    telemetry byte-identical to the pre-protocol layout)."""

    def __init__(
        self,
        context: QueryContext,
        oracle,
        config=None,
        seed: RandomLike = None,
        parallel: Optional["ParallelConfig"] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(context, oracle, config, seed=seed, parallel=parallel, obs=obs)
        self._chain_nodes: List[List[int]] = []
        self._chain_degrees: List[List[float]] = []
        self._obs_excursions: List[int] = []
        self.fault_restarts = 0
        self._restarts = 0
        prefix = self.obs_prefix
        # Event/metric names are precomputed: the observe path runs once
        # per step and must not pay per-call string formatting.
        self._ev_seeds = prefix + ".seeds"
        self._ev_step = prefix + ".step"
        self._ev_restart = prefix + ".restart"
        self._ev_chain = prefix + ".chain"
        self._metric_steps = prefix + ".steps"
        self._metric_degree = prefix + ".degree"
        self._metric_restarts = prefix + ".restarts"
        self._metric_excursion = prefix + ".excursion"

    # ------------------------------------------------------------------
    # the default serial loop (round-robin chains, MA-SRW's Algorithm 1)
    # ------------------------------------------------------------------
    def _estimate_serial(self) -> EstimateResult:
        config = self.config
        chain_nodes: List[List[int]] = [[] for _ in range(config.chains)]
        chain_degrees: List[List[float]] = [[] for _ in range(config.chains)]
        self._chain_nodes = chain_nodes
        self._chain_degrees = chain_degrees
        trace: List[TracePoint] = []
        steps = 0
        self._restarts = 0
        last_cost = -1
        stalled_since = 0
        next_trace = config.trace_every
        self._obs_excursions = [0] * config.chains
        try:
            seeds = self._oracle_step(self.context.seeds, config.max_seeds)
            if self.obs.trace is not None:
                self.obs.trace.event(self._ev_seeds, n=len(seeds), chains=config.chains)
            currents = [self.rng.choice(seeds) for _ in range(config.chains)]
            for index, start in enumerate(currents):
                try:
                    self._observe(start, chain_nodes[index], chain_degrees[index], chain=index)
                except TransientAPIError:
                    # The chain starts dark: no sample committed, but the
                    # first step below reseeds it like any faulted step.
                    self.fault_restarts += 1
                    self._note_restart(index, "fault")
            while config.max_steps is None or steps < config.max_steps:
                index = steps % config.chains
                try:
                    self._advance(currents, index, seeds)
                except TransientAPIError:
                    # Walk-level recovery, stage 2: in-place retries were
                    # exhausted, so the chain checkpoints — every committed
                    # (node, degree) pair stays — and restarts from a seed.
                    # Steps still advance, so a permanently dark platform
                    # cannot trap the loop.
                    currents[index] = self.rng.choice(seeds)
                    self.fault_restarts += 1
                    self._note_restart(index, "fault")
                steps += 1
                cost = self._cost()
                if cost == last_cost:
                    stalled_since += 1
                    if stalled_since >= config.stall_steps:
                        break
                    if stalled_since % config.teleport_after == 0:
                        currents[index] = self.rng.choice(seeds)
                        self._restarts += 1
                        self._note_restart(index, "teleport")
                else:
                    last_cost = cost
                    stalled_since = 0
                if steps >= next_trace:
                    # Geometric spacing keeps total estimate-recomputation
                    # work O(chain log chain); each recompute is O(chain).
                    trace.append(
                        TracePoint(cost, self._current_estimate(chain_nodes, chain_degrees))
                    )
                    next_trace = steps + max(config.trace_every, steps // 20)
        except BudgetExhaustedError:
            pass
        except TransientAPIError:
            pass  # platform unrecoverable during seeding: report what we have

        diagnostics = {
            "steps": float(steps),
            "dead_end_restarts": float(self._restarts),
            "chains": float(config.chains),
            "fault_restarts": float(self.fault_restarts),
            "fault_step_retries": float(self.fault_step_retries),
        }
        diagnostics.update(self._walker_diagnostics())
        return self._chain_result(trace, diagnostics)

    def _advance(self, currents: List[int], index: int, seeds: List[int]) -> None:
        """One chain step: move to a uniform neighbor (reseed dead ends)
        and commit the reached node as an observation."""
        if self._faultless:
            neighbors = self.oracle.neighbors(currents[index])
        else:
            neighbors = self._oracle_step(self.oracle.neighbors, currents[index])
        if not neighbors:
            currents[index] = self.rng.choice(seeds)
            self._restarts += 1
            self._note_restart(index, "dead_end")
        else:
            currents[index] = self.rng.choice(neighbors)
        self._observe(
            currents[index], self._chain_nodes[index], self._chain_degrees[index], chain=index
        )

    def _walker_diagnostics(self) -> dict:
        """Extra per-walker diagnostics merged into the result (hook)."""
        return {}

    def _chain_result(self, trace: List[TracePoint], diagnostics: dict) -> EstimateResult:
        """Final estimate + result assembly shared by every chain loop."""
        value = self._current_estimate(self._chain_nodes, self._chain_degrees)
        trace.append(TracePoint(self._cost(), value))
        if self.obs.enabled:
            self._obs_chain_summary(self._chain_degrees, diagnostics)
        return EstimateResult(
            query=self.context.query,
            algorithm=self.algorithm_id(),
            value=value,
            cost_total=self._cost(),
            cost_by_kind=self._cost_by_kind(),
            trace=trace,
            num_samples=sum(len(nodes) for nodes in self._chain_nodes),
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # observation + telemetry
    # ------------------------------------------------------------------
    def _sample_degree(self, node: int) -> float:
        """Reweighting degree recorded for a visited node (hook: the
        rewired walker adds its virtual edges here)."""
        if self._faultless:
            return float(self.oracle.degree(node))
        return float(self._oracle_step(self.oracle.degree, node))

    def _observe(
        self, node: int, nodes: List[int], degrees: List[float], chain: int = 0
    ) -> None:
        # Fetch the degree before appending anything: the lookup can raise
        # BudgetExhaustedError, and a half-appended observation would
        # desynchronise the two series.
        degree = self._sample_degree(node)
        nodes.append(node)
        degrees.append(degree)
        obs = self.obs
        if obs.enabled:
            self._obs_excursions[chain] += 1
            if obs.metrics is not None:
                obs.metrics.counter(self._metric_steps).inc()
                obs.metrics.histogram(self._metric_degree).observe(degree)
            if obs.trace is not None:
                obs.trace.event(self._ev_step, chain=chain, node=node, degree=int(degree))

    def _note_restart(self, chain: int, reason: str) -> None:
        obs = self.obs
        if obs.enabled:
            if obs.metrics is not None:
                obs.metrics.counter(self._metric_restarts, reason=reason).inc()
                obs.metrics.histogram(self._metric_excursion).observe(
                    self._obs_excursions[chain]
                )
            if obs.trace is not None:
                obs.trace.event(self._ev_restart, chain=chain, reason=reason)
            self._obs_excursions[chain] = 0

    def _obs_chain_summary(self, chain_degrees: List[List[float]], diagnostics) -> None:
        """Burn-in adequacy telemetry: per-chain trace events plus pooled
        ``obs_burn_in_*`` diagnostics.  Pure post-processing of committed
        degree series — no API calls, no RNG draws."""
        config = self.config
        if self.obs.trace is not None:
            for index, degrees in enumerate(chain_degrees):
                burn_in = None
                if len(degrees) >= 4:
                    burn_in = self._burn_in_for(degrees)
                self.obs.trace.event(
                    self._ev_chain, chain=index, len=len(degrees), burn_in=burn_in
                )
        report = srw_burn_in_report(
            chain_degrees,
            threshold=config.geweke_threshold,
            min_burn_in=config.min_burn_in,
        )
        for key, value in report.items():
            diagnostics[f"obs_burn_in_{key}"] = value

    # ------------------------------------------------------------------
    # sample filtering and estimate assembly
    # ------------------------------------------------------------------
    def _burn_in_for(self, degrees: List[float]) -> int:
        """Samples discarded from the head of one chain (hook: walkers
        whose start distribution needs no mixing return a constant)."""
        config = self.config
        # Coarsen the scan step with chain length so repeated trace-time
        # calls stay O(chain) rather than O(chain^2).
        scan_step = max(10, len(degrees) // 20)
        burn_in = detect_burn_in(degrees, threshold=config.geweke_threshold, step=scan_step)
        if burn_in is None:
            # Geweke never crossed the threshold.  On multi-component
            # subgraphs the teleporting chain is a mixture whose segments
            # legitimately differ, so a hard "no usable samples" would
            # starve the estimator forever; fall back to discarding the
            # first quarter, the usual fixed-fraction heuristic.
            burn_in = len(degrees) // 4
        return max(burn_in, config.min_burn_in)

    def _usable_samples(self, nodes: List[int], degrees: List[float]):
        """Apply burn-in and thinning to the raw chain."""
        config = self.config
        burn_in = self._burn_in_for(degrees)
        kept_nodes: List[int] = []
        kept_degrees: List[int] = []
        for offset in range(burn_in, len(nodes), config.thinning):
            if degrees[offset] <= 0:
                continue  # isolated node (seed restart target) cannot be reweighted
            kept_nodes.append(nodes[offset])
            kept_degrees.append(int(degrees[offset]))
        return kept_nodes, kept_degrees

    def _current_estimate(
        self, chain_nodes: List[List[int]], chain_degrees: List[List[float]]
    ) -> Optional[float]:
        kept_nodes: List[int] = []
        kept_degrees: List[int] = []
        for nodes, degrees in zip(chain_nodes, chain_degrees):
            if len(nodes) < 4:
                continue
            chain_kept_nodes, chain_kept_degrees = self._usable_samples(nodes, degrees)
            kept_nodes.extend(chain_kept_nodes)
            kept_degrees.extend(chain_kept_degrees)
        if len(kept_nodes) < 2:
            return None
        if self._kernel is not None:
            # mmap plane: batch-advise the timeline pages the condition
            # checks below are about to gather (no-op elsewhere).
            self._kernel.prefetch_views(kept_nodes)
        query = self.context.query
        try:
            if query.aggregate is Aggregate.AVG:
                return self._avg_estimate(kept_nodes, kept_degrees)
            count = self._count_estimate(kept_nodes, kept_degrees)
            if query.aggregate is Aggregate.COUNT:
                return count
            return count * self._avg_estimate(kept_nodes, kept_degrees)
        except EstimationError:
            return None

    # ------------------------------------------------------------------
    # partial samples for cross-walker merging (repro.parallel)
    # ------------------------------------------------------------------
    def shard_samples(self) -> List[Tuple[int, int, Optional[bool], float]]:
        """Post-burn-in, thinned samples of this walker's run, evaluated.

        Called after :meth:`estimate` by the parallel engine.  Each tuple
        is ``(node, subgraph_degree, condition_matches, f_value)`` with
        ``condition_matches`` None when the walker's budget died before
        the sample could be evaluated (the merge skips those, exactly as
        the serial estimator does).  Evaluation reuses the walker's own
        response cache, so extracting the samples costs no further API
        calls beyond what the final in-run estimate already paid.
        """
        samples: List[Tuple[int, int, Optional[bool], float]] = []
        for nodes, degrees in zip(self._chain_nodes, self._chain_degrees):
            if len(nodes) < 4:
                continue
            kept_nodes, kept_degrees = self._usable_samples(nodes, degrees)
            for node, degree in zip(kept_nodes, kept_degrees):
                matches = self._safe_matches(node)
                f_value = self.context.f_value(node) if matches else 0.0
                samples.append((node, degree, matches, f_value))
        return samples

    def _safe_matches(self, node: int) -> Optional[bool]:
        """Condition check that tolerates a just-exhausted budget.

        Evaluating a sample costs a timeline fetch (a real, counted cost);
        once the budget is gone, unaffordable samples are skipped rather
        than aborting the whole estimate — they are a random suffix of the
        chain, so dropping them loses information, not unbiasedness.
        """
        try:
            return self.context.condition_matches(node)
        except (BudgetExhaustedError, TransientAPIError):
            return None

    def _avg_estimate(self, nodes: List[int], degrees: List[int]) -> float:
        values: List[float] = []
        matching_degrees: List[int] = []
        for node, degree in zip(nodes, degrees):
            matches = self._safe_matches(node)
            if matches:
                values.append(self.context.f_value(node))
                matching_degrees.append(degree)
        return ratio_average(values, matching_degrees)

    def _count_estimate(self, nodes: List[int], degrees: List[int]) -> float:
        population = katzir_count(nodes, degrees).population
        indicator: List[float] = []
        affordable_degrees: List[int] = []
        for node, degree in zip(nodes, degrees):
            matches = self._safe_matches(node)
            if matches is None:
                continue
            indicator.append(1.0 if matches else 0.0)
            affordable_degrees.append(degree)
        fraction = ratio_average(indicator, affordable_degrees)
        return population * fraction
