"""MA-TARW: the topology-aware random walk of §5 (Algorithms 2 and 3).

Paper map: walk instances and the aggregate assembly are Algorithm 3
(MA-TARW); per-node selection-probability estimation is Algorithm 2
(ESTIMATE-p); the probability recursions implemented here are Eq. 6 (its
``p_up`` form, generalised below) and the Hansen–Hurwitz aggregation that
turns ``f(u)/p(u)`` sums into unbiased SUM/COUNT estimates is Eq. 7 /
§5.1 (via :func:`repro.sampling.estimators.hansen_hurwitz` in spirit —
the accumulators below keep the sums incremental).

One walk *instance* is a bottom-top-bottom traversal of the level-by-level
subgraph: start at a seed returned by the search API, repeatedly move to a
uniformly random *up*-neighbor until reaching a node with none (a local
root), then reverse and move to uniformly random *down*-neighbors until a
node with none (a local sink).  No burn-in is needed because the visit
probability of every touched node can be estimated unbiasedly from the
level topology.

Selection probabilities (Eq. 6 generalised to seeds anywhere):

    p_up(u)   = start(u) + Σ_{v ∈ ∆(u)} p_up(v) / |∇(v)|
    p_down(u) = p_up(u)                        if ∇(u) = ∅  (local root)
              = Σ_{v ∈ ∇(u)} p_down(v) / |∆(v)|  otherwise

where start(u) = 1/s for each of the s seeds, 0 otherwise.  The paper
states the recursion with seeds assumed to be exactly the ∆ = ∅ sinks;
adding the ``start`` term makes it exact when a recent poster also has
down-neighbors (possible whenever someone adopted the keyword even more
recently).  ESTIMATE-p (Algorithm 2) unrolls one random downward path and
multiplies the branching factors — an unbiased estimator because each
recursion level replaces a sum by (size × uniformly-chosen term).

Estimation: for each instance, Σ_{u ∈ up-path} f(u)/p̂_up(u) and
Σ_{u ∈ down-path} f(u)/p̂_down(u) are each unbiased for the SUM over all
reachable users, and their mean is the instance estimate (the
``phase_sum`` combine).  ``combine="paper"`` reproduces Algorithm 3's
printed normalisation by 1/|R_i| instead — see EXPERIMENTS.md for why we
default to the corrected combine.  AVG is the ratio of accumulated SUM
and COUNT estimates; instances repeat until the query budget is spent.

The §5.2 cache ("a single cache ... saving about half of the query cost")
memoises p-estimates of local roots across instances; disable it with
``TARWConfig(cache_root_probabilities=False)`` for the ablation bench.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import RandomLike

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.parallel.engine import ParallelConfig
from repro.core.graph_builder import LevelByLevelOracle, QueryContext
from repro.core.query import Aggregate
from repro.core.results import EstimateResult, TracePoint
from repro.core.walker import BaseWalker
from repro.errors import BudgetExhaustedError, EstimationError, TransientAPIError
from repro.obs import Observability
from repro.obs.diagnostics import visit_probability_agreement

COMBINE_MODES = ("phase_sum", "paper")

ZERO_RETRY_BATCHES = 2
"""ESTIMATE-p: extra batches of ``p_walks`` to try when a node's pooled
estimate is still zero before dropping its contribution for this
instance."""


@dataclass(frozen=True)
class TARWConfig:
    """Knobs for MA-TARW."""

    p_method: str = "dp"
    """How selection probabilities are obtained:

    * ``"dp"`` (default) — exact dynamic programming over the subgraph
      classified so far.  Every node a walk or probability path touches is
      fully classified anyway (its up/down neighbor lists are exact), so
      the Eq. 6 recursion can be evaluated *deterministically* over that
      region at zero additional API cost.  Probability mass flowing
      through still-unclassified nodes is missing, so early values are
      slight underestimates that converge from below as coverage grows —
      a far better trade than the sampling estimator's heavy-tailed noise.
    * ``"estimate"`` — Algorithm 2 exactly as printed: per-node unbiased
      estimates from random downward/upward paths, pooled across visits.
      Kept for fidelity comparisons and the ablation benches.
    """
    p_walks: int = 3
    """Independent ESTIMATE-p repetitions averaged per node *per visit*
    (variance reduction; the paper's analysis uses one).  Only used with
    ``p_method="estimate"``."""
    pool_min_samples: int = 128
    """Grow a node's ESTIMATE-p pool to at least this many samples on
    first visit.  Extra samples over already-classified regions cost no
    API calls (the cache absorbs them), only CPU."""
    pool_decay: float = 0.95
    """Geometric forgetting applied to a node's pool on each refresh.

    Early ESTIMATE-p samples are computed while the pools of lower nodes
    (used by the sampled-backup shortcut) are still immature; without
    forgetting, that stale noise stays in the pool forever.  Decay < 1
    keeps the pool tracking the improving fixed point.  1.0 disables."""
    discovery_budget_fraction: float = 0.25
    """At most this fraction of the query budget may be spent by the
    bottom-discovery warm-up, so small budgets still leave room for
    estimation instances."""
    discovery_instances: int = 600
    """Warm-up walks that *discover bottom nodes* before estimation.

    The paper assumes the search API returns the complete bottom level,
    so every sink of the level-by-level graph is a seed (§5.2: "users at
    the bottom one or few levels are guaranteed to be returned by the
    search API").  On a real keyword graph many sinks are *local* (a
    community's last adopter) and post nothing recently, so search alone
    under-covers and the up-phase support collapses to ancestors of the
    few searchable users.  The warm-up runs plain bottom-top-bottom walks
    from the search seeds and promotes every sink they touch into the
    seed set, then freezes it — restoring the paper's assumption using
    only API-visible information."""
    final_recount_instances: int = 4_000
    """After the budget is spent, refresh the seed set to *every*
    classified sink (sinks learned anywhere during the run, not just walk
    endpoints), reset the visit counters, and re-accumulate them with this
    many walk instances confined to the already-cached region.  These
    walks cost zero API calls — only CPU — and they fix two late-run
    inconsistencies at once: the start distribution matches the final
    (largest) seed set, and the visit counters reflect only that
    distribution.  0 disables."""
    weight_cap: Optional[float] = 30.0
    """Winsorisation cap on one node's normalised contribution
    visits/(R * pooled_p).  That quantity concentrates near 1 as the run
    matures (empirical visit rate over estimated visit probability), so
    values far above 1 are almost always pooled-p underestimation noise
    rather than genuine rare-node mass; capping trades a small tail bias
    for a large variance reduction.  None disables."""
    combine: str = "phase_sum"
    cache_root_probabilities: bool = True
    max_instances: Optional[int] = 20_000
    stall_instances: int = 200
    """Stop when the query cost has not moved for this many instances
    (everything reachable is cached; see SRWConfig.stall_steps)."""
    max_seeds: Optional[int] = None
    """None = the complete search window (the whole bottom level)."""
    max_path_length: int = 10_000
    """Safety bound on one phase's length in nodes (cycles are impossible
    on a level-by-level graph, so this only guards corrupted oracles)."""
    step_retries: int = 2
    """Walk-level fault recovery: a step whose oracle lookup raises a
    :class:`TransientAPIError` (the resilient client gave up) is retried
    from the *current* node this many times before the instance aborts.
    Retries re-issue the same lookup and consume no walker RNG, so a run
    whose faults all heal stays bit-identical to a fault-free run."""

    def __post_init__(self) -> None:
        if self.p_method not in ("dp", "estimate"):
            raise EstimationError("p_method must be 'dp' or 'estimate'")
        if self.p_walks < 1:
            raise EstimationError("p_walks must be >= 1")
        if self.pool_min_samples < 1:
            raise EstimationError("pool_min_samples must be >= 1")
        if not 0.0 < self.pool_decay <= 1.0:
            raise EstimationError("pool_decay must be in (0, 1]")
        if self.discovery_instances < 0:
            raise EstimationError("discovery_instances must be >= 0")
        if self.final_recount_instances < 0:
            raise EstimationError("final_recount_instances must be >= 0")
        if not 0.0 < self.discovery_budget_fraction <= 1.0:
            raise EstimationError("discovery_budget_fraction must be in (0, 1]")
        if self.weight_cap is not None and self.weight_cap <= 0:
            raise EstimationError("weight_cap must be positive or None")
        if self.stall_instances < 1:
            raise EstimationError("stall_instances must be >= 1")
        if self.combine not in COMBINE_MODES:
            raise EstimationError(f"combine must be one of {COMBINE_MODES}")
        if self.step_retries < 0:
            raise EstimationError("step_retries must be >= 0")
        if self.max_path_length < 1:
            raise EstimationError("max_path_length must be >= 1")


# ----------------------------------------------------------------------
# the Eq. 6 evaluator: incremental row adjacency + two recursion passes
# ----------------------------------------------------------------------
def _dp_passes_rows(order_up, order_down, start, d_rows, up_counts,
                    u_rows, down_counts):
    """Eq. 6 recursion passes over per-node adjacency rows.

    Rows come from :class:`_DPGraphState` and may hold ``-1`` placeholders
    for partners that never classified (or classified with no level) —
    Eq. 6 restricted to the classified subgraph skips them.  The skip is
    branch-free: the tables carry one extra trailing slot that is never
    written, so a ``-1`` row entry indexes a permanent ``0.0`` and falls
    through the existing ``pj > 0.0`` guard.  Sorting by level is a
    topological order for both passes (edges always connect different
    levels), and the live entries appear in neighbor-list order.  Callers
    must ignore the sentinel slot (``zip`` against the n-row id list
    already does).

    A degraded (partial) connections page can leave an edge in one
    endpoint's lists only; a partner whose own list in that direction is
    empty then has a zero count and passes no mass over the edge.  The
    skip costs nothing on the consistent graphs a clean stack builds.
    """
    n = len(order_up)
    p_up = [0.0] * (n + 1)
    for i in order_up:
        value = start[i]
        for j in d_rows[i]:
            pj = p_up[j]
            if pj > 0.0:
                try:
                    value += pj / up_counts[j]
                except ZeroDivisionError:
                    pass
        p_up[i] = value
    p_down = [0.0] * (n + 1)
    for i in order_down:
        if up_counts[i] == 0:
            p_down[i] = p_up[i]
            continue
        value = 0.0
        for j in u_rows[i]:
            pj = p_down[j]
            if pj > 0.0:
                try:
                    value += pj / down_counts[j]
                except ZeroDivisionError:
                    pass
        p_down[i] = value
    return p_up, p_down


class _DPGraphState:
    """Incrementally maintained row adjacency of an oracle's classified
    subgraph, and the Eq. 6 tables over it.

    Fed one node at a time, in classification order, by
    :meth:`MATARWEstimator._run_dp_if_dirty` (classification is
    append-only within an oracle's lifetime: a node classifies once and
    its up/down lists never mutate afterwards).  Each classified node owns
    one row per direction, listing partner *row indices* in neighbor-list
    order.  Edges to not-yet-classified partners hold ``-1`` plus a
    ``(row, offset)`` pending entry; they resolve in place the moment the
    partner classifies, which is also the only event that changes the
    node count ``len(ids)`` — so the per-count caches (level argsort
    orders) stay valid exactly as long as the count does.  The DP passes
    skip ``-1`` entries: mass through unclassified neighbors is omitted.
    """

    __slots__ = (
        "total_classified", "ids", "levels", "up_counts", "down_counts",
        "idx", "dead", "d_rows", "u_rows", "d_pending", "u_pending",
        "cached_n", "order_up", "order_down", "start_key", "start_list",
    )

    def __init__(self) -> None:
        self.total_classified = 0
        self.ids: List[int] = []
        self.levels: List[int] = []
        self.up_counts: List[int] = []
        self.down_counts: List[int] = []
        self.idx: Dict[int, int] = {}
        self.dead: set = set()
        """Classified nodes with no level: edges into them never resolve."""
        self.d_rows: List[List[int]] = []
        self.u_rows: List[List[int]] = []
        self.d_pending: Dict[int, List[Tuple[int, int]]] = {}
        self.u_pending: Dict[int, List[Tuple[int, int]]] = {}
        self.cached_n = -1
        self.order_up: Optional[List[int]] = None
        self.order_down: Optional[List[int]] = None
        self.start_key: Optional[frozenset] = None
        self.start_list: List[float] = []

    def note_classified(self, user_id: int, level: Optional[int],
                        ups: Sequence[int], downs: Sequence[int]) -> None:
        self.total_classified += 1
        d_pos = self.d_pending.pop(user_id, None)
        u_pos = self.u_pending.pop(user_id, None)
        if level is None:
            self.dead.add(user_id)
            return
        j = len(self.ids)
        self.idx[user_id] = j
        self.ids.append(user_id)
        self.levels.append(level)
        self.up_counts.append(len(ups))
        self.down_counts.append(len(downs))
        d_rows = self.d_rows
        u_rows = self.u_rows
        if d_pos:
            for ri, off in d_pos:
                d_rows[ri][off] = j
        if u_pos:
            for ri, off in u_pos:
                u_rows[ri][off] = j
        idx_get = self.idx.get
        dead = self.dead
        row: List[int] = []
        for off, v in enumerate(downs):
            k = idx_get(v)
            if k is None:
                k = -1
                if v not in dead:
                    self.d_pending.setdefault(v, []).append((j, off))
            row.append(k)
        d_rows.append(row)
        row = []
        for off, v in enumerate(ups):
            k = idx_get(v)
            if k is None:
                k = -1
                if v not in dead:
                    self.u_pending.setdefault(v, []).append((j, off))
            row.append(k)
        u_rows.append(row)

    def tables(self, seed_set: frozenset, seed_count: int
               ) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Both Eq. 6 tables (``p_up``, ``p_down``) keyed by node id.

        Per call only the level argsorts (cached per node count) and the
        start vector (cached per seed-set identity, extended for new
        rows) are refreshed before the passes run.  The stable argsort
        breaks level ties in classification order.
        """
        n = len(self.ids)
        if n == 0:
            return {}, {}
        if self.cached_n != n:
            levels_arr = np.asarray(self.levels, dtype=np.int64)
            self.order_up = np.argsort(-levels_arr, kind="stable").tolist()
            self.order_down = np.argsort(levels_arr, kind="stable").tolist()
            self.cached_n = n
        start_list = self.start_list
        if self.start_key is not seed_set:
            sv = 1.0 / seed_count if seed_count else 0.0
            self.start_list = start_list = [
                sv if u in seed_set else 0.0 for u in self.ids
            ]
            self.start_key = seed_set
        elif len(start_list) < n:
            # Same seed set, new rows since the last evaluation: extend.
            sv = 1.0 / seed_count if seed_count else 0.0
            for u in self.ids[len(start_list):]:
                start_list.append(sv if u in seed_set else 0.0)
        p_up, p_down = _dp_passes_rows(
            self.order_up, self.order_down, start_list,
            self.d_rows, self.up_counts, self.u_rows, self.down_counts,
        )
        # zip stops at the id count, dropping the sentinel slot.
        return dict(zip(self.ids, p_up)), dict(zip(self.ids, p_down))


class MATARWEstimator(BaseWalker):
    """Topology-aware random walk over the level-by-level subgraph (paper §5, Algorithms 2–3).

    Budgeted MA-TARW over a level-by-level oracle.  Bottom-top-bottom walk
    instances need no burn-in: every touched node's selection probability
    is recovered from the level topology (Eq. 6) and fed into unbiased
    Hansen–Hurwitz sums.
    """

    algorithm: ClassVar[str] = "ma-tarw"
    parallel_kind: ClassVar[Optional[str]] = "hh"
    config_cls: ClassVar[type] = TARWConfig

    def __init__(
        self,
        context: QueryContext,
        oracle: LevelByLevelOracle,
        config: Optional[TARWConfig] = None,
        seed: RandomLike = None,
        parallel: Optional["ParallelConfig"] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(context, oracle, config, seed=seed, parallel=parallel, obs=obs)
        self._seeds: List[int] = []
        self._seed_set: frozenset = frozenset()
        self._root_cache: Dict[int, float] = {}
        # Pooled ESTIMATE-p samples: node -> (sum of estimates, #estimates).
        self._p_up_pool: Dict[int, Tuple[float, int]] = {}
        self._p_down_pool: Dict[int, Tuple[float, int]] = {}
        # Visit counters per phase (only for condition-matching nodes).
        self._visits_up: Dict[int, int] = {}
        self._visits_down: Dict[int, int] = {}
        self._paper_paths: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        self._instance_counter = 0
        self._dead_ends: Dict[int, Tuple[object, Tuple[int, int], bool]] = {}
        """Dead-end memo: node -> (failure key, counter deltas, confirmed)
        of its last budget-rejected classification (see
        :meth:`_dead_end_fetch`)."""
        self.zero_probability_drops = 0
        self.fault_aborted_instances = 0
        # Deterministic DP state (p_method="dp").
        self._dp_state = _DPGraphState()
        self._dp_p_up: Dict[int, float] = {}
        self._dp_p_down: Dict[int, float] = {}
        self._dp_dirty = True
        self._dp_key: Optional[Tuple[int, int]] = None
        """Input fingerprint of the last DP evaluation: (oracle classify
        epoch, seed-set version).  A dirty flag with an unchanged key
        means walks ran but classified nothing new and the start
        distribution stands — the recursion would reproduce the previous
        table bit for bit, so it is skipped."""
        self._dp_recomputes = 0
        """Full Eq. 6 evaluations actually performed (the hot-path tests
        assert the epoch key collapses cache-confined recomputes)."""
        self._seed_version = 0
        """Bumped whenever the seed set changes; part of the DP key
        because Eq. 6's start(u) term depends on it."""

    def algorithm_id(self) -> str:
        return self.algorithm  # level-by-level only: no oracle suffix

    # ------------------------------------------------------------------
    # the serial run (BaseWalker.estimate handles parallel dispatch)
    # ------------------------------------------------------------------
    def _estimate_serial(self) -> EstimateResult:
        config = self.config
        query = self.context.query
        trace: List[TracePoint] = []
        instances = 0
        path_length_total = 0
        last_cost = -1
        stalled_since = 0
        next_trace = 1
        budget_aborted_instances = 0
        try:
            self._seeds = self._oracle_step(self.context.seeds, config.max_seeds)
            self._discover_bottom_nodes()
            self._seed_set = frozenset(self._seeds)
            self._seed_version += 1
            if self.obs.trace is not None:
                self.obs.trace.event("tarw.seeds", n=len(self._seeds))
            if self.obs.metrics is not None:
                self.obs.metrics.gauge("tarw.seed_set_size").set(len(self._seeds))
            run_instance = self._instance_runner("walk")
            while config.max_instances is None or instances < config.max_instances:
                try:
                    paths = run_instance()
                except TransientAPIError:
                    # Walk-level recovery, stage 2: step retries were already
                    # exhausted (see _oracle_step), so checkpoint — visit
                    # counters only ever contain *completed* instances — and
                    # restart from a fresh seed.  The aborted instance's RNG
                    # draws are simply part of this (degraded) run's stream.
                    self.fault_aborted_instances += 1
                    stalled_since += 1
                    if stalled_since >= config.stall_instances:
                        break
                    continue
                if paths is None:
                    # Instances are independent restarts, so one that needed
                    # fresh (unaffordable) data can be skipped; later
                    # instances confined to already-cached regions complete
                    # at zero API cost and keep sharpening the estimate.
                    budget_aborted_instances += 1
                    stalled_since += 1
                    if stalled_since >= config.stall_instances:
                        break
                    continue
                up_path, down_path = paths
                path_length_total += len(up_path) + len(down_path) - 1
                instances += 1
                self._instance_counter = instances
                cost = self._cost()
                if instances >= next_trace:
                    # Geometric spacing: each recompute scans the distinct
                    # visited nodes, so total trace work stays near-linear.
                    trace.append(TracePoint(cost, self._recompute_value()))
                    next_trace = instances + max(1, instances // 25)
                if cost == last_cost:
                    stalled_since += 1
                    if stalled_since >= config.stall_instances:
                        break
                else:
                    last_cost = cost
                    stalled_since = 0
        except BudgetExhaustedError:
            pass  # budget died during seeding/discovery: report what we have
        except TransientAPIError:
            pass  # platform unrecoverable during seeding: report what we have

        recounted = self._final_recount()
        if recounted:
            instances = self._instance_counter
        value = self._recompute_value()
        trace.append(TracePoint(self._cost(), value))
        mean_path = path_length_total / instances if instances else 0.0
        diagnostics = {
            "instances": float(instances),
            "mean_path_length": mean_path,
            "zero_probability_drops": float(self.zero_probability_drops),
            "budget_aborted_instances": float(budget_aborted_instances),
            "fault_aborted_instances": float(self.fault_aborted_instances),
            "fault_step_retries": float(self.fault_step_retries),
            "p_pool_nodes": float(len(self._p_up_pool) + len(self._p_down_pool)),
            "seed_set_size": float(len(self._seeds)),
        }
        if self.obs.enabled:
            self._agreement_diagnostics(diagnostics)
            if self.obs.trace is not None:
                self.obs.trace.event("tarw.done", instances=instances, cost=self._cost())
        return EstimateResult(
            query=query,
            algorithm=self.algorithm_id(),
            value=value,
            cost_total=self._cost(),
            cost_by_kind=self._cost_by_kind(),
            trace=trace,
            num_samples=instances,
            diagnostics=diagnostics,
        )

    def _agreement_diagnostics(self, diagnostics: Dict[str, float]) -> None:
        """ESTIMATE-p / Eq. 6 agreement: did walks visit each node with the
        frequency the probability machinery claims?  Reads only memoised
        oracle state and the p-pools — no API calls, no RNG draws."""
        instances = self._instances_run()
        if instances <= 0:
            return
        for direction, visits, pool in (
            ("up", self._visits_up, self._p_up_pool),
            ("down", self._visits_down, self._p_down_pool),
        ):
            probabilities = {node: self._pooled_p(node, pool) for node in visits}
            report = visit_probability_agreement(
                visits, probabilities, instances, self.oracle.level_of
            )
            for key in ("max_abs_z", "mean_abs_deviation", "tv_distance", "tv_distance_by_level"):
                if key in report:
                    diagnostics[f"obs_p_agree_{direction}_{key}"] = report[key]

    # ------------------------------------------------------------------
    # final zero-cost recount (see TARWConfig.final_recount_instances)
    # ------------------------------------------------------------------
    def _final_recount(self) -> bool:
        config = self.config
        if config.final_recount_instances == 0 or not self._seeds:
            return False
        sinks = {
            node
            for node in self.oracle.classified_nodes()
            if self.oracle.level_of(node) is not None
            and not self.oracle.down_neighbors(node)
        }
        self._seeds = sorted(set(self._seeds) | sinks)
        self._seed_set = frozenset(self._seeds)
        self._seed_version += 1
        self._visits_up.clear()
        self._visits_down.clear()
        self._paper_paths.clear()
        self._instance_counter = 0
        self._dp_dirty = True
        span = (
            self.obs.trace.span("tarw.recount", seeds=len(self._seeds))
            if self.obs.trace is not None
            else None
        )
        completed = 0
        aborted = 0
        attempts_left = config.final_recount_instances * 3
        run_instance = self._instance_runner("recount")
        while completed < config.final_recount_instances and attempts_left > 0:
            attempts_left -= 1
            try:
                paths = run_instance()
            except TransientAPIError:
                paths = None
            if paths is None:
                aborted += 1
                if aborted > config.stall_instances and completed == 0:
                    break
            else:
                completed += 1
        self._instance_counter = completed
        if span is not None:
            span.add(completed=completed, aborted=aborted).close()
        return completed > 0

    # ------------------------------------------------------------------
    # bottom-node discovery warm-up
    # ------------------------------------------------------------------
    def _discover_bottom_nodes(self) -> None:
        """Promote every sink touched by warm-up walks into the seed set.

        See ``TARWConfig.discovery_instances``.  The seed set is frozen
        afterwards so the start distribution (1/s each) stays consistent
        across all estimation instances.
        """
        discovered = set(self._seeds)
        initial = len(discovered)
        span = (
            self.obs.trace.span("tarw.discovery", seeds=initial)
            if self.obs.trace is not None
            else None
        )
        budget = getattr(self.context.client.meter, "budget", None)  # type: ignore[attr-defined]
        spend_cap = None if budget is None else budget * self.config.discovery_budget_fraction
        run_instance = self._instance_runner("discovery")
        for _ in range(self.config.discovery_instances):
            if spend_cap is not None and self._cost() >= spend_cap:
                break
            try:
                paths = run_instance()
            except TransientAPIError:
                # Abandon this warm-up walk (its sinks are lost) but
                # keep discovering: each walk restarts from a seed.
                self.fault_aborted_instances += 1
                continue
            if paths is None:
                break  # keep whatever was discovered; estimation may still run
            up_path, down_path = paths
            for node in up_path + down_path:
                if not self.oracle.down_neighbors(node):
                    discovered.add(node)
        self._seeds = sorted(discovered)
        if span is not None:
            span.add(promoted=len(discovered) - initial).close()

    # ------------------------------------------------------------------
    # the walk engine: one bottom-top-bottom instance runner
    # ------------------------------------------------------------------
    def _instance_runner(
        self, phase: str
    ) -> Callable[[], Optional[Tuple[List[int], List[int]]]]:
        """Build ``run_instance() -> (up_path, down_path)`` for one *phase*
        (``"discovery"``, ``"walk"`` or ``"recount"``): the one stepping
        loop every MA-TARW walk runs, on every client stack.  An instance
        that needs data the budget can no longer buy returns None (the
        callers' budget-abort branch); unhealed faults still raise.

        An instance picks a uniformly random seed, climbs uniformly random
        up-neighbors to a local root, then descends uniformly random
        down-neighbors from that root (the down path's first node) to a
        local sink.  Both phases are walked completely before anything is
        recorded: a walk can abort on budget exhaustion or an unhealed
        fault, and a partial instance would skew the visit counters.
        Walk and recount instances then count each path's
        condition-matching visits; discovery instances record nothing
        (the caller promotes sinks from the returned paths).

        The instance's *contribution* to the estimate is not finalised
        here: all contributions are recomputed from the latest
        probabilities at read time (:meth:`_recompute_value`), so early
        instances are not frozen with the p-estimates of their time.

        Everything fixed for the run is decided here, once, not per step:

        * **neighbour fetch** — a classified node is read straight off the
          oracle's up/down memo (the accessor would return the same list
          at no API cost).  A miss classifies through the dead-end memo
          (:meth:`_dead_end_fetch`), on every client stack: straight
          through the oracle accessor on the bare clean stack
          (``self._faultless``: :class:`TransientAPIError` cannot
          surface), through the :meth:`_oracle_step` retry wrapper
          otherwise — a kernel over a fault stack included.
        * **index draw** — for a stock ``random.Random``, ``choice(seq)``
          is ``seq[_randbelow(len(seq))]``; ``_randbelow_with_getrandbits``
          is inlined for the steps, consuming the identical
          ``getrandbits`` stream.  Any other generator keeps its ``choice``.
        * **hooks**, None when off, so a traced run executes the same loop
          as a dark one: the ``tarw.instance`` span (closed with the
          failure class when a walk aborts), the ``tarw.level_visits`` /
          ``tarw.instances`` / ``tarw.walk_length`` metrics, ESTIMATE-p's
          pool refresh per counted visit (``p_method="estimate"``), path
          capture for ``combine="paper"``, the mmap plane's page prefetch
          ahead of a path's condition checks, and the context's
          condition memo read in place (unless the context overrides
          the condition).

        ``self._seeds`` is read per call (the recount rebinds it) while
        the visit counters and paper paths are prebound (the recount
        ``clear()``s the same containers).
        """
        config = self.config
        oracle = self.oracle
        rng = self.rng
        kernel = self._kernel
        max_length = config.max_path_length
        classify_up = oracle.up_neighbors
        classify_down = oracle.down_neighbors
        if not self._faultless:
            classify_up = functools.partial(self._oracle_step, classify_up)
            classify_down = functools.partial(self._oracle_step, classify_down)
        fetch_up = self._dead_end_fetch(classify_up)
        fetch_down = self._dead_end_fetch(classify_down)
        up_memo = getattr(oracle, "_up", {}).get
        down_memo = getattr(oracle, "_down", {}).get
        choice = rng.choice
        randbelow = rng._randbelow if type(rng).choice is random.Random.choice else None
        getrandbits: Optional[Callable[[int], int]] = None
        if (
            randbelow is not None
            and type(rng)._randbelow is random.Random._randbelow_with_getrandbits
        ):
            getrandbits = rng.getrandbits

        counting = phase != "discovery"  # discovery records nothing
        level_of = oracle.level_of
        trace = self.obs.trace if counting else None
        metrics = self.obs.metrics if counting else None
        refresh = self._refresh_p if config.p_method == "estimate" else None
        paper_paths = self._paper_paths if config.combine == "paper" else None
        prefetch = (
            kernel.prefetch_views
            if kernel is not None and kernel.prefetcher is not None
            else None
        )
        context = self.context
        condition_matches = context.condition_matches if counting else None
        memoised = (
            getattr(type(context), "condition_matches", None)
            is QueryContext.condition_matches
        )
        # A context that overrides the condition (or has none) answers it
        # itself: every lookup in the empty dict misses.
        cached_condition = context._cond_memo.get if memoised else {}.get
        visits_up = self._visits_up
        visits_down = self._visits_down

        def aborted(span) -> None:
            if span is not None:
                span.add(error="BudgetExhaustedError").close()

        def run_instance() -> Optional[Tuple[List[int], List[int]]]:
            span = trace.span("tarw.instance", phase=phase) if trace is not None else None
            try:
                seeds = self._seeds
                if randbelow is not None:
                    current = seeds[randbelow(len(seeds))]
                else:
                    current = choice(seeds)
                up_path = [current]
                while True:
                    candidates = up_memo(current)
                    if candidates is None:
                        candidates = fetch_up(current)
                        if candidates is None:
                            return aborted(span)
                    if not candidates:
                        break
                    if getrandbits is None:
                        current = choice(candidates)
                    else:
                        n = len(candidates)
                        k = n.bit_length()
                        r = getrandbits(k)
                        while r >= n:
                            r = getrandbits(k)
                        current = candidates[r]
                    up_path.append(current)
                    if len(up_path) > max_length:
                        raise EstimationError(
                            "up-phase exceeded max_path_length; level oracle is cyclic?"
                        )
                down_path = [current]
                while True:
                    candidates = down_memo(current)
                    if candidates is None:
                        candidates = fetch_down(current)
                        if candidates is None:
                            return aborted(span)
                    if not candidates:
                        break
                    if getrandbits is None:
                        current = choice(candidates)
                    else:
                        n = len(candidates)
                        k = n.bit_length()
                        r = getrandbits(k)
                        while r >= n:
                            r = getrandbits(k)
                        current = candidates[r]
                    down_path.append(current)
                    if len(down_path) > max_length:
                        raise EstimationError(
                            "down-phase exceeded max_path_length; level oracle is cyclic?"
                        )
            except Exception as err:
                if span is not None:
                    span.add(error=type(err).__name__).close()
                raise  # walk-level recovery in the caller decides what next
            if not counting:
                return up_path, down_path
            try:
                for direction, visits, path in (
                    ("up", visits_up, up_path),
                    ("down", visits_down, down_path),
                ):
                    if prefetch is not None:
                        prefetch(path)
                    visits_get = visits.get
                    for node in path:
                        if metrics is not None:
                            # level_of is memoised for every walked node (the
                            # walk classified it): occupancy telemetry is free.
                            level = level_of(node)
                            if level is not None:
                                metrics.counter(
                                    "tarw.level_visits", level=level, phase=direction
                                ).inc()
                        matches = cached_condition(node)
                        if matches is None:
                            matches = condition_matches(node)
                        if not matches:
                            continue  # contributes 0 regardless of p(u): skip its cost
                        visits[node] = visits_get(node, 0) + 1
                        if refresh is not None:
                            refresh(node, direction)
                    self._dp_dirty = True
            except BudgetExhaustedError:
                # A condition check re-fetching a timeline that was served
                # but never cached (a fault-degraded response): the instance
                # aborts with the visits counted so far and its span unsent.
                return None
            if paper_paths is not None:
                paper_paths.append((tuple(up_path), tuple(down_path)))
            if span is not None:
                # Every node on both paths was classified during the walk,
                # so the level lookups below are cache hits — zero API cost.
                root = down_path[0]
                sink = down_path[-1]
                span.add(
                    start=up_path[0],
                    root=root,
                    sink=sink,
                    up=len(up_path),
                    down=len(down_path),
                    l_root=level_of(root),
                    l_sink=level_of(sink),
                ).close()
            if metrics is not None:
                metrics.counter("tarw.instances", phase=phase).inc()
                metrics.histogram("tarw.walk_length").observe(
                    len(up_path) + len(down_path) - 1
                )
            return up_path, down_path

        return run_instance

    def _dead_end_fetch(
        self, lookup: Callable[[int], List[int]]
    ) -> Callable[[int], Optional[List[int]]]:
        """Wrap the classifying *lookup* in the dead-end memo.

        Returns None instead of raising when the budget rejects the
        classification.  The memo reads the caching client's footprint
        of a budget-rejected request (see
        :meth:`~repro.api.client.CachingClient.failure_key`): once a
        node's neighbourhood prefix is memoised, a rejected
        classification changes nothing but two counters (cache hits and
        misses), so two consecutive failures of one node at the same
        failure key with identical counter deltas are a fixed point:
        until the key moves, every later attempt would add those deltas
        and fail again.  Such attempts only replay the deltas
        (:meth:`~repro.api.client.CachingClient.replay_failure`) and skip
        the classifier.  A first failure is never replayed: it may have
        memoised prefix users or filled a cache entry, which changes the
        next attempt's footprint.  On a retrying stack the key includes
        the ``retries`` column and the uncacheable count, so a failure
        that burned a retry or was served degraded is never recorded.
        Over a client stack with no such footprint the wrapper only maps
        the rejection to None.
        """
        context = getattr(self.oracle, "context", None) or self.context
        client = getattr(context, "client", None)
        if not getattr(client, "replays_failures", False):

            def fetch_once(node: int) -> Optional[List[int]]:
                try:
                    return lookup(node)
                except BudgetExhaustedError:
                    return None

            return fetch_once

        dead_ends = self._dead_ends
        dead_end = dead_ends.get
        failure_key = client.failure_key
        counters = client.failure_counters
        replay = client.replay_failure

        def fetch(node: int) -> Optional[List[int]]:
            key = failure_key()
            entry = dead_end(node)
            if entry is not None and entry[0] != key:
                entry = None  # recorded before the last spend: stale
            if entry is not None and entry[2]:
                replay(entry[1])
                return None
            before = counters()
            try:
                return lookup(node)
            except BudgetExhaustedError:
                if failure_key() == key:
                    deltas = tuple(a - b for a, b in zip(counters(), before))
                    dead_ends[node] = (key, deltas, entry is not None and entry[1] == deltas)
                return None

        return fetch

    def _refresh_p(self, node: int, direction: str) -> float:
        """Add a batch of ESTIMATE-p samples for *node* to its pool.

        Returns the pooled mean.  Every sample a node ever receives is
        pooled into a running mean: ESTIMATE-p is unbiased but
        heavy-tailed — most single walks return 0 (the random downward
        path missed every seed) while rare walks return large values.
        Pooling across instances is still unbiased for p(u) and converges,
        where per-visit estimates would either drop the node (downward
        bias) or explode the variance.
        """
        config = self.config
        if direction == "up":
            pool, p_estimator = self._p_up_pool, self._estimate_p_up
        else:
            pool, p_estimator = self._p_down_pool, self._estimate_p_down
        total, count = pool.get(node, (0.0, 0))
        if config.pool_decay < 1.0 and count:
            total *= config.pool_decay
            count *= config.pool_decay
        target = max(count + config.p_walks, config.pool_min_samples)
        batches_left = 1 + ZERO_RETRY_BATCHES
        while count < target or (total <= 0.0 and batches_left > 0):
            if count >= target:
                batches_left -= 1
                target += config.p_walks
            total += p_estimator(node)
            count += 1
        pool[node] = (total, count)
        return total / count

    def _pooled_p(self, node: int, pool: Dict[int, Tuple[float, int]]) -> float:
        if self.config.p_method == "dp":
            self._run_dp_if_dirty()
            dp = self._dp_p_up if pool is self._p_up_pool else self._dp_p_down
            return dp.get(node, 0.0)
        total, count = pool.get(node, (0.0, 0))
        return total / count if count else 0.0

    def _run_dp_if_dirty(self) -> None:
        """Evaluate Eq. 6 exactly over the classified subgraph.

        Nodes classified since the last evaluation are appended to the
        incremental adjacency (:class:`_DPGraphState`) in classification
        order, then its passes run.  Mass through unclassified neighbors
        is omitted (lower bound; converges as coverage grows).  No API
        calls: every input is already in the oracle's caches.

        The dirty flag is necessary but not sufficient: visit counters
        move every instance, yet the recursion reads only the oracle's
        classified subgraph and the seed set.  Both are fingerprinted in
        ``_dp_key`` (oracle classify epoch, seed version); when the key
        is unchanged the previous table would be reproduced bit for bit,
        so cache-confined stretches — notably the whole final recount —
        collapse to a single evaluation.
        """
        if not self._dp_dirty:
            return
        oracle = self.oracle
        epoch = getattr(oracle, "classify_epoch", None)
        key = None if epoch is None else (epoch, self._seed_version)
        if key is not None and key == self._dp_key:
            self._dp_dirty = False
            return
        state = self._dp_state
        level_of = oracle.level_of
        up_neighbors = oracle.up_neighbors
        down_neighbors = oracle.down_neighbors
        for node in oracle.classified_nodes()[state.total_classified:]:
            state.note_classified(
                node, level_of(node), up_neighbors(node), down_neighbors(node)
            )
        self._dp_p_up, self._dp_p_down = state.tables(self._seed_set, len(self._seeds))
        self._dp_key = key
        self._dp_recomputes += 1
        self._dp_dirty = False

    # ------------------------------------------------------------------
    # estimate assembly from counters + pools
    # ------------------------------------------------------------------
    def _recompute_value(self) -> Optional[float]:
        if self.config.combine == "paper":
            return self._recompute_value_paper()
        instances = self._instances_run()
        if instances == 0:
            return None
        capped_sum = 0.0
        capped_count = 0.0
        raw_sum = 0.0
        raw_count = 0.0
        drops = 0
        cap = self.config.weight_cap
        use_dp = self.config.p_method == "dp"
        if use_dp:
            # Hoisted out of the per-node loop: _pooled_p would re-check
            # the dirty flag for every visited node, and nothing inside
            # the loop can re-dirty the tables (f_value never classifies).
            self._run_dp_if_dirty()
        context = self.context
        f_of = context.f_value
        # QueryContext memoises f(u); reading the memo directly skips one
        # method call per visited node (misses fall back to f_of, which
        # populates the same memo — identical values either way).  A
        # context that overrides f(u) (or has none) answers every node.
        f_memo_get = (
            context._f_memo.get
            if getattr(type(context), "f_value", None) is QueryContext.f_value
            else {}.get
        )
        for visits, pool, dp in (
            (self._visits_up, self._p_up_pool, self._dp_p_up),
            (self._visits_down, self._p_down_pool, self._dp_p_down),
        ):
            p_get = dp.get if use_dp else None
            pool_get = pool.get
            for node, visit_count in visits.items():
                if p_get is not None:
                    probability = p_get(node, 0.0)
                else:
                    total, count = pool_get(node, (0.0, 0))
                    probability = total / count if count else 0.0
                if probability <= 0.0:
                    drops += 1
                    continue
                normalised = visit_count / (instances * probability)
                f_value = f_memo_get(node)
                if f_value is None:
                    f_value = f_of(node)
                raw_sum += normalised * f_value
                raw_count += normalised
                if cap is not None and normalised > cap:
                    normalised = cap
                capped_sum += normalised * f_value
                capped_count += normalised
        self.zero_probability_drops = drops
        query = self.context.query
        if query.aggregate is Aggregate.SUM:
            return capped_sum / 2.0
        if query.aggregate is Aggregate.COUNT:
            return capped_count / 2.0
        # AVG: a self-normalising ratio — capping would bias it (the same
        # inflated weight appears in numerator and denominator and cancels),
        # so use the raw weights.
        if raw_count == 0:
            return None
        return raw_sum / raw_count

    def _recompute_value_paper(self) -> Optional[float]:
        """Algorithm 3's printed combine: per-instance 1/|R_i| normalising."""
        sum_total, count_total = self._paper_totals()
        return self._value_from_totals(sum_total, count_total, len(self._paper_paths))

    def _paper_totals(self) -> Tuple[float, float]:
        """Σ over captured instances of (Σ f(u)/p̂(u), Σ 1/p̂(u)) / |R_i|,
        the condition-matching nodes of both paths contributing."""
        sum_total = 0.0
        count_total = 0.0
        for up_path, down_path in self._paper_paths:
            path_sum = 0.0
            path_count = 0.0
            for path, pool in ((up_path, self._p_up_pool), (down_path, self._p_down_pool)):
                for node in path:
                    if not self.context.condition_matches(node):
                        continue
                    probability = self._pooled_p(node, pool)
                    if probability <= 0.0:
                        continue
                    path_sum += self.context.f_value(node) / probability
                    path_count += 1.0 / probability
            size = len(up_path) + len(down_path)
            sum_total += path_sum / size
            count_total += path_count / size
        return sum_total, count_total

    def _instances_run(self) -> int:
        return self._instance_counter

    # ------------------------------------------------------------------
    # partial sums for cross-walker merging (repro.parallel)
    # ------------------------------------------------------------------
    def hh_partial(self) -> Dict[str, float]:
        """Unnormalised Hansen–Hurwitz accumulators of this walker's run.

        Called after :meth:`estimate` by the parallel engine.  The sums
        are *instance-unnormalised* (``Σ_u visits(u)·f(u)/p̂(u)`` rather
        than the per-instance mean), so independent walkers merge by
        plain addition; the merged estimate divides once by the pooled
        instance count (and the phase factor 2 for ``combine="phase_sum"``).
        Winsorisation stays within-walker: the cap applies to each
        walker's own ``visits/(R_i·p̂)`` ratio, which is the quantity that
        concentrates near 1 (see ``TARWConfig.weight_cap``).
        """
        if self.config.combine == "paper":
            sum_total, count_total = self._paper_totals()
            return {
                "sum": sum_total,
                "count": count_total,
                "raw_sum": sum_total,
                "raw_count": count_total,
                "instances": float(len(self._paper_paths)),
                "divisor": 1.0,
            }
        instances = self._instances_run()
        capped_sum = 0.0
        capped_count = 0.0
        raw_sum = 0.0
        raw_count = 0.0
        cap = self.config.weight_cap
        if instances:
            for visits, pool in (
                (self._visits_up, self._p_up_pool),
                (self._visits_down, self._p_down_pool),
            ):
                for node, visit_count in visits.items():
                    probability = self._pooled_p(node, pool)
                    if probability <= 0.0:
                        continue
                    unnormalised = visit_count / probability
                    f_value = self.context.f_value(node)
                    raw_sum += unnormalised * f_value
                    raw_count += unnormalised
                    if cap is not None and unnormalised > cap * instances:
                        unnormalised = cap * instances
                    capped_sum += unnormalised * f_value
                    capped_count += unnormalised
        return {
            "sum": capped_sum,
            "count": capped_count,
            "raw_sum": raw_sum,
            "raw_count": raw_count,
            "instances": float(instances),
            "divisor": 2.0,
        }

    # ------------------------------------------------------------------
    # ESTIMATE-p (Algorithm 2) and its top-down mirror
    # ------------------------------------------------------------------
    def _start_probability(self, node: int) -> float:
        return 1.0 / len(self._seeds) if node in self._seed_set else 0.0

    def _observe_p_depth(self, depth: int) -> None:
        """ESTIMATE-p recursion depth (unrolled path steps) histogram."""
        if self.obs.metrics is not None:
            self.obs.metrics.histogram("tarw.estimate_p_depth").observe(depth)

    def _estimate_p_up(self, node: int) -> float:
        """Estimate of p_up(node) by one random downward path.

        Unrolls  p_up(u) = start(u) + |∆(u)| * p_up(V) / |∇(V)|  with V
        uniform in ∆(u), accumulating the telescoped branching factor —
        Algorithm 2 of the paper, which is unbiased but heavy-tailed.

        Variance reduction (sampled backup): when the path reaches a node
        whose own p_up pool already holds ``pool_min_samples`` estimates,
        the walk terminates early with that pooled value in place of a
        fresh sub-walk.  Lower nodes' pools never depend on higher nodes'
        (paths go strictly down), so the bootstrapped values converge to
        the same fixed point as Algorithm 2, with drastically less noise.
        """
        estimate = 0.0
        factor = 1.0
        current = node
        first = True
        for depth in range(self.config.max_path_length):
            if not first:
                total, count = self._p_up_pool.get(current, (0.0, 0))
                if count >= self.config.pool_min_samples and total > 0.0:
                    self._observe_p_depth(depth)
                    return estimate + factor * (total / count)
            estimate += factor * self._start_probability(current)
            downs = self.oracle.down_neighbors(current)
            if not downs:
                self._observe_p_depth(depth)
                return estimate
            chosen = self.rng.choice(downs)
            up_count = len(self.oracle.up_neighbors(chosen))
            factor *= len(downs) / up_count  # up_count >= 1: current is above chosen
            current = chosen
            first = False
        raise EstimationError("ESTIMATE-p exceeded max_path_length; level oracle is cyclic?")

    def _estimate_p_down(self, node: int) -> float:
        """Estimate of p_down(node) by one random upward path.

        Walks up to a local root, then multiplies by an estimate of the
        root's p_up — pooled across instances when the §5.2 cache is on.
        The same sampled-backup shortcut as :meth:`_estimate_p_up` applies
        with the p_down pools of strictly-higher nodes.
        """
        factor = 1.0
        current = node
        first = True
        for depth in range(self.config.max_path_length):
            if not first:
                total, count = self._p_down_pool.get(current, (0.0, 0))
                if count >= self.config.pool_min_samples and total > 0.0:
                    self._observe_p_depth(depth)
                    return factor * (total / count)
            ups = self.oracle.up_neighbors(current)
            if not ups:
                self._observe_p_depth(depth)
                return factor * self._root_p_up(current)
            chosen = self.rng.choice(ups)
            down_count = len(self.oracle.down_neighbors(chosen))
            factor *= len(ups) / down_count  # down_count >= 1: current is below chosen
            current = chosen
            first = False
        raise EstimationError("ESTIMATE-p exceeded max_path_length; level oracle is cyclic?")

    def _root_p_up(self, root: int) -> float:
        """Pooled estimate of a local root's p_up (the §5.2 root cache).

        The paper reuses one estimate per root to halve the probability-
        estimation cost; we additionally keep *pooling* new samples into
        it (a frozen single sample would lock in its noise for the run).
        """
        if not self.config.cache_root_probabilities:
            return self._sample_root_p_up(root)
        total, count = self._p_up_pool.get(root, (0.0, 0))
        if count < self.config.pool_min_samples:
            total += self._sample_root_p_up(root)
            count += 1
            self._p_up_pool[root] = (total, count)
        return total / count

    def _sample_root_p_up(self, root: int) -> float:
        """One fresh Algorithm 2 sample for a root (no pool shortcut at
        the root itself — that would be self-referential)."""
        estimate = self._start_probability(root)
        downs = self.oracle.down_neighbors(root)
        if not downs:
            return estimate
        chosen = self.rng.choice(downs)
        factor = len(downs) / len(self.oracle.up_neighbors(chosen))
        return estimate + factor * self._estimate_p_up_from(chosen)

    def _estimate_p_up_from(self, node: int) -> float:
        """p_up sample for *node* allowing the pool shortcut at node itself."""
        total, count = self._p_up_pool.get(node, (0.0, 0))
        if count >= self.config.pool_min_samples and total > 0.0:
            return total / count
        return self._estimate_p_up(node)

    # ------------------------------------------------------------------
    # final value assembly
    # ------------------------------------------------------------------
    def _value_from_totals(
        self, total_sum: float, total_count: float, instances: int
    ) -> Optional[float]:
        if instances == 0:
            return None
        query = self.context.query
        mean_sum = total_sum / instances
        mean_count = total_count / instances
        if query.aggregate is Aggregate.SUM:
            return mean_sum
        if query.aggregate is Aggregate.COUNT:
            return mean_count
        if mean_count == 0:
            return None
        return mean_sum / mean_count
