"""GRAPH-BUILDER: on-the-fly neighbor oracles over the restricted API.

The conceptual graphs of §3–§4 are never materialised — they are *implied*
by API responses.  A :class:`QueryContext` memoises everything learned
about users (timelines, connections, keyword membership, levels) during an
estimation run, and the three oracles expose progressively refined
neighborhoods over it:

* :class:`SocialGraphOracle` — every connection (the baseline graph);
* :class:`TermInducedOracle` — connections whose (visible) timeline
  contains the query keyword (§4.1);
* :class:`LevelByLevelOracle` — term-induced neighbors in a *different*
  level (§4.2), with optional retention of a fraction of intra-level
  edges for the Figure 4 ablation, plus the up-/down-neighbor split the
  topology-aware walk needs.

Cost model: classifying a user (one timeline fetch) and listing their
connections (paged connection calls) are charged once each through the
caching client; afterwards they are free, as for a real crawler with a
response cache.  Classifying *all* neighbors of a visited node is what
drives the per-node query cost — exactly the paper's accounting, where
walking the term-induced graph near tightly-knit communities is expensive
because so many neighbors must be inspected.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.fastpath import resolve_fast_path
from repro.api.interface import MicroblogAPI, TimelineView
from repro.core.kernels import resolve_kernel
from repro.core.levels import LevelIndex
from repro.core.query import AggregateQuery, UserView
from repro.core.reuse import QueryStateHandle
from repro.errors import EstimationError
from repro.obs import NULL_OBS, Observability

_SCALAR_CLASSIFY_MAX = 32
"""Neighborhood size up to which :meth:`LevelByLevelOracle._bucket` loops
scalar instead of paying the numpy array round-trips.  Pure perf
threshold: both branches are element-wise bit-identical."""


class QueryContext:
    """Memoised API knowledge scoped to one aggregate query.

    At construction the client stack is resolved once against the fast-
    path rules (see :mod:`repro.api.fastpath`) and then the walk kernel's
    (see :mod:`repro.core.kernels`).  A context runs in one of two
    configurations.  A caching stack over a frozen store — bare, or with
    the resilient and fault layers beneath the cache — gets both:
    batched first-mention resolution read from the store's columns
    (through the whole stack when it is faulted), columnar condition
    views and, on the bare stack, single-lock connection serving, with
    charges, counters and trace bytes identical to the layered path.
    Anything else (a legacy store, a non-caching client, an unrecognised
    stack, or either process-wide switch off) keeps every operation on
    the layered path.
    """

    def __init__(
        self,
        client: MicroblogAPI,
        query: AggregateQuery,
        obs: Optional[Observability] = None,
        state: Optional[QueryStateHandle] = None,
    ) -> None:
        self.client = client
        self.query = query
        self.obs = obs if obs is not None else NULL_OBS
        """The run's telemetry handles; estimators and oracles built on
        this context inherit them (the shared :data:`~repro.obs.NULL_OBS`
        when dark)."""
        self.state = state if state is not None else QueryStateHandle()
        """The memoised per-user facts live behind this invalidatable
        handle (see :mod:`repro.core.reuse`); a private handle per context
        — the default — reproduces the classic one-estimate lifetime."""
        self._first_mentions = self.state.first_mentions
        self._views: Dict[int, UserView] = self.state.views  # type: ignore[assignment]
        self.fast = resolve_fast_path(client, query.keyword, obs=self.obs)
        """Flattened ops for this ``(client, keyword)`` pair, or None when
        the context is on the layered path."""
        self.kernel = resolve_kernel(self, obs=self.obs)
        """Compiled walk kernel over the fast path, or None when the
        context is on the layered path."""
        if self.kernel is None:
            self.fast = None
        self._cond_memo: Dict[int, bool] = {}
        self._f_memo: Dict[int, float] = {}
        """Memos for the condition/f-value hot calls.  Valid because query
        predicates and measures are pure functions of the (already
        memoised) view — true of every measure in :mod:`repro.core.query`
        and a requirement for custom ones; private to this context, so
        service cross-query reuse never observes them."""

    # ------------------------------------------------------------------
    # raw API passthroughs (the client caches repeats)
    # ------------------------------------------------------------------
    def timeline(self, user_id: int) -> TimelineView:
        return self.client.user_timeline(user_id)

    def connections(self, user_id: int) -> Sequence[int]:
        """Sorted neighbor ids; an immutable sequence — do not mutate."""
        fast = self.fast
        if fast is not None:
            return fast.connections(user_id)
        return self.client.user_connections(user_id)

    def degraded_serves(self) -> int:
        """Responses the client has served degraded so far.

        A degraded response (a circuit-breaker fallback, or the partial
        page of a truncated transfer) may answer the current step, but an
        oracle must not memoise a neighbourhood built from it: the node is
        looked at again once the platform recovers.  The caching client
        counts these as ``uncacheable``; a client without that counter
        never reports one.
        """
        return getattr(self.client, "uncacheable", 0)

    # ------------------------------------------------------------------
    # derived, memoised per-user facts
    # ------------------------------------------------------------------
    def first_mention(self, user_id: int) -> Optional[float]:
        """First *visible* mention time of the query keyword, or None.

        "Visible" = within the platform's timeline cap; prolific users may
        have their true first mention hidden (§2's 3 200-tweet caveat).
        """
        memo = self._first_mentions
        if user_id not in memo:
            kernel = self.kernel
            if kernel is not None:
                kernel.resolve_mentions((user_id,), memo)
            else:
                view = self.timeline(user_id)
                memo[user_id] = view.first_mention_time(self.query.keyword)
        return memo[user_id]

    def first_mentions(self, user_ids: Sequence[int]) -> List[Optional[float]]:
        """Batched :meth:`first_mention` preserving input order.

        The batch classifier's entry point: with the kernel resolved on
        the bare stack, all uncached users are answered from the frozen
        first-mention columns in one vectorised lookup (charges replayed
        per user in input order — identical accounting to sequential
        calls); on a fault stack the kernel makes the sequential requests
        and reads each returned row page through the columns; the layered
        path makes exactly those sequential calls.  Results land in the
        same per-context memo either way, which is what makes a timeline
        classified at most once per ``(client, keyword)`` across pilot
        candidates and the final oracle.
        """
        kernel = self.kernel
        if kernel is not None:
            memo = self._first_mentions
            kernel.resolve_mentions(user_ids, memo)
            return [memo[u] for u in user_ids]
        return [self.first_mention(u) for u in user_ids]

    def matches_keyword(self, user_id: int) -> bool:
        """Term-induced-subgraph membership: keyword anywhere in timeline.

        Deliberately ignores the query's window/predicate — §4.1 explains
        the subgraph filters on keyword only, since harsher filters (short
        time windows) would break connectivity and hurt recall.
        """
        return self.first_mention(user_id) is not None

    def user_view(self, user_id: int) -> UserView:
        views = self._views
        view = views.get(user_id)
        if view is None:
            kernel = self.kernel
            if kernel is not None:
                # Columnar assembly for paid-for timelines (only matching
                # posts materialise); None sends unknown/unpaid users down
                # the ordinary charging path below.
                view = kernel.build_view(user_id)
            if view is None:
                timeline = self.timeline(user_id)
                profile = timeline.profile
                view = UserView(
                    user_id=user_id,
                    display_name=profile.display_name,
                    followers=profile.followers,
                    gender=profile.gender,
                    age=profile.age,
                    matching_posts=self.query.filter_matching_posts(timeline.posts),
                )
            views[user_id] = view
        return view

    def condition_matches(self, user_id: int) -> bool:
        """Full §2 CONDITION: keyword + window + profile predicate."""
        memo = self._cond_memo
        value = memo.get(user_id)
        if value is None:
            value = memo[user_id] = self.query.matches(self.user_view(user_id))
        return value

    def f_value(self, user_id: int) -> float:
        """f(u) when the user matches the condition, else 0.

        The zero default is what makes level-graph samples usable for
        narrower conditions: non-matching users contribute nothing."""
        memo = self._f_memo
        value = memo.get(user_id)
        if value is None:
            view = self.user_view(user_id)
            value = memo[user_id] = (
                self.query.value(view) if self.query.matches(view) else 0.0
            )
        return value

    # ------------------------------------------------------------------
    # seeds
    # ------------------------------------------------------------------
    def seeds(self, max_seeds: Optional[int] = None) -> List[int]:
        """Distinct recent posters of the keyword, via the search API (§3.1).

        ``max_seeds=None`` pages through the whole search window — the
        topology-aware walk wants the *complete* bottom level as its seed
        set, since its selection probabilities put mass 1/s on each seed.
        """
        hits = self.client.search(
            self.query.keyword, max_results=None if max_seeds is None else max_seeds * 4
        )
        seen: Dict[int, None] = {}
        for hit in hits:
            seen.setdefault(hit.user_id)
            if max_seeds is not None and len(seen) >= max_seeds:
                break
        if not seen:
            raise EstimationError(
                f"search API returned no recent posters of {self.query.keyword!r}; "
                "cannot seed the walk"
            )
        return list(seen)


class SocialGraphOracle:
    """Neighborhoods of the unrestricted social graph."""

    name = "social"

    def __init__(self, context: QueryContext) -> None:
        self.context = context
        self._cache: Dict[int, Sequence[int]] = {}

    def neighbors(self, user_id: int) -> Sequence[int]:
        cached = self._cache.get(user_id)
        if cached is not None:
            return cached
        context = self.context
        served = context.degraded_serves()
        connections = context.connections(user_id)
        if context.degraded_serves() == served:
            self._cache[user_id] = connections
        return connections

    def degree(self, user_id: int) -> int:
        return len(self.neighbors(user_id))


class TermInducedOracle:
    """Neighborhoods of the term-induced subgraph (§4.1).

    Each first classification of a node costs one timeline fetch; a full
    neighborhood evaluation therefore costs ``1 + degree`` uncached calls.
    """

    name = "term-induced"

    def __init__(self, context: QueryContext) -> None:
        self.context = context
        self._cache: Dict[int, List[int]] = {}

    def neighbors(self, user_id: int) -> List[int]:
        cached = self._cache.get(user_id)
        if cached is not None:
            return cached
        context = self.context
        served = context.degraded_serves()
        connections = context.connections(user_id)
        degraded = context.degraded_serves() != served
        mentions = context.first_mentions(connections)
        kept = [v for v, mention in zip(connections, mentions) if mention is not None]
        if not degraded:
            self._cache[user_id] = kept
        return kept

    def degree(self, user_id: int) -> int:
        return len(self.neighbors(user_id))


class LevelByLevelOracle:
    """Neighborhoods of the level-by-level subgraph (§4.2).

    Transit rule: "move from a user to its neighbor if and only if they
    did not first tweet the keyword in the same interval".  With
    ``keep_intra_fraction > 0`` a deterministic pseudo-random subset of
    intra-level edges survives (Figure 4's partial-removal sweep); the
    decision hashes the edge so both endpoints agree on it.
    """

    name = "level-by-level"

    def __init__(
        self,
        context: QueryContext,
        index: LevelIndex,
        keep_intra_fraction: float = 0.0,
        edge_seed: int = 0,
    ) -> None:
        if not 0.0 <= keep_intra_fraction <= 1.0:
            raise EstimationError("keep_intra_fraction must be in [0, 1]")
        self.context = context
        self.index = index
        self.keep_intra_fraction = keep_intra_fraction
        self.edge_seed = edge_seed
        self._cache: Dict[int, List[int]] = {}
        self._up: Dict[int, List[int]] = {}
        self._down: Dict[int, List[int]] = {}
        self._levels: Dict[int, Optional[int]] = {}
        """Memoised level per user.  The batch classifier fills it for
        every neighbor it buckets, so the DP / recount phases' repeated
        ``level_of`` calls stop re-deriving levels from mention times."""
        self.classify_epoch = 0
        """Bumped once per :meth:`_classify`.  MA-TARW's ESTIMATE-p DP
        keys its recomputation on this counter: an unchanged epoch means
        the classified subgraph — and therefore the exact DP fixed point —
        is unchanged, so the full-table Eq. 6 sweep can be skipped."""

    # ------------------------------------------------------------------
    def level_of(self, user_id: int) -> Optional[int]:
        levels = self._levels
        if user_id in levels:
            return levels[user_id]
        mention = self.context.first_mention(user_id)
        level = None if mention is None else self.index.level_of(mention)
        levels[user_id] = level
        return level

    def _keep_intra_edge(self, u: int, v: int) -> bool:
        if self.keep_intra_fraction <= 0.0:
            return False
        if self.keep_intra_fraction >= 1.0:
            return True
        low, high = (u, v) if u <= v else (v, u)
        draw = random.Random(f"{self.edge_seed}:{low}:{high}").random()
        return draw < self.keep_intra_fraction

    def _bucket(self, mentions: List[Optional[float]]) -> List[Optional[int]]:
        """Level per mention time (None passes through).

        Neighborhoods up to :data:`_SCALAR_CLASSIFY_MAX` loop scalar
        ``level_of``; larger ones pay one ``levels_of_array`` call.  The
        two are element-wise identical (same IEEE float64 operations — see
        :mod:`repro.core.levels`), so the size only moves the speed
        crossover, never a bucket.  Indexes without the array method
        always loop scalar.
        """
        levels_of_array = getattr(self.index, "levels_of_array", None)
        if levels_of_array is None or len(mentions) <= _SCALAR_CLASSIFY_MAX:
            level_of = self.index.level_of
            return [None if m is None else level_of(m) for m in mentions]
        out: List[Optional[int]] = [None] * len(mentions)
        times = np.array(
            [np.nan if m is None else m for m in mentions], dtype=np.float64
        )
        mask = ~np.isnan(times)
        if mask.any():
            values = levels_of_array(times[mask]).tolist()
            for i, value in zip(np.flatnonzero(mask).tolist(), values):
                out[i] = value
        return out

    def _classify(self, user_id: int) -> Tuple[List[int], List[int], List[int]]:
        """Split *user_id*'s neighborhood into kept / up / down lists.

        One body for every client stack: ``first_mentions`` resolves the
        whole neighborhood in one call (the kernel's column batch when it
        resolved, per-user layered fetches otherwise, with identical
        charges), and every bucketed neighbor's level lands in the level
        memo.

        A neighbourhood built from a degraded connections page is returned
        for the current step but not memoised (nor counted as classified):
        keeping it would leave edges that only one endpoint lists, and the
        node would never be classified again once the platform recovers.
        """
        own_level = self.level_of(user_id)
        all_neighbors: List[int] = []
        up: List[int] = []
        down: List[int] = []
        degraded = False
        if own_level is not None:
            context = self.context
            served = context.degraded_serves()
            neighbors = context.connections(user_id)
            degraded = context.degraded_serves() != served
            levels = self._bucket(context.first_mentions(neighbors))
            level_memo = self._levels
            keep_intra = self.keep_intra_fraction > 0.0
            for v, level in zip(neighbors, levels):
                level_memo[v] = level
                if level is None:
                    continue
                if level == own_level:
                    if keep_intra and self._keep_intra_edge(user_id, v):
                        all_neighbors.append(v)
                    continue
                all_neighbors.append(v)
                if level < own_level:
                    up.append(v)
                else:
                    down.append(v)
        if not degraded:
            self._cache[user_id] = all_neighbors
            self._up[user_id] = up
            self._down[user_id] = down
            self._note_classified(user_id, own_level, len(up), len(down))
            self.classify_epoch += 1
        return all_neighbors, up, down

    def _note_classified(
        self, user_id: int, level: Optional[int], up: int, down: int
    ) -> None:
        """Level-occupancy telemetry: one unit per first classification."""
        obs = self.context.obs
        if obs.enabled:
            if obs.metrics is not None:
                obs.metrics.counter("graph.classified").inc()
                if level is not None:
                    obs.metrics.counter("graph.level_nodes", level=level).inc()
            if obs.trace is not None:
                obs.trace.event(
                    "graph.classify", node=user_id, level=level, up=up, down=down
                )

    # ------------------------------------------------------------------
    def neighbors(self, user_id: int) -> List[int]:
        cached = self._cache.get(user_id)
        return self._classify(user_id)[0] if cached is None else cached

    def degree(self, user_id: int) -> int:
        return len(self.neighbors(user_id))

    def up_neighbors(self, user_id: int) -> List[int]:
        """Neighbors in strictly earlier levels — toward the top (∇(u))."""
        cached = self._up.get(user_id)
        return self._classify(user_id)[1] if cached is None else cached

    def down_neighbors(self, user_id: int) -> List[int]:
        """Neighbors in strictly later levels — toward the bottom (∆(u))."""
        cached = self._down.get(user_id)
        return self._classify(user_id)[2] if cached is None else cached

    def classified_nodes(self) -> List[int]:
        """All nodes whose neighborhoods have been fully classified.

        For each of these, :meth:`up_neighbors`/:meth:`down_neighbors`
        are exact and already paid for — the basis for the deterministic
        selection-probability computation in MA-TARW's ``p_method="dp"``.
        """
        return list(self._cache)


def rebuild_oracle(template, context: QueryContext):
    """A fresh oracle of the template's kind over a different context.

    Two consumers: the parallel engine rebuilds each shard's oracle over
    the shard's private client stack, and the Walk-Not-Wait walker
    rebinds the analyzer-built oracle to its probing context.  Every
    graph-design parameter (level index, intra-edge retention, edge
    seed) carries over; only the memoised API knowledge starts empty.
    """
    if isinstance(template, LevelByLevelOracle):
        return LevelByLevelOracle(
            context,
            template.index,
            keep_intra_fraction=template.keep_intra_fraction,
            edge_seed=template.edge_seed,
        )
    if isinstance(template, (SocialGraphOracle, TermInducedOracle)):
        return type(template)(context)
    raise EstimationError(
        f"cannot rebuild oracle {type(template).__name__}; "
        "only the graph-builder oracles are supported"
    )
