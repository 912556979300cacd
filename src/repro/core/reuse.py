"""Cross-query reuse: invalidatable query state and shared pilot results.

The paper's cost model makes GRAPH-BUILDER and the pilot walks of §4.2.3
the dominant expense of every aggregate query, yet a classic
:meth:`~repro.core.analyzer.MicroblogAnalyzer.estimate` pays them from
scratch and its :class:`~repro.core.graph_builder.QueryContext` dies with
the run.  This module is the seam that lets that state outlive one
estimate without changing what any single query observes:

* :class:`QueryStateHandle` — an explicit, invalidatable container for
  one query's memoised per-user facts (first mentions, user views).  A
  ``QueryContext`` stores its memos *through* the handle, so a caller
  that owns the handle can inspect or invalidate them (e.g. after a
  platform delta merge) instead of relying on the context's lifetime.

* :class:`SharedQueryState` — the cross-query reuse cache a long-lived
  service (or a reused analyzer) shares across estimates: a
  keyword → chosen-interval cache backed by a **replayable pilot
  ledger**, plus memoised first-mention columns keyed on
  ``(platform fingerprint, keyword)``.

The hard constraint — pinned by the ``service`` test tier — is that a
reuse-cache *hit* is **bit-identical** to a cache-miss recomputation of
the same query: same estimate, same :class:`~repro.api.accounting.CostMeter`
columns, same exported trace bytes.  Reuse therefore never skips a
*charge*; it only skips *work*:

* the pilot phase of a cache miss runs through a
  :class:`RecordingContext` that records every logical client operation
  the pilots issue (``seeds`` / ``connections`` / ``first_mention`` /
  ``first_mentions``) in order;
* a cache hit **replays** that ledger against the warm query's own fresh
  client stack.  Each replayed operation performs the real charge, rate
  limiter acquisition, cache fill and trace emission — and because every
  layer of the stack is deterministic (including injected faults, which
  are pure functions of ``(seed, request key, attempt)``), the warm
  query's meter, caches and trace bytes end up exactly where a cold
  pilot phase would have left them.  What the hit skips is the pilot
  *logic*: the walks themselves, level bucketing, pilot-subgraph
  construction and spectral conductance scoring.

Determinism contract: the pilot phase under reuse draws from a
*keyword-scoped* RNG owned by the :class:`SharedQueryState` (never from
the per-run walk stream), so (a) whether pilots run or replay cannot
perturb the walk, and (b) every query on the same keyword agrees on the
chosen interval.  Pilot-oracle telemetry (``graph.classify`` events from
the throwaway pilot oracles) is suppressed symmetrically on both the
miss and hit paths — pilot telemetry belongs to the shared state, not to
whichever query happened to arrive first.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BudgetExhaustedError, ReproError
from repro.obs import NULL_OBS

__all__ = [
    "QueryStateHandle",
    "RecordingContext",
    "SharedQueryState",
    "platform_fingerprint",
]


def platform_fingerprint(platform) -> Tuple:
    """A cheap identity for *platform*'s frozen content.

    Two platforms with the same fingerprint serve identical API
    responses for the reuse cache's purposes: same generation config,
    same population, same API restriction profile.  Used to key shared
    state so a cache can never leak across platforms.

    ``delta_epoch`` is the evolving-platform tag: an
    :class:`~repro.platform.evolve.OverlayStore` bumps it on every
    applied delta, so warm entries keyed against the pre-delta platform
    can never be served afterwards.  Compaction copies the epoch along
    with the (identical) content, leaving warm caches valid across it.
    """
    store = platform.store
    config = platform.config
    return (
        getattr(config, "seed", None),
        getattr(config, "data_plane", None),
        getattr(store, "num_users", None),
        getattr(store, "num_posts", None),
        getattr(store, "delta_epoch", 0),
        platform.profile.name,
    )


class QueryStateHandle:
    """Invalidatable container for one query's memoised API knowledge.

    :class:`~repro.core.graph_builder.QueryContext` keeps its per-user
    memos (first-mention timestamps, assembled user views) in the dicts
    this handle owns.  By default every context creates a private handle,
    which reproduces the classic one-estimate lifetime exactly; a caller
    may construct the handle first, pass it in, and later
    :meth:`invalidate` it — the explicit seam a long-lived service needs.

    ``epoch`` counts invalidations.  Consumers that cache anything
    *derived* from the memos should fingerprint the epoch and recompute
    when it moves (the same pattern as the level oracle's
    ``classify_epoch``).

    Note what the handle deliberately does **not** enable: sharing one
    handle across two *budgeted* estimates, because the second run would
    then skip the charges the first already paid and its cost accounting
    would no longer match a cold run.  Cost-preserving cross-query reuse
    goes through :class:`SharedQueryState`'s replayable ledger instead.
    """

    __slots__ = ("first_mentions", "views", "epoch")

    def __init__(self) -> None:
        self.first_mentions: Dict[int, Optional[float]] = {}
        self.views: Dict[int, object] = {}
        self.epoch = 0

    def invalidate(self) -> None:
        """Forget everything memoised and advance the epoch."""
        self.first_mentions.clear()
        self.views.clear()
        self.epoch += 1

    def __len__(self) -> int:
        return len(self.first_mentions) + len(self.views)


# ----------------------------------------------------------------------
# the pilot ledger
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LedgerOp:
    """One recorded logical client operation of the pilot phase."""

    method: str
    args: Tuple
    raised: bool
    """True when the operation ended in ``BudgetExhaustedError`` on the
    recording run — the replay expects (and swallows) the same raise."""


class RecordingContext:
    """A :class:`QueryContext` view that records the ops pilots issue.

    Wraps a real context and forwards the four operations the interval
    selection path funnels everything through, appending each to the
    ledger *after* it executed (so the ledger reflects exactly what the
    client stack observed, including a trailing budget-exhausted op).

    ``obs`` is exposed as the disabled :data:`~repro.obs.NULL_OBS`:
    pilot-*oracle* telemetry (``graph.classify`` events, level-occupancy
    counters from the throwaway pilot oracles) is suppressed so the miss
    path and the replaying hit path emit identical trace bytes — client
    level telemetry (``api.call`` events, cache counters) still flows,
    because the client stack carries its own handles.
    """

    __slots__ = ("_context", "ledger")

    def __init__(self, context) -> None:
        self._context = context
        self.ledger: List[_LedgerOp] = []

    # -- pass-through identity -----------------------------------------
    @property
    def query(self):
        return self._context.query

    @property
    def client(self):
        return self._context.client

    @property
    def obs(self):
        return NULL_OBS

    @property
    def fast(self):
        return self._context.fast

    def degraded_serves(self) -> int:
        return self._context.degraded_serves()

    # -- recorded operations ---------------------------------------------
    def _record(self, method: str, args: Tuple, fn):
        try:
            result = fn()
        except BudgetExhaustedError:
            self.ledger.append(_LedgerOp(method, args, True))
            raise
        self.ledger.append(_LedgerOp(method, args, False))
        return result

    def seeds(self, max_seeds: Optional[int] = None):
        return self._record(
            "seeds", (max_seeds,), lambda: self._context.seeds(max_seeds)
        )

    def connections(self, user_id: int):
        return self._record(
            "connections", (user_id,), lambda: self._context.connections(user_id)
        )

    def first_mention(self, user_id: int):
        return self._record(
            "first_mention", (user_id,), lambda: self._context.first_mention(user_id)
        )

    def first_mentions(self, user_ids: Sequence[int]):
        ids = tuple(user_ids)
        return self._record(
            "first_mentions", (ids,), lambda: self._context.first_mentions(list(ids))
        )

    def matches_keyword(self, user_id: int) -> bool:
        return self.first_mention(user_id) is not None


def _replay_ledger(ledger: Sequence[_LedgerOp], context) -> None:
    """Re-issue a recorded pilot op sequence against a fresh context.

    Every op performs its real charges/trace/cache effects; a recorded
    budget-exhausted op must exhaust again (the ledger key includes the
    budget, so divergence here means the cache was mis-keyed — fail
    loudly rather than serve corrupted accounting).
    """
    for op in ledger:
        fn = getattr(context, op.method)
        try:
            if op.method == "first_mentions":
                fn(list(op.args[0]))
            else:
                fn(*op.args)
        except BudgetExhaustedError:
            if not op.raised:
                raise ReproError(
                    "pilot ledger replay diverged: unexpected budget exhaustion "
                    f"during {op.method}{op.args!r}"
                ) from None
            continue
        if op.raised:
            raise ReproError(
                "pilot ledger replay diverged: recorded budget exhaustion "
                f"did not recur for {op.method}{op.args!r}"
            )


@dataclass
class _IntervalEntry:
    selection: object  # IntervalSelection (kept duck-typed: no core import cycle)
    ledger: List[_LedgerOp] = field(default_factory=list)


class SharedQueryState:
    """Cross-query reuse cache: intervals, pilot ledgers, mention columns.

    One instance is scoped to one *service configuration* — the
    estimation service creates one per platform+stack configuration and
    threads it through every per-query analyzer via the ``reuse=``
    kwarg.  All methods are thread-safe; per-key locks single-flight the
    expensive computations so concurrent queries on the same keyword
    compute once and replay thereafter, with hit/miss counters that are
    deterministic in submission order regardless of worker count.

    ``seed`` feeds the keyword-scoped pilot RNG streams — two states
    built with the same seed run identical pilots, which is what makes a
    "cold run" reproducible: a fresh state replays the exact history a
    warm cache recorded.
    """

    def __init__(self, seed: int = 0) -> None:
        self._entropy = random.Random(seed).getrandbits(64)
        self._lock = threading.Lock()
        self._key_locks: Dict[Tuple, threading.Lock] = {}
        self._intervals: Dict[Tuple, _IntervalEntry] = {}
        self._columns: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self._stats: Dict[str, int] = {
            "pilot_runs": 0,
            "interval_hits": 0,
            "interval_misses": 0,
            "column_hits": 0,
            "column_misses": 0,
        }
        self.epoch = 0
        """Bumped by :meth:`invalidate`; consumers holding entries they
        pulled out of the state can fingerprint it."""

    # ------------------------------------------------------------------
    def _key_lock(self, key: Tuple) -> threading.Lock:
        with self._lock:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._stats[name] = self._stats.get(name, 0) + amount

    def stats(self) -> Dict[str, int]:
        """A snapshot of the reuse counters."""
        with self._lock:
            return dict(self._stats)

    def pilot_rng(self, keyword: str) -> random.Random:
        """The keyword-scoped pilot stream (stateless derivation)."""
        return random.Random(f"{self._entropy}:pilot:{keyword.lower()}")

    # ------------------------------------------------------------------
    # keyword -> chosen interval (with replayable pilot ledger)
    # ------------------------------------------------------------------
    def interval_for(self, context, platform, budget: Optional[int], token: Tuple = ()):
        """The chosen interval for *context*'s keyword, computing once.

        On a miss the paper's pilot selection (§4.2.3) runs over a
        :class:`RecordingContext` seeded from the keyword-scoped stream;
        on a hit the recorded ledger replays against *context* so the
        warm query pays the identical charges in the identical order.
        *token* folds any extra stack configuration (graph design, fault
        plan, retry policy) into the key — entries never cross stacks
        whose charge sequences could differ.

        Returns the :class:`~repro.core.interval.IntervalSelection`.
        """
        keyword = context.query.keyword.lower()
        key = (platform_fingerprint(platform), keyword, budget) + tuple(token)
        with self._key_lock(key):
            entry = self._intervals.get(key)
            if entry is not None:
                self._count("interval_hits")
                _replay_ledger(entry.ledger, context)
                return entry.selection
            from repro.core.interval import select_time_interval

            recorder = RecordingContext(context)
            selection = select_time_interval(recorder, seed=self.pilot_rng(keyword))
            self._intervals[key] = _IntervalEntry(selection, recorder.ledger)
            self._count("interval_misses")
            self._count("pilot_runs")
            return selection

    # ------------------------------------------------------------------
    # (platform fingerprint, keyword) -> first-mention columns
    # ------------------------------------------------------------------
    def bind_first_mention_columns(self, fast, platform, keyword: str) -> None:
        """Point *fast*'s first-mention columns at the shared copies.

        The columns are platform facts (compiled at freeze), so sharing
        them is value-identical by construction.  On the mmap plane the
        first binding materialises the mapped columns into RAM once, so
        every later query on the keyword reads hot memory instead of
        re-faulting pages.
        """
        key = (platform_fingerprint(platform), keyword.lower())
        with self._key_lock(key):
            cached = self._columns.get(key)
            if cached is None:
                users, times = fast.kw_users, fast.kw_times
                if getattr(platform.store, "storage", "ram") == "mmap":
                    users = np.ascontiguousarray(users)
                    times = np.ascontiguousarray(times)
                cached = self._columns[key] = (users, times)
                self._count("column_misses")
            else:
                self._count("column_hits")
            fast.kw_users, fast.kw_times = cached

    # ------------------------------------------------------------------
    def invalidate(self, keyword: Optional[str] = None) -> None:
        """Drop cached state (for *keyword*, or everything) and bump epoch.

        The hook an evolving platform needs: after a delta merge the
        chosen intervals and mention columns are stale, and the next
        query on each keyword re-pays its pilot.
        """
        with self._lock:
            if keyword is None:
                self._intervals.clear()
                self._columns.clear()
            else:
                name = keyword.lower()
                for cache in (self._intervals, self._columns):
                    for key in [k for k in cache if k[1] == name]:
                        del cache[key]
            self.epoch += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._intervals) + len(self._columns)
