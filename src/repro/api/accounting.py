"""Query-cost accounting.

The paper's efficiency measure is "the number of queries and/or API calls
(on SEARCH, USER CONNECTIONS, and USER TIMELINE) the algorithm issues"
(§2), where one logical request may cost several calls due to pagination
("multiple API calls could be required to obtain the result of a single
query", §6.1).  :class:`CostMeter` charges every page individually and
optionally enforces a hard budget, which is how the MICROBLOG-ANALYZER
"query budget" system input (§3.1) is implemented.

Charging is thread-safe (a lock serialises the check-then-record), so a
meter shared by concurrently executing pilot walks keeps an exact count;
the parallel walk engine instead gives each walk shard its *own* meter
and merges the final per-kind tallies with :func:`merge_cost_by_kind`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

from repro.errors import BudgetExhaustedError, ReproError

SEARCH = "search"
CONNECTIONS = "connections"
TIMELINE = "timeline"
RETRIES = "retries"
QUERY_KINDS = (SEARCH, CONNECTIONS, TIMELINE)
"""The paper's query-cost metric (§2): successful logical API spend.
Only these kinds count against a client's hard budget."""
CALL_KINDS = QUERY_KINDS + (RETRIES,)
"""Everything chargeable.  ``retries`` records calls burned on failed
attempts (transient errors, timeouts, truncated transfers) — real
overhead a crawl pays, tracked separately so fault injection never
distorts the budget trajectory of the run it wraps."""


class CostMeter:
    """Counts API calls by kind, optionally against a hard budget."""

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 0:
            raise ReproError("budget must be non-negative")
        self.budget = budget
        # The retries column is created lazily on first charge so that
        # fault-free accounting dictionaries stay byte-identical to the
        # pre-fault-injection era (and to each other across data planes).
        self._by_kind: Dict[str, int] = {kind: 0 for kind in QUERY_KINDS}
        self._query_total = 0
        """Running sum of the budgeted kinds, maintained by every mutator
        so :attr:`query_total` — probed once per walk step for stall
        detection and cost traces — is one attribute read instead of a
        per-probe sum over the tally dict."""
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        """All API calls issued, including retry waste."""
        return sum(self._by_kind.values())

    @property
    def query_total(self) -> int:
        """The paper's cost metric: successful logical spend only.

        Excludes the ``retries`` column, so a run that heals transient
        faults reports the same query cost as its fault-free twin."""
        return self._query_total

    @property
    def remaining(self) -> Optional[int]:
        """Calls left before the budget trips (None when unbudgeted)."""
        if self.budget is None:
            return None
        return max(self.budget - self.query_total, 0)

    @property
    def retries(self) -> int:
        """The ``retries`` column: calls burned on failed attempts."""
        return self._by_kind.get(RETRIES, 0)

    def by_kind(self) -> Dict[str, int]:
        return dict(self._by_kind)

    def charge(self, kind: str, calls: int = 1) -> None:
        """Record *calls* API calls of *kind*.

        Raises :class:`BudgetExhaustedError` *before* recording when the
        charge would cross the budget — a budgeted client never issues the
        request it cannot afford.  Retry waste (``kind="retries"``) is
        recorded but exempt from the budget: the budget models the
        operator's cap on *productive* query spend, and charging failures
        against it would let the fault injector starve the estimators it
        is supposed to leave bit-identical.
        """
        if kind not in CALL_KINDS:
            raise ReproError(f"unknown call kind {kind!r}; expected one of {CALL_KINDS}")
        if calls < 0:
            raise ReproError("calls must be non-negative")
        with self._lock:
            if kind != RETRIES:
                self.admit(calls)
                self._query_total += calls
            self._by_kind[kind] = self._by_kind.get(kind, 0) + calls

    def admit(self, calls: int) -> None:
        """Raise :class:`BudgetExhaustedError` if *calls* more budgeted
        calls would cross the budget; records nothing.

        :meth:`charge` runs this check before recording; layers that
        must refuse a request before doing any work for it (see
        :meth:`~repro.api.client.SimulatedMicroblogClient.admit`) run it
        ahead of the charge."""
        budget = self.budget
        if budget is not None and self._query_total + calls > budget:
            raise BudgetExhaustedError(spent=self._query_total, budget=budget)

    def reset(self) -> None:
        with self._lock:
            for kind in self._by_kind:
                self._by_kind[kind] = 0
            self._query_total = 0

    # pickling drops the lock (a fresh one is created on restore) so
    # meters can ride along in results shipped across process workers
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def merge_from(self, other: "CostMeter") -> None:
        """Fold another meter's tallies into this one (budget unchecked).

        Used when independent per-shard meters are folded into a parent
        run's accounting after the fact — the shards' own budgets already
        enforced the spend, so merging must not re-trip this meter.
        """
        for kind, count in other.by_kind().items():
            with self._lock:
                self._by_kind[kind] = self._by_kind.get(kind, 0) + count
                if kind in QUERY_KINDS:
                    self._query_total += count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{kind}={count}" for kind, count in self._by_kind.items())
        budget = f", budget={self.budget}" if self.budget is not None else ""
        return f"CostMeter({parts}{budget})"


def merge_cost_by_kind(tallies: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-kind call tallies from independent walk shards.

    Pure addition over already-final dictionaries, so the result is
    deterministic in any merge order and safe to compute after the
    shards' meters stopped moving.
    """
    merged: Dict[str, int] = {kind: 0 for kind in QUERY_KINDS}
    for tally in tallies:
        for kind, count in tally.items():
            merged[kind] = merged.get(kind, 0) + count
    return merged
