"""Walk, Not Wait: partial-page timeline probes for membership (arXiv:1410.7833).

*Walk, Not Wait: Faster Sampling Over Online Social Networks* (same
authors as the source paper) attacks the dominant cost of subgraph walks:
deciding whether a neighbor *belongs* to the walked subgraph requires
fetching its timeline, and a full fetch of a prolific user costs
``ceil(posts / page_size)`` calls just to answer a yes/no question.  The
insight is that membership is usually decidable from a **bounded probe**
— a couple of pages — so the walk should keep walking instead of waiting
out full fetches.

The adaptation here (the simulator charges per page, like the real API):

* Membership / first-mention questions are answered by reading only the
  ``probe_pages`` **oldest** pages of the timeline, charged at the paged
  rate.  Timelines are served oldest-first, so a mention found inside the
  probe window *is* the first mention — exact, at probe price.
* A probe that reads the entire (visible) timeline without a mention is
  also definitive: the user is not a member.
* A probe that runs out of window with no mention is **unresolved**: the
  user is treated as a non-member for this run.  This is the walker's
  documented bias — late adopters whose first mention lies beyond the
  probe window are invisible to it, so estimates skew toward early/light
  posters (§5 of the paper discusses the analogous truncation error).
  Raising ``probe_pages`` trades cost for bias.
* Members the aggregate actually needs values from escalate to a full
  fetch through the ordinary layered client (cache, resilience, fault
  injection all apply) — probes only short-circuit the *negative* and
  *membership-only* answers, which dominate a walk's spend.

Probes consume no walker RNG and are charged at the simulator's meter
below the fault-injection layer (fault draws are keyed per request, not
sequential), so worker-count invariance and fault bit-identity hold
exactly as for the other walkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence, Set

from repro._rng import RandomLike

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.parallel.engine import ParallelConfig
from repro.api.client import SimulatedMicroblogClient
from repro.api.interface import MicroblogAPI
from repro.core.graph_builder import QueryContext, rebuild_oracle
from repro.core.query import AggregateQuery
from repro.core.srw import MASRWEstimator, SRWConfig
from repro.errors import EstimationError
from repro.obs import Observability


@dataclass(frozen=True)
class WNWConfig(SRWConfig):
    """Knobs for the Walk-Not-Wait SRW (extends :class:`SRWConfig`)."""

    probe_pages: int = 2
    """Timeline pages read (and charged) per membership probe.  More
    pages resolve more users exactly (less truncation bias) at a higher
    per-probe cost; the paper's regime is a small constant."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.probe_pages < 1:
            raise EstimationError("probe_pages must be >= 1")


class ProbingContext(QueryContext):
    """A :class:`QueryContext` whose membership answers come from probes.

    Only the first-mention family (``first_mention``, ``first_mentions``,
    ``condition_matches``, ``f_value``) is overridden; connections, seeds
    and views keep the inherited behavior of whichever configuration the
    stack resolved.  Every probe outcome is memoised, so a user is probed
    at most once per run; users whose full timeline is already cached
    are answered through the ordinary path at zero cost.
    """

    def __init__(
        self,
        client: MicroblogAPI,
        query: AggregateQuery,
        probe_pages: int = 2,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(client, query, obs=obs)
        self.probe_pages = probe_pages
        self._probe_unknown: Set[int] = set()
        """Users whose probe ran out of window: treated non-member."""
        self.probe_calls = 0
        self.probe_resolved = 0
        self.probe_unresolved = 0
        sim = client
        while sim is not None and not isinstance(sim, SimulatedMicroblogClient):
            sim = getattr(sim, "inner", None)
        self._sim = sim
        """Bottom of the client stack; None means no simulator backing
        (probes degrade to ordinary full fetches)."""

    def first_mention(self, user_id: int) -> Optional[float]:
        memo = self._first_mentions
        if user_id in memo:
            return memo[user_id]
        if user_id in self._probe_unknown:
            return None
        sim = self._sim
        if sim is None:
            return super().first_mention(user_id)
        client = self.client
        if user_id in getattr(client, "_timelines", ()) or user_id in getattr(
            client, "_prepaid_timelines", ()
        ):
            # Full timeline already cached or paid for (pilot walks, an
            # earlier escalation): the exact answer is free — don't pay a
            # probe.
            return super().first_mention(user_id)
        page = sim.timeline_view(user_id)
        profile = sim.platform.profile
        window = page.head(self.probe_pages * profile.timeline_page_size)
        calls = profile.calls_for_items(window.post_count, profile.timeline_page_size)
        # Charged below the fault-injection layer: a probe is a paged
        # read of data the simulator already holds, so it consumes no
        # fault draws and cannot perturb fault bit-identity.
        sim.charge_timeline(user_id, calls)
        self.probe_calls += calls
        # Oldest-first: the first hit in the window is the global first
        # (visible) mention, exactly as a full fetch reports.
        mention = window.first_mention_time(self.query.keyword)
        if mention is not None:
            memo[user_id] = mention
            self.probe_resolved += 1
            return mention
        if window.post_count == page.post_count:
            memo[user_id] = None  # whole visible timeline read: definitive
            self.probe_resolved += 1
            return None
        self.probe_unresolved += 1
        self._probe_unknown.add(user_id)
        return None

    def first_mentions(self, user_ids: Sequence[int]) -> List[Optional[float]]:
        # No batch fast path: each user resolves through its own probe.
        return [self.first_mention(u) for u in user_ids]

    def condition_matches(self, user_id: int) -> bool:
        if self.first_mention(user_id) is None:
            return False  # non-member (or unresolved probe): no escalation
        return super().condition_matches(user_id)

    def f_value(self, user_id: int) -> float:
        if self.first_mention(user_id) is None:
            return 0.0
        return super().f_value(user_id)


class WNWEstimator(MASRWEstimator):
    """Walk-Not-Wait SRW: partial-page timeline probes replace blocking full fetches (arXiv:1410.7833).

    Subclasses MA-SRW; the walk itself is unchanged, but its context is
    swapped for a :class:`ProbingContext` (and the oracle rebound to it),
    so every membership classification the oracle performs goes through
    bounded probes instead of full timeline fetches.
    """

    algorithm: ClassVar[str] = "wnw"
    parallel_kind: ClassVar[Optional[str]] = "samples"
    obs_prefix: ClassVar[str] = "wnw"
    config_cls: ClassVar[type] = WNWConfig

    def __init__(
        self,
        context: QueryContext,
        oracle,
        config: Optional[WNWConfig] = None,
        seed: RandomLike = None,
        parallel: Optional["ParallelConfig"] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(context, oracle, config, seed=seed, parallel=parallel, obs=obs)
        if isinstance(context, QueryContext) and not isinstance(context, ProbingContext):
            probing = ProbingContext(
                context.client,
                context.query,
                probe_pages=self.config.probe_pages,
                obs=self.obs,
            )
            self.context = probing
            self.oracle = rebuild_oracle(oracle, probing)
            # Re-sync the walker's kernel binding: the kernel must
            # describe the context the oracle now steps.
            self._bind_kernel(probing.kernel)

    def _walker_diagnostics(self) -> dict:
        context = self.context
        return {
            "probe_calls": float(getattr(context, "probe_calls", 0)),
            "probe_resolved": float(getattr(context, "probe_resolved", 0)),
            "probe_unresolved": float(getattr(context, "probe_unresolved", 0)),
        }
