"""Keyword propagation over the social graph.

The level-by-level subgraph exists because keyword adoption times are not
arbitrary: keywords *propagate along edges*, and followers respond fast —
the paper cites Sysomos [3]: "92% of retweets produced by followers of a
user occur within 1 hour of the original tweet" (§4.2.1).  That statistic
is precisely what creates intra-level edges inside tightly connected
communities.

We model this as an independent-cascade process with two ingredients:

* **exogenous seeding** — users start mentioning the keyword at a rate
  given by the keyword's :class:`~repro.platform.workload.KeywordSpec`
  intensity (news-driven adoption, independent of the graph);
* **endogenous spread** — when a user first mentions the keyword at time
  ``t``, each not-yet-adopted neighbor independently adopts with the
  keyword's adoption probability, after a response delay drawn from a
  two-component mixture: with probability ``fast_fraction`` (default 0.92)
  an exponential with mean ~22 minutes (so almost all fast responses land
  within the hour), otherwise a heavy slow tail with mean ~2 days.

Adopters also post follow-up mentions after their first one, which keeps
the search API's recency window populated and makes SUM(posts) differ from
COUNT(users).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._rng import RandomLike, ensure_rng
from repro.errors import PlatformError
from repro.platform.clock import DAY, HOUR, MINUTE
from repro.platform.store import MicroblogStore
from repro.platform.workload import KeywordSpec


DELAY_MODELS = ("lognormal", "mixture")


@dataclass(frozen=True)
class CascadeParams:
    """Tunable propagation constants (defaults calibrated per DESIGN.md §2).

    Two response-delay models are provided:

    * ``"lognormal"`` (default) — delay to a neighbor's own first mention
      is lognormal with the given median and sigma.  Calibrated so the
      Table 2 edge taxonomy comes out right: co-mention gaps of hours to
      a few days, i.e. mostly intra-/adjacent-level edges at day-scale
      bucket widths.
    * ``"mixture"`` — the retweet-latency mixture: with ``fast_fraction``
      an exponential of mean ``fast_delay_mean`` (the paper's "92% of
      retweet responses within 1 hour" [3]), else a slow exponential.
      Retweets are faster than composing one's own first mention, so this
      variant produces starkly bimodal level gaps; it is kept for
      sensitivity studies.
    """

    delay_model: str = "lognormal"
    delay_median: float = 14 * HOUR
    delay_sigma: float = 1.4
    fast_fraction: float = 0.92
    fast_delay_mean: float = 22 * MINUTE
    slow_delay_mean: float = 2 * DAY
    extra_mentions_mean: float = 2.5
    extra_mention_gap_mean: float = 50 * DAY
    """Adopters keep mentioning the keyword long after their first post
    (follow-up count and spacing).  This sustained chatter is what keeps
    a keyword searchable: the paper's seed users are *anyone* who posted
    the keyword within the search window, not only brand-new adopters, so
    the seed set spans many levels."""
    post_length_range: Tuple[int, int] = (40, 140)
    likes_pareto_alpha: float = 1.6
    exposure_cap: int = 25
    """At most this many (random) neighbors notice a new adopter's post.

    Attention is finite: a celebrity's mention does not expose all 500k
    followers.  Without this cap the heavy-tailed degree distribution
    makes every cascade supercritical and keywords saturate the platform,
    destroying the 'small matching fraction' regime the paper targets."""
    weak_tie_common_neighbors: int = 2
    weak_tie_multiplier: float = 0.015
    """Edges whose endpoints share fewer than ``weak_tie_common_neighbors``
    common neighbors transmit with probability scaled by this multiplier.

    Granovetter-style weak ties: influence flows readily inside a tight
    community and only occasionally across bridges.  This is what confines
    each keyword wave to the communities it reaches (saturating them) and
    keeps edges between different waves — cross-level edges — rare, as in
    Table 2."""
    max_adopters: Optional[int] = None

    def __post_init__(self) -> None:
        if self.delay_model not in DELAY_MODELS:
            raise PlatformError(f"delay_model must be one of {DELAY_MODELS}")
        if self.delay_median <= 0 or self.delay_sigma <= 0:
            raise PlatformError("lognormal delay parameters must be positive")
        if not 0.0 <= self.fast_fraction <= 1.0:
            raise PlatformError("fast_fraction must be in [0, 1]")
        if self.fast_delay_mean <= 0 or self.slow_delay_mean <= 0:
            raise PlatformError("delay means must be positive")
        if self.extra_mentions_mean < 0 or self.extra_mention_gap_mean <= 0:
            raise PlatformError("extra-mention parameters out of range")
        if self.exposure_cap < 1:
            raise PlatformError("exposure_cap must be >= 1")
        if self.weak_tie_common_neighbors < 0 or not 0.0 <= self.weak_tie_multiplier <= 1.0:
            raise PlatformError("weak-tie parameters out of range")


@dataclass
class CascadeResult:
    """Outcome of one keyword cascade."""

    keyword: str
    adoption_times: Dict[int, float]
    total_posts: int

    @property
    def num_adopters(self) -> int:
        return len(self.adoption_times)


def sample_response_delay(params: CascadeParams, rng) -> float:
    """One follower response delay per the configured delay model."""
    if params.delay_model == "lognormal":
        return rng.lognormvariate(math.log(params.delay_median), params.delay_sigma)
    if rng.random() < params.fast_fraction:
        return rng.expovariate(1.0 / params.fast_delay_mean)
    return rng.expovariate(1.0 / params.slow_delay_mean)


def _poisson(rng, mean: float) -> int:
    """Poisson sample via inversion (means here are small, < ~100/day)."""
    if mean <= 0:
        return 0
    # Split large means to avoid floating-point underflow of exp(-mean).
    if mean > 30:
        half = _poisson(rng, mean / 2.0)
        return half + _poisson(rng, mean - mean / 2.0)
    threshold = math.exp(-mean)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def run_cascade(
    store: MicroblogStore,
    spec: KeywordSpec,
    horizon: float,
    params: Optional[CascadeParams] = None,
    seed: RandomLike = None,
    intensity_scale: float = 1.0,
) -> CascadeResult:
    """Simulate *spec*'s keyword over ``[0, horizon)`` and write posts.

    ``intensity_scale`` multiplies the spec's exogenous rate; the platform
    builder passes ``num_users / 10_000`` so keyword populations stay a
    fixed *fraction* of the platform regardless of its size (intensities
    in :mod:`repro.platform.workload` are calibrated per 10k users).

    Returns the adoption-time map — the ground truth from which the
    level-by-level structure derives.  Deterministic given *seed*.
    """
    params = params or CascadeParams()
    if intensity_scale <= 0:
        raise PlatformError("intensity_scale must be positive")
    rng = ensure_rng(seed)
    users = store.user_ids()
    if not users:
        raise PlatformError("store has no users")
    # Post *emission* draws (follow-up counts, gaps, lengths, likes) come in
    # numpy batches from a stream forked off the cascade rng up front, so
    # the event-loop rng drives propagation only.
    post_rng = np.random.default_rng(rng.getrandbits(128))

    # Exogenous seed events, day by day.
    events: List[Tuple[float, int]] = []
    day_start = 0.0
    while day_start < horizon:
        rate = intensity_scale * spec.intensity(day_start + DAY / 2)
        for _ in range(_poisson(rng, rate)):
            timestamp = day_start + rng.random() * min(DAY, horizon - day_start)
            events.append((timestamp, rng.choice(users)))
        day_start += DAY
    heapq.heapify(events)

    adoption_times: Dict[int, float] = {}
    while events:
        timestamp, user_id = heapq.heappop(events)
        if timestamp >= horizon or user_id in adoption_times:
            continue
        if params.max_adopters is not None and len(adoption_times) >= params.max_adopters:
            break
        adoption_times[user_id] = timestamp
        neighbors = store.graph.neighbors_unsafe(user_id)
        if len(neighbors) > params.exposure_cap:
            exposed = rng.sample(list(neighbors), params.exposure_cap)
        else:
            exposed = list(neighbors)
        probability = spec.adoption_probability
        weak_probability = probability * params.weak_tie_multiplier
        for neighbor in exposed:
            if neighbor in adoption_times:
                continue
            # One uniform decides adoption.  The common-neighbor lookup is
            # the loop's hottest call, so consult it lazily: draws at or
            # above ``probability`` reject and draws below the weak-tie
            # probability accept regardless of tie strength — only the band
            # in between needs the tie test.  Decisions and the rng stream
            # are bit-identical to testing the tie up front.
            draw = rng.random()
            if draw >= probability:
                continue
            if (
                params.weak_tie_common_neighbors > 0
                and draw >= weak_probability
                and store.graph.common_neighbor_count(user_id, neighbor)
                < params.weak_tie_common_neighbors
            ):
                continue
            delay = sample_response_delay(params, rng)
            heapq.heappush(events, (timestamp + delay, neighbor))

    total_posts = _emit_mentions_columnar(
        store, adoption_times, spec.keyword, horizon, params, post_rng
    )
    return CascadeResult(spec.keyword, adoption_times, total_posts)


def _emit_mentions_columnar(
    store: MicroblogStore,
    adoption_times: Dict[int, float],
    keyword: str,
    horizon: float,
    params: CascadeParams,
    post_rng: np.random.Generator,
) -> int:
    """All of a cascade's mention posts, written as one column batch.

    The event loop only decides *who adopts when*; every mention post —
    each adopter's first plus its follow-ups — is drawn here in whole-
    cascade numpy batches and lands in the store's bulk buffers.  No
    :class:`Post` objects, no bisect, no per-adopter array overhead.

    On a spooled store (the out-of-core ``"mmap"`` build plane) the
    columns stream to disk in bounded chunks instead: the survivor
    ``(user, time)`` pairs are appended first, then the length column,
    then the likes column, each drawn chunk-by-chunk from *post_rng*.
    Per-column chunked draws consume the generator stream element-for-
    element like the one-shot draws (lengths fully precede likes either
    way), so the emitted posts are bit-identical; peak memory is bounded
    by the adopter count and the spool chunk size, not the post count.
    """
    count = len(adoption_times)
    if count == 0:
        return 0
    users = np.fromiter(adoption_times.keys(), dtype=np.int64, count=count)
    first_times = np.fromiter(adoption_times.values(), dtype=np.float64, count=count)
    extras = post_rng.poisson(params.extra_mentions_mean, size=count)
    total_extra = int(extras.sum())
    gaps = post_rng.exponential(params.extra_mention_gap_mean, size=total_extra)
    follow_times = np.repeat(first_times, extras) + gaps
    keep = follow_times < horizon
    all_users = np.concatenate([users, np.repeat(users, extras)[keep]])
    all_times = np.concatenate([first_times, follow_times[keep]])
    posted = all_users.size
    low, high = params.post_length_range
    spool = getattr(store, "spool", None)
    if spool is not None:
        start = store.reserve_post_ids(posted)
        code = spool.kw_code(keyword.lower())
        chunk = spool.chunk_rows
        for offset in range(0, posted, chunk):
            stop = min(offset + chunk, posted)
            spool.append_column("post_user", all_users[offset:stop])
            spool.append_column("post_time", all_times[offset:stop])
            spool.append_column(
                "post_id", np.arange(start + offset, start + stop, dtype=np.int64)
            )
            spool.append_column(
                "post_keyword", np.full(stop - offset, code, dtype=np.int64)
            )
        for offset in range(0, posted, chunk):
            size = min(chunk, posted - offset)
            spool.append_column(
                "post_length", post_rng.integers(low, high + 1, size=size)
            )
        for offset in range(0, posted, chunk):
            size = min(chunk, posted - offset)
            spool.append_column(
                "post_likes",
                np.minimum(
                    (post_rng.pareto(params.likes_pareto_alpha, size=size) + 1.0).astype(
                        np.int64
                    ),
                    10_000,
                )
                - 1,
            )
        return posted
    lengths = post_rng.integers(low, high + 1, size=posted)
    likes = (
        np.minimum(
            (post_rng.pareto(params.likes_pareto_alpha, size=posted) + 1.0).astype(np.int64),
            10_000,
        )
        - 1
    )
    store.add_posts_columnar(all_users, all_times, lengths, likes, keyword=keyword)
    return posted

