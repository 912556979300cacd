"""End-to-end platform builder.

``build_platform`` assembles everything the experiments need: a social
graph from a chosen generative model, user profiles, background (non-
keyword) posts, and one cascade per configured keyword.  The result bundles
the authoritative :class:`~repro.platform.store.MicroblogStore` with the
platform's API profile and a simulated clock positioned at the end of the
horizon — "now", from which the search API's recency window is measured.

Construction is deterministic given ``config.seed``; benchmarks rely on
this to share one cached platform across many estimator runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro._rng import ensure_rng, spawn
from repro.errors import PlatformError
from repro.graph.generators import (
    barabasi_albert_graph,
    community_graph,
    erdos_renyi_graph,
    watts_strogatz_graph,
)
from repro.graph.social_graph import SocialGraph
from repro.platform.cascade import CascadeParams, CascadeResult, run_cascade
from repro.platform.clock import DAY, SimulatedClock
from repro.platform.frozen import FrozenStore
from repro.platform.profiles import TWITTER, PlatformProfile
from repro.platform.store import MicroblogStore
from repro.platform.users import generate_profiles
from repro.platform.workload import KeywordSpec, standard_keywords

GRAPH_MODELS = ("community", "barabasi_albert", "watts_strogatz", "erdos_renyi")
DATA_PLANES = ("frozen", "mmap", "legacy")
"""Data-plane modes for :func:`build_platform`:

* ``"frozen"`` (default) — vectorized columnar build, compiled at the end
  to an immutable :class:`~repro.platform.frozen.FrozenStore` with a CSR
  social graph; the fast serving path every estimator should use.
* ``"mmap"`` — the *same* draws as ``"frozen"`` (bit-identical platform
  data), but built out of core: column batches stream to an on-disk spool
  in ``build_chunk_rows``-bounded chunks, the freeze-time sorts run as
  external passes, and the resulting :class:`FrozenStore` serves every
  column as an ``np.memmap`` view of the sharded layout.  Peak build RSS
  stays flat in the post count; see :mod:`repro.platform.outofcore`.
* ``"legacy"`` — the *same* vectorized build (identical RNG draws, hence
  identical platform data), served through the mutable dict/list store and
  dict-of-sets graph.  Exists so tests can pin frozen/legacy equivalence.
"""


@dataclass(frozen=True)
class PlatformConfig:
    """Everything needed to deterministically build one platform."""

    num_users: int = 20_000
    graph_model: str = "community"
    graph_params: Dict[str, float] = field(default_factory=dict)
    horizon_days: float = 304.0
    """Jan 1 – Oct 31 2013 is 304 days, the paper's ground-truth window."""
    keywords: Sequence[KeywordSpec] = field(default_factory=standard_keywords)
    cascade_params: CascadeParams = field(default_factory=CascadeParams)
    background_posts_mean: float = 45.0
    """Mean keyword-free posts per user.  Sized so a typical timeline
    spans a single Twitter page (200/call) but several Google+ pages
    (20/call) — the mechanism behind the paper's §6.2 observation that
    Google+ estimations cost far more API calls."""
    profile: PlatformProfile = TWITTER
    intensity_reference_population: int = 10_000
    """Keyword intensities are per this many users; cascades scale by
    ``num_users / intensity_reference_population``."""
    seed: int = 0
    data_plane: str = "frozen"
    """See :data:`DATA_PLANES`."""
    spill_dir: Optional[str] = None
    """Directory for the ``"mmap"`` plane's on-disk columns (the sharded
    layout).  ``None`` puts them in a temp directory removed at process
    exit; a named directory persists and doubles as the saved platform."""
    build_chunk_rows: int = 262_144
    """Streaming-build chunk size (rows) for the ``"mmap"`` plane."""

    def __post_init__(self) -> None:
        if self.num_users < 2:
            raise PlatformError("need at least two users")
        if self.graph_model not in GRAPH_MODELS:
            raise PlatformError(f"unknown graph model {self.graph_model!r}; choose from {GRAPH_MODELS}")
        if self.horizon_days <= 0:
            raise PlatformError("horizon must be positive")
        if self.background_posts_mean < 0:
            raise PlatformError("background_posts_mean must be >= 0")
        if self.data_plane not in DATA_PLANES:
            raise PlatformError(
                f"unknown data plane {self.data_plane!r}; choose from {DATA_PLANES}"
            )
        if self.build_chunk_rows < 1:
            raise PlatformError("build_chunk_rows must be >= 1")

    @property
    def horizon(self) -> float:
        return self.horizon_days * DAY


@dataclass
class SimulatedPlatform:
    """A fully built platform: data store + API profile + clock."""

    config: PlatformConfig
    store: Union[MicroblogStore, FrozenStore]
    clock: SimulatedClock
    cascades: Dict[str, CascadeResult]

    @property
    def graph(self):
        """The social graph — mutable or CSR, matching the data plane."""
        return self.store.graph

    @property
    def profile(self) -> PlatformProfile:
        return self.config.profile

    @property
    def now(self) -> float:
        return self.clock.now()

    def with_profile(self, profile: PlatformProfile) -> "SimulatedPlatform":
        """Same data exposed through a different platform's API constraints.

        Used by the Google+/Tumblr benchmarks: the paper's point there is
        how *API page sizes and rate limits* change absolute query costs,
        which this isolates cleanly.
        """
        return SimulatedPlatform(
            config=replace(self.config, profile=profile),
            store=self.store,
            clock=SimulatedClock(self.clock.now()),
            cascades=self.cascades,
        )


def _build_graph(config: PlatformConfig, seed_rng) -> SocialGraph:
    params = dict(config.graph_params)
    if config.graph_model == "community":
        return community_graph(
            config.num_users,
            mean_community_size=float(params.get("mean_community_size", 40.0)),
            within_degree=float(params.get("within_degree", 8.0)),
            inter_edges_per_node=float(params.get("inter_edges_per_node", 1.5)),
            hub_fraction=float(params.get("hub_fraction", 0.015)),
            hub_bias=float(params.get("hub_bias", 0.5)),
            seed=seed_rng,
        )
    if config.graph_model == "barabasi_albert":
        return barabasi_albert_graph(config.num_users, int(params.get("m", 8)), seed=seed_rng)
    if config.graph_model == "watts_strogatz":
        return watts_strogatz_graph(
            config.num_users,
            int(params.get("k", 10)),
            float(params.get("p", 0.1)),
            seed=seed_rng,
        )
    return erdos_renyi_graph(config.num_users, float(params.get("p", 10.0 / config.num_users)), seed=seed_rng)


def _add_background_posts(
    store: MicroblogStore,
    config: PlatformConfig,
    rng,
    progress=None,
) -> None:
    """Keyword-free posts spread uniformly over the horizon.

    They give timelines realistic bulk (pagination and the 3 200-post cap
    are exercised) without affecting keyword aggregates.  Every column is
    drawn in one numpy batch and handed to the store as a single bulk
    chunk.

    On a spooled store the same columns stream to disk in bounded chunks.
    The generator stream is consumed in the identical element order —
    per-user counts first, then every timestamp, then every length, then
    every like, each column chunked *within itself* — so the posts are
    bit-identical to the one-shot path while peak memory stays flat in
    the total row count.
    """
    if config.background_posts_mean == 0:
        return
    horizon = config.horizon
    nrng = np.random.default_rng(rng.getrandbits(128))
    user_ids = np.asarray(store.user_ids(), dtype=np.int64)
    # Geometric-ish count via exponential rounding keeps a long tail of
    # prolific users, mirroring the <5% of users beyond Twitter's cap.
    counts = nrng.exponential(config.background_posts_mean, size=user_ids.size).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return
    spool = store.spool
    if spool is not None:
        _stream_background_posts(
            store, spool, nrng, user_ids, counts, total, horizon, progress
        )
        return
    users = np.repeat(user_ids, counts)
    times = nrng.random(total) * horizon
    lengths = nrng.integers(10, 141, size=total)
    likes = np.minimum((nrng.pareto(1.8, size=total) + 1.0).astype(np.int64), 10_000) - 1
    store.add_posts_columnar(users, times, lengths, likes)
    if progress is not None:
        progress.add_rows("background", total)


def _stream_background_posts(
    store: MicroblogStore,
    spool,
    nrng: np.random.Generator,
    user_ids: np.ndarray,
    counts: np.ndarray,
    total: int,
    horizon: float,
    progress=None,
) -> None:
    """Chunked spool writes of the vectorized background columns.

    Author/post-id/keyword columns (no RNG) stream in user-block chunks;
    the three drawn columns each stream in their own chunked pass over
    the same generator, preserving the one-shot draw order exactly.
    """
    start = store.reserve_post_ids(total)
    code = spool.kw_code(None)
    chunk = spool.chunk_rows
    ends = np.cumsum(counts)
    block_start = 0
    while block_start < user_ids.size:
        row0 = int(ends[block_start - 1]) if block_start else 0
        block_end = int(np.searchsorted(ends, row0 + chunk, side="left")) + 1
        block_end = min(max(block_end, block_start + 1), user_ids.size)
        block = np.repeat(user_ids[block_start:block_end], counts[block_start:block_end])
        spool.append_column("post_user", block)
        spool.append_column(
            "post_id", np.arange(start + row0, start + row0 + block.size, dtype=np.int64)
        )
        spool.append_column("post_keyword", np.full(block.size, code, dtype=np.int64))
        if progress is not None:
            progress.add_rows("background", block.size)
        block_start = block_end
    for offset in range(0, total, chunk):
        size = min(chunk, total - offset)
        spool.append_column("post_time", nrng.random(size) * horizon)
    for offset in range(0, total, chunk):
        size = min(chunk, total - offset)
        spool.append_column("post_length", nrng.integers(10, 141, size=size))
    for offset in range(0, total, chunk):
        size = min(chunk, total - offset)
        spool.append_column(
            "post_likes",
            np.minimum((nrng.pareto(1.8, size=size) + 1.0).astype(np.int64), 10_000) - 1,
        )


def build_platform(
    config: Optional[PlatformConfig] = None,
    obs=None,
    progress=None,
) -> SimulatedPlatform:
    """Build a deterministic platform from *config* (defaults if None).

    *obs* (an :class:`~repro.obs.Observability` with a metrics registry)
    and *progress* (a :class:`~repro.platform.outofcore.BuildProgress`,
    or ``True`` for stderr echo) are optional build telemetry: chunked
    row counts per stage land in ``build.rows{stage=...}`` counters and
    the resident set in a ``build.rss_bytes`` gauge, so large ``"mmap"``
    builds give a progress signal instead of minutes of silence.
    """
    from repro.platform.outofcore import BuildProgress, ColumnSpool

    config = config or PlatformConfig()
    if progress is True or (progress is None and obs is not None):
        metrics = getattr(obs, "metrics", None) if obs is not None else None
        progress = BuildProgress(metrics=metrics, echo=progress is True)
    elif progress is None or progress is False:
        progress = None
    root_rng = ensure_rng(config.seed)

    graph = _build_graph(config, spawn(root_rng, "graph"))
    spool = None
    if config.data_plane == "mmap":
        spool = ColumnSpool(
            directory=config.spill_dir,
            chunk_rows=config.build_chunk_rows,
            progress=progress,
        )
        if spool.owns_directory:
            # Temp spills live as long as the process: workers may map the
            # same files mid-run, so reclamation waits for interpreter exit.
            import atexit
            import shutil

            atexit.register(shutil.rmtree, spool.directory, True)
    store = MicroblogStore(graph, spool=spool)
    for user_profile in generate_profiles(config.num_users, seed=spawn(root_rng, "profiles")):
        store.add_user(user_profile)
    store.refresh_follower_counts()
    if progress is not None:
        progress.note("users")

    _add_background_posts(store, config, spawn(root_rng, "background"), progress=progress)

    cascades: Dict[str, CascadeResult] = {}
    for spec in config.keywords:
        result = run_cascade(
            store,
            spec,
            horizon=config.horizon,
            params=config.cascade_params,
            seed=spawn(root_rng, f"cascade:{spec.keyword}"),
            intensity_scale=config.num_users / config.intensity_reference_population,
        )
        cascades[spec.keyword] = result
        if progress is not None:
            progress.add_rows(f"cascade:{spec.keyword}", result.total_posts)

    served: Union[MicroblogStore, FrozenStore]
    if config.data_plane in ("frozen", "mmap"):
        served = store.freeze()
    else:
        # Drain any pending column chunks now so the store is safe to share
        # across threads without a lazy first-read integration race.
        store.flush()
        served = store

    clock = SimulatedClock(start=config.horizon)
    platform = SimulatedPlatform(config=config, store=served, clock=clock, cascades=cascades)
    if config.data_plane == "mmap":
        # Top up the spool directory with the platform-level header and
        # cascade files, making it a complete sharded layout that
        # PlatformRef / save_platform / load_platform reuse as-is.
        from repro.platform.serialization import save_platform

        save_platform(platform, served.source_dir)
        if progress is not None:
            progress.note("sharded-layout")
    return platform
