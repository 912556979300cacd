"""Immutable columnar (SoA) serving form of the platform store.

:class:`FrozenStore` is what :meth:`MicroblogStore.freeze` compiles to and
what every estimator run should read from.  Where the mutable store keeps
per-user lists of :class:`~repro.platform.posts.Post` objects and python
tuple logs, the frozen store keeps six flat numpy arrays in post-id order
plus three compiled indexes:

* a timeline permutation + ``indptr`` (posts grouped per user, time-sorted
  once at freeze, never re-sorted);
* per-keyword logs as parallel ``(times, users, post_ids)`` arrays sorted
  by the legacy ``(t, u, pid)`` tuple order, so search-window slicing is a
  pair of ``searchsorted`` calls;
* per-keyword first-mention maps, compiled in one ``unique`` pass — the
  ground truth behind the paper's level-by-level structure (§4.2.1).

Read methods mirror ``MicroblogStore``'s API bit-for-bit: identical
responses, identical ordering, identical post objects (materialised lazily
per timeline and cached as immutable tuples).  Mutators raise
:class:`PlatformError`.  The social graph is the CSR compilation of the
build graph (:class:`~repro.graph.csr.CSRGraph`).

The column arrays never have to live in RAM: every read path (timeline
``searchsorted`` slicing, keyword-log windows, first-mention lookups)
works identically over ``np.memmap`` views of the sharded on-disk layout
(:mod:`repro.platform.serialization`), because the indexes compiled here
are themselves flat arrays.  A store whose columns are mapped from disk
carries ``storage == "mmap"`` and a ``source_dir`` pointing at the shard
directory; construction then passes :class:`CompiledIndexes` (compiled
once, on disk) instead of re-sorting, so opening a 10M-row platform is a
handful of ``mmap`` calls — no column is ever materialised wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import PlatformError
from repro.graph.csr import CSRGraph
from repro.platform.posts import Post, make_keywords
from repro.platform.users import ColumnProfiles, UserProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.store import MicroblogStore


def _unmapped(array):
    """*array* as a base-class ndarray.  A memmap column is re-viewed, not
    copied — it still reads the mapped file — so the serving path's
    slices and gathers skip ``np.memmap``'s per-index subclass hooks."""
    return array.view(np.ndarray) if isinstance(array, np.memmap) else array


def _unmapped_dict(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {name: _unmapped(array) for name, array in arrays.items()}


def match_mask(store, rows: np.ndarray, match_codes: np.ndarray,
               extra_pids: np.ndarray) -> np.ndarray:
    """Boolean mask over column *rows*: post's keywords contain the needle.

    ``match_codes`` are the registered keyword codes whose singleton
    keyword set contains the needle; ``extra_pids`` the (sorted) post ids
    of multi-keyword posts matching it.  A code match implies a true
    keyword match even for multi-keyword posts, because a post's code is
    its alphabetically-first word — always a member of its keyword set.
    """
    codes = store.post_keyword[rows]
    if match_codes.size == 1:
        mask = codes == match_codes[0]
    elif match_codes.size:
        mask = np.isin(codes, match_codes)
    else:
        mask = np.zeros(rows.shape[0], dtype=bool)
    if extra_pids.size:
        mask |= np.isin(store.post_id[rows], extra_pids)
    return mask


def first_mention_in(store, rows: np.ndarray, match_codes: np.ndarray,
                     extra_pids: np.ndarray) -> Optional[float]:
    """Time of the first of *rows* whose post matches the needle (see
    :func:`match_mask`), or None."""
    hits = np.flatnonzero(match_mask(store, rows, match_codes, extra_pids))
    if hits.size == 0:
        return None
    return float(store.post_time[rows[hits[0]]])


def mentions_in(store, rows: np.ndarray, match_codes: np.ndarray,
                extra_pids: np.ndarray, start: float, end: float) -> Tuple[Post, ...]:
    """Posts of the *rows* that match the needle (see :func:`match_mask`)
    inside ``[start, end)``, in row order; only those rows materialise."""
    mask = match_mask(store, rows, match_codes, extra_pids)
    if start != float("-inf") or end != float("inf"):
        times = store.post_time[rows]
        mask &= (times >= start) & (times < end)
    hits = rows[mask]
    if hits.size == 0:
        return ()
    return store.materialize_rows(hits)


@dataclass
class CompiledIndexes:
    """The sorted indexes :meth:`FrozenStore._compile_indexes` produces.

    A bundle of them can be built out-of-core (streaming freeze) or read
    back from the sharded layout, and handed to :class:`FrozenStore` so
    construction skips the in-RAM sorts entirely.  Every field may be an
    ``np.memmap``; serving semantics are identical either way.
    """

    sorted_user_ids: np.ndarray
    tl_order: np.ndarray
    tl_indptr: np.ndarray
    kw_times: Dict[str, np.ndarray]
    kw_users: Dict[str, np.ndarray]
    kw_pids: Dict[str, np.ndarray]
    kw_first_users: Dict[str, np.ndarray]
    kw_first_times: Dict[str, np.ndarray]


class FrozenStore:
    """Columnar, immutable view of a fully built platform store."""

    def __init__(
        self,
        graph: CSRGraph,
        profiles: Dict[int, UserProfile],
        user_order: List[int],
        post_user: np.ndarray,
        post_time: np.ndarray,
        post_id: np.ndarray,
        post_length: np.ndarray,
        post_likes: np.ndarray,
        post_keyword: np.ndarray,
        keyword_names: List[str],
        multi_keywords: Optional[Dict[int, Tuple[str, ...]]] = None,
        next_post_id: Optional[int] = None,
        precompiled: Optional[CompiledIndexes] = None,
        source_dir: Optional[str] = None,
        storage: str = "ram",
    ) -> None:
        self.graph = graph
        self._profiles = profiles
        self._user_order = user_order
        self.post_user = _unmapped(post_user)
        self.post_time = _unmapped(post_time)
        self.post_id = _unmapped(post_id)
        self.post_length = _unmapped(post_length)
        self.post_likes = _unmapped(post_likes)
        self.post_keyword = _unmapped(post_keyword)
        self._keyword_names = keyword_names
        self._multi = multi_keywords or {}
        self._next_post_id = (
            next_post_id
            if next_post_id is not None
            else (int(post_id.max()) + 1 if post_id.size else 0)
        )
        self.source_dir = source_dir
        """Sharded on-disk layout backing/mirroring this store, if any.
        :class:`~repro.parallel.platform_ref.PlatformRef` reuses it as the
        spill, so process workers map the same files the parent serves."""
        self.storage = storage
        """``"ram"`` or ``"mmap"`` — where the columns physically live."""
        self.cache_epoch = 0
        """Bumped by :meth:`drop_caches`.  Consumers that remember what
        they have already touched (the kernel's page prefetcher) key
        their memory on it, so a bench cold-start resets them too."""
        if precompiled is not None:
            self._adopt_indexes(precompiled)
        else:
            self._compile_indexes()

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, store: "MicroblogStore") -> "FrozenStore":
        """Compile *store* (pending column batches and/or legacy indexes)."""
        chunks = store._pending
        columns: List[Tuple[np.ndarray, ...]] = []
        keyword_names: List[str] = []
        keyword_index: Dict[str, int] = {}
        multi: Dict[int, Tuple[str, ...]] = {}

        def kw_code(name: Optional[str]) -> int:
            if name is None:
                return -1
            if name not in keyword_index:
                keyword_index[name] = len(keyword_names)
                keyword_names.append(name)
            return keyword_index[name]

        # Posts already integrated into the legacy indexes (if any) come
        # first so the combined columns stay in post-id order; the two
        # populations never interleave because add_post drains pending.
        legacy: List[Post] = sorted(
            (p for timeline in store._timelines.values() for p in timeline),
            key=lambda p: p.post_id,
        )
        if legacy:
            codes = np.empty(len(legacy), dtype=np.int64)
            for row, post in enumerate(legacy):
                words = sorted(post.keywords)
                if len(words) > 1:
                    codes[row] = kw_code(words[0])
                    multi[int(post.post_id)] = tuple(words)
                else:
                    codes[row] = kw_code(words[0]) if words else -1
            columns.append(
                (
                    np.array([p.user_id for p in legacy], dtype=np.int64),
                    np.array([p.timestamp for p in legacy], dtype=np.float64),
                    np.array([p.post_id for p in legacy], dtype=np.int64),
                    np.array([p.length for p in legacy], dtype=np.int64),
                    np.array([p.likes for p in legacy], dtype=np.int64),
                    codes,
                )
            )
        for chunk in chunks:
            code = kw_code(chunk.keyword)
            columns.append(
                (
                    chunk.user_ids,
                    chunk.timestamps,
                    chunk.post_ids,
                    chunk.lengths,
                    chunk.likes,
                    np.full(chunk.user_ids.size, code, dtype=np.int64),
                )
            )

        if columns:
            post_user, post_time, post_id, post_length, post_likes, post_kw = (
                np.concatenate(parts) for parts in zip(*columns)
            )
        else:
            post_user = post_id = post_length = post_likes = post_kw = np.empty(0, np.int64)
            post_time = np.empty(0, np.float64)

        return cls(
            graph=CSRGraph.from_graph(store.graph),
            profiles=store._profiles,
            user_order=list(store._profiles),
            post_user=post_user,
            post_time=post_time,
            post_id=post_id,
            post_length=post_length,
            post_likes=post_likes,
            post_keyword=post_kw,
            keyword_names=keyword_names,
            multi_keywords=multi,
            next_post_id=store._next_post_id,
        )

    def _compile_indexes(self) -> None:
        ids = np.array(sorted(self._profiles), dtype=np.int64)
        self._sorted_user_ids = ids
        if ids.size and ids[0] == 0 and ids[-1] == ids.size - 1:
            rows = self.post_user  # contiguous ids: row == id, skip the search
        else:
            rows = np.searchsorted(ids, self.post_user)
        # Stable lexsort: (user, time) with insertion order breaking ties,
        # exactly the order repeated bisect.insort produces.
        self._tl_order = np.lexsort((self.post_time, rows))
        counts = np.bincount(rows, minlength=ids.size) if rows.size else np.zeros(ids.size, np.int64)
        self._tl_indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._tl_indptr[1:])
        self._tl_cache: Dict[int, Tuple[Post, ...]] = {}

        # Per-keyword logs sorted by the legacy (t, u, pid) tuple order.
        self._kw_times: Dict[str, np.ndarray] = {}
        self._kw_users: Dict[str, np.ndarray] = {}
        self._kw_pids: Dict[str, np.ndarray] = {}
        self._kw_first_users: Dict[str, np.ndarray] = {}
        self._kw_first_times: Dict[str, np.ndarray] = {}
        # Background posts (code -1) dominate the column; filter them out
        # once so each keyword scans only the tagged subset.
        tagged = np.flatnonzero(self.post_keyword >= 0)
        tagged_codes = self.post_keyword[tagged]
        for code, name in enumerate(self._keyword_names):
            rows_kw = tagged[tagged_codes == code]
            extra = [
                pid for pid, words in self._multi.items() if name in words[1:]
            ]
            if extra:
                id_rows = np.searchsorted(self.post_id, np.array(extra, dtype=np.int64))
                rows_kw = np.concatenate([rows_kw, id_rows])
            t = self.post_time[rows_kw]
            u = self.post_user[rows_kw]
            p = self.post_id[rows_kw]
            order = np.lexsort((p, u, t))
            t, u, p = t[order], u[order], p[order]
            self._kw_times[name] = t
            self._kw_users[name] = u
            self._kw_pids[name] = p
            # First mention per user: first occurrence in time order,
            # kept as parallel (sorted users, times) arrays — np.unique
            # returns users ascending, matching the historical dict order.
            uniq, first_idx = np.unique(u, return_index=True)
            self._kw_first_users[name] = uniq
            self._kw_first_times[name] = t[first_idx]
        self._finish_indexes()

    def _adopt_indexes(self, compiled: CompiledIndexes) -> None:
        """Serve from pre-sorted (possibly disk-mapped) indexes as-is."""
        self._sorted_user_ids = _unmapped(compiled.sorted_user_ids)
        self._tl_order = _unmapped(compiled.tl_order)
        self._tl_indptr = _unmapped(compiled.tl_indptr)
        self._tl_cache = {}
        self._kw_times = _unmapped_dict(compiled.kw_times)
        self._kw_users = _unmapped_dict(compiled.kw_users)
        self._kw_pids = _unmapped_dict(compiled.kw_pids)
        self._kw_first_users = _unmapped_dict(compiled.kw_first_users)
        self._kw_first_times = _unmapped_dict(compiled.kw_first_times)
        self._finish_indexes()

    def _finish_indexes(self) -> None:
        self._kw_sets = {name: make_keywords(name) for name in self._keyword_names}
        self._matchers: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def compiled_indexes(self) -> CompiledIndexes:
        """The live index bundle (shared arrays, treat as immutable)."""
        return CompiledIndexes(
            sorted_user_ids=self._sorted_user_ids,
            tl_order=self._tl_order,
            tl_indptr=self._tl_indptr,
            kw_times=dict(self._kw_times),
            kw_users=dict(self._kw_users),
            kw_pids=dict(self._kw_pids),
            kw_first_users=dict(self._kw_first_users),
            kw_first_times=dict(self._kw_first_times),
        )

    # ------------------------------------------------------------------
    # immutability guards
    # ------------------------------------------------------------------
    def _frozen(self, operation: str):
        raise PlatformError(f"FrozenStore is immutable ({operation})")

    def add_user(self, profile: UserProfile) -> None:
        self._frozen("add_user")

    def add_post(self, post: Post) -> None:
        self._frozen("add_post")

    def add_posts_columnar(self, *args, **kwargs) -> None:
        self._frozen("add_posts_columnar")

    def new_post_id(self) -> int:
        self._frozen("new_post_id")

    def freeze(self) -> "FrozenStore":
        """Already frozen (idempotent)."""
        return self

    # ------------------------------------------------------------------
    # users
    # ------------------------------------------------------------------
    def profile(self, user_id: int) -> UserProfile:
        try:
            return self._profiles[user_id]
        except KeyError:
            raise PlatformError(f"unknown user {user_id}") from None

    def has_user(self, user_id: int) -> bool:
        return user_id in self._profiles

    def user_ids(self) -> List[int]:
        return list(self._user_order)

    @property
    def num_users(self) -> int:
        return len(self._profiles)

    @property
    def num_posts(self) -> int:
        return self._next_post_id

    # ------------------------------------------------------------------
    # timelines and keyword access
    # ------------------------------------------------------------------
    def _user_row(self, user_id: int) -> int:
        ids = self._sorted_user_ids
        row = int(ids.searchsorted(user_id))
        if row >= ids.size or ids[row] != user_id:
            raise PlatformError(f"unknown user {user_id}")
        return row

    def _materialize(self, rows: np.ndarray) -> Tuple[Post, ...]:
        empty = frozenset()
        multi = self._multi
        new = Post.__new__
        posts = []
        for pid, uid, ts, code, ln, lk in zip(
            self.post_id[rows].tolist(),
            self.post_user[rows].tolist(),
            self.post_time[rows].tolist(),
            self.post_keyword[rows].tolist(),
            self.post_length[rows].tolist(),
            self.post_likes[rows].tolist(),
        ):
            if pid in multi:
                words = make_keywords(*multi[pid])
            elif code >= 0:
                words = self._kw_sets[self._keyword_names[code]]
            else:
                words = empty
            # Frozen-dataclass __init__ pays one object.__setattr__ per
            # field; writing the instance dict directly is ~2.5x faster and
            # produces an identical (eq/hash-compatible) Post.
            post = new(Post)
            d = post.__dict__
            d["post_id"] = pid
            d["user_id"] = uid
            d["timestamp"] = ts
            d["keywords"] = words
            d["length"] = ln
            d["likes"] = lk
            posts.append(post)
        return tuple(posts)

    def timeline(self, user_id: int) -> Tuple[Post, ...]:
        """Full timeline of *user_id*, oldest first (cached immutable tuple)."""
        cached = self._tl_cache.get(user_id)
        if cached is None:
            row = self._user_row(user_id)
            rows = self._tl_order[self._tl_indptr[row]: self._tl_indptr[row + 1]]
            cached = self._materialize(rows)
            self._tl_cache[user_id] = cached
        return cached

    def drop_caches(self) -> None:
        """Forget memoised timeline tuples and per-keyword columns.

        Benchmarking aid: returns the store to its just-compiled serving
        state, so a timed run pays the cold materialisation cost exactly
        as the first estimation over a freshly loaded platform would
        (process-cached bench platforms otherwise leak warm state
        between runs).  Purely a cache reset — serving results are
        unchanged.  Never called on the serving path.
        """
        self._tl_cache.clear()
        self.cache_epoch += 1

    def timeline_rows(self, user_id: int) -> np.ndarray:
        """Column rows of *user_id*'s timeline, oldest first.

        The raw form of :meth:`timeline`: indices into the post columns
        in the compiled (time, insertion) order, without materialising a
        single :class:`Post`.  On a mapped store this is a memmap view —
        treat as immutable.  Kernel support (:mod:`repro.core.kernels`).
        """
        row = self._user_row(user_id)
        return self._tl_order[self._tl_indptr[row]: self._tl_indptr[row + 1]]

    def materialize_rows(self, rows: np.ndarray) -> Tuple[Post, ...]:
        """Post objects for the given column *rows* (uncached).

        Pairs with :meth:`timeline_rows`: the kernel's columnar condition
        views materialise only the rows that survive the keyword/window
        masks instead of the whole timeline."""
        return self._materialize(rows)

    def timeline_length(self, user_id: int) -> int:
        cached = self._tl_cache.get(user_id)
        if cached is not None:
            return len(cached)
        row = self._user_row(user_id)
        return int(self._tl_indptr[row + 1] - self._tl_indptr[row])

    def timeline_lengths(self, user_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`timeline_length` over an id array.

        Raises :class:`PlatformError` if *any* id is unknown — batch
        callers (the classification fast path) fall back to per-user
        resolution, which surfaces the offending id with the exact error
        the scalar path raises.
        """
        ids = self._sorted_user_ids
        if ids.size == 0:
            raise PlatformError("timeline_lengths: store has no users")
        rows = np.minimum(np.searchsorted(ids, user_ids), ids.size - 1)
        if not np.array_equal(ids[rows], user_ids):
            raise PlatformError("timeline_lengths: unknown user id in batch")
        return self._tl_indptr[rows + 1] - self._tl_indptr[rows]

    def keywords(self) -> List[str]:
        return list(self._keyword_names)

    def keyword_posts(
        self, keyword: str, start: float = float("-inf"), end: float = float("inf")
    ) -> Iterator[Tuple[float, int, int]]:
        """All ``(timestamp, user_id, post_id)`` mentions of *keyword* in
        ``[start, end)``, oldest first — ``searchsorted`` slicing, no scan."""
        name = keyword.lower()
        times = self._kw_times.get(name)
        if times is None:
            return
        lo = int(np.searchsorted(times, start, side="left"))
        hi = int(np.searchsorted(times, end, side="left"))
        yield from zip(
            times[lo:hi].tolist(),
            self._kw_users[name][lo:hi].tolist(),
            self._kw_pids[name][lo:hi].tolist(),
        )

    def users_mentioning(
        self, keyword: str, start: float = float("-inf"), end: float = float("inf")
    ) -> List[int]:
        """Distinct users with >= 1 mention of *keyword* in ``[start, end)``."""
        name = keyword.lower()
        times = self._kw_times.get(name)
        if times is None:
            return []
        lo = int(np.searchsorted(times, start, side="left"))
        hi = int(np.searchsorted(times, end, side="left"))
        window = self._kw_users[name][lo:hi]
        _, first_idx = np.unique(window, return_index=True)
        # First-appearance (time) order, matching the legacy dedup order.
        return window[np.sort(first_idx)].tolist()

    def first_mention_time(self, keyword: str, user_id: int) -> Optional[float]:
        """When *user_id* first posted *keyword*, or None if never."""
        users = self._kw_first_users.get(keyword.lower())
        if users is None or users.size == 0:
            return None
        idx = int(np.searchsorted(users, user_id))
        if idx >= users.size or users[idx] != user_id:
            return None
        return float(self._kw_first_times[keyword.lower()][idx])

    def first_mention_times(self, keyword: str) -> Dict[int, float]:
        """Full first-mention map for *keyword* (ascending user id)."""
        name = keyword.lower()
        users = self._kw_first_users.get(name)
        if users is None:
            return {}
        return dict(zip(users.tolist(), self._kw_first_times[name].tolist()))

    def has_keyword_log(self, keyword: str) -> bool:
        """True when *keyword* has a compiled first-mention column.

        For a registered keyword, absence from that column proves a user
        never posted it — the implication the kernel's capped-window
        shortcut relies on (:mod:`repro.core.kernels`)."""
        return keyword.lower() in self._kw_first_users

    def matching_keyword_codes(self, keyword: str) -> np.ndarray:
        """Codes of registered keywords whose keyword set contains *keyword*.

        A post tagged with one of these codes is guaranteed to match the
        needle (a post's code is its alphabetically-first word, always a
        member of its own keyword set) — the columnar form of the
        ``needle in post.keywords`` test for singly-tagged posts.
        """
        needle = keyword.lower()
        codes = [
            code
            for code, name in enumerate(self._keyword_names)
            if needle in self._kw_sets[name]
        ]
        return np.asarray(codes, dtype=np.int64)

    def matching_extra_post_ids(self, keyword: str) -> np.ndarray:
        """Sorted post ids of multi-keyword posts matching *keyword*.

        Completes :meth:`matching_keyword_codes`: a multi-keyword post
        matches through any of its words, not just the coded first one.
        """
        needle = keyword.lower()
        pids = [
            pid
            for pid, words in self._multi.items()
            if needle in make_keywords(*words)
        ]
        return np.asarray(sorted(pids), dtype=np.int64)

    def keyword_matcher(self, keyword: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(matching_keyword_codes, matching_extra_post_ids)`` for
        *keyword*, memoised until the indexes change: the arguments
        :func:`match_mask` takes for a needle."""
        name = keyword.lower()
        matcher = self._matchers.get(name)
        if matcher is None:
            matcher = self._matchers[name] = (
                self.matching_keyword_codes(name),
                self.matching_extra_post_ids(name),
            )
        return matcher

    def first_mention_in_rows(self, rows: np.ndarray, keyword: str) -> Optional[float]:
        """Time of the first post among *rows* mentioning *keyword*, or
        None: ``TimelineView.first_mention_time`` over the posts of those
        rows, read from the columns."""
        return first_mention_in(self, rows, *self.keyword_matcher(keyword))

    def mentions_in_rows(
        self, rows: np.ndarray, keyword: str,
        start: float = float("-inf"), end: float = float("inf"),
    ) -> Tuple[Post, ...]:
        """Posts among *rows* mentioning *keyword* inside ``[start, end)``,
        in row order: ``TimelineView.mentions`` over those rows, with only
        the matching rows materialised."""
        return mentions_in(self, rows, *self.keyword_matcher(keyword), start, end)

    def first_mention_arrays(self, keyword: str) -> Tuple[np.ndarray, np.ndarray]:
        """First-mention columns for *keyword*: ``(user_ids, times)``.

        ``user_ids`` is sorted ascending so membership and values resolve
        with one ``searchsorted`` per batch — the classification fast
        path's lookup structure.  Values are bit-identical to
        :meth:`first_mention_time` (both read the columns compiled at
        freeze; on a mapped store these are memmap views and the fast
        path touches only the pages it slices).  A keyword never posted
        yields two empty arrays.  Treat as immutable.
        """
        name = keyword.lower()
        users = self._kw_first_users.get(name)
        if users is None:
            empty_u = np.empty(0, dtype=np.int64)
            empty_t = np.empty(0, dtype=np.float64)
            return empty_u, empty_t
        return users, self._kw_first_times[name]

    def all_posts(self) -> Iterator[Post]:
        """Every post on the platform (firehose order: per-user, by time).

        Materialises post objects without populating the timeline cache,
        so a full scan does not pin every timeline in memory.
        """
        for user_id in self._user_order:
            cached = self._tl_cache.get(user_id)
            if cached is not None:
                yield from cached
                continue
            row = self._user_row(user_id)
            rows = self._tl_order[self._tl_indptr[row]: self._tl_indptr[row + 1]]
            yield from self._materialize(rows)

    # ------------------------------------------------------------------
    # derived maintenance
    # ------------------------------------------------------------------
    def refresh_follower_counts(self) -> None:
        """Copy graph degrees into ``profile.followers`` (profiles stay
        shared, mutable metadata — the platform's display layer)."""
        if isinstance(self._profiles, ColumnProfiles):
            # Lazy columnar profiles compute followers from the graph on
            # materialisation — already consistent, nothing to write back.
            return
        for user_id, profile in self._profiles.items():
            profile.followers = self.graph.degree(user_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenStore(users={self.num_users}, posts={self.post_id.size}, "
            f"keywords={len(self._keyword_names)})"
        )
