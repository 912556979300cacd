"""The abstract microblog API and its result types.

These are the *only* data shapes estimators see.  A :class:`ProfileView`
hides fields the platform does not expose (Twitter hides gender, §6.2); a
:class:`TimelineView` contains at most the platform's timeline cap of the
user's most recent posts (Twitter: 3 200, §2).

A timeline comes in two shapes with one interface.  A live platform (or
the mutable legacy store) returns a :class:`TimelineView` holding
:class:`~repro.platform.posts.Post` objects.  The simulator over a frozen
columnar store returns a :class:`RowTimelineView`: the page is the
capped window of the user's column rows, its first mention and mentions
are read from the columns, and the ``Post`` objects materialise only
when a caller reads ``posts``.  The fault and resilient layers truncate,
corrupt and heal either shape (:mod:`repro.api.faults`,
:mod:`repro.api.resilient`).

One further shortcut: on a clean simulated stack a query context may
answer first-mention lookups from the store's columns without asking for
the page at all — see :mod:`repro.api.fastpath`.  It is an
implementation detail of the simulator, charged and traced identically
to a real ``user_timeline`` call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.platform.posts import Post
from repro.platform.users import Gender


@dataclass(frozen=True)
class SearchHit:
    """One search result: who posted the matching post, and when."""

    user_id: int
    post_id: int
    timestamp: float


@dataclass(frozen=True)
class ProfileView:
    """Profile fields as exposed by the platform's API."""

    user_id: int
    display_name: str
    followers: int
    gender: Optional[Gender]
    age: Optional[int]


@dataclass(frozen=True, eq=False)
class TimelineView:
    """A user's retrievable timeline (most recent ``cap`` posts) + profile.

    ``truncated`` is True when the platform's cap hid older posts — the
    source of the small first-mention error the paper argues is negligible
    (§2, "only a very small fraction of extremely prolific users") — or
    when a cut-short transfer delivered only a prefix of the page.

    Two views are equal when profile, posts and flag are, whatever their
    shape (a :class:`RowTimelineView` equals the ``Post``-tuple view of
    the same posts).
    """

    profile: ProfileView
    posts: Tuple[Post, ...]
    truncated: bool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimelineView):
            return NotImplemented
        return (self.profile, self.truncated, self.posts) == (
            other.profile, other.truncated, other.posts
        )

    def __hash__(self) -> int:
        return hash((self.profile, self.truncated, self.posts))

    @property
    def post_count(self) -> int:
        """Posts on the page (what the timeline fetch is priced by)."""
        return len(self.posts)

    def head(self, stop: int) -> "TimelineView":
        """The oldest *stop* posts, flagged ``truncated``: the delivered
        part of a cut-short transfer, or a probe's window."""
        return TimelineView(profile=self.profile, posts=self.posts[:stop], truncated=True)

    def mentions(self, keyword: str, start: float = float("-inf"), end: float = float("inf")) -> List[Post]:
        """Posts in the view that mention *keyword* inside ``[start, end)``."""
        needle = keyword.lower()
        return [p for p in self.posts if needle in p.keywords and start <= p.timestamp < end]

    def first_mention_time(self, keyword: str) -> Optional[float]:
        """Earliest *visible* mention of *keyword* (None if none visible)."""
        needle = keyword.lower()
        for post in self.posts:  # posts are oldest-first
            if needle in post.keywords:
                return post.timestamp
        return None


class RowTimelineView(TimelineView):
    """A :class:`TimelineView` held as rows of a frozen store's columns.

    ``rows`` indexes the store's post columns, oldest first — for a clean
    page the capped window ``timeline_rows(u)[-cap:]``; the fault layer
    serves a prefix of it or repeats a row index, and the resilient layer
    dedupes on it.  :meth:`first_mention_time` and :meth:`mentions` read
    the keyword and time columns over the rows; ``posts`` materialises
    the ``Post`` tuple on first read and keeps it on the page (never in
    the store's timeline cache).  Answers equal those of the
    ``Post``-tuple view of the same rows.  Treat ``rows`` as immutable.

    *profile* is the page's :class:`ProfileView`, or a zero-argument
    callable that builds it on first read (most pages are read for a
    first mention only).

    ``dataclasses.replace(page, ...)`` works as on any
    :class:`TimelineView` and returns a ``Post``-tuple view: it rebuilds
    the page from the dataclass fields (profile, posts, truncated), which
    :meth:`__new__` hands to :class:`TimelineView`.  :meth:`with_rows`
    and :meth:`head` keep the row shape.
    """

    def __new__(cls, *args: Any, **fields: Any) -> TimelineView:
        if "posts" in fields:  # dataclasses.replace
            return TimelineView(**fields)
        return object.__new__(cls)

    def __init__(self, profile: Any, store: Any, rows: Any, truncated: bool) -> None:
        # Frozen-dataclass fields: write the instance dict directly, as
        # object.__setattr__ would, at a fraction of the cost.
        fields = self.__dict__
        fields["_profile"] = profile
        fields["truncated"] = truncated
        fields["store"] = store
        fields["rows"] = rows
        fields["_posts"] = None

    @property
    def profile(self) -> ProfileView:  # type: ignore[override]
        profile = self._profile
        if not isinstance(profile, ProfileView):
            profile = self.__dict__["_profile"] = profile()
        return profile

    @property
    def posts(self) -> Tuple[Post, ...]:  # type: ignore[override]
        posts = self._posts
        if posts is None:
            posts = self.store.materialize_rows(self.rows) if self.rows.shape[0] else ()
            self.__dict__["_posts"] = posts
        return posts

    @property
    def post_count(self) -> int:
        return int(self.rows.shape[0])

    def with_rows(self, rows: Any, truncated: Optional[bool] = None) -> "RowTimelineView":
        """The same page over other *rows* (same profile; same flag
        unless *truncated* is given)."""
        return RowTimelineView(
            self._profile, self.store, rows, self.truncated if truncated is None else truncated
        )

    def head(self, stop: int) -> "RowTimelineView":
        return self.with_rows(self.rows[:stop], truncated=True)

    def mentions(self, keyword: str, start: float = float("-inf"), end: float = float("inf")) -> List[Post]:
        return list(self.store.mentions_in_rows(self.rows, keyword, start, end))

    def first_mention_time(self, keyword: str) -> Optional[float]:
        return self.store.first_mention_in_rows(self.rows, keyword)


@dataclass(frozen=True)
class TimelinePage:
    """One page of a paginated timeline fetch."""

    posts: Tuple[Post, ...]
    profile: ProfileView
    next_cursor: Optional[int]


@dataclass(frozen=True)
class ConnectionsPage:
    """One page of a paginated connections fetch."""

    user_ids: Tuple[int, ...]
    next_cursor: Optional[int]


class MicroblogAPI(abc.ABC):
    """The three-query data-access model of §2."""

    @abc.abstractmethod
    def search(self, keyword: str, max_results: Optional[int] = None) -> Sequence[SearchHit]:
        """Recent posts mentioning *keyword* (recency-window limited).

        Implementations may return an immutable sequence; callers must not
        mutate the result.
        """

    @abc.abstractmethod
    def user_connections(self, user_id: int) -> Sequence[int]:
        """All users connected with *user_id*, ascending (paginated
        internally).  Implementations may return an immutable sequence;
        callers must not mutate the result."""

    @abc.abstractmethod
    def user_timeline(self, user_id: int) -> TimelineView:
        """Profile plus the user's retrievable posts (paginated internally)."""
