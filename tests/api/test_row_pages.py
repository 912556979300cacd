"""Row pages: timeline pages held as column rows answer like ``Post`` tuples.

Over a frozen store the simulator serves a
:class:`~repro.api.interface.RowTimelineView` — the capped window of the
user's column rows — and the fault and resilient layers truncate,
corrupt and heal it on its rows.  These tests pin that every such page
answers ``posts``, ``first_mention_time`` and ``mentions`` exactly like
the ``Post``-tuple page the mutable legacy store serves for the same
data: clean, capped, truncated, duplicated and healed, with multi-keyword
posts in the timelines.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.client import SimulatedMicroblogClient
from repro.api.faults import FaultInjectingClient
from repro.api.interface import RowTimelineView, TimelineView
from repro.api.resilient import ResilientClient
from repro.platform.clock import SimulatedClock
from repro.platform.frozen import FrozenStore
from repro.platform.posts import Post, make_keywords
from repro.platform.simulator import PlatformConfig, SimulatedPlatform, build_platform
from tests.conftest import tiny_keywords

KEYWORDS = ("privacy", "boston", "absentword")
CAP = 3
MULTI_USERS = range(0, 60, 3)


@pytest.fixture(scope="module")
def twins():
    """(legacy, frozen) platforms over the same posts, some of them
    tagged with two keywords."""
    legacy = build_platform(
        PlatformConfig(
            num_users=300,
            keywords=tiny_keywords(),
            background_posts_mean=6.0,
            seed=11,
            data_plane="legacy",
        )
    )
    store = legacy.store
    for user_id in MULTI_USERS:
        timeline = store.timeline(user_id)
        when = timeline[len(timeline) // 2].timestamp if timeline else 1.0
        store.add_post(
            Post(
                store.new_post_id(), user_id, when,
                keywords=make_keywords("privacy", "boston"),
            )
        )
    frozen = SimulatedPlatform(
        config=legacy.config,
        store=FrozenStore.from_store(store),
        clock=SimulatedClock(legacy.clock.now()),
        cascades=legacy.cascades,
    )
    assert frozen.store.matching_extra_post_ids("boston").size
    return legacy, frozen


def _capped(platform, cap):
    return platform.with_profile(dataclasses.replace(platform.profile, timeline_cap=cap))


def _pages(twins, cap, user_id):
    legacy, frozen = (_capped(p, cap) for p in twins)
    tuple_page = SimulatedMicroblogClient(legacy).user_timeline(user_id)
    row_page = SimulatedMicroblogClient(frozen).user_timeline(user_id)
    assert type(tuple_page) is TimelineView
    assert isinstance(row_page, RowTimelineView)
    return tuple_page, row_page


def _same_answers(tuple_page, row_page):
    assert row_page.posts == tuple_page.posts
    assert row_page.post_count == tuple_page.post_count
    assert row_page.truncated == tuple_page.truncated
    assert row_page == tuple_page and tuple_page == row_page
    for keyword in KEYWORDS:
        assert row_page.first_mention_time(keyword) == tuple_page.first_mention_time(keyword)
        assert row_page.mentions(keyword) == tuple_page.mentions(keyword)
        times = [p.timestamp for p in tuple_page.posts]
        if times:
            middle = sorted(times)[len(times) // 2]
            assert row_page.mentions(keyword, start=middle) == tuple_page.mentions(
                keyword, start=middle
            )
            assert row_page.mentions(keyword, end=middle) == tuple_page.mentions(
                keyword, end=middle
            )


def _users(twins):
    legacy = twins[0]
    return [u for u in legacy.store.user_ids()[:90]]


@pytest.mark.parametrize("cap", [None, CAP], ids=["uncapped", "capped"])
def test_clean_pages_answer_alike(twins, cap):
    capped = 0
    for user_id in _users(twins):
        tuple_page, row_page = _pages(twins, cap, user_id)
        capped += row_page.truncated
        _same_answers(tuple_page, row_page)
    if cap is not None:
        assert capped  # some timelines really exceed the cap


def test_multi_keyword_post_matches_both_words(twins):
    user_id = MULTI_USERS[1]
    tuple_page, row_page = _pages(twins, None, user_id)
    multi = [p for p in row_page.posts if len(p.keywords) > 1]
    assert multi
    for keyword in ("privacy", "boston"):
        assert multi[0] in row_page.mentions(keyword)
    _same_answers(tuple_page, row_page)


@pytest.mark.parametrize("cap", [None, CAP], ids=["uncapped", "capped"])
def test_truncated_pages_answer_alike(twins, cap):
    for user_id in _users(twins):
        tuple_page, row_page = _pages(twins, cap, user_id)
        cut_tuple = FaultInjectingClient._truncate(tuple_page)
        cut_rows = FaultInjectingClient._truncate(row_page)
        assert isinstance(cut_rows, RowTimelineView)
        assert cut_rows.truncated and cut_rows.post_count == row_page.post_count // 2
        _same_answers(cut_tuple, cut_rows)


@pytest.mark.parametrize("cap", [None, CAP], ids=["uncapped", "capped"])
def test_duplicated_and_healed_pages_answer_alike(twins, cap):
    heal = ResilientClient._heal
    for user_id in _users(twins):
        tuple_page, row_page = _pages(twins, cap, user_id)
        assert heal("timeline", row_page) is row_page  # clean: untouched
        bad_tuple = FaultInjectingClient._corrupt(tuple_page)
        bad_rows = FaultInjectingClient._corrupt(row_page)
        assert isinstance(bad_rows, RowTimelineView)
        _same_answers(bad_tuple, bad_rows)  # the repeated row sits alike
        healed = heal("timeline", bad_rows)
        assert isinstance(healed, RowTimelineView)
        assert np.array_equal(healed.rows, row_page.rows)
        _same_answers(heal("timeline", bad_tuple), healed)
        _same_answers(tuple_page, healed)


def test_heal_dedupes_rows_stably(twins):
    """Any repeated rows heal to their first occurrences, in order —
    the ``Post``-tuple dedupe on the same page."""
    user_id = next(
        u for u in _users(twins) if _pages(twins, None, u)[1].post_count >= 3
    )
    tuple_page, row_page = _pages(twins, None, user_id)
    rows = row_page.rows
    doubled_rows = row_page.with_rows(np.concatenate([rows[1:2], rows, rows[:1]]))
    posts = tuple_page.posts
    doubled_posts = TimelineView(
        profile=tuple_page.profile, posts=posts[1:2] + posts + posts[:1],
        truncated=tuple_page.truncated,
    )
    healed_rows = ResilientClient._heal("timeline", doubled_rows)
    healed_posts = ResilientClient._heal("timeline", doubled_posts)
    assert healed_rows.posts == posts[1:2] + posts[:1] + posts[2:]
    _same_answers(healed_posts, healed_rows)


def test_row_pages_leave_the_timeline_cache_empty(twins):
    """Serving, faulting and healing row pages materialises no ``Post``
    into the store's timeline cache; reading ``posts`` keeps them on the
    page."""
    frozen = twins[1]
    store = frozen.store
    store.drop_caches()
    client = SimulatedMicroblogClient(frozen)
    page = client.user_timeline(MULTI_USERS[2])
    FaultInjectingClient._truncate(page).first_mention_time("privacy")
    ResilientClient._heal("timeline", FaultInjectingClient._corrupt(page))
    assert page.posts is page.posts  # materialised once, kept on the page
    assert store._tl_cache == {}


def test_dataclasses_replace_copies_a_row_page(twins):
    """``dataclasses.replace`` works on a served row page as on any
    ``TimelineView``: the copy is a ``Post``-tuple view with the changed
    fields and the page's other answers."""
    tuple_page, row_page = _pages(twins, CAP, MULTI_USERS[1])
    same = dataclasses.replace(row_page)
    assert type(same) is TimelineView
    _same_answers(tuple_page, same)
    flagged = dataclasses.replace(row_page, truncated=True)
    assert flagged.truncated and flagged.posts == row_page.posts
    posts = row_page.posts
    doubled = dataclasses.replace(row_page, posts=posts + posts[:1])
    assert doubled.posts == posts + posts[:1]
    assert doubled.profile == row_page.profile
    assert ResilientClient._heal("timeline", doubled).posts == posts
