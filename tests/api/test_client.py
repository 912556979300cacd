"""Tests for the simulated API client and the caching wrapper."""

import dataclasses

import pytest

from repro.api import accounting
from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.errors import APIError, BudgetExhaustedError
from repro.platform.clock import DAY
from repro.platform.profiles import GOOGLE_PLUS


class TestSearch:
    def test_results_within_window_newest_first(self, tiny_platform):
        client = SimulatedMicroblogClient(tiny_platform)
        hits = client.search("privacy")
        window_start = tiny_platform.now - tiny_platform.profile.search_window
        assert hits, "fixture keyword should have recent posts"
        assert all(hit.timestamp >= window_start for hit in hits)
        times = [hit.timestamp for hit in hits]
        assert times == sorted(times, reverse=True)

    def test_old_posts_invisible_to_search(self, tiny_platform):
        client = SimulatedMicroblogClient(tiny_platform)
        hits = client.search("privacy")
        store_total = len(list(tiny_platform.store.keyword_posts("privacy")))
        assert len(hits) < store_total  # most mentions are older than a week

    def test_max_results_truncates(self, tiny_platform):
        client = SimulatedMicroblogClient(tiny_platform)
        assert len(client.search("privacy", max_results=3)) <= 3

    def test_search_cost_is_page_count(self, tiny_platform):
        client = SimulatedMicroblogClient(tiny_platform)
        hits = client.search("privacy")
        pages = tiny_platform.profile.calls_for_items(
            len(hits), tiny_platform.profile.search_page_size
        )
        assert client.meter.by_kind()[accounting.SEARCH] == pages

    def test_empty_search_still_costs_one_call(self, tiny_platform):
        client = SimulatedMicroblogClient(tiny_platform)
        assert client.search("no-such-keyword") == []
        assert client.meter.by_kind()[accounting.SEARCH] == 1


class TestTimeline:
    def test_timeline_contents_and_profile(self, tiny_platform):
        store = tiny_platform.store
        user_id = store.users_mentioning("privacy")[0]
        client = SimulatedMicroblogClient(tiny_platform)
        view = client.user_timeline(user_id)
        assert view.profile.user_id == user_id
        assert len(view.posts) == store.timeline_length(user_id)
        assert view.first_mention_time("privacy") == store.first_mention_time(
            "privacy", user_id
        )

    def test_gender_hidden_on_twitter(self, tiny_platform):
        user_id = tiny_platform.store.user_ids()[0]
        client = SimulatedMicroblogClient(tiny_platform)
        assert client.user_timeline(user_id).profile.gender is None

    def test_gender_visible_on_google_plus(self, tiny_platform):
        gplus = tiny_platform.with_profile(GOOGLE_PLUS)
        user_id = gplus.store.user_ids()[0]
        client = SimulatedMicroblogClient(gplus)
        view = client.user_timeline(user_id)
        assert view.profile.gender == gplus.store.profile(user_id).gender

    def test_unknown_user_raises(self, tiny_platform):
        client = SimulatedMicroblogClient(tiny_platform)
        with pytest.raises(APIError):
            client.user_timeline(10**9)


class TestConnections:
    def test_connections_match_graph(self, tiny_platform):
        user_id = tiny_platform.store.user_ids()[5]
        client = SimulatedMicroblogClient(tiny_platform)
        assert set(client.user_connections(user_id)) == set(
            tiny_platform.graph.neighbors_unsafe(user_id)
        )

    def test_pagination_cost_on_google_plus(self, tiny_platform):
        gplus = tiny_platform.with_profile(GOOGLE_PLUS)
        # pick a user with degree above one Google+ page (100)
        user_id = max(gplus.store.user_ids(), key=gplus.graph.degree)
        degree = gplus.graph.degree(user_id)
        if degree <= GOOGLE_PLUS.connections_page_size:
            pytest.skip("fixture graph has no user above one page")
        client = SimulatedMicroblogClient(gplus)
        client.user_connections(user_id)
        expected = GOOGLE_PLUS.calls_for_items(degree, GOOGLE_PLUS.connections_page_size)
        assert client.meter.by_kind()[accounting.CONNECTIONS] == expected


class TestBudgetAndClock:
    def test_budget_exhaustion(self, tiny_platform):
        client = SimulatedMicroblogClient(tiny_platform, budget=2)
        client.search("privacy", max_results=5)
        with pytest.raises(BudgetExhaustedError):
            for user_id in tiny_platform.store.user_ids():
                client.user_timeline(user_id)

    def test_private_clock_does_not_touch_platform(self, tiny_platform):
        before = tiny_platform.clock.now()
        client = SimulatedMicroblogClient(tiny_platform)
        # burn several rate windows
        for user_id in tiny_platform.store.user_ids()[:300]:
            client.user_timeline(user_id)
        assert tiny_platform.clock.now() == before
        assert client.simulated_wait >= 0.0


class TestCachingClient:
    def test_repeat_requests_free(self, tiny_platform):
        client = CachingClient(SimulatedMicroblogClient(tiny_platform))
        user_id = tiny_platform.store.user_ids()[0]
        client.user_timeline(user_id)
        cost_after_first = client.total_cost
        client.user_timeline(user_id)
        client.user_timeline(user_id)
        assert client.total_cost == cost_after_first
        assert client.hits == 2

    def test_search_cached_by_args(self, tiny_platform):
        client = CachingClient(SimulatedMicroblogClient(tiny_platform))
        client.search("privacy")
        cost = client.total_cost
        client.search("privacy")
        assert client.total_cost == cost
        client.search("privacy", max_results=1)  # different key -> new call
        assert client.total_cost > cost

    def test_cached_responses_are_immutable_and_shared(self, tiny_platform):
        client = CachingClient(SimulatedMicroblogClient(tiny_platform))
        user_id = tiny_platform.store.user_ids()[3]
        first = client.user_connections(user_id)
        assert isinstance(first, tuple)  # callers cannot corrupt the cache
        # hits serve the exact cached object back — no per-request copy
        assert client.user_connections(user_id) is first
        hits = client.search("privacy")
        assert isinstance(hits, tuple)
        assert client.search("privacy") is hits


class TestSearchResultsCap:
    def test_top_k_cap_truncates(self, tiny_platform):
        import dataclasses

        capped_profile = dataclasses.replace(
            tiny_platform.profile, search_results_cap=2
        )
        capped = tiny_platform.with_profile(capped_profile)
        client = SimulatedMicroblogClient(capped)
        hits = client.search("privacy")
        assert len(hits) <= 2
        # and the survivors are the newest posts
        uncapped = SimulatedMicroblogClient(tiny_platform).search("privacy")
        assert [h.post_id for h in hits] == [h.post_id for h in uncapped[:len(hits)]]


# ----------------------------------------------------------------------
# admission: the headroom gate against the full pricing rule
# ----------------------------------------------------------------------
def _priced_admit(client, key):
    """Admission with every request priced from lengths: the rule
    :meth:`SimulatedMicroblogClient.admit` followed before timeline
    requests were let through on headroom.  The oracle of the gate."""
    meter = client.meter
    if meter.budget is None:
        return
    kind, subject, extra = key
    store = client.platform.store
    if kind == accounting.SEARCH:
        calls = client._search_calls(len(client._search_hits(subject, extra)))
    elif not store.has_user(subject):
        return
    elif kind == accounting.TIMELINE:
        calls = client._timeline_calls(store.timeline_length(subject))
    else:
        calls = client._connections_calls(store.graph.degree(subject))
    meter.admit(calls)


def _outcome(admit, client, key):
    try:
        admit(client, key)
    except BudgetExhaustedError as err:
        return ("refused", err.spent, err.budget)
    return "admitted"


UNKNOWN_USER = 10**9


class TestHeadroomAdmission:
    """Timeline requests are admitted unpriced while the budget's headroom
    covers the dearest timeline (the ``timeline_cap`` price); at and below
    that edge admission refuses exactly what the full pricing refuses."""

    CAP, PAGE = 4, 2  # the dearest timeline costs 2 calls

    def _platform(self, tiny_platform, cap=CAP):
        profile = dataclasses.replace(
            tiny_platform.profile, timeline_cap=cap, timeline_page_size=self.PAGE
        )
        return tiny_platform.with_profile(profile)

    @staticmethod
    def _users(platform):
        """A user whose timeline fills the cap, one with a single post, one
        with none."""
        store = platform.store
        by_length = {}
        for user_id in store.user_ids():
            length = store.timeline_length(user_id)
            key = "long" if length >= 6 else length if length <= 1 else None
            if key is not None:
                by_length.setdefault(key, user_id)
        return by_length["long"], by_length[1], by_length[0]

    @staticmethod
    def _client(platform, budget, headroom):
        client = SimulatedMicroblogClient(platform, budget=budget)
        client.meter.charge(accounting.SEARCH, budget - headroom)
        return client

    def test_matches_the_full_pricing_on_every_edge(self, tiny_platform):
        budget = 50
        for cap in (self.CAP, None):
            platform = self._platform(tiny_platform, cap)
            long_user, short_user, silent_user = self._users(platform)
            keys = [
                (kind, user_id, None)
                for kind in (accounting.TIMELINE, accounting.CONNECTIONS)
                for user_id in (long_user, short_user, silent_user, UNKNOWN_USER)
            ] + [(accounting.SEARCH, "privacy", None), (accounting.SEARCH, "privacy", 1)]
            for headroom in range(6):
                client = self._client(platform, budget, headroom)
                for key in keys:
                    assert _outcome(SimulatedMicroblogClient.admit, client, key) == _outcome(
                        _priced_admit, client, key
                    ), (cap, headroom, key)

    def test_request_priced_at_the_headroom_is_admitted(self, tiny_platform):
        platform = self._platform(tiny_platform)
        long_user, _, _ = self._users(platform)
        ceiling = self.CAP // self.PAGE
        client = self._client(platform, 50, headroom=ceiling)
        client.admit((accounting.TIMELINE, long_user, None))
        client.user_timeline(long_user)  # and the charge agrees
        assert client.meter.remaining == 0

    def test_request_one_call_over_is_refused(self, tiny_platform):
        platform = self._platform(tiny_platform)
        long_user, _, _ = self._users(platform)
        ceiling = self.CAP // self.PAGE
        client = self._client(platform, 50, headroom=ceiling - 1)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            client.admit((accounting.TIMELINE, long_user, None))
        assert (excinfo.value.spent, excinfo.value.budget) == (50 - ceiling + 1, 50)
        with pytest.raises(BudgetExhaustedError):
            client.user_timeline(long_user)

    def test_unknown_users_are_admitted(self, tiny_platform):
        platform = self._platform(tiny_platform)
        for headroom in (0, self.CAP // self.PAGE):
            client = self._client(platform, 50, headroom)
            client.admit((accounting.TIMELINE, UNKNOWN_USER, None))
            client.admit((accounting.CONNECTIONS, UNKNOWN_USER, None))

    def test_headroom_skips_pricing_and_uncapped_timelines_are_priced(
        self, tiny_platform, monkeypatch
    ):
        def unpriced(posts):
            raise AssertionError("timeline priced despite headroom")

        long_user, _, _ = self._users(self._platform(tiny_platform))
        client = self._client(self._platform(tiny_platform), 50, headroom=2)
        monkeypatch.setattr(client, "_timeline_calls", unpriced)
        client.admit((accounting.TIMELINE, long_user, None))

        # No cap, no ceiling: a long timeline is priced even with room.
        uncapped = self._platform(tiny_platform, cap=None)
        price = -(-uncapped.store.timeline_length(long_user) // self.PAGE)
        assert price > 2
        client = self._client(uncapped, 50, headroom=price - 1)
        with pytest.raises(BudgetExhaustedError):
            client.admit((accounting.TIMELINE, long_user, None))
        self._client(uncapped, 50, headroom=price).admit(
            (accounting.TIMELINE, long_user, None)
        )
