"""Tests for QueryContext and the three neighbor oracles."""

import pytest

from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.core.graph_builder import (
    LevelByLevelOracle,
    QueryContext,
    SocialGraphOracle,
    TermInducedOracle,
)
from repro.core.levels import LevelIndex
from repro.core.query import avg_of, count_users, FOLLOWERS
from repro.errors import EstimationError
from repro.platform.clock import DAY


@pytest.fixture()
def context(tiny_platform):
    client = CachingClient(SimulatedMicroblogClient(tiny_platform))
    return QueryContext(client, count_users("privacy"))


class TestQueryContext:
    def test_first_mention_matches_store(self, tiny_platform, context):
        store = tiny_platform.store
        matcher = store.users_mentioning("privacy")[0]
        assert context.first_mention(matcher) == store.first_mention_time("privacy", matcher)
        non_matcher = next(
            u for u in store.user_ids() if store.first_mention_time("privacy", u) is None
        )
        assert context.first_mention(non_matcher) is None
        assert not context.matches_keyword(non_matcher)

    def test_user_view_and_f_value(self, tiny_platform, context):
        matcher = tiny_platform.store.users_mentioning("privacy")[0]
        view = context.user_view(matcher)
        assert view.matching_posts
        assert context.condition_matches(matcher)
        assert context.f_value(matcher) == 1.0  # COUNT measure

    def test_f_value_zero_for_nonmatching(self, tiny_platform, context):
        store = tiny_platform.store
        non_matcher = next(
            u for u in store.user_ids() if store.first_mention_time("privacy", u) is None
        )
        assert context.f_value(non_matcher) == 0.0

    def test_seeds_are_recent_posters(self, tiny_platform, context):
        seeds = context.seeds()
        now = tiny_platform.now
        recent = set(tiny_platform.store.users_mentioning("privacy", now - 7 * DAY, now))
        assert set(seeds) == recent

    def test_seeds_cap(self, tiny_platform, context):
        seeds = context.seeds(max_seeds=2)
        assert len(seeds) <= 2

    def test_no_seeds_raises(self, tiny_platform):
        client = CachingClient(SimulatedMicroblogClient(tiny_platform))
        context = QueryContext(client, count_users("zebra-unicorn"))
        with pytest.raises(EstimationError):
            context.seeds()


class TestOracles:
    def test_social_oracle_is_full_neighborhood(self, tiny_platform, context):
        oracle = SocialGraphOracle(context)
        user = tiny_platform.store.user_ids()[10]
        assert set(oracle.neighbors(user)) == set(
            tiny_platform.graph.neighbors_unsafe(user)
        )
        assert oracle.degree(user) == tiny_platform.graph.degree(user)

    def test_term_oracle_filters_to_matchers(self, tiny_platform, context):
        oracle = TermInducedOracle(context)
        store = tiny_platform.store
        matcher = store.users_mentioning("privacy")[0]
        for neighbor in oracle.neighbors(matcher):
            assert store.first_mention_time("privacy", neighbor) is not None
        assert oracle.degree(matcher) <= tiny_platform.graph.degree(matcher)

    def test_level_oracle_drops_same_level_neighbors(self, tiny_platform, context):
        index = LevelIndex(interval=DAY)
        oracle = LevelByLevelOracle(context, index)
        store = tiny_platform.store
        matcher = store.users_mentioning("privacy")[0]
        own_level = oracle.level_of(matcher)
        for neighbor in oracle.neighbors(matcher):
            assert oracle.level_of(neighbor) != own_level

    def test_level_oracle_up_down_partition(self, tiny_platform, context):
        index = LevelIndex(interval=DAY)
        oracle = LevelByLevelOracle(context, index)
        matcher = tiny_platform.store.users_mentioning("privacy")[0]
        ups = set(oracle.up_neighbors(matcher))
        downs = set(oracle.down_neighbors(matcher))
        own_level = oracle.level_of(matcher)
        assert not (ups & downs)
        assert ups | downs == set(oracle.neighbors(matcher))
        assert all(oracle.level_of(v) < own_level for v in ups)
        assert all(oracle.level_of(v) > own_level for v in downs)

    def test_level_oracle_nonmatcher_has_no_neighbors(self, tiny_platform, context):
        index = LevelIndex(interval=DAY)
        oracle = LevelByLevelOracle(context, index)
        store = tiny_platform.store
        non_matcher = next(
            u for u in store.user_ids() if store.first_mention_time("privacy", u) is None
        )
        assert oracle.neighbors(non_matcher) == []
        assert oracle.level_of(non_matcher) is None

    def test_keep_intra_fraction_adds_back_edges(self, tiny_platform, context):
        index = LevelIndex(interval=DAY)
        none_kept = LevelByLevelOracle(context, index, keep_intra_fraction=0.0)
        all_kept = LevelByLevelOracle(context, index, keep_intra_fraction=1.0)
        term = TermInducedOracle(context)
        # over the first few matchers, keeping all intra edges recovers the
        # full term-induced neighborhood
        for user in tiny_platform.store.users_mentioning("privacy")[:5]:
            assert set(all_kept.neighbors(user)) == set(term.neighbors(user))
            assert set(none_kept.neighbors(user)) <= set(all_kept.neighbors(user))

    def test_keep_intra_decision_symmetric(self, tiny_platform, context):
        index = LevelIndex(interval=DAY)
        oracle = LevelByLevelOracle(context, index, keep_intra_fraction=0.5, edge_seed=3)
        store = tiny_platform.store
        matchers = store.users_mentioning("privacy")
        for u in matchers[:10]:
            for v in oracle.neighbors(u):
                assert u in oracle.neighbors(v), "edge kept from one side only"

    def test_invalid_keep_fraction(self, tiny_platform, context):
        index = LevelIndex(interval=DAY)
        with pytest.raises(EstimationError):
            LevelByLevelOracle(context, index, keep_intra_fraction=-0.1)

    def test_caching_avoids_double_cost(self, tiny_platform):
        client = CachingClient(SimulatedMicroblogClient(tiny_platform))
        context = QueryContext(client, count_users("privacy"))
        oracle = TermInducedOracle(context)
        matcher = tiny_platform.store.users_mentioning("privacy")[0]
        oracle.neighbors(matcher)
        cost = client.total_cost
        oracle.neighbors(matcher)
        assert client.total_cost == cost


class _PartialOnceClient:
    """Serves each user's first connections page cut in half and flagged
    degraded, as ``ResilientClient`` serves a truncated transfer's partial
    page once its retries are exhausted; later pages come back whole."""

    def __init__(self, inner):
        self.inner = inner
        self.meter = inner.meter
        self.last_response_degraded = False
        self._served = set()

    def user_connections(self, user_id):
        page = tuple(self.inner.user_connections(user_id))
        self.last_response_degraded = user_id not in self._served
        self._served.add(user_id)
        return page[: len(page) // 2] if self.last_response_degraded else page

    def user_timeline(self, user_id):
        self.last_response_degraded = False
        return self.inner.user_timeline(user_id)


@pytest.mark.parametrize(
    "make_oracle",
    [
        SocialGraphOracle,
        TermInducedOracle,
        lambda context: LevelByLevelOracle(context, LevelIndex(interval=DAY)),
    ],
    ids=["social", "term-induced", "level-by-level"],
)
def test_degraded_connections_page_is_not_memoised(tiny_platform, make_oracle):
    client = CachingClient(_PartialOnceClient(SimulatedMicroblogClient(tiny_platform)))
    oracle = make_oracle(QueryContext(client, count_users("privacy")))
    matchers = tiny_platform.store.users_mentioning("privacy")
    user = max(matchers, key=tiny_platform.graph.degree)

    partial = oracle.neighbors(user)  # answers this step from the half page
    assert client.uncacheable == 1
    assert user not in getattr(oracle, "classified_nodes", lambda: ())()
    whole = oracle.neighbors(user)  # looked at again: the whole page
    assert set(partial) < set(whole)
    cost = client.total_cost
    assert oracle.neighbors(user) == whole  # memoised from now on
    assert client.total_cost == cost
    assert client.uncacheable == 1
