"""Tests for the end-to-end platform builder."""

import pytest

from repro.errors import PlatformError
from repro.platform.profiles import GOOGLE_PLUS, TWITTER
from repro.platform.simulator import PlatformConfig, build_platform
from tests.conftest import tiny_keywords


def test_config_validation():
    with pytest.raises(PlatformError):
        PlatformConfig(num_users=1)
    with pytest.raises(PlatformError):
        PlatformConfig(graph_model="nonsense")
    with pytest.raises(PlatformError):
        PlatformConfig(horizon_days=0)
    with pytest.raises(PlatformError):
        PlatformConfig(background_posts_mean=-1)
    with pytest.raises(PlatformError):
        PlatformConfig(data_plane="baseline")
    with pytest.raises(PlatformError):
        PlatformConfig(build_chunk_rows=0)


def test_build_is_deterministic():
    config = PlatformConfig(num_users=800, keywords=tiny_keywords(), seed=4)
    a = build_platform(config)
    b = build_platform(config)
    assert sorted(a.graph.edges()) == sorted(b.graph.edges())
    assert a.store.num_posts == b.store.num_posts
    for keyword in a.cascades:
        assert a.cascades[keyword].adoption_times == b.cascades[keyword].adoption_times


def test_platform_shape(tiny_platform):
    platform = tiny_platform
    assert platform.store.num_users == platform.config.num_users
    assert platform.graph.num_edges > 0
    assert platform.now == platform.config.horizon
    # cascades landed between a few % and a few tens of % of users
    for result in platform.cascades.values():
        fraction = result.num_adopters / platform.config.num_users
        assert 0.005 < fraction < 0.6


def test_follower_counts_match_degrees(tiny_platform):
    store = tiny_platform.store
    for user_id in list(store.user_ids())[:100]:
        assert store.profile(user_id).followers == store.graph.degree(user_id)


def test_alternate_graph_models():
    for model, params in (
        ("barabasi_albert", {"m": 3}),
        ("watts_strogatz", {"k": 6, "p": 0.1}),
        ("erdos_renyi", {"p": 0.01}),
    ):
        config = PlatformConfig(
            num_users=300, graph_model=model, graph_params=params,
            keywords=tiny_keywords(), seed=2,
        )
        platform = build_platform(config)
        assert platform.graph.num_nodes == 300


def test_with_profile_shares_data(tiny_platform):
    gplus = tiny_platform.with_profile(GOOGLE_PLUS)
    assert gplus.store is tiny_platform.store
    assert gplus.profile == GOOGLE_PLUS
    assert tiny_platform.profile == TWITTER
    assert gplus.now == tiny_platform.now


def test_background_posts_have_no_keywords():
    config = PlatformConfig(num_users=200, keywords=[], background_posts_mean=4.0, seed=6)
    platform = build_platform(config)
    assert platform.store.num_posts > 0
    assert all(not post.keywords for post in platform.store.all_posts())
