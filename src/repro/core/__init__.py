"""MICROBLOG-ANALYZER: the paper's primary contribution.

Public surface:

* :mod:`repro.core.query` — aggregate queries (§2's problem definition);
* :mod:`repro.core.levels` — level assignment and the intra/adjacent/cross
  edge taxonomy (§4.2.1);
* :mod:`repro.core.graph_builder` — GRAPH-BUILDER: neighbor oracles for the
  social, term-induced and level-by-level graphs, built on the fly over the
  restricted API (§3, §4);
* :mod:`repro.core.interval` — pilot-walk time-interval selection (§4.2.3);
* :mod:`repro.core.srw` — MA-SRW (Algorithm 1);
* :mod:`repro.core.tarw` — MA-TARW: topology-aware random walk with
  unbiased selection-probability estimation (Algorithms 2–3, §5);
* :mod:`repro.core.mr` — the mark-and-recapture COUNT baseline (M&R);
* :mod:`repro.core.analyzer` — the MICROBLOG-ANALYZER facade (§3.1).
"""

from repro.core.query import (
    Aggregate,
    AggregateQuery,
    Measure,
    UserView,
    CONSTANT_ONE,
    DISPLAY_NAME_LENGTH,
    FOLLOWERS,
    MATCHING_POST_COUNT,
    MEAN_LIKES,
    gender_is,
)
from repro.core.results import EstimateResult
from repro.core.levels import EdgeKind, LevelIndex, classify_edge
from repro.core.graph_builder import (
    LevelByLevelOracle,
    SocialGraphOracle,
    TermInducedOracle,
)
from repro.core.interval import IntervalSelection, select_time_interval, DEFAULT_CANDIDATE_INTERVALS
from repro.core.srw import MASRWEstimator, SRWConfig
from repro.core.tarw import MATARWEstimator, TARWConfig
from repro.core.mr import MarkRecaptureEstimator, MRConfig
from repro.core.confidence import ConfidenceResult, combine_replicates, t_quantile
from repro.core.sql import parse_query
from repro.core.analyzer import MicroblogAnalyzer

__all__ = [
    "Aggregate",
    "AggregateQuery",
    "Measure",
    "UserView",
    "CONSTANT_ONE",
    "FOLLOWERS",
    "DISPLAY_NAME_LENGTH",
    "MATCHING_POST_COUNT",
    "MEAN_LIKES",
    "gender_is",
    "EstimateResult",
    "EdgeKind",
    "LevelIndex",
    "classify_edge",
    "SocialGraphOracle",
    "TermInducedOracle",
    "LevelByLevelOracle",
    "IntervalSelection",
    "select_time_interval",
    "DEFAULT_CANDIDATE_INTERVALS",
    "MASRWEstimator",
    "SRWConfig",
    "MATARWEstimator",
    "TARWConfig",
    "MarkRecaptureEstimator",
    "MRConfig",
    "ConfidenceResult",
    "combine_replicates",
    "t_quantile",
    "parse_query",
    "MicroblogAnalyzer",
]
