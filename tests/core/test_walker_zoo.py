"""Walker-zoo conformance: every registered walker honors one contract.

Three layers of guarantees, in increasing cost:

* **Registry conformance** — each :class:`~repro.core.registry.WalkerSpec`
  points at a class implementing the Walker protocol, and its one-line
  summary appears verbatim in the estimator docstring *and* in
  ``docs/ALGORITHMS.md`` (docs and code cannot drift apart silently).
* **Behavioral contract** — every walker runs end-to-end through the
  analyzer on the tiny platform: respects the budget, produces a trace,
  reports its registry name.
* **Execution invariants for the new walkers** — worker-count invariance
  (mirroring ``test_parallel``) and hostile-fault bit-identity
  (mirroring ``test_resilience``) for rewired-srw / wnw / frontier.

The CLI drift test at the bottom asserts the flags the docs advertise
actually exist in the parser and that registry names reach
``--algorithm``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.api.accounting import RETRIES
from repro.api.faults import FAULT_PROFILES
from repro.core.analyzer import ALGORITHMS, MicroblogAnalyzer
from repro.core.query import count_users
from repro.core.registry import GRAPH_DESIGNS, get_walker, walker_names, walker_specs
from repro.core.walker import BaseWalker
from repro.errors import EstimationError

REPO_ROOT = Path(__file__).resolve().parents[2]
NEW_WALKERS = ("rewired-srw", "wnw", "frontier")
QUERY = count_users("privacy")
CONTRACT_BUDGET = 3_000
PARALLEL_BUDGET = 9_000


# ---------------------------------------------------------------- registry
def test_registry_is_the_analyzer_algorithm_list():
    assert ALGORITHMS == walker_names()
    assert set(NEW_WALKERS) <= set(ALGORITHMS)


@pytest.mark.parametrize("name", walker_names())
def test_spec_conforms_to_walker_protocol(name):
    spec = get_walker(name)
    assert spec.name == name == spec.estimator.algorithm
    assert issubclass(spec.estimator, BaseWalker)
    assert spec.parallel_kind in (None, "hh", "samples")
    assert spec.designs and set(spec.designs) <= set(GRAPH_DESIGNS)
    spec.config_cls()  # default config must be constructible
    assert callable(getattr(spec.estimator, "estimate"))
    assert callable(getattr(spec.estimator, "_estimate_serial"))


@pytest.mark.parametrize("name", walker_names())
def test_summary_matches_docstring_and_catalog(name):
    spec = get_walker(name)
    assert spec.summary.endswith(".")
    assert spec.summary in (spec.estimator.__doc__ or ""), (
        f"{spec.estimator.__name__} docstring must carry the registry "
        f"summary verbatim: {spec.summary!r}"
    )
    catalog = (REPO_ROOT / "docs" / "ALGORITHMS.md").read_text()
    assert spec.summary in catalog, (
        f"docs/ALGORITHMS.md must carry the registry summary for "
        f"{name!r} verbatim"
    )


def test_unknown_walker_and_design_are_rejected(tiny_platform):
    # ``crawl`` must stay unregistered: the BFS crawl is a bench-local helper.
    for name in ("no-such-walker", "crawl"):
        with pytest.raises(EstimationError):
            get_walker(name)
        with pytest.raises(EstimationError):
            MicroblogAnalyzer(tiny_platform, algorithm=name)
    with pytest.raises(EstimationError):
        MicroblogAnalyzer(tiny_platform, algorithm="ma-tarw", graph_design="social")


# ---------------------------------------------------------- behavioral contract
@pytest.mark.parametrize("name", walker_names())
def test_every_walker_runs_the_same_contract(tiny_platform, name):
    analyzer = MicroblogAnalyzer(tiny_platform, algorithm=name, seed=3)
    result = analyzer.estimate(QUERY, budget=CONTRACT_BUDGET)
    assert result.algorithm.startswith(name)
    assert result.cost_total <= CONTRACT_BUDGET
    assert result.trace, "every walker must emit at least the final trace point"
    assert result.trace[-1].cost == result.cost_total
    assert result.query is QUERY
    # Rerunning with the same seed is bit-identical (seeded RNG, no wall clock).
    again = MicroblogAnalyzer(tiny_platform, algorithm=name, seed=3).estimate(
        QUERY, budget=CONTRACT_BUDGET
    )
    assert again.value == result.value
    assert again.cost_total == result.cost_total


# ------------------------------------------------------ worker-count invariance
@pytest.mark.parametrize("name", NEW_WALKERS)
def test_new_walkers_are_worker_count_invariant(tiny_platform, name):
    def run(n_workers):
        analyzer = MicroblogAnalyzer(
            tiny_platform, algorithm=name, seed=5,
            n_workers=n_workers, executor="thread",
        )
        return analyzer.estimate(QUERY, budget=PARALLEL_BUDGET)

    one, three = run(1), run(3)
    assert one.value == three.value
    assert one.cost_total == three.cost_total
    assert one.cost_by_kind == three.cost_by_kind
    assert one.num_samples == three.num_samples
    assert [(p.cost, p.estimate) for p in one.trace] == [
        (p.cost, p.estimate) for p in three.trace
    ]
    assert one.walk_stats is not None and one.walk_stats.n_workers == 1
    assert three.walk_stats.n_workers == 3


# --------------------------------------------------------- fault bit-identity
@pytest.mark.chaos
@pytest.mark.parametrize("name", NEW_WALKERS)
def test_new_walkers_heal_hostile_faults_bit_identically(tiny_platform, name):
    def run(fault_plan=None):
        analyzer = MicroblogAnalyzer(
            tiny_platform, algorithm=name, seed=7, fault_plan=fault_plan
        )
        return analyzer.estimate(QUERY, budget=CONTRACT_BUDGET)

    clean = run()
    faulted = run(fault_plan=FAULT_PROFILES["hostile"])
    assert faulted.value == clean.value
    assert [(p.cost, p.estimate) for p in faulted.trace] == [
        (p.cost, p.estimate) for p in clean.trace
    ]
    clean_kinds = dict(faulted.cost_by_kind)
    retries = clean_kinds.pop(RETRIES, 0)
    assert clean_kinds == dict(clean.cost_by_kind)
    assert retries > 0, "the hostile profile must actually exercise the retries"
    assert RETRIES not in clean.cost_by_kind
    assert faulted.diagnostics.get("fault_restarts", 0.0) == 0.0


# ------------------------------------------------------------------ CLI drift
def _parser_options():
    import argparse

    from repro.cli import build_parser

    options = set()
    stack = [build_parser()]
    while stack:
        for action in stack.pop()._actions:
            options.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return options


def test_registry_names_reach_the_cli():
    from repro.cli import build_parser

    parser = build_parser()
    estimate = None
    for action in parser._actions:
        if getattr(action, "choices", None) and not action.option_strings:
            estimate = action.choices["estimate"]
    assert estimate is not None
    algorithm_action = next(
        a for a in estimate._actions if "--algorithm" in a.option_strings
    )
    assert tuple(algorithm_action.choices) == walker_names()


@pytest.mark.parametrize("doc", ["docs/API.md", "README.md"])
def test_documented_flags_exist_in_the_parser(doc):
    options = _parser_options()
    text = (REPO_ROOT / doc).read_text()
    documented = set(re.findall(r"(?<![\w-])(--[a-z][a-z-]+)\b", text))
    # Flags documented for other tools (pytest, pip, ...) are fenced off by
    # only scanning repro invocations' option spellings.
    unknown = {flag for flag in documented if flag not in options}
    # bench/pytest flags documented alongside repro's own, not parser options
    allowed = {"--quick", "--full", "--cov", "--benchmark-only"}
    assert unknown <= allowed, f"{doc} documents unknown flags: {sorted(unknown)}"


@pytest.mark.parametrize("doc", ["docs/ALGORITHMS.md", "README.md"])
def test_docs_name_every_registered_walker(doc):
    text = (REPO_ROOT / doc).read_text()
    for name in walker_names():
        assert name in text, f"{doc} must mention the registered walker {name!r}"
