"""Every mechanism the paper describes fires in a bundled scenario, or is
listed with the ROADMAP item that will make it fire.

The scenarios are the bundled configs (``configs/*.json`` other than the
cost profile), run at 20 tasks x 5 repeats and seed 7, each at its shipped
``planner.p_corrupt`` and at 0.3: the ten runs the golden tests pin. A
mechanism is counted by wrapping, with ``monkeypatch``, the function the
engine calls when it fires:

- each trigger branch, from the decision ``engine.decide`` returns;
- ``refinement``, when ``engine.needs_refinement`` returns True;
- ``idle_decay``, when ``needs_refinement`` is asked about a method whose
  last use is before the current cycle, so that ``utility`` decays it;
- ``validation_failure``, when ``learner.validate`` does not pass;
- ``plan_with_feedback``, when the planner's ``plan`` is given feedback.

``MECHANISMS`` names, for each reached mechanism, one scenario that fires
it; its count there must be above 0. ``UNREACHED`` names the item that will
reach each of the others; its count over all ten runs must still be 0. A
change that makes one fire moves it from ``UNREACHED`` to ``MECHANISMS``,
and one that stops one firing fails.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from reuseloop import engine, learner
from reuseloop.config import RunConfig, build_corpus, build_planner, resolve_executor
from reuseloop.engine import run_loop
from reuseloop.errors import parse_json, read_dataclass
from reuseloop.library import MethodLibrary
from reuseloop.planner import MockPlanner
from reuseloop.trigger import (
    LEARN_LOW_CONFIDENCE, LEARN_OBSERVATION, LEARN_UNCOVERED, NO_ACTION, REUSE,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RUN_CONFIGS = ("self_always_llm", "self_library_only", "self_proposed", "observation_only",
               "proposed_observation")
P_CORRUPTS = (None, 0.3)  # None: the config's shipped planner.p_corrupt

MECHANISMS = {
    "reuse": ("self_proposed", None),
    "learn_uncovered": ("self_proposed", None),
    "learn_observation": ("proposed_observation", None),
    "validation_failure": ("self_proposed", 0.3),
}

UNREACHED = {
    "learn_low_confidence": "item 6: drifted tasks fail reuses until confidence is below tau_q",
    "refinement": "item 6: the same drifting workload",
    "idle_decay": "items 6 and 21: utility is computed after update_reliability, so idle is 0",
    "plan_with_feedback": "item 3: a self event that fails validation replans with feedback",
    "no_action": "item 22: the corpus never builds a failed or a covered observation",
}


def _run(name: str, p_corrupt: float | None) -> Counter:
    """The mechanism counts of one bundled run."""
    counts: Counter = Counter()
    decide, needs_refinement = engine.decide, engine.needs_refinement
    validate, plan = learner.validate, MockPlanner.plan

    def counting_decide(found, thresholds, observed=None):
        decision = decide(found, thresholds, observed)
        counts[decision.branch] += 1
        return decision

    def counting_needs_refinement(method, current_cycle, tau_u):
        counts["idle_decay"] += current_cycle > method.reliability.last_used_cycle
        refine = needs_refinement(method, current_cycle, tau_u)
        counts["refinement"] += refine
        return refine

    def counting_validate(candidate, executed, update_criteria):
        candidate = validate(candidate, executed, update_criteria)
        counts["validation_failure"] += not candidate.passed
        return candidate

    def counting_plan(self, task, outcome=None):
        counts["plan_with_feedback"] += outcome is not None
        return plan(self, task, outcome)

    doc = parse_json((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    if p_corrupt is not None:
        doc.setdefault("planner", {})["p_corrupt"] = p_corrupt
    config = read_dataclass(RunConfig, doc)
    events = build_corpus(config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "decide", counting_decide)
        mp.setattr(engine, "needs_refinement", counting_needs_refinement)
        mp.setattr(learner, "validate", counting_validate)
        mp.setattr(MockPlanner, "plan", counting_plan)
        run_loop(events, config.mode, MethodLibrary(), build_planner(config), config.thresholds,
                 resolve_executor(config, events))
    return counts


@pytest.fixture(scope="module")
def counts() -> dict[tuple[str, float | None], Counter]:
    return {(name, p): _run(name, p) for name in RUN_CONFIGS for p in P_CORRUPTS}


def test_the_lists_name_every_branch_once():
    assert not MECHANISMS.keys() & UNREACHED.keys()
    branches = {REUSE, LEARN_UNCOVERED, LEARN_LOW_CONFIDENCE, LEARN_OBSERVATION, NO_ACTION}
    assert branches <= MECHANISMS.keys() | UNREACHED.keys()
    assert all(scenario in {(n, p) for n in RUN_CONFIGS for p in P_CORRUPTS}
               for scenario in MECHANISMS.values())
    assert all(reason.strip() for reason in UNREACHED.values())


def test_the_scenarios_are_the_bundled_configs():
    bundled = {path.stem for path in CONFIGS.glob("*.json")} - {"cost_profile"}
    assert bundled == set(RUN_CONFIGS)


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_mechanism_fires_in_its_scenario(mechanism, counts):
    assert counts[MECHANISMS[mechanism]][mechanism] > 0


@pytest.mark.parametrize("mechanism", sorted(UNREACHED))
def test_unreached_mechanism_fires_nowhere(mechanism, counts):
    fired = {scenario: c[mechanism] for scenario, c in counts.items() if c[mechanism]}
    assert fired == {}
