from __future__ import annotations

import itertools

import pytest

from reuseloop.library import RetrievalResult, matching_score
from reuseloop.tasks import ObservedEvent
from reuseloop.trigger import (
    LEARN_LOW_CONFIDENCE,
    LEARN_OBSERVATION,
    LEARN_UNCOVERED,
    NO_ACTION,
    REUSE,
    TriggerDecision,
    TriggerThresholds,
    confidence,
    decide,
)

from conftest import make_method, make_task, method_for_task

THRESHOLDS = TriggerThresholds(tau_r=0.8, tau_q=0.5, tau_o=0.8, tau_u=0.3)


class TestConfidence:
    def test_fresh_method_on_exact_match(self, task):
        method = method_for_task(task, successes=0, attempts=0)
        assert confidence(method, matching_score(task, method)) == pytest.approx(0.5)

    def test_seasoned_method(self, task):
        method = method_for_task(task, successes=9, attempts=10)
        assert confidence(method, matching_score(task, method)) == pytest.approx(10 / 12)

    def test_zero_score_scales_to_zero(self, task):
        method = make_method(goal_tokens=("open", "door"), successes=9, attempts=10)
        assert confidence(method, matching_score(task, method)) == 0.0


def _retrieval(task, score, successes=1, attempts=1):
    """A RetrievalResult with a controlled score for branch testing."""
    if score >= 1.0:
        method = method_for_task(task, successes=successes, attempts=attempts)
    elif score >= 0.6:
        method = make_method(goal_tokens=("pick", "up", "blue", "cube"),
                             successes=successes, attempts=attempts)  # 3/5 = 0.6
    else:
        method = make_method(goal_tokens=("open", "door"),
                             successes=successes, attempts=attempts)  # 0.0
    return RetrievalResult(method=method, score=score, covered=score >= THRESHOLDS.tau_r)


class TestDecideExamples:
    def test_uncovered_task(self, task):
        retrieval = _retrieval(task, 0.5)
        decision = decide(retrieval, None, None, THRESHOLDS)
        assert decision.z and decision.branch == LEARN_UNCOVERED

    def test_low_confidence(self, task):
        # covered score but weak record: 1 success in 8 -> confidence 0.25
        retrieval = _retrieval(task, 1.0, successes=1, attempts=8)
        decision = decide(retrieval, None, None, THRESHOLDS)
        assert decision.z and decision.branch == LEARN_LOW_CONFIDENCE

    def test_observation_without_pending_task(self, task):
        observation = ObservedEvent(("move", "grasp"), True)
        obs_retrieval = RetrievalResult(method=None, score=0.0, covered=False)
        decision = decide(None, observation, obs_retrieval, THRESHOLDS)
        assert decision.z and decision.branch == LEARN_OBSERVATION

    def test_covered_observation_is_no_action(self, task):
        observation = ObservedEvent(("move", "grasp"), True)
        obs_retrieval = _retrieval(task, 1.0)
        decision = decide(None, observation, obs_retrieval, THRESHOLDS)
        assert not decision.z and decision.branch == NO_ACTION
        assert decision.method is None

    def test_reuse(self, task):
        retrieval = _retrieval(task, 1.0, successes=5, attempts=5)
        decision = decide(retrieval, None, None, THRESHOLDS)
        assert not decision.z and decision.branch == REUSE
        assert decision.method is retrieval.method

    def test_argument_pairing_enforced(self, task):
        with pytest.raises(ValueError):
            decide(None, None, None, THRESHOLDS)


def expected_branch(task_present, score_low, conf_low, obs):
    """The piecewise rule, written independently as a lookup."""
    if task_present and score_low:
        return LEARN_UNCOVERED
    if task_present and conf_low:
        return LEARN_LOW_CONFIDENCE
    if obs is not None:
        obs_success, obs_score_low = obs
        if obs_success and obs_score_low:
            return LEARN_OBSERVATION
    return REUSE if task_present else NO_ACTION


def iter_trigger_table():
    """Every combination the trigger rule distinguishes.

    Task side: present with score below/above tau_r crossed with confidence
    below/above tau_q, or absent. Observation side: absent, or present with
    success x (score below/above tau_o).
    """
    task_states = [None] + list(itertools.product([True, False], [True, False]))
    obs_states = [None] + list(itertools.product([True, False], [True, False]))
    for task_state, obs_state in itertools.product(task_states, obs_states):
        if task_state is None and obs_state is None:
            continue
        yield task_state, obs_state


def run_table_case(task_state, obs_state):
    task = make_task()
    retrieval = None
    if task_state is not None:
        score_low, conf_low = task_state
        score = 0.5 if score_low else 1.0
        # attempts tuned so Laplace-smoothed confidence lands below/above 0.5
        successes, attempts = (1, 8) if conf_low else (5, 5)
        retrieval = _retrieval(task, score, successes=successes, attempts=attempts)
    observation = obs_retrieval = None
    if obs_state is not None:
        obs_success, obs_score_low = obs_state
        observation = ObservedEvent(("move",), success=obs_success)
        obs_score = 0.0 if obs_score_low else 1.0
        obs_method = method_for_task(make_task(goal=("other", "goal")), method_id="m-obs")
        obs_retrieval = RetrievalResult(
            method=obs_method, score=obs_score, covered=obs_score >= THRESHOLDS.tau_o
        )
    decision = decide(retrieval, observation, obs_retrieval, THRESHOLDS)
    want = expected_branch(
        task_state is not None,
        task_state[0] if task_state else False,
        task_state[1] if task_state else False,
        obs_state,
    )
    return decision, want


class TestExhaustiveTable:
    def test_every_combination(self):
        checked = 0
        for task_state, obs_state in iter_trigger_table():
            decision, want = run_table_case(task_state, obs_state)
            assert decision.branch == want, (task_state, obs_state)
            assert decision.z == (want in {LEARN_UNCOVERED, LEARN_LOW_CONFIDENCE, LEARN_OBSERVATION})
            checked += 1
        assert checked == 24

    def test_pure_function(self, task):
        retrieval = _retrieval(task, 1.0, successes=5, attempts=5)
        first = decide(retrieval, None, None, THRESHOLDS)
        second = decide(retrieval, None, None, THRESHOLDS)
        assert first == second


class TestThresholdBoundaries:
    def test_fresh_method_trusted_exactly_at_boundary(self, task):
        # confidence 0.5 is not strictly below tau_q = 0.5
        retrieval = _retrieval(task, 1.0, successes=0, attempts=0)
        decision = decide(retrieval, None, None, THRESHOLDS)
        assert decision.branch == REUSE

    def test_score_at_tau_r_is_covered(self, task):
        thresholds = TriggerThresholds(tau_r=0.6, tau_q=0.5, tau_o=0.8, tau_u=0.3)
        retrieval = _retrieval(task, 0.6, successes=5, attempts=5)
        decision = decide(retrieval, None, None, thresholds)
        assert decision.branch == REUSE

    def test_threshold_range_validated(self):
        with pytest.raises(ValueError):
            TriggerThresholds(tau_r=1.2)


def test_decision_invariants():
    with pytest.raises(ValueError):
        TriggerDecision(REUSE)
    with pytest.raises(ValueError):
        TriggerDecision(NO_ACTION, method=make_method())
    with pytest.raises(ValueError):
        TriggerDecision("bogus")
