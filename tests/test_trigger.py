from __future__ import annotations

import copy
import itertools

import pytest

from reuseloop import learner
from reuseloop.engine import (
    PROPOSED,
    PROPOSED_OBSERVATION,
    ExecutorConfig,
    SequenceExecutor,
    run_episode,
)
from reuseloop.experience import EpisodeDataset
from reuseloop.library import MethodLibrary, RetrievalResult, matching_score
from reuseloop.planner import MockPlanner
from reuseloop.tasks import (
    MAX_TASKS,
    OBSERVED_EVENT,
    SELF_TASK,
    ObservedEvent,
    TaskEvent,
    generate_corpus,
)
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
        # An untried 0/0 method; the engine never stores one.
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
        decision = decide(retrieval, THRESHOLDS)
        assert decision.z and decision.branch == LEARN_UNCOVERED

    def test_low_confidence(self, task):
        # covered score but weak record: 1 success in 8 -> confidence 0.25
        retrieval = _retrieval(task, 1.0, successes=1, attempts=8)
        decision = decide(retrieval, THRESHOLDS)
        assert decision.z and decision.branch == LEARN_LOW_CONFIDENCE

    def test_observation_without_pending_task(self, task):
        observation = ObservedEvent(("move", "grasp"), True)
        obs_retrieval = RetrievalResult(method=None, score=0.0, covered=False)
        decision = decide(obs_retrieval, THRESHOLDS, observation)
        assert decision.z and decision.branch == LEARN_OBSERVATION

    def test_covered_observation_is_no_action(self, task):
        observation = ObservedEvent(("move", "grasp"), True)
        obs_retrieval = _retrieval(task, 1.0)
        decision = decide(obs_retrieval, THRESHOLDS, observation)
        assert not decision.z and decision.branch == NO_ACTION

    def test_reuse(self, task):
        retrieval = _retrieval(task, 1.0, successes=5, attempts=5)
        decision = decide(retrieval, THRESHOLDS)
        assert not decision.z and decision.branch == REUSE


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
    """Every case the trigger rule distinguishes; an event is one or the other.

    A self task: score below/above tau_r crossed with confidence below/above
    tau_q. An observed event: success x (score below/above tau_o).
    """
    states = list(itertools.product([True, False], [True, False]))
    for task_state in states:
        yield task_state, None
    for obs_state in states:
        yield None, obs_state


def run_table_case(task_state, obs_state):
    task = make_task()
    if task_state is not None:
        score_low, conf_low = task_state
        score = 0.5 if score_low else 1.0
        # attempts tuned so Laplace-smoothed confidence lands below/above 0.5
        successes, attempts = (1, 8) if conf_low else (5, 5)
        retrieval = _retrieval(task, score, successes=successes, attempts=attempts)
        decision = decide(retrieval, THRESHOLDS)
    else:
        obs_success, obs_score_low = obs_state
        observation = ObservedEvent(("move",), success=obs_success)
        obs_score = 0.0 if obs_score_low else 1.0
        obs_method = method_for_task(make_task(goal=("other", "goal")), method_id="m-obs")
        obs_retrieval = RetrievalResult(
            method=obs_method, score=obs_score, covered=obs_score >= THRESHOLDS.tau_o
        )
        decision = decide(obs_retrieval, THRESHOLDS, observation)
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
        assert checked == 8

    def test_pure_function(self, task):
        retrieval = _retrieval(task, 1.0, successes=5, attempts=5)
        first = decide(retrieval, THRESHOLDS)
        second = decide(retrieval, THRESHOLDS)
        assert first == second


def _stored_method(task):
    """The method ``build_method`` stores after learning ``task``, at 1/1."""
    plan = MockPlanner(seed=1).plan(task)
    dataset = EpisodeDataset()
    candidate = learner.train_episode(learner.initialize(plan, dataset), dataset)
    executor = SequenceExecutor(task, ExecutorConfig())
    executed = executor.execute(candidate.sequence, {"execute": 0.0})
    learner.validate(candidate, executed, plan.update_criteria)
    return learner.build_method(candidate, task, dataset, cycle=0)


def _neighbours():
    """The first two bundled-corpus tasks whose goals share verb and object."""
    tasks = [event.task for event in generate_corpus(seed=7, n_tasks=MAX_TASKS, n_repeats=1)]
    return next(
        (a, b) for a, b in itertools.combinations(tasks, 2)
        if a.goal[0] == b.goal[0] and a.goal[2] == b.goal[2]
    )


class TestThresholdBoundaries:
    def test_fresh_method_trusted_exactly_at_boundary(self, task):
        # confidence 0.5 is not strictly below tau_q = 0.5
        retrieval = _retrieval(task, 1.0, successes=0, attempts=0)
        decision = decide(retrieval, THRESHOLDS)
        assert decision.branch == REUSE

    def test_stored_method_trusted_exactly_at_two_thirds(self, task):
        # build_method stores a method at 1/1, so on an exact match its
        # confidence is (1 + 1) / (1 + 2) = 2/3.
        library = MethodLibrary([_stored_method(task)])
        found = library.retrieve_best(task, THRESHOLDS.tau_r)
        assert confidence(found.method, found.score) == 2 / 3
        assert decide(found, TriggerThresholds(tau_q=2 / 3)).branch == REUSE
        assert decide(found, TriggerThresholds(tau_q=2 / 3 + 1e-9)).branch == LEARN_LOW_CONFIDENCE

    def test_neighbour_covered_exactly_at_one_half(self):
        # Corpus goals are verb, colour, object: sharing two of three tokens
        # gives Jaccard 2/4.
        learned, task = _neighbours()
        library = MethodLibrary([_stored_method(learned)])
        found = library.retrieve_best(task, 0.5)
        assert found.score == 0.5 and found.covered
        assert not library.retrieve_best(task, 0.5 + 1e-9).covered

    def test_stored_neighbour_trusted_exactly_at_one_third(self):
        # A fresh method at score 1/2: 2/3 * 1/2, which is 1/3 in floats too.
        learned, task = _neighbours()
        found = MethodLibrary([_stored_method(learned)]).retrieve_best(task, 0.5)
        assert confidence(found.method, found.score) == 1 / 3
        assert decide(found, TriggerThresholds(tau_r=0.5, tau_q=1 / 3)).branch == REUSE
        stricter = TriggerThresholds(tau_r=0.5, tau_q=1 / 3 + 1e-9)
        assert decide(found, stricter).branch == LEARN_LOW_CONFIDENCE

    def test_score_at_tau_r_is_covered(self, task):
        # pick/up/blue/cube against pick/up/red/cube: Jaccard 3/5 = 0.6.
        library = MethodLibrary([make_method(goal_tokens=("pick", "up", "blue", "cube"),
                                             successes=5, attempts=5)])
        found = library.retrieve_best(task, 0.6)
        assert found.score == 0.6 and found.covered
        assert decide(found, TriggerThresholds(tau_r=0.6)).branch == REUSE
        assert not library.retrieve_best(task, 0.6 + 1e-9).covered

    @pytest.mark.parametrize("tau_o, learned", [(1 / 2, False), (1 / 2 + 1e-9, True)])
    def test_observed_neighbour_covered_exactly_at_one_half(self, tau_o, learned):
        # A successful observation of a task whose stored neighbour scores
        # 1/2 is covered at tau_o = 1/2, so proposed_observation leaves the
        # library alone; just above, it learns the observed behaviour.
        stored, task = _neighbours()
        library = MethodLibrary([_stored_method(stored)])
        before = copy.deepcopy(library.methods())
        assert matching_score(task, before[0]) == 0.5
        event = TaskEvent(cycle=1, kind=OBSERVED_EVENT, task=task,
                          observed=ObservedEvent(task.target_sequence, success=True))
        record = run_episode(event, PROPOSED_OBSERVATION, library, MockPlanner(p_corrupt=0.0),
                             TriggerThresholds(tau_o=tau_o), ExecutorConfig())
        assert record.llm_calls == int(learned)
        assert record.learned == learned and record.success
        assert len(library) == 1 + int(learned)
        if not learned:
            assert library.methods() == before

    @pytest.mark.parametrize("tau_u, refined", [(1 / 2, False), (1 / 2 + 1e-9, True)])
    def test_failed_reuse_refined_just_above_one_half(self, task, tau_u, refined):
        # A stored 1/1 method whose procedure misses the target fails its
        # reuse and drops to 1/2. The refinement check runs after that
        # update, at idle 0, so its utility is exactly 1/2, and it refines
        # only when tau_u is above 1/2. ROADMAP item 6 moves the check before
        # the update on purpose, which moves this edge.
        library = MethodLibrary([method_for_task(task, procedure=("rotate",) * 3)])
        record = run_episode(TaskEvent(cycle=3, kind=SELF_TASK, task=task), PROPOSED, library,
                             MockPlanner(p_corrupt=0.0), TriggerThresholds(tau_u=tau_u),
                             ExecutorConfig())
        assert library.get("m-task").reliability.success_ratio == 1 / 2
        assert not record.success
        assert record.llm_calls == int(refined)
        assert (record.learned, record.hit) == (refined, not refined)

    def test_threshold_range_validated(self):
        with pytest.raises(ValueError):
            TriggerThresholds(tau_r=1.2)


def test_decision_invariants():
    assert TriggerDecision._fields == ("branch",)
