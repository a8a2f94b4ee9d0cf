from __future__ import annotations

import dataclasses
import inspect
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reuseloop.engine import ALWAYS_LLM, ExecutorConfig, run_episode
from reuseloop.errors import PlannerError, SchemaError, parse_json, read_dataclass, to_doc
from reuseloop.library import MethodLibrary
from reuseloop.planner import (
    DEFAULT_MOCK_LATENCY_S,
    EpisodeOutcome,
    LearningPlan,
    MockPlanner,
    Planner,
)
from reuseloop.tasks import DEFAULT_ACTIONS, SELF_TASK, TaskEvent, generate_corpus
from reuseloop.trigger import TriggerThresholds

from conftest import make_task


def test_mock_plan_has_the_protocol_signature():
    # The protocol is the seam a real model would plug into; its one
    # implementation takes exactly the same arguments.
    assert inspect.signature(MockPlanner.plan) == inspect.signature(Planner.plan)
    assert list(inspect.signature(Planner.plan).parameters) == ["self", "task", "outcome"]
    assert Planner.__annotations__ == {"latency_s": "float"}


class _FixedPlanner:
    """The smallest ``Planner``: one plan for every call, at 0.25 s a call."""

    latency_s = 0.25

    def __init__(self, plan):
        self.fixed = plan

    def plan(self, task, outcome=None):
        return self.fixed


def _run_once(planner, task):
    """One self event under always_llm: exactly one plan call."""
    return run_episode(TaskEvent(0, SELF_TASK, task), ALWAYS_LLM, MethodLibrary(), planner,
                       TriggerThresholds(), ExecutorConfig())


class TestMockDeterminism:
    def test_same_seed_same_call_sequence(self, task):
        a = MockPlanner(seed=5)
        b = MockPlanner(seed=5)
        assert a.plan(task) == b.plan(task)
        assert a.plan(task) == b.plan(task)

    def test_latency_default_and_override(self, task):
        assert MockPlanner(seed=1).latency_s == DEFAULT_MOCK_LATENCY_S
        assert MockPlanner(seed=1, latency_s=0.25).latency_s == 0.25
        # Each call is charged the planner's latency_s, whatever the planner.
        for planner in (MockPlanner(seed=1, latency_s=0.25), _FixedPlanner(MockPlanner().plan(task))):
            record = _run_once(planner, task)
            assert record.llm_calls == 1
            assert record.plan_llm_s == record.llm_time_s == 0.25

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_latency_rejected(self, value):
        with pytest.raises(ValueError, match="^latency_s must be finite"):
            MockPlanner(seed=1, latency_s=value)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_call_latency_rejected(self, task, value):
        # A call's charge is the planner's latency_s as it is at the call;
        # the run record refuses a bad one, named at plan_llm_s.
        planner = MockPlanner(seed=1)
        planner.latency_s = value
        rule = "nonnegative" if value < 0 else "finite"
        with pytest.raises(ValueError, match=f"^plan_llm_s must be {rule}$"):
            _run_once(planner, task)

    def test_solution_is_target_when_uncorrupted(self, task):
        planner = MockPlanner(seed=1, p_corrupt=0.0)
        plan = planner.plan(task)
        assert plan.direct_solution == task.target_sequence
        assert plan.candidate_models[0] == "sequence"
        assert plan.strategy == ("execute",) * len(task.target_sequence)

    def test_corruption_frequency_within_binomial_band(self):
        # 10,000 seeded calls; corrupted fraction should sit inside the
        # 3-sigma band around p_corrupt = 0.05: 500 +- 3*sqrt(10000*.05*.95).
        task = make_task()
        planner = MockPlanner(seed=123, p_corrupt=0.05)
        corrupted = 0
        for _ in range(10_000):
            solution = planner.plan(task).direct_solution
            if solution != task.target_sequence:
                corrupted += 1
                assert len(solution) == len(task.target_sequence)
        assert 500 - 66 <= corrupted <= 500 + 66

    def test_corruption_changes_exactly_one_step(self, task):
        planner = MockPlanner(seed=9, p_corrupt=1.0)
        solution = planner.plan(task).direct_solution
        diffs = sum(a != b for a, b in zip(solution, task.target_sequence))
        assert diffs == 1


class TestMockReplan:
    def test_failed_step_gets_observe_directive(self, task):
        n = len(task.target_sequence)
        for k in (1, 2, n):
            plan = MockPlanner(seed=1, p_corrupt=0.0).replan(task, EpisodeOutcome(False, failed_step=k))
            # one observe inserted immediately before the k-th execute step
            kinds = ["execute"] * n
            kinds.insert(k - 1, "observe")
            assert list(plan.strategy) == kinds

    def test_empty_feedback_rejected(self, task):
        planner = MockPlanner(seed=1)
        with pytest.raises(PlannerError, match="^replan requires an episode outcome$"):
            planner.replan(task, None)

    def test_replan_after_success_is_a_fixed_point(self, task):
        # So is a failure at no step of the plan: none named, or one past the
        # last step, which a procedure longer than the target gets.
        plain = MockPlanner(seed=1, p_corrupt=0.0).plan(task)
        n = len(task.target_sequence)
        for outcome in (EpisodeOutcome(True), EpisodeOutcome(True, 2), EpisodeOutcome(False, None),
                        EpisodeOutcome(False, n + 1)):
            replanned = MockPlanner(seed=1, p_corrupt=0.0).replan(task, outcome)
            assert replanned == plain
            assert replanned.update_criteria == plain.update_criteria


# Four tasks of one signature: the signature ignores the target, the
# observations and the goal's case, and each of these changes the plan.
_BASE = make_task()
SAME_SIGNATURE_TASKS = (
    _BASE,
    make_task(target=("lift", "grasp", "move")),
    dataclasses.replace(_BASE, observations=("vision",)),
    make_task(goal=("Pick", "Up", "Red", "Cube")),
)
OTHER_TASK = make_task(goal=("stack", "blue", "block"), target=("move", "place"), task_id="t-1")


def reference_plan(seed, p_corrupt, task, call_index, outcome=None):
    """The documented mock plan, written out independently of the planner."""
    rng = random.Random(f"{seed}:{task.signature}:{call_index}")
    solution = list(task.target_sequence)
    if rng.random() < p_corrupt:
        idx = rng.randrange(len(solution))
        solution[idx] = rng.choice([a for a in DEFAULT_ACTIONS if a != solution[idx]])
    failed = None
    if outcome is not None and not outcome.success:
        failed = outcome.failed_step
    strategy = []
    for step_no in range(1, len(solution) + 1):
        if step_no == failed:
            strategy.append("observe")
        strategy.append("execute")
    return {
        "candidate_models": ["sequence", "hybrid"],
        "subproblems": [
            f"ground goal '{' '.join(task.goal)}' to actuator primitives",
            "order primitives into an executable chain",
            "define a per-step success check",
        ],
        "data_requirements": [{"channel": ch, "min_samples": 1} for ch in task.observations],
        "strategy": strategy,
        "update_criteria": {"validation_threshold": 0.5, "max_episodes": 3},
        "direct_solution": solution,
    }


class TestMockCache:
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2, 0, 1)])
    def test_same_signature_tasks_get_their_own_plans(self, order):
        assert len({t.signature for t in SAME_SIGNATURE_TASKS}) == 1
        planner = MockPlanner(seed=3, p_corrupt=0.0)
        for i in order:
            task = SAME_SIGNATURE_TASKS[i]
            plan = planner.plan(task)
            assert plan.direct_solution == task.target_sequence
            assert plan.strategy == ("execute",) * len(task.target_sequence)
            assert [r.channel for r in plan.data_requirements] == list(task.observations)
            goal = " ".join(task.goal)
            assert plan.subproblems[0] == f"ground goal '{goal}' to actuator primitives"

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        p_corrupt=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        calls=st.lists(
            st.tuples(
                st.integers(0, len(SAME_SIGNATURE_TASKS)),
                st.sampled_from(["plan", "plan_with_outcome", "replan"]),
                # no step (None or 0), each step, the step past the last
                # (len(target) + 1) and beyond, for every task here
                st.builds(EpisodeOutcome, st.booleans(), st.none() | st.integers(0, 5)),
            ),
            max_size=25,
        ),
    )
    def test_matches_reference_over_interleaved_calls(self, seed, p_corrupt, calls):
        tasks = (*SAME_SIGNATURE_TASKS, OTHER_TASK)
        planner = MockPlanner(seed=seed, p_corrupt=p_corrupt)
        first_clean = {}
        not_clean = []  # corrupted or outcome calls; kept alive so ids stay unique
        for call_index, (task_no, how, given) in enumerate(calls):
            task = tasks[task_no]
            outcome = None if how == "plan" else given
            if how == "replan":
                plan = planner.replan(task, outcome)
            else:
                plan = planner.plan(task, outcome)
            expected = reference_plan(seed, p_corrupt, task, call_index, outcome)
            assert to_doc(plan) == expected
            clean = outcome is None and tuple(expected["direct_solution"]) == task.target_sequence
            if not clean:
                not_clean.append(plan)
                continue
            assert all(plan is not other for other in not_clean)
            if p_corrupt == 0.0:
                assert first_clean.setdefault(task_no, plan) is plan

    def test_clean_call_is_shared_at_zero_corruption(self, task):
        planner = MockPlanner(seed=1, p_corrupt=0.0)
        assert planner.plan(task) is planner.plan(task)


class TestParsePlan:
    def test_minimal_document_fills_defaults(self):
        text = '{"candidate_models": ["sequence"]}'
        plan = read_dataclass(LearningPlan, parse_json(text))
        assert plan.candidate_models == ("sequence",)
        assert plan.subproblems == ()
        assert plan.update_criteria.validation_threshold == 0.5
        assert plan.update_criteria.max_episodes >= 1
        assert plan.direct_solution is None
        steps = read_dataclass(LearningPlan, parse_json(
            '{"candidate_models": ["sequence"], "strategy": ["observe"]}'
        )).strategy
        assert steps == ("observe",)

    def test_missing_candidate_models_named(self):
        with pytest.raises(SchemaError) as err:
            read_dataclass(LearningPlan, parse_json('{"subproblems": []}'))
        assert "candidate_models" in str(err.value)

    def test_misspelled_keys_named(self):
        # A misspelled key is an unknown field, named by dotted path.
        cases = [
            ({"direct_soluton": ["move"]}, "direct_soluton"),
            ({"update_criteria": {"validation_treshold": 0.9}}, "update_criteria.validation_treshold"),
            ({"data_requirements": [{"channel": "vision", "min_sample": 1}]},
             "data_requirements[0].min_sample"),
        ]
        for extra, field in cases:
            doc = {"candidate_models": ["sequence"], **extra}
            with pytest.raises(SchemaError) as err:
                read_dataclass(LearningPlan, parse_json(json.dumps(doc)))
            assert err.value.field == field

    def test_not_json(self):
        with pytest.raises(SchemaError):
            read_dataclass(LearningPlan, parse_json("produce a plan: step 1 ..."))

    def test_round_trip_identity(self, task):
        plan = MockPlanner(seed=3, p_corrupt=0.0).plan(task)
        assert read_dataclass(LearningPlan, parse_json(json.dumps(to_doc(plan)))) == plan

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        task_seed=st.integers(0, 10_000),
        p_corrupt=st.floats(0.0, 1.0),
        outcomes=st.lists(
            st.builds(EpisodeOutcome, st.booleans(), st.none() | st.integers(0, 8)), max_size=4
        ),
    )
    def test_round_trip_property(self, seed, task_seed, p_corrupt, outcomes):
        task = generate_corpus(seed=task_seed, n_tasks=1, n_repeats=1)[0].task
        planner = MockPlanner(seed=seed, p_corrupt=p_corrupt)
        for outcome in (None, *outcomes):
            plan = planner.plan(task, outcome)
            assert read_dataclass(LearningPlan, parse_json(json.dumps(to_doc(plan)))) == plan
            # The mock's plan vocabulary, which the plan no longer checks.
            assert plan.candidate_models == ("sequence", "hybrid")
            assert set(plan.strategy) <= {"execute", "observe"}
            assert plan.strategy.count("observe") <= 1

    def test_round_trip_without_solution(self):
        plan = LearningPlan(candidate_models=("hybrid",))
        assert read_dataclass(LearningPlan, parse_json(json.dumps(to_doc(plan)))) == plan
