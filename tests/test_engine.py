from __future__ import annotations

import ast
import dataclasses
import json
from decimal import Decimal
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reuseloop import engine, learner
from reuseloop.engine import (
    ALWAYS_LLM,
    LIBRARY_ONLY,
    OBSERVATION_ONLY,
    PHASES,
    POLICY_MODES,
    PROPOSED,
    PROPOSED_OBSERVATION,
    RECORD_FIELDS,
    ExecutorConfig,
    RunRecord,
    SequenceExecutor,
    float_sum,
    read_records,
    run_episode,
    run_loop,
    write_records,
)
from reuseloop.errors import PlannerError, RecordStreamError, SchemaError
from reuseloop.library import MethodLibrary
from reuseloop.planner import EpisodeOutcome, MockPlanner
from reuseloop.tasks import (
    OBSERVATION_FIRST,
    OBSERVED_EVENT,
    SELF_TASK,
    ObservedEvent,
    TaskEvent,
    generate_corpus,
    signature_of,
)
from reuseloop.trigger import LEARN_LOW_CONFIDENCE, LEARN_OBSERVATION, REUSE, TriggerThresholds

from conftest import method_for_task

CFG = ExecutorConfig(
    base_s=1.0, per_step_s=0.1, retrieve_s=0.01, collect_s=0.2,
    train_s=0.3, store_s=0.05, observe_s=0.15,
)
THRESHOLDS = TriggerThresholds()
LATENCY = 0.5
INF, NAN = float("inf"), float("nan")


def planner(p_corrupt=0.0, seed=1):
    return MockPlanner(seed=seed, latency_s=LATENCY, p_corrupt=p_corrupt)


def self_event(task, cycle=0):
    return TaskEvent(cycle=cycle, kind=SELF_TASK, task=task)


def exec_time(task):
    return CFG.base_s + CFG.per_step_s * len(task.target_sequence)


class _PlanOnlyPlanner:
    """A mock behind ``plan`` alone, keeping the outcome of each call, so
    ``len(outcomes)`` counts the calls."""

    latency_s = LATENCY

    def __init__(self):
        self.mock = planner()
        self.outcomes = []

    def plan(self, task, outcome=None):
        self.outcomes.append(outcome)
        return self.mock.plan(task, outcome)


class _NoSolutionPlanner:
    """A mock whose plans carry no ``direct_solution``."""

    latency_s = LATENCY

    def plan(self, task, outcome=None):
        return dataclasses.replace(planner().plan(task, outcome), direct_solution=None)


class TestProposedMode:
    def test_first_encounter_learns(self, task, library):
        record = run_episode(self_event(task), PROPOSED, library, planner(), THRESHOLDS, CFG)
        assert record.llm_calls == 1
        assert record.learned and not record.hit
        assert record.success
        assert len(library) == 1
        want = CFG.retrieve_s + LATENCY + CFG.collect_s + CFG.train_s + CFG.store_s + exec_time(task)
        assert record.total_s == pytest.approx(want)
        assert record.llm_time_s == LATENCY

    def test_second_encounter_reuses(self, task, library):
        run_episode(self_event(task, 0), PROPOSED, library, planner(), THRESHOLDS, CFG)
        record = run_episode(
            self_event(task, 1), PROPOSED, library, planner(), THRESHOLDS, CFG, repeat_index=2
        )
        assert record.llm_calls == 0
        assert record.hit and not record.learned
        assert record.success
        assert record.total_s == pytest.approx(CFG.retrieve_s + exec_time(task))
        assert len(library) == 1
        rel = library.methods()[0].reliability
        assert (rel.successes, rel.attempts) == (2, 2)

    def test_corrupted_plan_fails_validation_and_is_not_stored(self, task, library):
        record = run_episode(
            self_event(task), PROPOSED, library, planner(p_corrupt=1.0), THRESHOLDS, CFG
        )
        assert not record.success
        assert not record.learned
        assert len(library) == 0
        # store phase never charged on a failed consolidation
        assert record.store_s == 0.0
        assert record.train_s == CFG.train_s
        # A failed validation still pays exactly one execution.
        assert record.execute_s == exec_time(task)

    def test_validation_reads_the_one_paid_execution(self, task, library, monkeypatch):
        # A fresh self episode executes its candidate once and validates on
        # that outcome; an observed episode and a refinement execute nothing
        # and pass True, to be judged on the confidence floor alone.
        calls = []
        execute, validate = SequenceExecutor.execute, learner.validate

        def spying_execute(self, sequence, phases):
            calls.append(("execute", ok := execute(self, sequence, phases)))
            return ok

        def spying_validate(candidate, executed, update_criteria):
            calls.append(("validate", executed))
            return validate(candidate, executed, update_criteria)

        monkeypatch.setattr(SequenceExecutor, "execute", spying_execute)
        monkeypatch.setattr(learner, "validate", spying_validate)
        for p_corrupt, ok in ((0.0, True), (1.0, False)):
            calls.clear()
            run_episode(self_event(task), PROPOSED, MethodLibrary(), planner(p_corrupt),
                        THRESHOLDS, CFG)
            assert calls == [("execute", ok), ("validate", ok)]

        calls.clear()
        run_episode(_observed_event(), PROPOSED_OBSERVATION, library, planner(), THRESHOLDS, CFG)
        assert calls == [("validate", True)]

        calls.clear()  # a reused 1/2 method that tau_u 0.9 refines
        library.insert(method_for_task(task, successes=1, attempts=2))
        record = run_episode(self_event(task, 5), PROPOSED, library, planner(),
                             TriggerThresholds(tau_u=0.9), CFG)
        assert record.learned
        assert calls == [("execute", True), ("validate", True)]  # the reuse, then the refinement

    def test_plan_without_a_solution_learns_nothing(self, task, library):
        # Nothing to collect, so initialize refuses the empty dataset: the
        # plan is charged, training and storing are not.
        record = run_episode(
            self_event(task), PROPOSED, library, _NoSolutionPlanner(), THRESHOLDS, CFG
        )
        assert record.llm_calls == 1
        assert record.plan_llm_s == LATENCY
        assert (record.collect_s, record.train_s, record.store_s, record.execute_s) == (0.0,) * 4
        assert not (record.success or record.learned or record.hit)
        assert len(library) == 0
        assert record.total_s == pytest.approx(CFG.retrieve_s + LATENCY)

    def test_refinement_without_a_solution_keeps_the_reuse_outcome(self, task, library):
        # The re-entry's plan seeds no candidate, so nothing is learned: the
        # episode stays the failed reuse, charged one execution and one plan.
        config = ExecutorConfig()
        library.insert(method_for_task(task, method_id="m-bad", successes=0, attempts=0,
                                       procedure=("rotate",) * 3))
        record = run_episode(
            self_event(task, cycle=5), PROPOSED, library, _NoSolutionPlanner(), THRESHOLDS, config
        )
        assert (record.hit, record.learned, record.success) == (True, False, False)
        assert record.llm_calls == 1
        assert record.execute_s == config.execute_time(3) == pytest.approx(5.85)
        assert (record.collect_s, record.train_s, record.store_s) == (0.0,) * 3
        assert len(library) == 1

    def test_refinement_without_a_solution_keeps_a_successful_reuse(self, task, library):
        # A right but often-failed (1/2) method is reused and succeeds; at
        # tau_u 0.9 its utility, 2/3, still asks for refinement, which learns
        # nothing, so the reuse's success stands.
        library.insert(method_for_task(task, successes=1, attempts=2))
        thresholds = TriggerThresholds(tau_u=0.9)
        record = run_episode(
            self_event(task, cycle=5), PROPOSED, library, _NoSolutionPlanner(), thresholds, CFG
        )
        assert (record.hit, record.learned, record.success) == (True, False, True)
        assert record.llm_calls == 1
        assert len(library) == 1

    def test_refinement_reentry_replaces_failing_method(self, task, library):
        # A fresh (0/0) exact-match method is trusted at the confidence
        # boundary, but its procedure is wrong: reuse fails, utility drops to
        # 0, and the engine re-enters learning once within the episode.
        bad = method_for_task(task, method_id="m-bad", successes=0, attempts=0,
                              procedure=("rotate",) * 3)
        library.insert(bad)
        plan_only = _PlanOnlyPlanner()
        record = run_episode(self_event(task, cycle=5), PROPOSED, library, plan_only, THRESHOLDS, CFG)
        assert not record.success  # the reuse execution itself failed
        assert record.llm_calls == 1
        (outcome,) = plan_only.outcomes  # the re-entry asks plan, with the reuse's outcome
        assert outcome == EpisodeOutcome(success=False, failed_step=1)
        assert record.learned and not record.hit
        assert len(library) == 2
        assert library.get("m-bad").reliability.attempts == 1
        fresh = [m for m in library.methods() if m.id != "m-bad"][0]
        assert fresh.procedure == task.target_sequence

    def test_healthy_method_not_refined(self, task, library):
        library.insert(method_for_task(task, successes=3, attempts=3))
        record = run_episode(self_event(task), PROPOSED, library, planner(), THRESHOLDS, CFG)
        assert record.hit and not record.learned
        assert record.llm_calls == 0
        assert len(library) == 1

    @pytest.mark.parametrize("mode", [PROPOSED, ALWAYS_LLM])
    def test_planner_error_stops_the_run(self, mode, task, library):
        # No episode swallows a planning failure: it reaches the caller, and
        # the CLI exits 2 on it, as on any ReuseLoopError.
        class Refusing:
            latency_s = LATENCY

            def plan(self, task, outcome=None):
                raise PlannerError("no plan")

        with pytest.raises(PlannerError, match="no plan"):
            run_episode(self_event(task), mode, library, Refusing(), THRESHOLDS, CFG)


class TestBaselineModes:
    def test_always_llm_never_inserts(self, task, library):
        mock = planner()
        record = run_episode(self_event(task), ALWAYS_LLM, library, mock, THRESHOLDS, CFG)
        assert record.llm_calls == 1
        assert record.success
        assert not record.learned and not record.hit
        assert len(library) == 0
        assert record.retrieve_s == 0.0  # baseline keeps no library
        assert record.total_s == pytest.approx(LATENCY + exec_time(task))

    def test_always_llm_corruption_fails(self, task, library):
        record = run_episode(
            self_event(task), ALWAYS_LLM, library, planner(p_corrupt=1.0), THRESHOLDS, CFG
        )
        assert not record.success
        assert record.total_s == pytest.approx(LATENCY + exec_time(task))

    def test_library_only_uncovered_fails_without_planning(self, task, library):
        mock = _PlanOnlyPlanner()
        record = run_episode(self_event(task), LIBRARY_ONLY, library, mock, THRESHOLDS, CFG)
        assert not record.success
        assert record.llm_calls == 0
        assert len(mock.outcomes) == 0
        assert record.total_s == pytest.approx(CFG.retrieve_s)

    def test_library_only_covered_executes(self, task, library):
        library.insert(method_for_task(task))
        mock = _PlanOnlyPlanner()
        record = run_episode(self_event(task), LIBRARY_ONLY, library, mock, THRESHOLDS, CFG)
        assert record.success and record.hit
        assert len(mock.outcomes) == 0
        assert record.total_s == pytest.approx(CFG.retrieve_s + exec_time(task))


class TestObservationModes:
    def _observed_event(self, cycle=0):
        events = generate_corpus(seed=3, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)
        event = events[0]
        return TaskEvent(cycle=cycle, kind=event.kind, task=event.task, observed=event.observed)

    def test_observation_only_just_watches(self, library):
        event = self._observed_event()
        mock = _PlanOnlyPlanner()
        record = run_episode(event, OBSERVATION_ONLY, library, mock, THRESHOLDS, CFG)
        assert record.success
        assert record.total_s == pytest.approx(CFG.observe_s)
        assert len(mock.outcomes) == 0
        assert len(library) == 0

    def test_observation_only_self_rounds_match_always_llm(self, task, library):
        record = run_episode(self_event(task), OBSERVATION_ONLY, library, planner(), THRESHOLDS, CFG)
        assert record.llm_calls == 1
        assert record.total_s == pytest.approx(LATENCY + exec_time(task))
        assert len(library) == 0

    def test_proposed_observation_consolidates(self, library):
        event = self._observed_event()
        record = run_episode(event, PROPOSED_OBSERVATION, library, planner(), THRESHOLDS, CFG)
        assert record.learned and not record.hit
        assert record.success
        assert record.llm_calls == 1
        assert record.execute_s == 0.0  # observation rounds do not execute
        want = CFG.observe_s + CFG.retrieve_s + LATENCY + CFG.train_s + CFG.store_s
        assert record.total_s == pytest.approx(want)
        assert len(library) == 1
        assert library.methods()[0].procedure == event.task.target_sequence
        assert library.methods()[0].data_profile.n_obs_samples == len(event.task.target_sequence)

    def test_covered_observation_is_no_action(self, library):
        event = self._observed_event()
        library.insert(method_for_task(event.task))
        mock = _PlanOnlyPlanner()
        record = run_episode(event, PROPOSED_OBSERVATION, library, mock, THRESHOLDS, CFG)
        assert not record.learned and not record.hit
        assert record.success
        assert len(mock.outcomes) == 0
        assert record.total_s == pytest.approx(CFG.observe_s + CFG.retrieve_s)
        assert len(library) == 1

    @pytest.mark.parametrize("kind", [SELF_TASK, OBSERVED_EVENT])
    def test_empty_library_learns_at_zero_threshold(self, kind, library):
        # An empty library covers nothing, even at tau_r = tau_o = 0: a self
        # task and a successful observation both learn.
        event = self._observed_event()
        if kind == SELF_TASK:
            event = self_event(event.task)
        zero = TriggerThresholds(tau_r=0.0, tau_o=0.0)
        record = run_episode(event, PROPOSED_OBSERVATION, library, planner(), zero, CFG)
        assert record.learned and record.success
        assert len(library) == 1

    def test_observation_corrects_corrupted_plan(self, library):
        # The observed sequence outvotes a corrupted direct solution.
        event = self._observed_event()
        record = run_episode(
            event, PROPOSED_OBSERVATION, library, planner(p_corrupt=1.0), THRESHOLDS, CFG
        )
        assert record.learned and record.success
        assert library.methods()[0].procedure == event.task.target_sequence

    def test_wrong_demonstration_is_stored_then_outlearned(self, library, monkeypatch):
        # An observed episode executes nothing, so it is judged on its
        # confidence floor alone: a demonstration with one wrong step, and
        # full confidence in it, is stored. Its reuses fail until the
        # method's confidence, (1 + 1) / (3 + 2), falls below tau_q.
        events = generate_corpus(seed=7, n_tasks=1, n_repeats=6, mode=OBSERVATION_FIRST)
        target = events[0].task.target_sequence
        wrong = ("rotate" if target[0] != "rotate" else "push", *target[1:])
        events[0] = events[0]._replace(observed=ObservedEvent(wrong, True))
        branches = []
        decide = engine.decide

        def spying_decide(found, thresholds, observed=None):
            decision = decide(found, thresholds, observed)
            branches.append(decision.branch)
            return decision

        monkeypatch.setattr(engine, "decide", spying_decide)
        records = run_loop(events, PROPOSED_OBSERVATION, library, planner(), THRESHOLDS, CFG)
        assert branches == [LEARN_OBSERVATION, REUSE, REUSE, LEARN_LOW_CONFIDENCE, REUSE, REUSE]
        assert [(r.learned, r.hit, r.success) for r in records] == [
            (True, False, True), (False, True, False), (False, True, False),
            (True, False, True), (False, True, True), (False, True, True),
        ]
        assert records[0].total_s == pytest.approx(
            CFG.observe_s + CFG.retrieve_s + LATENCY + CFG.train_s + CFG.store_s
        )
        # The wrong method stays beside the one learned at cycle 3.
        assert [(m.procedure, m.reliability.successes, m.reliability.attempts)
                for m in library.methods()] == [(wrong, 1, 3), (target, 3, 3)]


# README's "Policy modes" table, cell by cell. Each cell runs one event on a
# novel task (empty library) and on a task a working method covers. A row is
# (cost items charged, llm_calls, hit, learned, success, library size after);
# "observe" is the observe_s charge, booked to the collect phase. A failed
# observation is an observed event whose external attempt failed: no mode
# learns from it.
FAILED_OBSERVATION = "failed_observation"
_WATCH = ("observe",)
_PLAN_EXECUTE = ("plan_llm", "execute")
_REUSE = ("retrieve", "execute")
_LEARN_SELF = ("retrieve", "plan_llm", "collect", "train", "store", "execute")
_LEARN_OBSERVED = ("observe", "retrieve", "plan_llm", "train", "store")

POLICY_TABLE = {
    (ALWAYS_LLM, SELF_TASK): ((_PLAN_EXECUTE, 1, False, False, True, 0),
                              (_PLAN_EXECUTE, 1, False, False, True, 1)),
    (LIBRARY_ONLY, SELF_TASK): ((("retrieve",), 0, False, False, False, 0),
                                (_REUSE, 0, True, False, True, 1)),
    (PROPOSED, SELF_TASK): ((_LEARN_SELF, 1, False, True, True, 1),
                            (_REUSE, 0, True, False, True, 1)),
    (OBSERVATION_ONLY, SELF_TASK): ((_PLAN_EXECUTE, 1, False, False, True, 0),
                                    (_PLAN_EXECUTE, 1, False, False, True, 1)),
    (PROPOSED_OBSERVATION, SELF_TASK): ((_LEARN_SELF, 1, False, True, True, 1),
                                        (_REUSE, 0, True, False, True, 1)),
    (ALWAYS_LLM, OBSERVED_EVENT): ((_WATCH, 0, False, False, True, 0),
                                   (_WATCH, 0, False, False, True, 1)),
    (LIBRARY_ONLY, OBSERVED_EVENT): ((_WATCH, 0, False, False, True, 0),
                                     (_WATCH, 0, False, False, True, 1)),
    (PROPOSED, OBSERVED_EVENT): ((_WATCH, 0, False, False, True, 0),
                                 (_WATCH, 0, False, False, True, 1)),
    (OBSERVATION_ONLY, OBSERVED_EVENT): ((_WATCH, 0, False, False, True, 0),
                                         (_WATCH, 0, False, False, True, 1)),
    (PROPOSED_OBSERVATION, OBSERVED_EVENT): ((_LEARN_OBSERVED, 1, False, True, True, 1),
                                             (("observe", "retrieve"), 0, False, False, True, 1)),
    **{(mode, FAILED_OBSERVATION): ((_WATCH, 0, False, False, False, 0),
                                    (_WATCH, 0, False, False, False, 1))
       for mode in (ALWAYS_LLM, LIBRARY_ONLY, PROPOSED, OBSERVATION_ONLY)},
    (PROPOSED_OBSERVATION, FAILED_OBSERVATION): (
        (("observe", "retrieve"), 0, False, False, False, 0),
        (("observe", "retrieve"), 0, False, False, False, 1)),
}


def _observed_event():
    return generate_corpus(seed=3, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)[0]


def _phases_charged(task, items):
    cost = {
        "retrieve": CFG.retrieve_s, "plan_llm": LATENCY, "execute": exec_time(task),
        "collect": CFG.collect_s, "train": CFG.train_s, "store": CFG.store_s,
    }
    phases = dict.fromkeys(_PHASE_FIELDS, 0.0)
    for item in items:
        if item == "observe":
            phases["collect_s"] += CFG.observe_s
        else:
            phases[f"{item}_s"] += cost[item]
    return phases


class TestPolicyTable:
    @pytest.mark.parametrize("covered", [False, True], ids=["novel", "covered"])
    @pytest.mark.parametrize("mode, kind", sorted(POLICY_TABLE))
    def test_cell(self, mode, kind, covered, library):
        event = _observed_event()
        if kind == SELF_TASK:
            event = self_event(event.task)
        elif kind == FAILED_OBSERVATION:
            failed = ObservedEvent(event.observed.action_sequence, success=False)
            event = event._replace(observed=failed)
        if covered:
            library.insert(method_for_task(event.task))
        items, llm_calls, hit, learned, success, size = POLICY_TABLE[mode, kind][covered]
        mock = _PlanOnlyPlanner()
        record = run_episode(event, mode, library, mock, THRESHOLDS, CFG)
        got = {name: getattr(record, name) for name in _PHASE_FIELDS}
        assert got == pytest.approx(_phases_charged(event.task, items))
        assert (record.llm_calls, len(mock.outcomes)) == (llm_calls, llm_calls)
        assert (record.hit, record.learned, record.success) == (hit, learned, success)
        assert len(library) == size

    @pytest.mark.parametrize("mode", [LIBRARY_ONLY, PROPOSED, PROPOSED_OBSERVATION])
    def test_covered_method_that_fails(self, mode, task, library):
        # A fresh exact-match method clears the confidence bar, but its
        # procedure is wrong. library_only just fails; the proposed modes
        # refine it with one plan call and store the new method.
        library.insert(method_for_task(task, method_id="m-bad", successes=0, attempts=0,
                                       procedure=("rotate",) * 3))
        mock = _PlanOnlyPlanner()
        record = run_episode(self_event(task, cycle=5), mode, library, mock, THRESHOLDS, CFG)
        assert not record.success
        assert library.get("m-bad").reliability.attempts == 1
        got = {name: getattr(record, name) for name in _PHASE_FIELDS}
        if mode == LIBRARY_ONLY:
            assert got == pytest.approx(_phases_charged(task, _REUSE))
            assert (record.llm_calls, len(mock.outcomes)) == (0, 0)
            assert record.hit and not record.learned
            assert len(library) == 1
        else:
            bad_exec = CFG.base_s + CFG.per_step_s * 3
            want = _phases_charged(task, _LEARN_SELF)
            want["execute_s"] = bad_exec  # the failed reuse; refinement does not execute
            assert got == pytest.approx(want)
            assert (record.llm_calls, len(mock.outcomes)) == (1, 1)
            assert record.learned and not record.hit
            assert len(library) == 2


class TestRunLoop:
    def test_proposed_counts_on_reference_corpus(self, library):
        events = generate_corpus(seed=7, n_tasks=20, n_repeats=5)
        records = run_loop(events, PROPOSED, library, planner(), THRESHOLDS, CFG)
        assert sum(r.learned for r in records) == 20
        assert sum(r.hit for r in records) == 80
        assert all(r.success for r in records)
        assert len(library) == 20
        assert all(r.learned for r in records if r.repeat_index == 1)
        assert all(r.hit for r in records if r.repeat_index > 1)

    def test_library_growth_matches_learned_flags(self, library):
        events = generate_corpus(seed=7, n_tasks=8, n_repeats=3)
        before = len(library)
        records = run_loop(events, PROPOSED, library, planner(), THRESHOLDS, CFG)
        assert len(library) == before + sum(r.learned for r in records)

    def test_proposed_observation_reference_corpus(self, library):
        events = generate_corpus(seed=7, n_tasks=20, n_repeats=5, mode=OBSERVATION_FIRST)
        records = run_loop(events, PROPOSED_OBSERVATION, library, planner(), THRESHOLDS, CFG)
        learned = [r for r in records if r.learned]
        assert len(learned) == 20
        assert all(r.repeat_index == 1 for r in learned)
        assert all(r.hit for r in records if r.repeat_index > 1)
        assert all(r.success for r in records)

    def test_unknown_mode_rejected(self, task, library):
        with pytest.raises(ValueError, match="^unknown policy mode 'greedy'$"):
            run_episode(self_event(task), "greedy", library, planner(), THRESHOLDS, CFG)
        assert len(library) == 0

    def test_unknown_mode_rejected_on_an_empty_stream(self, library):
        with pytest.raises(ValueError, match="^unknown policy mode 'greedy'$"):
            run_loop([], "greedy", library, planner(), THRESHOLDS, CFG)

    def test_empty_stream(self, library):
        assert run_loop([], PROPOSED, library, planner(), THRESHOLDS, CFG) == []
        assert len(library) == 0

    def test_unordered_cycles_rejected(self, task, library):
        events = [self_event(task, 1), self_event(task, 0)]
        with pytest.raises(ValueError):
            run_loop(events, PROPOSED, library, planner(), THRESHOLDS, CFG)

    def test_clock_consistency_across_modes(self):
        for mode in (ALWAYS_LLM, LIBRARY_ONLY, PROPOSED, OBSERVATION_ONLY, PROPOSED_OBSERVATION):
            corpus_mode = (
                OBSERVATION_FIRST
                if mode in (OBSERVATION_ONLY, PROPOSED_OBSERVATION)
                else "self_execution"
            )
            events = generate_corpus(seed=5, n_tasks=6, n_repeats=3, mode=corpus_mode)
            records = run_loop(events, mode, MethodLibrary(), planner(), THRESHOLDS, CFG)
            for r in records:
                phase_sum = (
                    r.retrieve_s + r.plan_llm_s + r.execute_s + r.collect_s + r.train_s + r.store_s
                )
                assert r.total_s == phase_sum
                assert r.llm_time_s <= r.total_s

    def test_determinism_byte_for_byte(self):
        def one_run():
            events = generate_corpus(seed=11, n_tasks=10, n_repeats=4)
            records = run_loop(events, PROPOSED, MethodLibrary(), planner(seed=11), THRESHOLDS, CFG)
            return json.dumps([dataclasses.asdict(r) for r in records])

        assert one_run() == one_run()

    def test_repeat_indices_count_signature_occurrences(self, library):
        events = generate_corpus(seed=2, n_tasks=3, n_repeats=4)
        records = run_loop(events, ALWAYS_LLM, library, planner(), THRESHOLDS, CFG)
        by_sig: dict[str, list[int]] = {}
        for event, record in zip(events, records):
            by_sig.setdefault(signature_of(event.task), []).append(record.repeat_index)
        assert all(indices == [1, 2, 3, 4] for indices in by_sig.values())


_PHASE_FIELDS = ("retrieve_s", "plan_llm_s", "execute_s", "collect_s", "train_s", "store_s")
# Bounded so that the six-phase total stays finite, as a record's must.
_phase_times = st.floats(min_value=0.0, max_value=1e300)


@st.composite
def _run_records(draw):
    phases = draw(st.lists(_phase_times, min_size=6, max_size=6))
    hit = draw(st.booleans())
    return RunRecord(
        policy=draw(st.sampled_from(POLICY_MODES)),
        task_id=draw(st.text(st.sampled_from('t-"\\\x00\x1fé\u2028\U0001f916') | st.characters())),
        repeat_index=draw(st.integers(min_value=1, max_value=2**70)),
        cycle=draw(st.integers(min_value=0, max_value=2**70)),
        **dict(zip(_PHASE_FIELDS, phases)),
        total_s=sum(phases),
        llm_calls=draw(st.integers(min_value=0, max_value=2**70)),
        llm_time_s=phases[1] * draw(st.sampled_from([0.0, 0.5, 1.0])),
        success=draw(st.booleans()),
        hit=hit,
        learned=not hit and draw(st.booleans()),
    )


_EXTREME_RECORD = RunRecord(
    policy=PROPOSED, task_id="t-extreme", repeat_index=1, cycle=0,
    retrieve_s=0.0, plan_llm_s=5e-324, execute_s=1e300, collect_s=0.1, train_s=1e-7,
    store_s=0.0, total_s=5e-324 + 1e300 + 0.1 + 1e-7, llm_calls=0, llm_time_s=5e-324,
    success=False, hit=False, learned=False,
)

# The float fields of a record's block, its fields after the first four.
_BLOCK_FLOAT_FIELDS = (*_PHASE_FIELDS, "total_s", "llm_time_s")


@st.composite
def _record_streams(draw):
    """Whole records, shuffled with copies that repeat a drawn block under
    another head. A copy may also change one float field only in how it
    prints: a zero's sign, or an integral float written as an int."""
    records = draw(st.lists(_run_records(), max_size=5))
    copies = []
    for source in draw(st.lists(st.sampled_from(records), max_size=6)) if records else []:
        name = draw(st.sampled_from(_BLOCK_FLOAT_FIELDS))
        value = getattr(source, name)
        look_alike = -value if value == 0 else int(value) if value.is_integer() else value
        copies.append(dataclasses.replace(
            source,
            task_id=draw(st.sampled_from(["t-a", "t-b", source.task_id])),
            repeat_index=draw(st.integers(min_value=1, max_value=9)),
            cycle=draw(st.integers(min_value=0, max_value=99)),
            **({name: look_alike} if draw(st.booleans()) else {}),
        ))
    return draw(st.permutations(records + copies))


_ZERO_RECORD = RunRecord(
    policy=ALWAYS_LLM, task_id="t-zero", repeat_index=1, cycle=0,
    retrieve_s=0.0, plan_llm_s=0.0, execute_s=5.0, collect_s=0.0, train_s=0.0,
    store_s=0.0, total_s=5.0, llm_calls=0, llm_time_s=0.0,
    success=False, hit=False, learned=False,
)
# Equal blocks that json.dumps writes apart, each pair in both orders.
_SIGNED_ZEROS = [
    dataclasses.replace(_ZERO_RECORD, cycle=cycle, retrieve_s=zero)
    for cycle, zero in enumerate([0.0, -0.0, -0.0, 0.0])
]
_INT_AND_FLOAT = [
    dataclasses.replace(_ZERO_RECORD, cycle=cycle, execute_s=five, total_s=five)
    for cycle, five in enumerate([5.0, 5, 5, 5.0])
]


class _Seconds(float):
    def __repr__(self):
        return f"{float(self)} s"


_TYPED_RECORD = RunRecord(
    policy=PROPOSED, task_id="t-types", repeat_index=1, cycle=0,
    retrieve_s=1.0, plan_llm_s=0.0, execute_s=2.0, collect_s=0.0, train_s=0.0,
    store_s=0.0, total_s=3.0, llm_calls=1, llm_time_s=0.0,
    success=True, hit=False, learned=False,
)


class _Count(int):
    pass


class _Name(str):
    pass


# Values a field may be changed to after its record is built: wrong types,
# bools, Decimals, subclasses, non-finite and signed-zero floats, ints for
# floats, out-of-range ints, a bogus policy and in-range values that break
# a rule across fields.
_field_values = st.one_of(
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.integers(min_value=-3, max_value=12) | st.sampled_from([2**70, 10**400]),
    st.floats() | st.sampled_from([-0.0, 0.0, NAN, INF, -INF, 5e-324, 1e308]),
    st.builds(Decimal, st.integers(min_value=-3, max_value=3)),
    st.floats(min_value=0.0, max_value=10.0).map(_Seconds),
    st.integers(min_value=0, max_value=3).map(_Count),
    st.sampled_from(["bogus", "", "t-a", *POLICY_MODES]),
    st.text(max_size=3).map(_Name),
)


# (record, field, value): a drawn record and one field to change.
_changed_records = st.tuples(_run_records(), st.sampled_from(RECORD_FIELDS), _field_values)


def _reader_refusal(record, name, path):
    """The field ``bench report`` names when it reads ``record`` as
    ``json.dumps`` writes it, None if it reads it back; ``name`` when
    ``json.dumps`` refuses the changed value or writes it as a value of
    another type (a subclass as its base type)."""
    value = getattr(record, name)
    try:
        line = json.dumps(dataclasses.asdict(record))
    except TypeError:
        return name
    if type(json.loads(json.dumps(value))) is not type(value):
        return name
    path.write_text(line + "\n", encoding="utf-8")
    try:
        read_records(path)
    except RecordStreamError as exc:
        return exc.__cause__.field
    return None


class TestRecordStreams:
    def _records(self):
        events = generate_corpus(seed=4, n_tasks=4, n_repeats=2)
        return run_loop(events, PROPOSED, MethodLibrary(), planner(), THRESHOLDS, CFG)

    def test_round_trip(self, tmp_path):
        records = self._records()
        path = tmp_path / "runs.jsonl"
        write_records(records, path)
        assert read_records(path) == records
        # The reader skips blank lines.
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n \n".join(lines) + "\n\n")
        assert read_records(path) == records

    @settings(max_examples=200, deadline=None)
    @given(_record_streams())
    @example([_EXTREME_RECORD])
    @example(_SIGNED_ZEROS)
    @example(_INT_AND_FLOAT)
    def test_lines_are_compact_json_dumps_property(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "property-runs.jsonl"
        write_records(records, path)
        expected = "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in records)
        assert path.read_text(encoding="utf-8") == expected
        assert read_records(path) == records

    @pytest.mark.parametrize("changes, field", [
        ({"llm_calls": True}, "llm_calls"),  # written as true: not a number
        ({"repeat_index": 1.0}, "repeat_index"),  # a line the reader rejects
        ({"success": 1}, "success"),  # written as 1: not a boolean
        ({"retrieve_s": True}, "retrieve_s"),  # written as true: not a number
        ({"train_s": _Seconds(0.0)}, "train_s"),  # would read back as a float
        ({"llm_time_s": Decimal(0)}, "llm_time_s"),  # not a JSON number
        ({"cycle": 0.0, "success": 1}, "cycle"),  # the first field is named
    ])
    def test_field_types_checked(self, tmp_path, changes, field):
        # Each equals _TYPED_RECORD's value, so after it the bad record's head
        # is checked and its block is a memo miss.
        bad = dataclasses.replace(_TYPED_RECORD, **changes)
        for records in ([bad], [_TYPED_RECORD, bad]):
            with pytest.raises(SchemaError) as err:
                write_records(records, tmp_path / "runs.jsonl")
            assert err.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("llm_time_s", NAN), ("total_s", INF), ("execute_s", -INF),
    ])
    def test_non_finite_time_not_written(self, tmp_path, field, value):
        # RunRecord refuses one when built; only a later change can set it.
        record = dataclasses.replace(_TYPED_RECORD)
        setattr(record, field, value)
        with pytest.raises(SchemaError) as err:
            write_records([_TYPED_RECORD, record], tmp_path / "runs.jsonl")
        assert err.value.field == field
        assert err.value.message.startswith("expected a finite number")

    @settings(max_examples=300, deadline=None)
    @given(_changed_records)
    @example((dataclasses.replace(_TYPED_RECORD, hit=True), "learned", True))
    @example((_TYPED_RECORD, "policy", "bogus"))
    @example((_TYPED_RECORD, "repeat_index", 0))
    @example((_TYPED_RECORD, "cycle", -1))
    @example((_TYPED_RECORD, "llm_calls", -2))
    @example((_TYPED_RECORD, "total_s", 4.0))
    @example((_TYPED_RECORD, "retrieve_s", -0.0))
    @example((_TYPED_RECORD, "execute_s", 2))
    def test_writer_refuses_what_the_reader_refuses_property(self, tmp_path_factory, case):
        # The record is written after a copy of the one it was changed from,
        # so a change to the head alone meets a block already checked.
        original, name, value = case
        record = dataclasses.replace(original)
        setattr(record, name, value)
        path = tmp_path_factory.getbasetemp() / "differential-runs.jsonl"
        field = _reader_refusal(record, name, path)
        if field is None:
            write_records([original, record], path)
            expected = "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in (original, record))
            assert path.read_text(encoding="utf-8") == expected
        else:
            with pytest.raises(SchemaError) as err:
                write_records([original, record], path)
            assert err.value.field == field

    def test_refused_write_keeps_previous_file(self, tmp_path):
        records = self._records()
        path = tmp_path / "runs.jsonl"
        write_records(records[:3], path)
        before = path.read_bytes()
        bad = dataclasses.replace(records[1])
        bad.cycle = -1
        with pytest.raises(SchemaError):
            write_records([records[0], bad], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]

    def test_reader_runs_once_per_distinct_block(self, monkeypatch, tmp_path):
        events = generate_corpus(seed=4, n_tasks=6, n_repeats=3)
        records = [
            record
            for mode in (PROPOSED, ALWAYS_LLM)
            for record in run_loop(events, mode, MethodLibrary(), planner(), THRESHOLDS, CFG)
        ]
        distinct = {(r.policy, *dataclasses.astuple(r)[4:]) for r in records}
        calls = []
        real_read = engine.read_dataclass

        def counting_read(cls, doc):
            calls.append(doc["policy"])
            return real_read(cls, doc)

        monkeypatch.setattr(engine, "read_dataclass", counting_read)
        write_records(records, tmp_path / "runs.jsonl")
        assert len(calls) == len(distinct) < len(records)

    def test_fields_follow_the_clock_phases(self):
        # run_episode builds each record positionally from the episode's phases.
        assert RECORD_FIELDS[:4] == ("policy", "task_id", "repeat_index", "cycle")
        assert RECORD_FIELDS[4:11] == (*_PHASE_FIELDS, "total_s")
        assert RECORD_FIELDS[4:10] == tuple(f"{phase}_s" for phase in PHASES)
        assert RECORD_FIELDS[11:] == ("llm_calls", "llm_time_s", "success", "hit", "learned")

    @pytest.mark.parametrize("changes, field", [
        ({"execute_s": INF, "total_s": INF}, "execute_s"),
        ({"plan_llm_s": INF, "total_s": INF, "llm_time_s": INF}, "plan_llm_s"),
        ({"total_s": NAN}, "total_s"),
        ({"total_s": INF}, "total_s"),
        ({"llm_time_s": NAN}, "llm_time_s"),
        ({"llm_time_s": INF}, "llm_time_s"),
        ({"retrieve_s": NAN}, "retrieve_s"),
    ])
    def test_non_finite_record_rejected(self, changes, field):
        # Such a record would be written as NaN or Infinity, which read_records rejects.
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            dataclasses.replace(self._records()[0], **changes)

    def test_write_avoids_the_pure_python_encoder(self, tmp_path, monkeypatch):
        records = self._records()
        expected = "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in records)

        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        write_records(records, tmp_path / "runs.jsonl")
        assert (tmp_path / "runs.jsonl").read_text(encoding="utf-8") == expected

    def test_malformed_line_reports_line_number(self, tmp_path):
        records = self._records()
        path = tmp_path / "runs.jsonl"
        write_records(records, path)
        lines = path.read_text().splitlines()
        good = json.loads(lines[2])
        cases = [
            ({"policy": "proposed"}, "task_id"),
            ({**good, "success": "false"}, "success"),
            ({**good, "hit": 1}, "hit"),
            ({**good, "llm_calls": 1.5}, "llm_calls"),
            ({**good, "repeat_index": True}, "repeat_index"),
            ({**good, "policy": 3}, "policy"),
            ({**good, "note": "extra"}, "note"),
        ]
        for bad, field in cases:
            lines[2] = json.dumps(bad)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(RecordStreamError) as err:
                read_records(path)
            assert err.value.line_no == 3
            assert err.value.__cause__.field == field
            assert field in str(err.value)

    def test_impossible_values_rejected(self, tmp_path):
        records = self._records()
        path = tmp_path / "runs.jsonl"
        write_records(records, path)
        lines = path.read_text().splitlines()
        good = json.loads(lines[2])
        cases = [
            ({**good, "total_s": good["total_s"] + 99.0}, "total_s"),
            ({**good, "retrieve_s": -1.0}, "retrieve_s"),
            ({**good, "llm_time_s": -1.0}, "llm_time_s"),
            ({**good, "llm_calls": -1}, "llm_calls"),
            ({**good, "repeat_index": 0}, "repeat_index"),
            ({**good, "cycle": -1}, "cycle"),
            ({**good, "policy": "bogus"}, "policy"),
        ]
        for bad, field in cases:
            lines[2] = json.dumps(bad)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(RecordStreamError) as err:
                read_records(path)
            assert err.value.line_no == 3
            assert field in str(err.value)


class TestClockAndExecutor:
    def test_now_adds_phases_left_to_right(self, task):
        # A proposed episode on an empty library charges retrieve 0.1, then
        # plan_llm 0.2, then execute 0.3. From Python 3.12 on, sum() of these
        # gives 0.6; the pinned outputs hold the left-to-right
        # 0.6000000000000001 on every version.
        config = ExecutorConfig(base_s=0.3, per_step_s=0.0, retrieve_s=0.1, collect_s=0.0,
                                train_s=0.0, store_s=0.0)
        [record] = run_loop([self_event(task, 0)], PROPOSED, MethodLibrary(),
                            MockPlanner(latency_s=0.2, p_corrupt=0.0), THRESHOLDS, config)
        assert (record.retrieve_s, record.plan_llm_s, record.execute_s) == (0.1, 0.2, 0.3)
        assert record.total_s == 0.1 + 0.2 + 0.3 == 0.6000000000000001

    @given(st.lists(st.floats(-1e300, 1e300), max_size=20))
    def test_float_sum_adds_left_to_right(self, values):
        assert float_sum(values) == reduce(add, values, 0.0)

    def test_executor_collect_labels_steps(self, task):
        executor = SequenceExecutor(task, CFG)
        phases = dict.fromkeys(PHASES, 0.0)
        from reuseloop.experience import EpisodeDataset

        ds = EpisodeDataset()
        wrong = list(task.target_sequence)
        wrong[1] = "rotate" if wrong[1] != "rotate" else "push"
        executor.collect(wrong, ds, phases)
        assert [s.success for s in ds.self_samples] == [
            a == b for a, b in zip(wrong, task.target_sequence)
        ]
        assert phases == {**dict.fromkeys(PHASES, 0.0), "collect": CFG.collect_s}

    def test_executor_collect_past_the_target_fails_the_extra_steps(self, task):
        from reuseloop.experience import EpisodeDataset

        ds = EpisodeDataset()
        target = list(task.target_sequence)
        SequenceExecutor(task, CFG).collect([*target, "move", "move"], ds, dict.fromkeys(PHASES, 0.0))
        assert [s.t for s in ds.self_samples] == list(range(1, len(target) + 3))
        assert [s.success for s in ds.self_samples] == [True] * len(target) + [False, False]

    def test_first_failed_step(self, task):
        executor = SequenceExecutor(task, CFG)
        target = list(task.target_sequence)
        assert executor.first_failed_step(target) is None
        assert executor.first_failed_step(["rotate", *target[1:]]) == 1
        assert executor.first_failed_step([*target, "move"]) == len(target) + 1
        # A sequence that stops short of the target fails execution, so it
        # fails at a step too: the first one it leaves out.
        for n in range(len(target)):
            assert not executor.execute(target[:n], dict.fromkeys(PHASES, 0.0))
            assert executor.first_failed_step(target[:n]) == n + 1

    def test_overflowing_execute_time_rejected(self, task):
        # Each duration is finite, but base_s + per_step_s * n_steps is not.
        config = ExecutorConfig(base_s=1e308, per_step_s=1e308)
        with pytest.raises(ValueError, match="^execute_s must be finite$"):
            run_loop([self_event(task, 0)], PROPOSED, MethodLibrary(), planner(), THRESHOLDS,
                     config)

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            RunRecord(
                policy=PROPOSED, task_id="t", repeat_index=1, cycle=0,
                retrieve_s=0, plan_llm_s=0, execute_s=0, collect_s=0, train_s=0, store_s=0,
                total_s=0, llm_calls=0, llm_time_s=0, success=True, hit=True, learned=True,
            )
        # Finite phases whose sum overflows: no finite total equals it.
        with pytest.raises(ValueError, match="^total_s must equal the sum of the phase times$"):
            RunRecord(
                policy=PROPOSED, task_id="t", repeat_index=1, cycle=0,
                retrieve_s=0, plan_llm_s=0, execute_s=1e308, collect_s=1e308, train_s=0, store_s=0,
                total_s=1e308, llm_calls=0, llm_time_s=0, success=True, hit=False, learned=False,
            )

    def test_llm_time_cannot_exceed_total(self):
        with pytest.raises(ValueError, match="^llm_time_s cannot exceed total_s$"):
            RunRecord(
                policy=PROPOSED, task_id="t", repeat_index=1, cycle=0,
                retrieve_s=0, plan_llm_s=0.5, execute_s=0, collect_s=0, train_s=0, store_s=0,
                total_s=0.5, llm_calls=1, llm_time_s=0.6, success=True, hit=False, learned=False,
            )

    def test_negative_executor_config_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(base_s=-1.0)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_executor_config_rejected(self, value):
        with pytest.raises(ValueError, match="^train_s must be finite"):
            ExecutorConfig(train_s=value)


# Who reads a task's hidden target, each for the reason given. Policy code
# must not, as TaskDescriptor says: a method is validated on the evidence
# its episode pays for, never by comparing it with the target.
TARGET_READERS = {
    "tasks.py": "defines the target, checks it, and builds corpora and observations from it",
    "planner.py": "the simulated LLM: its plans stand in for what a model knows of the task",
    "engine.py:SequenceExecutor": "the simulated environment, which judges what is executed",
}


def test_only_the_environment_and_the_simulated_llm_read_the_target():
    readers = set()
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.name}:{stmt.name}" if isinstance(stmt, ast.ClassDef) else path.name
            for node in ast.walk(stmt):
                # An attribute load, or the name as a string (getattr, a key).
                if (isinstance(node, ast.Attribute) and node.attr == "target_sequence"
                        and isinstance(node.ctx, ast.Load)) or (
                        isinstance(node, ast.Constant) and node.value == "target_sequence"):
                    readers.add(owner if owner in TARGET_READERS else path.name)
    assert readers == set(TARGET_READERS)
