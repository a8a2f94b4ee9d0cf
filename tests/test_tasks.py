from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reuseloop.errors import SchemaError
from reuseloop.tasks import (
    CORPUS_MODES,
    DEFAULT_ACTIONS,
    OBSERVATION_FIRST,
    OBSERVED_EVENT,
    SELF_TASK,
    TaskConstraints,
    corpus_from_doc,
    corpus_to_doc,
    generate_corpus,
    load_corpus,
    mean_target_length,
    normalize_goal,
    save_corpus,
    signature_of,
)

from conftest import make_task


class TestSignature:
    def test_identical_tasks_share_a_signature(self):
        a = make_task(goal=("pick", "up", "red", "cube"))
        b = make_task(goal=("pick", "up", "red", "cube"), task_id="task-001")
        assert signature_of(a) == signature_of(b)

    def test_normalization_ignores_case_and_punctuation(self):
        a = make_task(goal=("Pick", "UP!", "red", "cube."))
        b = make_task(goal=("pick", "up", "red", "cube"))
        assert signature_of(a) == signature_of(b)

    def test_different_goals_differ(self):
        a = make_task(goal=("pick", "up", "red", "cube"))
        b = make_task(goal=("pick", "up", "blue", "cube"))
        assert signature_of(a) != signature_of(b)

    def test_matches_token_list_comparison_oracle(self):
        # Signatures agree exactly when normalized goals and constraints agree.
        rng = random.Random(11)
        vocab = ["pick", "Pick", "up", "red", "BLUE", "cube", "ball!"]
        for _ in range(300):
            goal_a = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            goal_b = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            steps_a = rng.choice([6, 8])
            steps_b = rng.choice([6, 8])
            if not normalize_goal(goal_a) or not normalize_goal(goal_b):
                continue
            a = make_task(goal=goal_a, max_steps=steps_a, target=("move",) * 3)
            b = make_task(goal=goal_b, max_steps=steps_b, target=("move",) * 3)
            should_match = normalize_goal(goal_a) == normalize_goal(goal_b) and steps_a == steps_b
            assert (signature_of(a) == signature_of(b)) == should_match

    def test_descriptor_key_matches_free_functions(self, tmp_path):
        fresh = make_task(goal=("Pick", "UP!", "red", "cube"))
        assert fresh.signature == signature_of(fresh)
        replaced = dataclasses.replace(fresh, goal=("stack", "blue", "ring"))
        events = generate_corpus(seed=3, n_tasks=4, n_repeats=1)
        save_corpus(events, tmp_path / "corpus.json")
        loaded = [event.task for event in load_corpus(tmp_path / "corpus.json")]
        assert [task.signature for task in loaded] == [event.task.signature for event in events]
        for task in [fresh, replaced, *loaded]:
            assert task.signature == signature_of(task)
            assert task.goal_tokens == set(normalize_goal(task.goal))
        assert replaced.signature != fresh.signature
        # ``fresh`` holds its key; ``cold`` has not computed it yet.
        cold = make_task(goal=fresh.goal)
        assert "signature" not in vars(cold)
        assert cold == fresh and fresh == cold

    def test_constraints_participate(self):
        a = make_task(max_steps=8)
        b = make_task(max_steps=6)
        assert signature_of(a) != signature_of(b)


class TestDescriptorInvariants:
    def test_goal_must_be_non_empty(self):
        with pytest.raises(ValueError):
            make_task(goal=())

    def test_target_must_be_non_empty(self):
        with pytest.raises(ValueError, match="^target_sequence must be non-empty$"):
            make_task(target=())

    def test_target_must_fit_max_steps(self):
        with pytest.raises(ValueError):
            make_task(target=("move",) * 9, max_steps=8)

    def test_deadline_must_be_nonnegative(self):
        for deadline in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^deadline_s must be finite and nonnegative"):
                TaskConstraints(max_steps=4, deadline_s=deadline)
        assert TaskConstraints(max_steps=4, deadline_s=0.0).deadline_s == 0.0


class TestGenerateCorpus:
    def test_reference_shape(self):
        events = generate_corpus(seed=7, n_tasks=20, n_repeats=5)
        assert len(events) == 100
        sigs = [signature_of(e.task) for e in events]
        assert len(set(sigs)) == 20
        for sig in set(sigs):
            assert sigs.count(sig) == 5

    def test_minimal_corpus(self):
        events = generate_corpus(seed=7, n_tasks=1, n_repeats=1)
        assert len(events) == 1
        assert events[0].kind == SELF_TASK

    def test_observation_first_layout(self):
        events = generate_corpus(seed=7, n_tasks=3, n_repeats=2, mode=OBSERVATION_FIRST)
        assert [e.kind for e in events[:3]] == [OBSERVED_EVENT] * 3
        assert [e.kind for e in events[3:]] == [SELF_TASK] * 3
        for observed, self_ev in zip(events[:3], events[3:]):
            assert signature_of(observed.task) == signature_of(self_ev.task)
            assert observed.observed is not None
            assert observed.observed.success
            assert observed.observed.action_sequence == observed.task.target_sequence

    def test_observed_events_precede_matching_self_events(self):
        events = generate_corpus(seed=3, n_tasks=6, n_repeats=4, mode=OBSERVATION_FIRST)
        observed_cycle = {}
        for e in events:
            if e.kind == OBSERVED_EVENT:
                observed_cycle[signature_of(e.task)] = e.cycle
        assert len(observed_cycle) == 6
        for e in events:
            if e.kind == SELF_TASK:
                assert e.cycle > observed_cycle[signature_of(e.task)]

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            generate_corpus(seed=7, n_tasks=0, n_repeats=5)
        with pytest.raises(ValueError):
            generate_corpus(seed=7, n_tasks=5, n_repeats=0)

    def test_referentially_transparent(self):
        a = generate_corpus(seed=42, n_tasks=10, n_repeats=3)
        b = generate_corpus(seed=42, n_tasks=10, n_repeats=3)
        assert json.dumps(corpus_to_doc(a)) == json.dumps(corpus_to_doc(b))

    def test_different_seeds_differ(self):
        a = generate_corpus(seed=1, n_tasks=10, n_repeats=1)
        b = generate_corpus(seed=2, n_tasks=10, n_repeats=1)
        assert json.dumps(corpus_to_doc(a)) != json.dumps(corpus_to_doc(b))

    def test_targets_drawn_from_default_actions(self):
        events = generate_corpus(seed=9, n_tasks=30, n_repeats=2)
        for e in events:
            assert all(a in DEFAULT_ACTIONS for a in e.task.target_sequence)
            assert len(e.task.target_sequence) <= e.task.constraints.max_steps

    def test_cycles_strictly_increase(self):
        events = generate_corpus(seed=5, n_tasks=4, n_repeats=3)
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles)

    def test_mean_target_length(self):
        events = generate_corpus(seed=7, n_tasks=20, n_repeats=5)
        lengths = {signature_of(e.task): len(e.task.target_sequence) for e in events}
        assert mean_target_length(events) == pytest.approx(sum(lengths.values()) / 20)


class TestCorpusPersistence:
    def test_round_trip(self, tmp_path):
        events = generate_corpus(seed=13, n_tasks=5, n_repeats=2, mode=OBSERVATION_FIRST)
        path = tmp_path / "corpus.json"
        save_corpus(events, path)
        loaded = load_corpus(path)
        assert corpus_to_doc(loaded) == corpus_to_doc(events)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_tasks=st.integers(1, 12),
        n_repeats=st.integers(1, 3),
        mode=st.sampled_from(CORPUS_MODES),
    )
    def test_round_trip_property(self, seed, n_tasks, n_repeats, mode):
        events = generate_corpus(seed=seed, n_tasks=n_tasks, n_repeats=n_repeats, mode=mode)
        assert corpus_from_doc(json.loads(json.dumps(corpus_to_doc(events)))) == events

    def test_version_checked(self):
        with pytest.raises(SchemaError) as err:
            corpus_from_doc({"version": 99, "events": []})
        assert "version" in str(err.value)

    def test_missing_task_field_named(self):
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=1, n_repeats=1))
        del doc["events"][0]["task"]["goal"]
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert "goal" in str(err.value)

    def test_empty_target_sequence_named(self):
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=1, n_repeats=1))
        doc["events"][0]["task"]["target_sequence"] = []
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert err.value.field == "events[0].task.target_sequence"
        assert err.value.message == "must be non-empty"

    def test_string_sequences_rejected(self):
        events = generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)
        cases = [
            (("task", "goal"), "pick red cube"),
            (("task", "target_sequence"), "move"),
            (("observed", "action_sequence"), "move"),
            # Misspelled keys are unknown fields; environment values are strings.
            (("task", "constraints", "deadline"), 5.0),
            (("observed", "contxt"), {}),
            (("task", "environment", "object"), 3),
        ]
        for path, value in cases:
            doc = corpus_to_doc(events)
            node = doc["events"][0]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            with pytest.raises(SchemaError) as err:
                corpus_from_doc(doc)
            assert err.value.field == "events[0]." + ".".join(path)

    def test_observed_object_is_action_sequence_and_success(self):
        events = generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)
        observed = corpus_to_doc(events)["events"][0]["observed"]
        assert observed == {"action_sequence": list(events[0].task.target_sequence), "success": True}

    def test_old_observation_format_rejected(self):
        # Before ObservedEvent lost its copies, each observation also held
        # the task's signature and a context object.
        event = generate_corpus(seed=1, n_tasks=1, n_repeats=1, mode=OBSERVATION_FIRST)[0]
        doc = corpus_to_doc([event])
        doc["events"][0]["observed"] = {
            "task_signature": event.task.signature,
            "action_sequence": list(event.task.target_sequence),
            "success": True,
            "context": {"source": "external-agent"},
        }
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert err.value.field == "events[0].observed.task_signature"
        assert err.value.message == "unknown field"

    def test_non_increasing_cycles_rejected(self):
        doc = corpus_to_doc(generate_corpus(seed=1, n_tasks=2, n_repeats=1))
        doc["events"][1]["cycle"] = doc["events"][0]["cycle"]
        with pytest.raises(SchemaError) as err:
            corpus_from_doc(doc)
        assert "cycle" in str(err.value)


def test_event_kind_and_payload_consistency():
    task = make_task()
    with pytest.raises(ValueError):
        # observed payload missing for an observed_event
        from reuseloop.tasks import TaskEvent

        TaskEvent(cycle=0, kind=OBSERVED_EVENT, task=task, observed=None)
