from __future__ import annotations

import math
import random

import pytest

from reuseloop.engine import PHASES, ExecutorConfig, SequenceExecutor
from reuseloop.experience import EpisodeDataset
from reuseloop.learner import _tally, initialize, train_episode, validate
from reuseloop.planner import LearningPlan, UpdateCriteria
from reuseloop.tasks import ObservedEvent

from conftest import make_sample, make_task


def merged_size(ds: EpisodeDataset) -> int:
    """The samples the learner's tally counts, over both sources."""
    return sum(_tally(ds)[0].values())


class TestRecordStep:
    def test_self_append(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(1))
        assert len(ds.self_samples) == 1
        assert not ds.obs_samples

    def test_observed_append_keeps_order(self):
        # Observed samples are appended to obs_samples; an ingested
        # observation follows the last of them, in action order, numbered
        # from step 1.
        ds = EpisodeDataset()
        ds.obs_samples.append(make_sample(2, "move"))
        ds.ingest_observation(ObservedEvent(("grasp", "lift"), True))
        assert [(s.t, s.action) for s in ds.obs_samples] == [(2, "move"), (1, "grasp"), (2, "lift")]
        assert not ds.self_samples

    def test_a_rollout_restarts_at_step_1(self):
        # Each rollout is numbered from step 1, so a second one repeats the
        # first one's indices; record_step appends in call order.
        ds = EpisodeDataset()
        for t in (1, 2, 3, 1, 2):
            ds.record_step(make_sample(t))
        assert [s.t for s in ds.self_samples] == [1, 2, 3, 1, 2]

    def test_sources_are_independent_streams(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(5))
        ds.ingest_observation(ObservedEvent(("move",), True))
        ds.record_step(make_sample(5))
        # each source keeps its own samples, in the order they came
        assert [s.t for s in ds.self_samples] == [5, 5] and [s.t for s in ds.obs_samples] == [1]


class TestIngestObservation:
    def test_four_actions_become_four_successful_samples(self):
        ds = EpisodeDataset()
        ds.ingest_observation(ObservedEvent(("move", "grasp", "lift", "place"), True))
        assert len(ds.obs_samples) == 4
        assert all(s.success for s in ds.obs_samples)
        assert [s.t for s in ds.obs_samples] == [1, 2, 3, 4]
        assert [s.action for s in ds.obs_samples] == ["move", "grasp", "lift", "place"]

    def test_second_demonstration_restarts_at_step_1(self):
        ds = EpisodeDataset()
        ds.ingest_observation(ObservedEvent(("move", "grasp", "lift"), True))
        ds.ingest_observation(ObservedEvent(("rotate", "place"), True))
        assert len(ds.obs_samples) == 5
        assert [s.t for s in ds.obs_samples] == [1, 2, 3, 1, 2]

    def test_failed_event_rejected(self):
        ds = EpisodeDataset()
        with pytest.raises(ValueError):
            ds.ingest_observation(ObservedEvent(("move",), False))
        assert merged_size(ds) == 0

    def test_never_touches_self_samples(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(1))
        ds.ingest_observation(ObservedEvent(("move", "grasp"), True))
        assert len(ds.self_samples) == 1


class TestMergedSize:
    def test_empty(self):
        assert merged_size(EpisodeDataset()) == 0

    def test_self_only(self):
        ds = EpisodeDataset()
        for t in range(1, 4):
            ds.record_step(make_sample(t))
        assert merged_size(ds) == 3

    def test_mixed(self):
        ds = EpisodeDataset()
        for t in range(1, 4):
            ds.record_step(make_sample(t))
        ds.ingest_observation(ObservedEvent(("move",) * 4, True))
        assert merged_size(ds) == 7

    def test_merged_never_below_self_on_random_datasets(self):
        rng = random.Random(21)
        for _ in range(500):
            ds = EpisodeDataset()
            for t in range(1, rng.randint(1, 10)):
                ds.record_step(make_sample(t, success=rng.random() < 0.7))
            for _ in range(rng.randint(0, 3)):
                ds.ingest_observation(
                    ObservedEvent(("move",) * rng.randint(1, 5), True)
                )
            assert merged_size(ds) == len(ds.self_samples) + len(ds.obs_samples)
            assert merged_size(ds) >= len(ds.self_samples)


def test_dataset_takes_no_arguments():
    ds = EpisodeDataset()
    assert ds.self_samples == ds.obs_samples == []
    with pytest.raises(TypeError):
        EpisodeDataset("sig")


class TestRolloutsVote:
    """k rollouts of one source restart at step 1, so they vote per index."""

    def test_two_collects_outvote_a_wrong_step(self):
        # The second rollout repeats the plan's wrong step 2; the first
        # collects the target. Step 2 keeps the one success of the two.
        executor = SequenceExecutor(make_task(target=("move", "grasp", "lift")), ExecutorConfig())
        ds, phases = EpisodeDataset(), dict.fromkeys(PHASES, 0.0)
        executor.collect(("move", "grasp", "lift"), ds, phases)
        executor.collect(("move", "push", "lift"), ds, phases)
        assert [(s.t, s.success) for s in ds.self_samples] == [
            (1, True), (2, True), (3, True), (1, True), (2, False), (3, True)]
        plan = LearningPlan(("sequence",), direct_solution=("move", "push", "lift"))
        candidate = train_episode(initialize(plan, ds), ds)
        assert candidate.sequence == ["move", "grasp", "lift"]
        assert candidate.per_step_confidence == [1.0, 0.5, 1.0]
        # Confidence 1/2 passes the default validation_threshold, 0.5, only
        # at equality: any threshold above it refuses the candidate.
        assert UpdateCriteria().validation_threshold == 0.5
        assert validate(candidate, True, UpdateCriteria()).passed
        above = UpdateCriteria(validation_threshold=math.nextafter(0.5, 1.0))
        assert not validate(candidate, True, above).passed

    def test_three_demonstrations_vote_by_majority(self):
        ds = EpisodeDataset()
        for demo in (("move", "grasp", "lift"), ("move", "push", "lift"), ("move", "grasp", "lift")):
            ds.ingest_observation(ObservedEvent(demo, True))
        candidate = train_episode(initialize(LearningPlan(("sequence",)), ds), ds)
        assert candidate.sequence == ["move", "grasp", "lift"]
        # Today's confidence rule (ROADMAP item 22 decides how a plan and a
        # demonstration are weighed): train_episode counts every success at
        # an index, the outvoted push included, so confidence stays 1.0.
        assert candidate.per_step_confidence == [1.0, 1.0, 1.0]
