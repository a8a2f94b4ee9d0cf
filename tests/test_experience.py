from __future__ import annotations

import random

import pytest

from reuseloop.experience import EpisodeDataset
from reuseloop.learner import _tally
from reuseloop.tasks import ObservedEvent

from conftest import make_sample


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
        # observation continues after the last of them, in action order.
        ds = EpisodeDataset()
        ds.obs_samples.append(make_sample(2, "move"))
        ds.ingest_observation(ObservedEvent(("grasp", "lift"), True))
        assert [(s.t, s.action) for s in ds.obs_samples] == [(2, "move"), (3, "grasp"), (4, "lift")]
        assert not ds.self_samples

    def test_out_of_order_rejected(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(3))
        with pytest.raises(ValueError):
            ds.record_step(make_sample(1))

    def test_sources_are_independent_streams(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(5))
        # an observed sample with a smaller index is fine, different stream
        ds.ingest_observation(ObservedEvent(("move",), True))
        assert [s.t for s in ds.self_samples] == [5] and [s.t for s in ds.obs_samples] == [1]
        # and a self step's index is checked against self steps only
        with pytest.raises(ValueError, match="^step index 5 not after last recorded index 5$"):
            ds.record_step(make_sample(5))


class TestIngestObservation:
    def test_four_actions_become_four_successful_samples(self):
        ds = EpisodeDataset()
        ds.ingest_observation(ObservedEvent(("move", "grasp", "lift", "place"), True))
        assert len(ds.obs_samples) == 4
        assert all(s.success for s in ds.obs_samples)
        assert [s.t for s in ds.obs_samples] == [1, 2, 3, 4]
        assert [s.action for s in ds.obs_samples] == ["move", "grasp", "lift", "place"]

    def test_second_event_renumbers(self):
        ds = EpisodeDataset()
        ds.ingest_observation(ObservedEvent(("move", "grasp", "lift"), True))
        ds.ingest_observation(ObservedEvent(("rotate", "place"), True))
        assert len(ds.obs_samples) == 5
        assert [s.t for s in ds.obs_samples] == [1, 2, 3, 4, 5]

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
