from __future__ import annotations

import random

import pytest

from reuseloop.experience import EpisodeDataset, ExperienceSample, SOURCE_OBSERVED, SOURCE_SELF
from reuseloop.tasks import ObservedEvent

from conftest import make_sample


class TestRecordStep:
    def test_self_append(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(1))
        assert len(ds.self_samples) == 1
        assert not ds.obs_samples

    def test_observed_append_keeps_order(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(1, source=SOURCE_OBSERVED))
        ds.record_step(make_sample(2, source=SOURCE_OBSERVED))
        assert [s.t for s in ds.obs_samples] == [1, 2]

    def test_out_of_order_rejected(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(3))
        with pytest.raises(ValueError):
            ds.record_step(make_sample(1))

    def test_sources_are_independent_streams(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(5, source=SOURCE_SELF))
        # an observed sample with a smaller index is fine, different stream
        ds.record_step(make_sample(1, source=SOURCE_OBSERVED))
        assert len(ds.self_samples) == 1 and len(ds.obs_samples) == 1


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
        assert ds.merged_size() == 0

    def test_never_touches_self_samples(self):
        ds = EpisodeDataset()
        ds.record_step(make_sample(1))
        ds.ingest_observation(ObservedEvent(("move", "grasp"), True))
        assert len(ds.self_samples) == 1


class TestMergedSize:
    def test_empty(self):
        assert EpisodeDataset().merged_size() == 0

    def test_self_only(self):
        ds = EpisodeDataset()
        for t in range(1, 4):
            ds.record_step(make_sample(t))
        assert ds.merged_size() == 3

    def test_mixed(self):
        ds = EpisodeDataset()
        for t in range(1, 4):
            ds.record_step(make_sample(t))
        ds.ingest_observation(ObservedEvent(("move",) * 4, True))
        assert ds.merged_size() == 7

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
            assert ds.merged_size() >= len(ds.self_samples)


def test_sample_validation():
    with pytest.raises(ValueError):
        make_sample(0)
    with pytest.raises(ValueError):
        ExperienceSample(1, "move", True, "telepathy")


def test_dataset_takes_no_arguments():
    assert EpisodeDataset().merged_size() == 0
    with pytest.raises(TypeError):
        EpisodeDataset("sig")
