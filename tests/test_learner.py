from __future__ import annotations

import random
from collections import Counter

import pytest

from reuseloop.experience import EpisodeDataset
from reuseloop.learner import (
    STAGE_ADJUSTED,
    STAGE_INITIAL,
    STAGE_REFINED,
    CandidateSolution,
    build_method,
    initialize,
    quasi_adjust,
    train_episode,
    validate,
)
from reuseloop.library import matching_score
from reuseloop.planner import MockPlanner, UpdateCriteria
from reuseloop.tasks import ObservedEvent
from reuseloop.trigger import needs_refinement, utility

from conftest import make_method, make_sample, make_task


def plan_for(task, p_corrupt=0.0, seed=1):
    return MockPlanner(seed=seed, p_corrupt=p_corrupt).plan(task)


def plan_without_solution(task):
    plan = plan_for(task)
    return plan.__class__(
        candidate_models=plan.candidate_models,
        subproblems=plan.subproblems,
        data_requirements=plan.data_requirements,
        strategy=plan.strategy,
        update_criteria=plan.update_criteria,
        direct_solution=None,
    )


SELF, OBS = "self", "observed"  # the list a named case's sample goes to


class TestInitialize:
    def test_direct_solution_seeds_candidate(self, task):
        candidate = initialize(plan_for(task), EpisodeDataset())
        assert candidate.stage == STAGE_INITIAL
        assert tuple(candidate.sequence) == task.target_sequence
        assert candidate.per_step_confidence == [1.0] * len(task.target_sequence)
        assert candidate.model_family == "sequence"

    def test_observation_dataset_fallback(self, task):
        ds = EpisodeDataset()
        ds.ingest_observation(ObservedEvent(("move", "grasp", "lift", "place"), True))
        candidate = initialize(plan_without_solution(task), ds)
        assert candidate.sequence == ["move", "grasp", "lift", "place"]
        assert candidate.per_step_confidence == [1.0] * 4

    def test_prefix_stops_at_first_unsuccessful_index(self, task):
        ds = EpisodeDataset()
        ds.record_step(make_sample(1, "move", True))
        ds.record_step(make_sample(2, "grasp", False))
        ds.record_step(make_sample(3, "lift", True))
        candidate = initialize(plan_without_solution(task), ds)
        assert candidate.sequence == ["move"]

    def test_prefix_votes_most_successes_then_smallest_name(self, task):
        # Step 1 ties move and grasp; at step 2 only lift succeeded; step 3 only failed.
        ds = EpisodeDataset()
        for t, action, success in [(1, "move", True), (2, "lift", True), (3, "place", False)]:
            ds.record_step(make_sample(t, action, success))
        ds.obs_samples += [make_sample(1, "grasp", True), make_sample(2, "align", False)]
        candidate = initialize(plan_without_solution(task), ds)
        assert candidate.sequence == ["grasp", "lift"]
        assert candidate.per_step_confidence == [1.0, 1.0]

    def test_empty_everything_is_an_error(self, task):
        with pytest.raises(ValueError):
            initialize(plan_without_solution(task), EpisodeDataset())


class TestQuasiAdjust:
    def test_failure_halves_confidence(self, task):
        candidate = initialize(plan_for(task), EpisodeDataset())
        quasi_adjust(candidate, make_sample(2, "grasp", False))
        assert candidate.per_step_confidence[1] == 0.5
        assert candidate.stage == STAGE_ADJUSTED

    def test_success_averages_toward_one(self, task):
        candidate = initialize(plan_for(task), EpisodeDataset())
        candidate.per_step_confidence[1] = 0.5
        quasi_adjust(candidate, make_sample(2, "grasp", True))
        assert candidate.per_step_confidence[1] == 0.75

    def test_refined_candidates_are_immutable(self, task):
        candidate = initialize(plan_for(task), EpisodeDataset())
        candidate.stage = STAGE_REFINED
        with pytest.raises(ValueError):
            quasi_adjust(candidate, make_sample(1, "move", True))

    def test_sample_past_the_candidate_rejected(self):
        candidate = CandidateSolution(STAGE_INITIAL, ["move", "grasp", "lift"], [1.0] * 3, "sequence")
        with pytest.raises(ValueError, match="^sample step 4 outside candidate of length 3$"):
            quasi_adjust(candidate, make_sample(4, "place", True))
        assert candidate.per_step_confidence == [1.0] * 3 and candidate.stage == STAGE_INITIAL


class TestTrainEpisode:
    def test_majority_replaces_step(self):
        task = make_task(target=("move", "grasp", "lift", "place"))
        # index 3 saw place succeed twice and drop fail once
        ds = EpisodeDataset()
        ds.record_step(make_sample(1, "move", True))
        ds.record_step(make_sample(2, "grasp", True))
        ds.record_step(make_sample(3, "lift", True))
        ds.record_step(make_sample(4, "drop", False))
        ds.ingest_observation(ObservedEvent(("move", "grasp", "lift", "place"), True))
        ds.obs_samples.append(make_sample(5, "place", True))
        # candidate starts from the faulty attempt
        plan = plan_for(make_task(target=("move", "grasp", "lift", "drop")))
        candidate = initialize(plan, ds)
        candidate = train_episode(candidate, ds)
        assert candidate.stage == STAGE_REFINED
        assert candidate.sequence[3] == "place"

    def test_fixed_point_on_agreeing_data(self, task):
        ds = EpisodeDataset()
        for i, action in enumerate(task.target_sequence, start=1):
            ds.record_step(make_sample(i, action, True))
        candidate = initialize(plan_for(task), ds)
        refined = train_episode(candidate, ds)
        assert tuple(refined.sequence) == task.target_sequence
        assert refined.per_step_confidence == [1.0] * len(task.target_sequence)

    def test_observation_only_dataset_recovers_target(self, task):
        ds = EpisodeDataset()
        ds.ingest_observation(ObservedEvent(task.target_sequence, True))
        candidate = initialize(plan_without_solution(task), ds)
        refined = train_episode(candidate, ds)
        assert tuple(refined.sequence) == task.target_sequence

    def test_observation_corrects_corrupted_plan(self, task):
        corrupted = list(task.target_sequence)
        corrupted[1] = "rotate" if corrupted[1] != "rotate" else "push"
        plan = plan_for(task)
        plan = plan.__class__(
            candidate_models=plan.candidate_models,
            update_criteria=plan.update_criteria,
            direct_solution=tuple(corrupted),
        )
        ds = EpisodeDataset()
        ds.ingest_observation(ObservedEvent(task.target_sequence, True))
        refined = train_episode(initialize(plan, ds), ds)
        assert tuple(refined.sequence) == task.target_sequence

    def test_refined_is_immutable(self, task):
        ds = EpisodeDataset()
        candidate = initialize(plan_for(task), ds)
        candidate = train_episode(candidate, ds)
        with pytest.raises(ValueError):
            train_episode(candidate, ds)

    def test_matches_per_index_majority_oracle(self):
        rng = random.Random(17)
        actions = ["move", "grasp", "lift", "place", "rotate"]
        for _ in range(300):
            length = rng.randint(1, 6)
            start = [rng.choice(actions) for _ in range(length)]
            ds = EpisodeDataset()
            t_self = 0
            for _ in range(rng.randint(0, 20)):
                t_self += 1
                ds.record_step(make_sample(t_self, rng.choice(actions), rng.random() < 0.6))
            for _ in range(rng.randint(0, 3)):
                ds.ingest_observation(
                    ObservedEvent(tuple(rng.choice(actions) for _ in range(rng.randint(1, 6))), True)
                )
            candidate = CandidateSolution(
                stage=STAGE_INITIAL,
                sequence=list(start),
                per_step_confidence=[1.0] * length,
                model_family="sequence",
            )
            refined = train_episode(candidate, ds)

            # independent reccount
            for i in range(length):
                here = [s for s in (*ds.self_samples, *ds.obs_samples) if s.t == i + 1]
                if not here:
                    assert refined.sequence[i] == start[i]
                    continue
                wins = Counter(s.action for s in here if s.success)
                if wins:
                    top = max(wins.values())
                    winners = sorted(a for a, c in wins.items() if c == top)
                    if start[i] in winners:
                        assert refined.sequence[i] == start[i]
                    else:
                        assert refined.sequence[i] == winners[0]
                else:
                    assert refined.sequence[i] == start[i]
                good = sum(1 for s in here if s.success)
                assert refined.per_step_confidence[i] == good / len(here)

    @pytest.mark.parametrize("start, samples, sequence, confidence", [
        pytest.param(
            ["rotate", "place"], [(1, "move", True, SELF), (1, "grasp", True, OBS)],
            ["grasp", "place"], [1.0, 0.75], id="tie_without_candidate_goes_to_min",
        ),
        pytest.param(
            ["move", "place"], [(1, "move", True, SELF), (1, "grasp", True, OBS)],
            ["move", "place"], [1.0, 0.75], id="tie_with_candidate_keeps_it",
        ),
        pytest.param(
            ["lift", "place"], [(1, "move", False, SELF), (2, "drop", False, SELF)],
            ["lift", "place"], [0.0, 0.0], id="only_failed_samples",
        ),
        pytest.param(
            ["drop", "place"], [(1, "drop", False, SELF), (1, "place", True, OBS)],
            ["place", "place"], [0.5, 0.75], id="self_and_observed_at_one_index",
        ),
        pytest.param(
            ["drop", "place"],
            [(1, "drop", False, SELF), (1, "lift", True, OBS),
             (1, "lift", True, OBS)],
            ["lift", "place"], [2 / 3, 0.75], id="only_winner_differs_from_candidate",
        ),
        pytest.param(
            ["move", "place"],
            [(1, "move", True, SELF), (1, "grasp", True, OBS),
             (1, "grasp", True, OBS), (1, "move", True, OBS),
             (1, "rotate", False, OBS)],
            ["move", "place"], [0.8, 0.75], id="two_way_tie_keeps_candidate",
        ),
        pytest.param(
            ["rotate", "place"],
            [(1, "move", True, SELF), (1, "grasp", True, OBS),
             (1, "move", True, OBS), (1, "grasp", True, OBS),
             (1, "rotate", False, OBS)],
            ["grasp", "place"], [0.8, 0.75], id="two_way_tie_without_candidate_takes_smallest",
        ),
        pytest.param(
            ["lift", "place"],
            [(1, "move", False, SELF), (1, "grasp", False, OBS),
             (2, "drop", True, SELF)],
            ["lift", "drop"], [0.0, 1.0], id="all_failed_keeps_action_at_zero",
        ),
        pytest.param(
            ["drop", "place"],
            [(1, "grasp", True, SELF), (2, "place", False, SELF),
             (1, "grasp", True, OBS), (2, "lift", True, OBS)],
            ["grasp", "lift"], [1.0, 0.5], id="self_and_observed_share_indices",
        ),
    ])
    def test_named_cases(self, start, samples, sequence, confidence):
        # Samples are appended directly; one source can hold several at one
        # index, as k rollouts do, and the tally counts them all. Index 2 is
        # sampled only where a case says so.
        ds = EpisodeDataset()
        for t, action, success, source in samples:
            (ds.self_samples if source == SELF else ds.obs_samples).append(
                make_sample(t, action, success))
        candidate = CandidateSolution(
            stage=STAGE_INITIAL,
            sequence=list(start),
            per_step_confidence=[0.25, 0.75],
            model_family="sequence",
        )
        refined = train_episode(candidate, ds)
        assert refined.sequence == sequence
        assert refined.per_step_confidence == confidence


class TestValidate:
    def test_correct_sequence_passes(self, task):
        ds = EpisodeDataset()
        candidate = train_episode(initialize(plan_for(task), ds), ds)
        assert validate(candidate, True, UpdateCriteria()) is candidate
        assert candidate.passed is True

    def test_failed_execution_fails_despite_full_confidence(self, task):
        ds = EpisodeDataset()
        candidate = train_episode(initialize(plan_for(task), ds), ds)
        assert min(candidate.per_step_confidence) == 1.0
        validate(candidate, False, UpdateCriteria())
        assert candidate.passed is False

    def test_low_confidence_fails_despite_execution(self, task):
        ds = EpisodeDataset()
        candidate = train_episode(initialize(plan_for(task), ds), ds)
        candidate.per_step_confidence[0] = 0.25
        validate(candidate, True, UpdateCriteria())
        assert candidate.passed is False

    def test_floor_at_threshold_passes(self, task):
        ds = EpisodeDataset()
        candidate = train_episode(initialize(plan_for(task), ds), ds)
        candidate.per_step_confidence[0] = UpdateCriteria().validation_threshold
        validate(candidate, True, UpdateCriteria())
        assert candidate.passed is True

    def test_only_refined_candidates_validate(self, task):
        candidate = initialize(plan_for(task), EpisodeDataset())
        with pytest.raises(ValueError):
            validate(candidate, True, UpdateCriteria())


class TestBuildMethod:
    def _validated_candidate(self, task, ds=None):
        ds = ds if ds is not None else EpisodeDataset()
        candidate = train_episode(initialize(plan_for(task), ds), ds)
        validate(candidate, True, UpdateCriteria())
        return candidate, ds

    def test_method_is_retrievable_for_its_task(self, task):
        candidate, ds = self._validated_candidate(task)
        method = build_method(candidate, task, ds, cycle=4)
        assert matching_score(task, method) == 1.0
        rel = method.reliability
        assert (rel.successes, rel.attempts, rel.created_cycle) == (1, 1, 4)

    def test_data_profile_counts(self, task):
        ds = EpisodeDataset()
        ds.ingest_observation(ObservedEvent(task.target_sequence, True))
        candidate, ds = self._validated_candidate(task, ds)
        method = build_method(candidate, task, ds, cycle=0)
        profile = method.data_profile
        assert (profile.n_self_samples, profile.n_obs_samples, profile.episodes) == (
            0, len(task.target_sequence), 1,
        )

    def test_taken_id_gets_the_first_free_suffix(self, task):
        candidate, ds = self._validated_candidate(task)
        base = build_method(candidate, task, ds, cycle=4).id
        taken = {base, f"{base}-1", f"{base}-3"}
        assert build_method(candidate, task, ds, cycle=4, taken=taken).id == f"{base}-2"
        # A free id is kept as it is.
        assert build_method(candidate, task, ds, cycle=5, taken=taken).id == base[:-1] + "5"

    def test_unvalidated_candidate_rejected(self, task):
        ds = EpisodeDataset()
        candidate = train_episode(initialize(plan_for(task), ds), ds)
        with pytest.raises(ValueError):
            build_method(candidate, task, ds, cycle=0)

    def test_failed_validation_rejected(self, task):
        ds = EpisodeDataset()
        candidate = train_episode(initialize(plan_for(task), ds), ds)
        validate(candidate, False, UpdateCriteria())
        with pytest.raises(ValueError):
            build_method(candidate, task, ds, cycle=0)


class TestUtility:
    def test_perfect_and_recent(self):
        method = make_method(successes=1, attempts=1, last_used_cycle=10)
        assert utility(method, current_cycle=10) == 1.0

    def test_half_ratio(self):
        method = make_method(successes=1, attempts=2, last_used_cycle=10)
        assert utility(method, current_cycle=10) == 0.5

    def test_recency_decay(self):
        method = make_method(successes=1, attempts=1, last_used_cycle=0)
        assert utility(method, current_cycle=100) == pytest.approx(0.5)

    def test_needs_refinement_is_strict(self):
        method = make_method(successes=3, attempts=10, last_used_cycle=0)
        assert utility(method, 0) == pytest.approx(0.3)
        assert not needs_refinement(method, 0, tau_u=0.3)
        weak = make_method(successes=1, attempts=5, last_used_cycle=0)
        assert needs_refinement(weak, 0, tau_u=0.3)

    def test_fresh_validated_method_not_refined_under_defaults(self, task):
        ds = EpisodeDataset()
        candidate = train_episode(initialize(plan_for(task), ds), ds)
        validate(candidate, True, UpdateCriteria())
        method = build_method(candidate, task, ds, cycle=0)
        assert not needs_refinement(method, current_cycle=0, tau_u=0.3)


def test_stage_never_moves_backward(task):
    ds = EpisodeDataset()
    ds.record_step(make_sample(1, task.target_sequence[0], True))
    candidate = initialize(plan_for(task), ds)
    order = [candidate.stage]
    quasi_adjust(candidate, make_sample(2, "rotate", False))
    order.append(candidate.stage)
    train_episode(candidate, ds)
    order.append(candidate.stage)
    assert order == [STAGE_INITIAL, STAGE_ADJUSTED, STAGE_REFINED]
