"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail output. Benchmark criteria use the
bundled reference configuration (seed 7, 20 tasks, 5 repeats, fitted
reference executor profiles).
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

import pytest

from reuseloop.config import RunConfig, build_corpus, build_planner, resolve_executor
from reuseloop.costs import (
    CostProfile,
    benefit_condition_holds,
    delay_comparison,
    expected_task_cost,
    learning_overhead,
    reuse_benefit,
    single_task_cost,
)
from reuseloop.engine import (
    ALWAYS_LLM,
    LIBRARY_ONLY,
    OBSERVATION_ONLY,
    PROPOSED,
    PROPOSED_OBSERVATION,
    read_records,
    run_loop,
    write_records,
)
from reuseloop.experience import EpisodeDataset
from reuseloop.learner import CandidateSolution, STAGE_INITIAL, _tally, train_episode
from reuseloop.library import MethodLibrary
from reuseloop.metrics import aggregate
from reuseloop.tasks import ObservedEvent, signature_of

from conftest import linear_scan_oracle, make_method, make_sample, make_task
from test_trigger import iter_trigger_table, run_table_case

REFERENCE_MEANS = {
    ALWAYS_LLM: 7.7772,
    PROPOSED: 6.7779,
    OBSERVATION_ONLY: 7.4969,
    PROPOSED_OBSERVATION: 5.5833,
}


def reference_run(mode: str):
    """Run one policy mode under its reference configuration."""
    config = RunConfig(mode=mode)
    events = build_corpus(config)
    executor = resolve_executor(config, events)
    planner = build_planner(config)
    library = MethodLibrary()
    records = run_loop(events, mode, library, planner, config.thresholds, executor)
    return records, library


@pytest.fixture(scope="module")
def runs():
    return {mode: reference_run(mode) for mode in REFERENCE_MEANS}


def per_repeat(records, field):
    report = aggregate(records)
    pm = report.policies[records[0].policy]
    return [getattr(pm.per_repeat[i], field) for i in sorted(pm.per_repeat)]


def test_criterion_1_llm_dependence(runs):
    started = time.monotonic()
    proposed_records, _ = runs[PROPOSED]
    calls_curve = per_repeat(proposed_records, "avg_llm_calls")
    assert calls_curve == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert aggregate(proposed_records).policies[PROPOSED].avg_llm_calls == 0.2

    always_records, _ = runs[ALWAYS_LLM]
    assert per_repeat(always_records, "avg_llm_calls") == [1.0] * 5
    assert time.monotonic() - started < 5.0
    print("criterion 1: PASS - llm calls per repeat [1,0,0,0,0], average 0.2; always_llm 1.0")


def test_criterion_2_hit_rates(runs):
    proposed_records, _ = runs[PROPOSED]
    assert per_repeat(proposed_records, "hit_rate") == [0.0, 1.0, 1.0, 1.0, 1.0]

    obs_records, _ = runs[PROPOSED_OBSERVATION]
    assert aggregate(obs_records).policies[PROPOSED_OBSERVATION].hit_rate == 0.8

    watch_records, _ = runs[OBSERVATION_ONLY]
    assert aggregate(watch_records).policies[OBSERVATION_ONLY].hit_rate == 0.0
    print("criterion 2: PASS - hit curve [0,1,1,1,1]; observation hit rates 0.8 / 0.0")


def test_criterion_3_success_rates(runs):
    for mode in (PROPOSED, PROPOSED_OBSERVATION):
        records, _ = runs[mode]
        assert all(r.success for r in records), mode

    config = RunConfig(mode=LIBRARY_ONLY)
    events = build_corpus(config)
    records = run_loop(
        events, LIBRARY_ONLY, MethodLibrary(), build_planner(config),
        config.thresholds, resolve_executor(config, events),
    )
    assert not any(r.success for r in records)

    always_records, _ = runs[ALWAYS_LLM]
    assert len(always_records) == 100
    success_rate = sum(r.success for r in always_records) / len(always_records)
    assert 0.88 <= success_rate <= 1.00
    print(
        "criterion 3: PASS - success 1.00/1.00/0.00; "
        f"always_llm at p_corrupt=0.05 -> {success_rate:.2f} in [0.88, 1.00]"
    )


def test_criterion_4_time_ordering_and_calibration(runs):
    proposed_curve = per_repeat(runs[PROPOSED][0], "avg_total_s")
    always_curve = per_repeat(runs[ALWAYS_LLM][0], "avg_total_s")
    assert proposed_curve[0] > always_curve[0]
    for proposed_mean, always_mean in zip(proposed_curve[1:], always_curve[1:]):
        assert proposed_mean < always_mean

    prop_obs_curve = per_repeat(runs[PROPOSED_OBSERVATION][0], "avg_total_s")
    obs_only_curve = per_repeat(runs[OBSERVATION_ONLY][0], "avg_total_s")
    for prop_mean, watch_mean in zip(prop_obs_curve[1:], obs_only_curve[1:]):
        assert prop_mean < watch_mean

    for mode, target in REFERENCE_MEANS.items():
        records, _ = runs[mode]
        mean_total = aggregate(records).policies[mode].avg_total_s
        assert abs(mean_total - target) <= 0.05 * target, (mode, mean_total, target)
    print(
        "criterion 4: PASS - repeat-1 slower / repeats 2-5 faster orderings hold; "
        "overall means within 5% of calibration targets"
    )


def test_criterion_5_cost_model_properties():
    rng = random.Random(20260810)
    for _ in range(10_000):
        profile = CostProfile(*(rng.uniform(0.0, 100.0) for _ in range(7)))

        reuse_cost = single_task_cost(profile, z=False)
        learn_cost = single_task_cost(profile, z=True)
        assert learn_cost - reuse_cost >= -1e-9
        assert abs((learn_cost - reuse_cost) - learning_overhead(profile)) <= 1e-9

        p1, p2 = sorted((rng.random(), rng.random()))
        assert expected_task_cost(profile, p1) - expected_task_cost(profile, p2) >= -1e-9
        # affine identity: cost(p) == cost(0) - p * overhead
        p = rng.random()
        assert abs(
            expected_task_cost(profile, p)
            - (expected_task_cost(profile, 0.0) - p * learning_overhead(profile))
        ) <= 1e-9

        rho, k = rng.random(), rng.randint(0, 20)
        assert benefit_condition_holds(profile, rho, k) == (
            reuse_benefit(profile, rho, k).b_net > 0
        )

        quasi = rng.uniform(0.0, profile.c_delay)
        comparison = delay_comparison(profile, quasi)
        assert comparison.quasi_total <= comparison.delayed_total + 1e-9
    print("criterion 5: PASS - cost-model properties hold on 10,000 random profiles")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(61)
    token_pool = ["pick", "up", "red", "cube", "ball", "sort", "tray", "blue", "stack", "peg"]

    for trial in range(1_000):
        library = MethodLibrary()
        max_steps = rng.choice([4, 8])
        task = make_task(
            goal=tuple(rng.sample(token_pool, rng.randint(1, 4))),
            target=("move",) * rng.randint(1, max_steps),
            max_steps=max_steps,
        )
        for m in range(rng.randint(0, 100)):
            attempts = rng.randint(0, 6)
            library.insert(
                make_method(
                    method_id=f"m-{trial}-{m:03d}",
                    procedure=("move",) * rng.randint(1, 8),
                    signatures={signature_of(task)} if rng.random() < 0.1 else {f"s-{trial}-{m}"},
                    goal_tokens=tuple(rng.sample(token_pool, rng.randint(1, 5))),
                    successes=rng.randint(0, attempts),
                    attempts=attempts,
                    last_used_cycle=rng.randint(0, 40),
                )
            )
        tau_r = rng.choice([0.0, 0.3, 0.8, 1.0])
        got = library.retrieve_best(task, tau_r)
        want_method, want_score, want_covered = linear_scan_oracle(library, task, tau_r)
        assert got.method is want_method
        assert got.score == want_score
        assert got.covered == want_covered

    actions = ["move", "grasp", "lift", "place", "rotate"]
    for _ in range(1_000):
        length = rng.randint(1, 6)
        start = [rng.choice(actions) for _ in range(length)]
        dataset = EpisodeDataset()
        remaining = 50
        n_self = rng.randint(0, min(20, remaining))
        for t in range(1, n_self + 1):
            dataset.record_step(make_sample(t, action=rng.choice(actions),
                                            success=rng.random() < 0.6))
        remaining -= n_self
        while remaining > 0 and rng.random() < 0.6:
            obs_len = rng.randint(1, min(6, remaining))
            dataset.ingest_observation(
                ObservedEvent(tuple(rng.choice(actions) for _ in range(obs_len)), True)
            )
            remaining -= obs_len
        candidate = CandidateSolution(
            stage=STAGE_INITIAL,
            sequence=list(start),
            per_step_confidence=[1.0] * length,
            model_family="sequence",
        )
        refined = train_episode(candidate, dataset)

        for i in range(length):
            here = [s for s in (*dataset.self_samples, *dataset.obs_samples) if s.t == i + 1]
            if not here:
                assert refined.sequence[i] == start[i]
                continue
            wins = Counter(s.action for s in here if s.success)
            if wins:
                top = max(wins.values())
                winners = sorted(a for a, c in wins.items() if c == top)
                expected = start[i] if start[i] in winners else winners[0]
            else:
                expected = start[i]
            assert refined.sequence[i] == expected
            good = sum(1 for s in here if s.success)
            assert refined.per_step_confidence[i] == good / len(here)
    print("criterion 6: PASS - retrieval and consolidation match brute-force oracles (1,000 each)")


def test_criterion_7_experience_property():
    rng = random.Random(7)
    for _ in range(2_000):
        dataset = EpisodeDataset()
        for t in range(1, rng.randint(1, 12)):
            dataset.record_step(make_sample(t, success=rng.random() < 0.5))
        for _ in range(rng.randint(0, 4)):
            dataset.ingest_observation(
                ObservedEvent(("move",) * rng.randint(1, 6), True)
            )
        assert sum(_tally(dataset)[0].values()) >= len(dataset.self_samples)
    print("criterion 7: PASS - merged experience never smaller than self-execution alone")


def test_criterion_8_determinism_and_persistence(tmp_path):
    paths = []
    for i in (0, 1):
        records, library = reference_run(PROPOSED)
        path = tmp_path / f"runs-{i}.jsonl"
        write_records(records, path)
        paths.append(path)
        library_path = tmp_path / f"library-{i}.json"
        library.save(library_path)
        reloaded = MethodLibrary.load(library_path)
        reloaded.save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == library_path.read_bytes()
        assert reloaded.methods() == library.methods()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("criterion 8: PASS - byte-identical reruns; library round-trip is the identity")


def test_criterion_9_trigger_table():
    combos = 0
    for task_state, obs_state in iter_trigger_table():
        decision, want = run_table_case(task_state, obs_state)
        assert decision.branch == want, (task_state, obs_state)
        combos += 1
    assert combos == 8
    print(f"criterion 9: PASS - trigger rule matches the piecewise table on all {combos} cases")


def test_coverage_curve_is_non_decreasing(runs):
    # Supporting check for the coverage-monotonicity property on the
    # reference proposed run.
    records, _ = runs[PROPOSED]
    per_repeat = aggregate(records).policies[PROPOSED].per_repeat
    curve = [per_repeat[i].hit_rate for i in sorted(per_repeat)]
    assert curve == [0.0, 1.0, 1.0, 1.0, 1.0]
    assert all(a <= b for a, b in zip(curve, curve[1:]))


def test_record_streams_round_trip(runs, tmp_path):
    # Supporting check: serialized records survive a parse round trip.
    records, _ = runs[PROPOSED]
    path = tmp_path / "runs.jsonl"
    write_records(records, path)
    assert read_records(path) == records
    assert json.loads(path.read_text().splitlines()[0])["policy"] == PROPOSED
