"""The paper's claim, with the envelope where it holds.

The loop "reduces execution time and LLM dependence in both repeated-task
self-execution and observation-driven settings". Here that reads: the
loop's mean virtual time per episode and its LLM calls per episode are
both below its baseline's, over one run of the same corpus:

- self setting: ``proposed`` against ``always_llm``;
- observation setting: ``proposed_observation`` against
  ``observation_only``.

Learning costs more than planning, so the claim is a break-even: it holds
from some number of repeats on. With the reference profiles and a planner
that never corrupts a plan, that is 2 repeats in the self setting and 3 in
the observation setting, at any seed and corpus size. With corruption the
claim is about the expectation, and a small corpus can miss it by chance,
so it is checked at one large corpus size only.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reuseloop.config import PlannerSettings, RunConfig, build_corpus, build_planner, resolve_executor
from reuseloop.engine import ALWAYS_LLM, OBSERVATION_ONLY, PROPOSED, PROPOSED_OBSERVATION, run_loop
from reuseloop.library import MethodLibrary
from reuseloop.metrics import aggregate

# (loop, baseline, the fewest repeats at which the claim holds at p_corrupt 0)
SETTINGS = {
    "self": (PROPOSED, ALWAYS_LLM, 2),
    "observation": (PROPOSED_OBSERVATION, OBSERVATION_ONLY, 3),
}


def _metrics(mode, seed, n_tasks, n_repeats, p_corrupt):
    """The ``PolicyMetrics`` of one reference-profile run of ``mode``."""
    config = RunConfig(
        seed=seed, n_tasks=n_tasks, n_repeats=n_repeats, mode=mode,
        planner=PlannerSettings(p_corrupt=p_corrupt),
    )
    events = build_corpus(config)
    records = run_loop(
        events, mode, MethodLibrary(), build_planner(config), config.thresholds,
        resolve_executor(config, events),
    )
    return aggregate(records).policies[mode]


def _claim_holds(setting, seed, n_tasks, n_repeats, p_corrupt):
    loop_mode, base_mode, _ = SETTINGS[setting]
    loop = _metrics(loop_mode, seed, n_tasks, n_repeats, p_corrupt)
    base = _metrics(base_mode, seed, n_tasks, n_repeats, p_corrupt)
    return loop.avg_total_s < base.avg_total_s and loop.avg_llm_calls < base.avg_llm_calls


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    setting=st.sampled_from(sorted(SETTINGS)),
    seed=st.integers(0, 2**16),
    # Small corpora half the time: they are cheap, and where chance bites.
    n_tasks=st.one_of(st.integers(1, 24), st.integers(1, 384)),
)
def test_claim_holds_from_its_break_even_without_corruption_property(data, setting, seed, n_tasks):
    n_repeats = data.draw(st.integers(SETTINGS[setting][2], 6), label="n_repeats")
    assert _claim_holds(setting, seed, n_tasks, n_repeats, p_corrupt=0.0)


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_claim_holds_with_corruption_at_384_tasks_and_3_repeats(setting):
    assert [_claim_holds(setting, seed, 384, 3, p_corrupt=0.3) for seed in range(10)] == [True] * 10


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_break_even_in_closed_form(setting):
    # A run's mean over n repeats is (round 1 + (n - 1) * later round) / n
    # for the loop and the baseline alike, so the loop is faster exactly
    # when n exceeds r* = 1 + (loop round 1 - base round 1) / (base later -
    # loop later). Its smallest integer above is the envelope's edge.
    loop_mode, base_mode, fewest = SETTINGS[setting]
    loop = _metrics(loop_mode, 7, 20, 2, 0.0).per_repeat
    base = _metrics(base_mode, 7, 20, 2, 0.0).per_repeat
    r_star = 1 + (loop[1].avg_total_s - base[1].avg_total_s) / (
        base[2].avg_total_s - loop[2].avg_total_s
    )
    assert fewest - 1 < r_star < fewest
    for n_repeats in range(1, 6):
        loop_time = _metrics(loop_mode, 7, 20, n_repeats, 0.0).avg_total_s
        base_time = _metrics(base_mode, 7, 20, n_repeats, 0.0).avg_total_s
        assert (loop_time < base_time) == (n_repeats > r_star), n_repeats
