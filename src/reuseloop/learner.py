"""Consolidation of episode experience into reusable methods.

A candidate solution moves from ``initial`` (seeded from the plan's direct
solution or from observed data) to ``refined`` (post-episode consolidation
by per-index majority over successful samples). Both stages pick an
index's action by one vote rule, ``_vote``: the most successes wins, a tie
keeps the candidate's own action and otherwise takes the smallest name.
``validate`` sets a refined candidate's ``passed`` flag on the evidence
its episode paid for: true when its execution succeeded (an episode that
executes nothing passes ``True``) and no step's confidence is below the
plan's validation threshold. Nothing here reads a task's hidden target.
Only a candidate that passed is packaged as a new library method. This
module only consolidates: when to learn, and when a stored method needs
refinement, is ``trigger``'s to say.

``quasi_adjust`` (the ``adjusted`` stage) is a library primitive the engine
no longer calls: ``train_episode``'s per-index recount subsumes it in this
simulator. ``costs.delay_comparison`` still models quasi-real-time updating
analytically.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from itertools import count

from .experience import EpisodeDataset, ExperienceSample
from .library import Applicability, DataProfile, Method, Reliability
from .planner import LearningPlan
from .tasks import TaskDescriptor

STAGE_INITIAL = "initial"
STAGE_ADJUSTED = "adjusted"
STAGE_REFINED = "refined"


@dataclass
class CandidateSolution:
    stage: str
    sequence: list[str]
    per_step_confidence: list[float]
    model_family: str
    passed: bool | None = None


def initialize(plan: LearningPlan, dataset: EpisodeDataset) -> CandidateSolution:
    """Seed a candidate from the plan, falling back to recorded experience.

    Without a direct solution the candidate is the longest successful prefix
    of the dataset: walk step indices from 1 and keep, per index, the
    action ``_vote`` picks with no candidate action, until an index has no
    successful sample.
    """
    if plan.direct_solution is not None:
        sequence = list(plan.direct_solution)
    else:
        sequence = _successful_prefix(dataset)
        if not sequence:
            raise ValueError("no usable source: plan has no direct solution and dataset is empty")
    return CandidateSolution(
        stage=STAGE_INITIAL,
        sequence=sequence,
        per_step_confidence=[1.0] * len(sequence),
        model_family=plan.candidate_models[0],
    )


def _tally(dataset: EpisodeDataset) -> tuple[dict[int, int], dict[int, dict[str, int]]]:
    """One pass over the self samples, then the observed ones: per step
    index, the number of samples and the successes by action (empty when
    every sample there failed)."""
    samples_at: dict[int, int] = {}
    wins_at: dict[int, dict[str, int]] = {}
    for samples in (dataset.self_samples, dataset.obs_samples):
        for sample in samples:
            t = sample.t
            if t in samples_at:
                samples_at[t] += 1
                wins = wins_at[t]
            else:
                samples_at[t] = 1
                wins = wins_at[t] = {}
            if sample.success:
                wins[sample.action] = wins.get(sample.action, 0) + 1
    return samples_at, wins_at


def _vote(wins: dict[str, int], current: str | None = None) -> str:
    """The vote rule at one step index: the action with the most successes
    in ``wins`` (non-empty); on a tie ``current``, if it is tied, and
    otherwise the smallest name."""
    top = max(wins.values())
    if wins.get(current) == top:
        return current
    return min(a for a, c in wins.items() if c == top)


def _successful_prefix(dataset: EpisodeDataset) -> list[str]:
    wins_at = _tally(dataset)[1]
    sequence = []
    while wins := wins_at.get(len(sequence) + 1):
        sequence.append(_vote(wins))
    return sequence


def quasi_adjust(candidate: CandidateSolution, new_sample: ExperienceSample) -> CandidateSolution:
    """Fold one fresh sample into the candidate (intermediate stage).

    A failure at step k halves that step's confidence; a success averages it
    back toward 1. Refined candidates are immutable.
    """
    if candidate.stage == STAGE_REFINED:
        raise ValueError("refined candidates cannot be adjusted")
    idx = new_sample.t - 1
    if not 0 <= idx < len(candidate.sequence):
        raise ValueError(f"sample step {new_sample.t} outside candidate of length {len(candidate.sequence)}")
    if new_sample.success:
        candidate.per_step_confidence[idx] = (candidate.per_step_confidence[idx] + 1.0) / 2.0
    else:
        candidate.per_step_confidence[idx] /= 2.0
    candidate.stage = STAGE_ADJUSTED
    return candidate


def train_episode(candidate: CandidateSolution, dataset: EpisodeDataset) -> CandidateSolution:
    """Post-episode consolidation (refined stage).

    For each step index of the candidate, ``_vote`` picks over the
    successful occurrences across self and observed samples, with the
    candidate's own action as the one that wins ties. Per-step confidence
    becomes the empirical success frequency at that index. An index with no
    samples keeps its current action and confidence; one whose samples all
    failed keeps its action at confidence 0. An index whose successes all
    share one action takes it without a vote: it has the most.
    """
    if candidate.stage == STAGE_REFINED:
        raise ValueError("refined candidates are immutable")
    samples_at, wins_at = _tally(dataset)
    for i, current in enumerate(candidate.sequence):
        wins = wins_at.get(i + 1)
        if wins is None:
            continue
        if len(wins) == 1:
            (candidate.sequence[i], good), = wins.items()
        else:
            candidate.sequence[i] = _vote(wins, current) if wins else current
            good = sum(wins.values())
        candidate.per_step_confidence[i] = good / samples_at[i + 1]

    candidate.stage = STAGE_REFINED
    return candidate


def validate(candidate: CandidateSolution, executed: bool, update_criteria) -> CandidateSolution:
    """Check the refined candidate's execution outcome and confidence floor.

    ``executed`` is whether the episode's one execution of the candidate
    succeeded, ``True`` for an episode that executes nothing. Sets
    ``candidate.passed``, which ``build_method`` requires, and returns the
    candidate.
    """
    if candidate.stage != STAGE_REFINED:
        raise ValueError("only refined candidates can be validated")
    floor = min(candidate.per_step_confidence) if candidate.per_step_confidence else 0.0
    candidate.passed = executed and floor >= update_criteria.validation_threshold
    return candidate


def build_method(
    candidate: CandidateSolution,
    task: TaskDescriptor,
    dataset: EpisodeDataset,
    cycle: int,
    taken: Container[str] = (),
) -> Method:
    """Package a candidate that passed ``validate`` as a new method.

    Its id is ``m-<signature[:12]>-c<cycle:04d>``, plus the first free
    ``-N`` (from 1) if ``taken``, the library it joins, already holds that.
    Reliability starts at 1/1: the episode's paid execution, or the
    demonstration it learned from, counts as the first successful attempt.
    """
    if not candidate.passed:
        raise ValueError("method construction requires a candidate that passed validation")
    method_id = f"m-{task.signature[:12]}-c{cycle:04d}"
    if method_id in taken:
        method_id = next(f"{method_id}-{n}" for n in count(1) if f"{method_id}-{n}" not in taken)
    # Positional, in each class's field order: keyword arguments cost more per build.
    return Method(
        method_id, tuple(candidate.sequence), {"model_family": candidate.model_family},
        DataProfile(len(dataset.self_samples), len(dataset.obs_samples), 1),
        Applicability(frozenset((task.signature,)), task.goal_tokens, task.constraints.max_steps),
        Reliability(1, 1, cycle, cycle),
    )
