"""The learning planner: the ``Planner`` protocol and its deterministic mock.

A planner turns a task (and, on refinement, an episode outcome) into a
learning plan: subproblems, ranked candidate model families, data
requirements, an execute/observe strategy, update criteria, and optionally
a direct action sequence. The LLM is simulated: ``MockPlanner`` is the one
implementation, and the ``Planner`` protocol is the seam a real model would
plug into.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Protocol

from .errors import PlannerError, check_duration, check_fraction
from .tasks import DEFAULT_ACTIONS, TaskDescriptor

# Default latency of the mock planner; calibrated so simulated planner time
# matches the reference benchmark profile. Configurable per instance.
DEFAULT_MOCK_LATENCY_S = 1.4565
DEFAULT_P_CORRUPT = 0.05


@dataclass(frozen=True)
class DataRequirement:
    channel: str
    min_samples: int = 1


@dataclass(frozen=True)
class UpdateCriteria:
    validation_threshold: float = 0.5
    max_episodes: int = 3


@dataclass(frozen=True)
class LearningPlan:
    """A plan only a planner builds, so it checks nothing on construction.
    ``candidate_models`` ranks model family names; each ``strategy`` entry
    is ``"execute"`` or ``"observe"``."""

    candidate_models: tuple[str, ...]
    subproblems: tuple[str, ...] = ()
    data_requirements: tuple[DataRequirement, ...] = ()
    strategy: tuple[str, ...] = ()
    update_criteria: UpdateCriteria = UpdateCriteria()
    direct_solution: tuple[str, ...] | None = None


@dataclass(frozen=True)
class EpisodeOutcome:
    success: bool
    failed_step: int | None = None


class Planner(Protocol):
    """The planning interface, the seam a real model would plug into: one
    call, which revises the plan from ``outcome`` when one is given. Each
    call costs ``latency_s`` virtual seconds."""

    latency_s: float

    def plan(self, task: TaskDescriptor, outcome: EpisodeOutcome | None = None) -> LearningPlan: ...


# Immutable parts every mock plan shares, beside LearningPlan's default UpdateCriteria.
_MOCK_MODELS = ("sequence", "hybrid")
_MOCK_SUBPROBLEMS = ("order primitives into an executable chain", "define a per-step success check")
_requirement = cache(partial(DataRequirement, min_samples=1))


class MockPlanner:
    """Deterministic stand-in for the LLM.

    Each call draws from an RNG keyed by (seed, task signature, call index)
    and builds its plan from the task's goal, observations and target; the
    same seed and call order give identical plans. The direct solution is the
    hidden target, except that with probability ``p_corrupt`` one step is
    replaced by a different action from ``DEFAULT_ACTIONS``. Clean calls
    without an outcome share one frozen ``LearningPlan`` per task content.
    Reading the target is how the mock stands in for what a model knows of
    the task; beside it, only ``tasks`` and the engine's
    ``SequenceExecutor`` read it.

    An episode outcome applies a documented transformation: when it failed
    at step ``k`` of the plan, it inserts an ``observe`` directive
    immediately before the ``k``-th ``execute`` directive; after a success,
    or a failure at no step of the plan, the plan is returned unchanged (a
    fixed point).
    """

    def __init__(
        self,
        seed: int = 0,
        latency_s: float = DEFAULT_MOCK_LATENCY_S,
        p_corrupt: float = DEFAULT_P_CORRUPT,
    ):
        check_duration("latency_s", latency_s)
        check_fraction("p_corrupt", p_corrupt)
        self.seed = seed
        self.latency_s = latency_s
        self.p_corrupt = p_corrupt
        self._calls = 0
        self._clean: dict[tuple, LearningPlan] = {}

    def plan(self, task: TaskDescriptor, outcome: EpisodeOutcome | None = None) -> LearningPlan:
        call_index = self._calls
        self._calls += 1
        # random() < 0.0 never holds, so p_corrupt 0 skips the draw.
        solution = self._solution_for(task, call_index) if self.p_corrupt else task.target_sequence
        if outcome is not None:
            return self._weave_feedback(self._build(task, solution), outcome)
        if solution != task.target_sequence:
            return self._build(task, solution)
        key = (task.goal, task.observations, solution)  # not the signature: it ignores these
        if (plan := self._clean.get(key)) is None:
            plan = self._clean[key] = self._build(task, solution)
        return plan

    def replan(self, task: TaskDescriptor, outcome: EpisodeOutcome) -> LearningPlan:
        """``plan`` with a required outcome. Kept only because
        ``perfbench/tracer.py`` wraps it by name; ROADMAP item 3 deletes it
        once item 1 lets the tracer skip a missing name."""
        if outcome is None:
            raise PlannerError("replan requires an episode outcome")
        return self.plan(task, outcome)

    def _solution_for(self, task: TaskDescriptor, call_index: int) -> tuple[str, ...]:
        rng = random.Random(f"{self.seed}:{task.signature}:{call_index}")
        if rng.random() >= self.p_corrupt:
            return task.target_sequence
        solution = list(task.target_sequence)
        idx = rng.randrange(len(solution))
        solution[idx] = rng.choice([a for a in DEFAULT_ACTIONS if a != solution[idx]])
        return tuple(solution)

    @staticmethod
    def _build(task: TaskDescriptor, solution: tuple[str, ...]) -> LearningPlan:
        return LearningPlan(
            candidate_models=_MOCK_MODELS,
            subproblems=(
                f"ground goal '{' '.join(task.goal)}' to actuator primitives",
                *_MOCK_SUBPROBLEMS,
            ),
            data_requirements=tuple(map(_requirement, task.observations)),
            strategy=("execute",) * len(solution),
            direct_solution=solution,
        )

    @staticmethod
    def _weave_feedback(plan: LearningPlan, outcome: EpisodeOutcome) -> LearningPlan:
        k = outcome.failed_step
        if outcome.success or k is None or not 1 <= k <= len(plan.strategy):
            return plan
        strategy = plan.strategy
        return replace(plan, strategy=(*strategy[:k - 1], "observe", *strategy[k - 1:]))
