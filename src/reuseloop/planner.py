"""Learning planners: a deterministic mock and an HTTP chat-completions client.

A planner turns a task (plus history and optional feedback) into a learning
plan: subproblems, ranked candidate model families, data requirements, an
execute/observe strategy, update criteria, and optionally a direct action
sequence. The mock is the benchmark workhorse; the HTTP client drives the
same interface against a live chat-completions endpoint.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import time
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Protocol

from .errors import PlannerError, PlanningFailedError, SchemaError, parse_json, read_dataclass, to_doc
from .tasks import DEFAULT_ACTIONS, TaskDescriptor

logger = logging.getLogger(__name__)

MODEL_FAMILIES = ("sequence", "visual", "multimodal", "hybrid")
STRATEGY_KINDS = ("execute", "observe")

# Default latency of the mock planner; calibrated so simulated planner time
# matches the reference benchmark profile. Configurable per instance.
DEFAULT_MOCK_LATENCY_S = 1.4565
DEFAULT_P_CORRUPT = 0.05

API_KEY_ENV = "REUSELOOP_API_KEY"

# Entries each PlannerHistory list keeps, newest last.
HISTORY_MAX_ENTRIES = 50


@dataclass(frozen=True)
class CandidateModel:
    family: str

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            families = ", ".join(MODEL_FAMILIES)
            raise ValueError(f"family must be one of {families}, not {self.family!r}")


@dataclass(frozen=True)
class DataRequirement:
    channel: str
    min_samples: int = 1

    def __post_init__(self):
        if self.min_samples < 0:
            raise ValueError("min_samples must be nonnegative")


@dataclass(frozen=True)
class StrategyStep:
    kind: str

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"kind must be one of {', '.join(STRATEGY_KINDS)}, not {self.kind!r}")


@dataclass(frozen=True)
class UpdateCriteria:
    validation_threshold: float = 0.5
    max_episodes: int = 3

    def __post_init__(self):
        if not 0.0 <= self.validation_threshold <= 1.0:
            raise ValueError("validation_threshold must lie in [0, 1]")
        if self.max_episodes < 1:
            raise ValueError("max_episodes must be >= 1")


@dataclass(frozen=True)
class LearningPlan:
    candidate_models: tuple[CandidateModel, ...]
    subproblems: tuple[str, ...] = ()
    data_requirements: tuple[DataRequirement, ...] = ()
    strategy: tuple[StrategyStep, ...] = ()
    update_criteria: UpdateCriteria = UpdateCriteria()
    direct_solution: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.candidate_models:
            raise ValueError("candidate_models must be non-empty")
        if self.direct_solution is not None and not self.direct_solution:
            raise ValueError("direct_solution must be non-empty when present")


@dataclass(frozen=True)
class EpisodeOutcome:
    success: bool
    failed_step: int | None = None


@dataclass
class PlannerFeedback:
    episode_outcomes: list[EpisodeOutcome] = field(default_factory=list)
    notes: str = ""


@dataclass
class PlannerHistory:
    """Bounded record of recent task signatures and method performance."""

    recent_tasks: list[str] = field(default_factory=list)
    recent_methods: list[dict] = field(default_factory=list)

    def record_task(self, signature: str) -> None:
        self.recent_tasks.append(signature)
        del self.recent_tasks[:-HISTORY_MAX_ENTRIES]

    def record_method(self, method_id: str, success_ratio: float) -> None:
        self.recent_methods.append({"id": method_id, "success_ratio": round(success_ratio, 4)})
        del self.recent_methods[:-HISTORY_MAX_ENTRIES]


# Setting checks, shared by the planners and config.PlannerSettings.


def check_latency(latency_s: float) -> None:
    if not math.isfinite(latency_s):
        raise ValueError(f"latency_s must be finite, got {latency_s!r}")
    if latency_s < 0:
        raise ValueError("latency_s must be nonnegative")


def check_p_corrupt(p_corrupt: float) -> None:
    if not 0.0 <= p_corrupt <= 1.0:
        raise ValueError("p_corrupt must lie in [0, 1]")


def check_http_settings(temperature: float, timeout_s: float, retries: int) -> None:
    if not math.isfinite(temperature) or temperature < 0:
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature!r}")
    if not math.isfinite(timeout_s) or timeout_s <= 0:
        raise ValueError(f"timeout_s must be finite and positive, got {timeout_s!r}")
    if retries < 0:
        raise ValueError(f"retries must be nonnegative, got {retries!r}")


@dataclass(frozen=True)
class PlannerCall:
    latency_s: float
    plan: LearningPlan

    def __post_init__(self):
        check_latency(self.latency_s)


class Planner(Protocol):
    """The planning interface both implementations satisfy: one call, which
    revises the plan from ``feedback`` when it carries an episode outcome."""

    def plan(
        self,
        task: TaskDescriptor,
        history: PlannerHistory | None = None,
        feedback: PlannerFeedback | None = None,
    ) -> PlannerCall: ...


# ---------------------------------------------------------------------------
# Plan document schema
# ---------------------------------------------------------------------------

PLAN_SCHEMA_DOC = {
    "candidate_models": [{"family": "|".join(MODEL_FAMILIES)}],
    "subproblems": ["str"],
    "data_requirements": [{"channel": "str", "min_samples": "int >= 0"}],
    "strategy": [{"kind": "|".join(STRATEGY_KINDS)}],
    "update_criteria": {"validation_threshold": "float in [0,1]", "max_episodes": "int >= 1"},
    "direct_solution": ["action-id"],
}


# ---------------------------------------------------------------------------
# Mock planner
# ---------------------------------------------------------------------------


# Immutable parts every mock plan shares, beside LearningPlan's default UpdateCriteria.
_MOCK_MODELS = (CandidateModel("sequence"), CandidateModel("hybrid"))
_MOCK_SUBPROBLEMS = ("order primitives into an executable chain", "define a per-step success check")
_EXECUTE = StrategyStep("execute")
_OBSERVE = StrategyStep("observe")
_requirement = cache(partial(DataRequirement, min_samples=1))


class MockPlanner:
    """Deterministic stand-in for the LLM.

    Each call draws from an RNG keyed by (seed, task signature, call index)
    and builds its plan from the task's goal, observations and target; the
    same seed and call order give identical calls. The direct solution is the
    hidden target, except that with probability ``p_corrupt`` one step is
    replaced by a different action from ``DEFAULT_ACTIONS``. Clean,
    feedback-free calls share one frozen ``PlannerCall`` per task content.

    Feedback with an episode outcome applies a documented transformation:
    for every failed step it inserts an ``observe`` directive immediately
    before that step's ``execute`` directive; after an all-success episode
    the plan is returned unchanged (a fixed point).
    """

    def __init__(
        self,
        seed: int = 0,
        latency_s: float = DEFAULT_MOCK_LATENCY_S,
        p_corrupt: float = DEFAULT_P_CORRUPT,
    ):
        check_latency(latency_s)
        check_p_corrupt(p_corrupt)
        self.seed = seed
        self.latency_s = latency_s
        self.p_corrupt = p_corrupt
        self._calls = 0
        self._clean: dict[tuple, PlannerCall] = {}

    def plan(
        self,
        task: TaskDescriptor,
        history: PlannerHistory | None = None,
        feedback: PlannerFeedback | None = None,
    ) -> PlannerCall:
        call_index = self._calls
        self._calls += 1
        # random() < 0.0 never holds, so p_corrupt 0 skips the draw.
        solution = self._solution_for(task, call_index) if self.p_corrupt else task.target_sequence
        if feedback is not None and feedback.episode_outcomes:
            plan = self._weave_feedback(self._build(task, solution), feedback)
            return PlannerCall(self.latency_s, plan)
        if solution != task.target_sequence:
            return PlannerCall(self.latency_s, self._build(task, solution))
        key = (task.goal, task.observations, solution)  # not the signature: it ignores these
        if (call := self._clean.get(key)) is None:
            call = self._clean[key] = PlannerCall(self.latency_s, self._build(task, solution))
        return call

    def replan(
        self,
        task: TaskDescriptor,
        history: PlannerHistory | None,
        feedback: PlannerFeedback,
    ) -> PlannerCall:
        """``plan`` with required feedback. Kept only because
        ``perfbench/tracer.py`` wraps it by name; ROADMAP item 3 deletes it
        once item 1 lets the tracer skip a missing name."""
        if feedback is None or not feedback.episode_outcomes:
            raise PlannerError("replan requires feedback with at least one episode outcome")
        return self.plan(task, history, feedback)

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
            strategy=(_EXECUTE,) * len(solution),
            direct_solution=solution,
        )

    @staticmethod
    def _weave_feedback(plan: LearningPlan, feedback: PlannerFeedback) -> LearningPlan:
        failed = {o.failed_step for o in feedback.episode_outcomes if not o.success} - {None}
        if not failed:
            return plan
        strategy: list[StrategyStep] = []
        for step_no, directive in enumerate(plan.strategy, start=1):
            if step_no in failed:
                strategy.append(_OBSERVE)
            strategy.append(directive)
        return replace(plan, strategy=tuple(strategy))


# ---------------------------------------------------------------------------
# HTTP planner
# ---------------------------------------------------------------------------


class HttpPlanner:
    """Chat-completions client for live planning.

    Sends ``{"model", "messages", "temperature"}`` to the configured
    endpoint; the first message embeds the plan schema, the task descriptor,
    and recent history. The response's message content is parsed as a plan
    document. Schema violations, transport errors and a non-string message
    content are retried up to ``retries`` times before raising
    ``PlanningFailedError``.

    Authentication: if ``REUSELOOP_API_KEY`` is set in the environment, its
    value is sent as a bearer token. The value itself is never logged.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        temperature: float = 0.0,
        timeout_s: float = 30.0,
        retries: int = 2,
    ):
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        if not model:
            raise ValueError("model must be non-empty")
        check_http_settings(temperature, timeout_s, retries)
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.timeout_s = timeout_s
        self.retries = retries
        # Calls that exhausted their retry budget; callers that swallow
        # PlanningFailedError per episode can still see failures happened.
        self.failed_calls = 0

    def plan(
        self,
        task: TaskDescriptor,
        history: PlannerHistory | None = None,
        feedback: PlannerFeedback | None = None,
    ) -> PlannerCall:
        if feedback is not None and not feedback.episode_outcomes:
            feedback = None  # nothing to revise from, as MockPlanner reads it
        if feedback is not None:
            ask = "Revise the plan using the execution feedback above. Return only the JSON document."
        else:
            ask = "Return only the learning-plan JSON document."
        return self._call([
            {"role": "system", "content": self._prompt(task, history, feedback)},
            {"role": "user", "content": ask},
        ])

    def _call(self, messages: list[dict]) -> PlannerCall:
        # Imported here: urllib.request loads http.client and ssl, ~3 MiB
        # that runs using only the mock planner never need.
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        latency = 0.0
        last_error: Exception | None = None
        attempts = self.retries + 1
        for attempt in range(attempts):
            body = {"model": self.model, "messages": messages, "temperature": self.temperature}
            request = urllib.request.Request(
                self.endpoint, data=json.dumps(body).encode("utf-8"), headers=headers, method="POST"
            )
            started = time.monotonic()
            try:
                # urlopen raises HTTPError on a non-2xx status.
                with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                    text = json.loads(response.read())["choices"][0]["message"]["content"]
                if not isinstance(text, str):  # null for refusals and tool calls
                    raise TypeError(f"message content is {type(text).__name__}, not a string")
            except Exception as exc:  # transport, status or envelope failure
                latency += time.monotonic() - started
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # the error carries the open response
                last_error = exc
                logger.warning("planner request failed (attempt %d): %s", attempt + 1, exc)
                continue

            latency += time.monotonic() - started
            try:
                plan = read_dataclass(LearningPlan, parse_json(text))
            except SchemaError as exc:
                last_error = exc
                logger.warning("planner returned invalid plan (attempt %d): %s", attempt + 1, exc)
                messages = messages + [
                    {"role": "assistant", "content": text},
                    {
                        "role": "user",
                        "content": f"That document failed validation ({exc}). "
                        "Return only a corrected JSON document.",
                    },
                ]
                continue
            return PlannerCall(latency_s=latency, plan=plan)

        self.failed_calls += 1
        raise PlanningFailedError(
            f"no schema-valid plan after {attempts} attempts: {last_error}"
        )

    def _prompt(
        self,
        task: TaskDescriptor,
        history: PlannerHistory | None,
        feedback: PlannerFeedback | None,
    ) -> str:
        payload = {
            "plan_schema": PLAN_SCHEMA_DOC,
            "task": {
                "instruction": task.instruction,
                "goal": list(task.goal),
                "observations": list(task.observations),
                "max_steps": task.constraints.max_steps,
            },
            "history": to_doc(history or PlannerHistory()),
        }
        if feedback is not None:
            payload["feedback"] = to_doc(feedback)
        return (
            "You are the learning organizer for a robot that consolidates task "
            "solutions into a local method library. Produce a learning plan as a "
            "single JSON document matching plan_schema.\n" + json.dumps(payload, indent=2)
        )
