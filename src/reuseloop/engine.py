"""Closed-loop episode engine over virtual time.

``run_episode`` handles one task event under a policy mode: its
``_Episode.run`` makes the episode's one decision, as the table below
says. ``run_loop`` folds it over an event stream, threading the method
library so that what one episode learns the next can reuse. Every
duration is virtual: an episode adds configured phase costs and the
planner's reported latency into its phase dict, which makes benchmark runs
exactly reproducible; ``RunRecord`` checks the result. Only
``SequenceExecutor``, the simulated environment, reads a task's hidden
target.

Policy modes
------------
Every mode charges ``observe_s`` for an observed event; all but
proposed_observation then just record its outcome.

always_llm
    Plan every task with the LLM and execute the returned solution; nothing
    is ever consolidated. Retrieval is skipped (and charged nothing).
library_only
    Retrieve and execute on coverage; uncovered tasks fail with no plan call.
proposed
    Full loop: retrieve, trigger, reuse on coverage, otherwise run the
    learning pipeline on self-execution experience and execute the candidate.
observation_only
    Observed events are never consolidated; self events behave like
    always_llm.
proposed_observation
    Observed events run the observation trigger and, when uncovered, run the
    learning pipeline on the observed behavior (one plan call, no
    execution); self events behave like proposed.

Both event kinds learn through one pipeline, ``_Episode.learn``. It does
not call ``learner.quasi_adjust``: ``train_episode`` recounts every step
index the collected samples cover, which subsumes that adjustment here.
"""

from __future__ import annotations

import json
import marshal
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from . import learner
from .errors import PlannerError, RecordStreamError, SchemaError, read_dataclass, replacing
from .experience import EpisodeDataset, ExperienceSample, SOURCE_SELF
from .library import Method, MethodLibrary
from .planner import EpisodeOutcome, Planner, PlannerFeedback, PlannerHistory
from .tasks import TaskDescriptor, TaskEvent
from .trigger import LEARN_OBSERVATION, REUSE, TriggerThresholds, decide, needs_refinement

ALWAYS_LLM = "always_llm"
LIBRARY_ONLY = "library_only"
PROPOSED = "proposed"
OBSERVATION_ONLY = "observation_only"
PROPOSED_OBSERVATION = "proposed_observation"
POLICY_MODES = (ALWAYS_LLM, LIBRARY_ONLY, PROPOSED, OBSERVATION_ONLY, PROPOSED_OBSERVATION)

PHASES = ("retrieve", "plan_llm", "execute", "collect", "train", "store")


@dataclass(frozen=True)
class ExecutorConfig:
    """Virtual durations for each episode phase, in seconds."""

    base_s: float = 4.8
    per_step_s: float = 0.35
    retrieve_s: float = 0.01
    collect_s: float = 0.5
    train_s: float = 0.23
    store_s: float = 0.05
    observe_s: float = 0.2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be nonnegative")

    def execute_time(self, n_steps: int) -> float:
        return self.base_s + self.per_step_s * n_steps


# Times and means add floats left to right, so that a run's outputs are the
# same bits on every Python version: from 3.12 on, sum() compensates for
# rounding and can end in another last bit.
def float_sum(values: Iterable[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


class SequenceExecutor(learner.Replayer):
    """Simulated environment for one task, and the only engine code that
    reads the task's hidden target.

    Execution succeeds when the attempted sequence equals the target.
    ``replay`` makes that check for validation, at no cost; ``execute``
    adds the execution time to the episode's phase dict and makes it.
    ``collect`` adds the collection time and records one experience sample
    per step, successful when the step matches the expected action, and
    ``first_failed_step`` names the first step that does not.
    """

    def __init__(self, task: TaskDescriptor, config: ExecutorConfig):
        self.task = task
        self.config = config

    def replay(self, sequence: Sequence[str]) -> bool:
        return tuple(sequence) == self.task.target_sequence

    def execute(self, sequence: Sequence[str], phases: dict[str, float]) -> bool:
        phases["execute"] += self.config.execute_time(len(sequence))
        return self.replay(sequence)

    def collect(
        self, sequence: Sequence[str], dataset: EpisodeDataset, phases: dict[str, float]
    ) -> None:
        phases["collect"] += self.config.collect_s
        target = self.task.target_sequence
        for i, action in enumerate(sequence, start=1):
            ok = i <= len(target) and action == target[i - 1]
            dataset.record_step(ExperienceSample(i, action, ok, SOURCE_SELF))

    def first_failed_step(self, sequence: Sequence[str]) -> int | None:
        """1-based index of the first action off the target, None if there is none."""
        target = self.task.target_sequence
        return next(
            (i for i, action in enumerate(sequence, start=1)
             if i > len(target) or action != target[i - 1]),
            None,
        )


_PHASE_FIELDS = tuple(f"{phase}_s" for phase in PHASES)
_NONNEGATIVE_FIELDS = (*_PHASE_FIELDS, "llm_time_s", "llm_calls")
_FINITE_FIELDS = (*_PHASE_FIELDS, "total_s", "llm_time_s")
_phase_times = attrgetter(*_PHASE_FIELDS)


@dataclass
class RunRecord:
    """One episode's accounting. ``total_s`` always equals the phase sum."""

    policy: str
    task_id: str
    repeat_index: int
    cycle: int
    retrieve_s: float
    plan_llm_s: float
    execute_s: float
    collect_s: float
    train_s: float
    store_s: float
    total_s: float
    llm_calls: int
    llm_time_s: float
    success: bool
    hit: bool
    learned: bool

    def __post_init__(self):
        if self.policy not in POLICY_MODES:
            modes = ", ".join(POLICY_MODES)
            raise ValueError(f"policy must be one of {modes}, not {self.policy!r}")
        phases = _phase_times(self)
        if min(phases) < 0 or self.llm_time_s < 0 or self.llm_calls < 0:
            name = next(name for name in _NONNEGATIVE_FIELDS if getattr(self, name) < 0)
            raise ValueError(f"{name} must be nonnegative")
        # A finite total over nonnegative phases makes every phase finite.
        if not (math.isfinite(self.total_s) and math.isfinite(self.llm_time_s)):
            name = next(name for name in _FINITE_FIELDS if not math.isfinite(getattr(self, name)))
            raise ValueError(f"{name} must be finite")
        if self.repeat_index < 1:
            raise ValueError("repeat_index must be >= 1")
        if self.cycle < 0:
            raise ValueError("cycle must be nonnegative")
        if not math.isclose(self.total_s, sum(phases), rel_tol=1e-9):
            raise ValueError("total_s must equal the sum of the phase times")
        if self.hit and self.learned:
            raise ValueError("an episode cannot be both a reuse hit and a learning episode")
        if self.llm_time_s > self.total_s + 1e-12:
            raise ValueError("llm_time_s cannot exceed total_s")


class _Episode:
    """Mutable state for one run_episode call."""

    def __init__(
        self,
        event: TaskEvent,
        mode: str,
        library: MethodLibrary,
        planner: Planner,
        thresholds: TriggerThresholds,
        config: ExecutorConfig,
        history: PlannerHistory | None,
    ):
        self.event = event
        self.task = event.task
        self.mode = mode
        self.library = library
        self.planner = planner
        self.thresholds = thresholds
        self.config = config
        self.phases = dict.fromkeys(PHASES, 0.0)
        self.history = history
        self.executor = SequenceExecutor(event.task, config)
        self.llm_calls = 0
        self.success = False
        self.hit = False
        self.learned = False

    def run(self) -> None:
        """Handle the event as README's "Policy modes" table says."""
        observed = self.event.observed
        if observed is not None:
            self.phases["collect"] += self.config.observe_s
            if self.mode == PROPOSED_OBSERVATION:
                self.phases["retrieve"] += self.config.retrieve_s
                found = self.library.retrieve_best(self.task, self.thresholds.tau_o)
                if decide(found, self.thresholds, observed).branch == LEARN_OBSERVATION:
                    self.learn()
                    return
            self.success = observed.success  # watched, or already covered
            return

        if self.mode in (ALWAYS_LLM, OBSERVATION_ONLY):
            # Plan every time and execute; no retrieval cost, no consolidation.
            try:
                solution = self._plan().plan.direct_solution
            except PlannerError:
                return
            if solution is not None:
                self.success = self.executor.execute(solution, self.phases)
            return

        self.phases["retrieve"] += self.config.retrieve_s
        found = self.library.retrieve_best(self.task, self.thresholds.tau_r)
        if self.mode == LIBRARY_ONLY:
            if found.covered:
                self.success = self.executor.execute(found.method.procedure, self.phases)
                self.library.update_reliability(found.method.id, self.success, self.event.cycle)
                self.hit = True
            return

        if decide(found, self.thresholds).branch == REUSE:
            self.reuse(found.method)
        else:
            self.learn()

    # -- planner access -----------------------------------------------------

    def _plan(self, feedback: PlannerFeedback | None = None):
        call = self.planner.plan(self.task, self.history, feedback)
        self.phases["plan_llm"] += call.latency_s
        self.llm_calls += 1
        return call

    # -- reuse and learning ---------------------------------------------------

    def reuse(self, method: Method) -> None:
        """Execute a stored method. If its utility then falls below ``tau_u``,
        re-enter learning once: replan from the execution feedback, with no
        second execution charge."""
        ok = self.executor.execute(method.procedure, self.phases)
        self.library.update_reliability(method.id, ok, self.event.cycle)
        self.success = ok
        self.hit = True
        if self.history is not None:
            self.history.record_method(method.id, method.reliability.success_ratio)
        # After update_reliability, so idle is 0; checking first moves the reuse-384 pins.
        if needs_refinement(method, self.event.cycle, self.thresholds.tau_u):
            failed_step = self.executor.first_failed_step(method.procedure)
            self.learn(PlannerFeedback(
                episode_outcomes=[EpisodeOutcome(success=ok, failed_step=failed_step)],
                notes="stored method utility fell below the refinement threshold",
            ))
            if self.learned:
                self.hit = False

    def learn(self, feedback: PlannerFeedback | None = None) -> None:
        """Plan, collect experience, consolidate, validate, store, then set the outcome.

        An observed event succeeds iff a method was stored. A self event then
        executes the candidate, except on refinement (``feedback`` given).
        """
        try:
            plan = self._plan(feedback).plan
        except PlannerError:
            return
        observed = self.event.observed
        dataset = EpisodeDataset()
        if observed is not None:
            dataset.ingest_observation(observed)
        elif plan.direct_solution is not None:
            self.executor.collect(plan.direct_solution, dataset, self.phases)
        try:
            candidate = learner.initialize(plan, dataset)
        except ValueError:
            return
        self.phases["train"] += self.config.train_s
        candidate = learner.train_episode(candidate, dataset)
        if learner.validate(candidate, self.executor, plan.update_criteria).passed:
            method = learner.build_method(candidate, self.task, dataset, self.event.cycle)
            self.library.insert(method)
            self.phases["store"] += self.config.store_s
            self.learned = True
        if observed is not None:
            self.success = self.learned
        elif feedback is None:
            self.success = self.executor.execute(candidate.sequence, self.phases)


def run_episode(
    event: TaskEvent,
    mode: str,
    library: MethodLibrary,
    planner: Planner,
    thresholds: TriggerThresholds,
    executor_config: ExecutorConfig,
    *,
    repeat_index: int = 1,
    history: PlannerHistory | None = None,
) -> RunRecord:
    """Run one task event under ``mode`` and return its run record.

    Planner failures are not raised; they mark the episode unsuccessful.
    """
    if mode not in POLICY_MODES:
        raise ValueError(f"unknown policy mode {mode!r}")
    ep = _Episode(event, mode, library, planner, thresholds, executor_config, history)
    ep.run()
    # Positional: the phases come in PHASES order, which RunRecord's fields
    # follow. All LLM time is the planner latency charged to plan_llm.
    phases = ep.phases
    return RunRecord(
        mode, event.task.id, repeat_index, event.cycle, *phases.values(),
        float_sum(phases.values()), ep.llm_calls, phases["plan_llm"], ep.success, ep.hit, ep.learned,
    )


def run_loop(
    events: list[TaskEvent],
    mode: str,
    library: MethodLibrary,
    planner: Planner,
    thresholds: TriggerThresholds,
    executor_config: ExecutorConfig,
) -> list[RunRecord]:
    """Fold ``run_episode`` over an ordered event stream.

    The library is threaded through: its size afterward equals its size
    before plus the number of records with ``learned`` set.
    """
    last_cycle = -1
    for ev in events:
        if ev.cycle <= last_cycle:
            raise ValueError("events must be ordered by strictly increasing cycle")
        last_cycle = ev.cycle

    history = PlannerHistory()
    seen: dict[str, int] = {}
    records = []
    for event in events:
        sig = event.task.signature
        seen[sig] = seen.get(sig, 0) + 1
        record = run_episode(
            event, mode, library, planner, thresholds, executor_config,
            repeat_index=seen[sig], history=history,
        )
        history.record_task(sig)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Run-record streams (JSON lines, one record per line, fields in RunRecord order)
# ---------------------------------------------------------------------------

RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


# A record line is a head, the four fields that name the episode, then a
# block of the other twelve. Episodes add fixed phase costs, so
# blocks repeat from one record to the next, and write_records checks and
# formats each distinct policy and block once.
_HEAD_FIELDS = RECORD_FIELDS[:4]
_BLOCK_FIELDS = RECORD_FIELDS[4:]
_head = attrgetter(*_HEAD_FIELDS)
_block = attrgetter(*_BLOCK_FIELDS)


def write_records(records: list[RunRecord], path: str | Path) -> None:
    """Write one line per record, ``json.dumps``' compact form with fields in
    ``RECORD_FIELDS`` order, atomically.

    Each record passes ``read_dataclass``, the check ``read_records`` makes,
    so a record changed after it was built into one that ``read_records``
    would refuse raises the same ``SchemaError``, named at the same field.
    The check, and the ``json.dumps`` text of the block, run once per
    distinct policy and block per call. Their memo key is marshal bytes:
    marshal writes each value with a type code, and a float as its eight
    IEEE bytes. So values that compare equal but print apart (``0.0`` and
    ``-0.0``, ``5`` and ``5.0``, ``1`` and ``True``) never share a check or
    a text, and marshal refuses every subclass. A record whose policy and
    block were checked has only the rest of its head checked, for the exact
    types and ranges the reader asks of them.

    The lines are written through ``errors.replacing``, so a refused or
    interrupted write leaves the previous file intact.
    """
    blocks: dict[bytes | None, str] = {}
    with replacing(path) as fh:
        write = fh.write
        for record in records:
            policy, task_id, repeat_index, cycle = head = _head(record)
            values = _block(record)
            try:
                key = marshal.dumps((policy, values), 2)  # version 2: no back-references
            except ValueError:  # a value no field accepts; never looked up
                key = None
            if (key is None or (block := blocks.get(key)) is None
                    or not (type(task_id) is str and type(repeat_index) is int
                            and type(cycle) is int and repeat_index >= 1 and cycle >= 0)):
                read_dataclass(RunRecord, dict(zip(RECORD_FIELDS, (*head, *values))))
                block = blocks[key] = ", " + json.dumps(dict(zip(_BLOCK_FIELDS, values)))[1:] + "\n"
            write(
                f'{{"policy": {encode_basestring_ascii(policy)}, '
                f'"task_id": {encode_basestring_ascii(task_id)}, '
                f'"repeat_index": {repeat_index}, "cycle": {cycle}{block}'
            )


def read_records(path: str | Path) -> list[RunRecord]:
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(read_dataclass(RunRecord, json.loads(line)))
            except (SchemaError, ValueError) as exc:
                raise RecordStreamError(line_no, str(exc)) from exc
    return records
