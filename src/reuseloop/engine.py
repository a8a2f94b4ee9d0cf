"""Closed-loop episode engine over virtual time.

``run_episode`` handles one task event under a policy mode, over local
state: it makes the episode's one decision, as the table below says.
``run_loop`` folds it over an event stream, threading the method
library so that what one episode learns the next can reuse. Every
duration is virtual: an episode adds configured phase costs and the
planner's latency into its phase dict, which makes benchmark runs
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

Both event kinds learn through one pipeline, ``learn``. It does not call
``learner.quasi_adjust``: ``train_episode`` recounts every step index the
collected samples cover, which subsumes that adjustment here.
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
from .errors import RecordStreamError, SchemaError, check_duration, read_dataclass, replacing
from .experience import EpisodeDataset, ExperienceSample
from .library import MethodLibrary
from .planner import EpisodeOutcome, Planner
from .tasks import TaskDescriptor, TaskEvent
from .trigger import LEARN_OBSERVATION, REUSE, TriggerThresholds, decide, needs_refinement

ALWAYS_LLM = "always_llm"
LIBRARY_ONLY = "library_only"
PROPOSED = "proposed"
OBSERVATION_ONLY = "observation_only"
PROPOSED_OBSERVATION = "proposed_observation"
POLICY_MODES = (ALWAYS_LLM, LIBRARY_ONLY, PROPOSED, OBSERVATION_ONLY, PROPOSED_OBSERVATION)

PHASES = ("retrieve", "plan_llm", "execute", "collect", "train", "store")
# Each episode's phase times start as a copy of this, cheaper than a new
# dict.fromkeys per event.
_ZERO_PHASES = dict.fromkeys(PHASES, 0.0)


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
            check_duration(f.name, getattr(self, f.name))

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


class SequenceExecutor:
    """Simulated environment for one task, and the only engine code that
    reads the task's hidden target.

    ``execute`` adds the execution time to the episode's phase dict and
    succeeds when the attempted sequence equals the target. A candidate is
    validated on that paid outcome: nothing checks one for free.
    ``collect`` adds the collection time and records one rollout, one
    experience sample per step numbered from 1, successful when the step
    matches the expected action, and ``first_failed_step`` names, for a
    sequence just executed, the first step that does not, or is missing.
    """

    __slots__ = ("task", "config")

    def __init__(self, task: TaskDescriptor, config: ExecutorConfig):
        self.task = task
        self.config = config

    def execute(self, sequence: Sequence[str], phases: dict[str, float]) -> bool:
        phases["execute"] += self.config.execute_time(len(sequence))
        return tuple(sequence) == self.task.target_sequence

    def collect(
        self, sequence: Sequence[str], dataset: EpisodeDataset, phases: dict[str, float]
    ) -> None:
        phases["collect"] += self.config.collect_s
        target = self.task.target_sequence
        n_target = len(target)
        record_step = dataset.record_step
        for i, action in enumerate(sequence, start=1):
            ok = i <= n_target and action == target[i - 1]
            record_step(ExperienceSample(i, action, ok))

    def first_failed_step(self, sequence: Sequence[str]) -> int | None:
        """1-based index of the first action off the target, None if there is none.

        A sequence that stops short of the target, a strict prefix of it,
        fails at the step after its last: ``len(sequence) + 1``.
        """
        target = self.task.target_sequence
        return next(
            (i for i, action in enumerate(sequence, start=1)
             if i > len(target) or action != target[i - 1]),
            None if len(sequence) == len(target) else len(sequence) + 1,
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
        # A finite sum makes every phase finite. Finite phases whose sum
        # overflows fail the total_s check below instead.
        phase_sum = sum(phases)
        if not (math.isfinite(phase_sum) and math.isfinite(self.total_s)
                and math.isfinite(self.llm_time_s)):
            for name in _FINITE_FIELDS:
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{name} must be finite")
        if self.repeat_index < 1:
            raise ValueError("repeat_index must be >= 1")
        if self.cycle < 0:
            raise ValueError("cycle must be nonnegative")
        if not math.isclose(self.total_s, phase_sum, rel_tol=1e-9):
            raise ValueError("total_s must equal the sum of the phase times")
        if self.hit and self.learned:
            raise ValueError("an episode cannot be both a reuse hit and a learning episode")
        if self.llm_time_s > self.total_s + 1e-12:
            raise ValueError("llm_time_s cannot exceed total_s")


def _check_mode(mode: str) -> None:
    if mode not in POLICY_MODES:
        raise ValueError(f"unknown policy mode {mode!r}")


def learn(
    event: TaskEvent,
    library: MethodLibrary,
    planner: Planner,
    executor: SequenceExecutor,
    phases: dict[str, float],
    outcome: EpisodeOutcome | None = None,
) -> tuple[int, bool, bool]:
    """Plan, collect experience, consolidate, validate and store, charging
    ``phases``; return ``(llm_calls, learned, success)``.

    The candidate is validated on the evidence the episode pays for. A
    fresh self event executes it once, and that outcome is both the
    validation's and the event's success. An observed event or a
    refinement (``outcome`` given) executes nothing: it is judged on its
    confidence floor alone. An observed event succeeds iff a method was
    stored; a refinement keeps the reuse's ``outcome.success``.
    """
    plan = planner.plan(executor.task, outcome)
    phases["plan_llm"] += planner.latency_s
    observed = event.observed
    dataset = EpisodeDataset()
    if observed is not None:
        dataset.ingest_observation(observed)
    elif plan.direct_solution is not None:
        executor.collect(plan.direct_solution, dataset, phases)
    success = outcome is not None and outcome.success  # a refinement keeps the reuse's success
    try:
        candidate = learner.initialize(plan, dataset)
    except ValueError:  # no experience to learn from
        return 1, False, success
    phases["train"] += executor.config.train_s
    candidate = learner.train_episode(candidate, dataset)
    executed = True  # an observed event or a refinement executes nothing
    if observed is None and outcome is None:
        executed = success = executor.execute(candidate.sequence, phases)
    learned = learner.validate(candidate, executed, plan.update_criteria).passed
    if learned:
        method = learner.build_method(candidate, executor.task, dataset, event.cycle, library)
        library.insert(method)
        phases["store"] += executor.config.store_s
    return 1, learned, learned if observed is not None else success


def run_episode(
    event: TaskEvent,
    mode: str,
    library: MethodLibrary,
    planner: Planner,
    thresholds: TriggerThresholds,
    executor_config: ExecutorConfig,
    repeat_index: int = 1,
) -> RunRecord:
    """Run one task event under ``mode``, as README's "Policy modes" table
    says, and return its run record."""
    _check_mode(mode)
    task = event.task
    phases = _ZERO_PHASES.copy()
    llm_calls = 0
    success = hit = learned = False
    observed = event.observed
    if observed is not None:
        phases["collect"] += executor_config.observe_s
        success = observed.success  # watched, or already covered
        if mode == PROPOSED_OBSERVATION:
            phases["retrieve"] += executor_config.retrieve_s
            found = library.retrieve_best(task, thresholds.tau_o)
            if decide(found, thresholds, observed).branch == LEARN_OBSERVATION:
                executor = SequenceExecutor(task, executor_config)
                llm_calls, learned, success = learn(event, library, planner, executor, phases)
    elif mode in (ALWAYS_LLM, OBSERVATION_ONLY):
        # Plan every time and execute; no retrieval cost, no consolidation.
        solution = planner.plan(task).direct_solution
        phases["plan_llm"] += planner.latency_s
        llm_calls = 1
        if solution is not None:
            success = SequenceExecutor(task, executor_config).execute(solution, phases)
    else:
        phases["retrieve"] += executor_config.retrieve_s
        found = library.retrieve_best(task, thresholds.tau_r)
        adaptive = mode != LIBRARY_ONLY  # library_only never decides, refines or learns
        reuse = (decide(found, thresholds).branch == REUSE) if adaptive else found.covered
        executor = SequenceExecutor(task, executor_config)
        if reuse:
            method = found.method
            success = executor.execute(method.procedure, phases)
            library.update_reliability(method.id, success, event.cycle)
            hit = True
            # Utility below tau_u: re-enter learning once, replanning from the
            # execution's outcome, with no second execution charge. Checked
            # after update_reliability, so idle is 0; checking first moves
            # the reuse-384 pins.
            if adaptive and needs_refinement(method, event.cycle, thresholds.tau_u):
                outcome = EpisodeOutcome(success, executor.first_failed_step(method.procedure))
                llm_calls, learned, success = learn(
                    event, library, planner, executor, phases, outcome
                )
                hit = not learned
        elif adaptive:
            llm_calls, learned, success = learn(event, library, planner, executor, phases)
    # Positional: the phases come in PHASES order, which RunRecord's fields
    # follow. All LLM time is the planner latency charged to plan_llm.
    return RunRecord(
        mode, task.id, repeat_index, event.cycle, *phases.values(),
        float_sum(phases.values()), llm_calls, phases["plan_llm"], success, hit, learned,
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
    _check_mode(mode)
    last_cycle = -1
    for ev in events:
        if ev.cycle <= last_cycle:
            raise ValueError("events must be ordered by strictly increasing cycle")
        last_cycle = ev.cycle

    seen: dict[str, int] = {}
    records = []
    append = records.append
    for event in events:
        sig = event.task.signature
        seen[sig] = repeat_index = seen.get(sig, 0) + 1
        append(run_episode(
            event, mode, library, planner, thresholds, executor_config, repeat_index
        ))
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
