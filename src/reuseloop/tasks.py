"""Task descriptors and the repeated-task benchmark corpus generator.

A task pairs a natural-language instruction with a hidden target action
sequence. The corpus generator emits a deterministic, repeat-major stream of
task events: every task appears once per repeat round, and in
``observation_first`` mode the first round is delivered as successful
external observations instead of self-execution requests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import SchemaError, parse_json, read_versioned, replacing, to_doc

# Executable action identifiers shared by tasks, methods, and the planner.
DEFAULT_ACTIONS: tuple[str, ...] = (
    "move", "grasp", "lift", "place", "rotate", "push",
    "pull", "open", "close", "scan", "align", "release",
)

SELF_TASK = "self_task"
OBSERVED_EVENT = "observed_event"
EVENT_KINDS = (SELF_TASK, OBSERVED_EVENT)

SELF_EXECUTION = "self_execution"
OBSERVATION_FIRST = "observation_first"
CORPUS_MODES = (SELF_EXECUTION, OBSERVATION_FIRST)

_VERBS = ("pick", "stack", "fetch", "sort", "insert", "flip", "pack", "wipe")
_COLORS = ("red", "blue", "green", "yellow", "black", "white")
_OBJECTS = ("cube", "ball", "peg", "tray", "bottle", "gear", "plate", "ring")

# Distinct tasks a corpus can hold: one per verb, colour and object.
MAX_TASKS = len(_VERBS) * len(_COLORS) * len(_OBJECTS)

_TOKEN_RE = re.compile(r"[^a-z0-9]+")


def normalize_token(token: str) -> str:
    """Lowercase a goal token and drop punctuation/whitespace."""
    return _TOKEN_RE.sub("", token.lower())


def normalize_goal(goal: Iterable[str]) -> tuple[str, ...]:
    """Canonical ordered goal tokens: normalized, empties dropped."""
    return tuple(t for t in (normalize_token(tok) for tok in goal) if t)


@dataclass(frozen=True)
class TaskConstraints:
    max_steps: int
    deadline_s: float | None = None

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be a positive integer")
        if self.deadline_s is not None and not (isfinite(self.deadline_s) and self.deadline_s >= 0):
            raise ValueError("deadline_s must be finite and nonnegative when present")


@dataclass(frozen=True)
class TaskDescriptor:
    """One benchmark task.

    ``target_sequence`` is the ground-truth action chain used by the
    simulated environment to judge executions; policies must not read it.
    ``signature`` and ``goal_tokens`` are its retrieval key, computed on
    first use and kept; they are not fields, so equality ignores them.
    """

    id: str
    instruction: str
    goal: tuple[str, ...]
    environment: Mapping[str, str]
    observations: tuple[str, ...]
    constraints: TaskConstraints
    target_sequence: tuple[str, ...]

    def __post_init__(self):
        if not self.goal:
            raise ValueError("goal must be non-empty")
        if not self.goal_tokens:
            raise ValueError("goal must contain at least one non-empty token")
        if not self.target_sequence:
            raise ValueError("target_sequence must be non-empty")
        if len(self.target_sequence) > self.constraints.max_steps:
            raise ValueError("target_sequence longer than constraints.max_steps")

    @cached_property
    def signature(self) -> str:
        """Content signature, as ``signature_of(self)``."""
        return signature_of(self)

    @cached_property
    def goal_tokens(self) -> frozenset[str]:
        """Normalized goal tokens as a set, for Jaccard matching."""
        return frozenset(normalize_goal(self.goal))


@dataclass(frozen=True)
class ObservedEvent:
    """A successful (or failed) external behavior the agent witnessed; the
    enclosing ``TaskEvent`` names its task."""

    action_sequence: tuple[str, ...]
    success: bool

    def __post_init__(self):
        if self.success and not self.action_sequence:
            raise ValueError("successful observation must carry a non-empty action_sequence")


@dataclass(frozen=True)
class TaskEvent:
    cycle: int
    kind: str
    task: TaskDescriptor
    observed: ObservedEvent | None = None

    def __post_init__(self):
        if self.cycle < 0:
            raise ValueError("cycle must be nonnegative")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {', '.join(EVENT_KINDS)}, not {self.kind!r}")
        if (self.kind == OBSERVED_EVENT) != (self.observed is not None):
            raise ValueError("an observed payload is required iff kind is observed_event")


def signature_of(task: TaskDescriptor) -> str:
    """Content signature over the normalized goal and constraints.

    Descriptors that differ only in id, instruction, environment, or target
    collide on purpose: structurally identical tasks should retrieve the
    same methods.
    """
    payload = {
        "goal": list(normalize_goal(task.goal)),
        "max_steps": task.constraints.max_steps,
        "deadline_s": task.constraints.deadline_s,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def check_corpus_size(n_tasks: int, n_repeats: int) -> None:
    """Reject a corpus size ``generate_corpus`` cannot build."""
    if not 1 <= n_tasks <= MAX_TASKS:
        raise ValueError(f"n_tasks must lie in [1, {MAX_TASKS}]")
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")


def generate_corpus(
    seed: int,
    n_tasks: int,
    n_repeats: int,
    mode: str = SELF_EXECUTION,
) -> list[TaskEvent]:
    """Build the deterministic repeated-task event stream.

    Returns ``n_tasks * n_repeats`` events in repeat-major order (every task
    once per round). In ``observation_first`` mode the whole first round is
    observed events whose action sequences equal the hidden targets; later
    rounds are ordinary self-execution tasks.

    The stream is a pure function of the arguments: identical inputs yield a
    byte-identical corpus.
    """
    check_corpus_size(n_tasks, n_repeats)
    if mode not in CORPUS_MODES:
        raise ValueError(f"unknown corpus mode {mode!r}")

    combos = list(itertools.product(_VERBS, _COLORS, _OBJECTS))
    rng = random.Random(seed)
    rng.shuffle(combos)

    tasks = []
    for i, (verb, color, obj) in enumerate(combos[:n_tasks]):
        length = rng.randint(3, 6)
        target = tuple(rng.choice(DEFAULT_ACTIONS) for _ in range(length))
        tasks.append(
            TaskDescriptor(
                id=f"task-{i:03d}",
                instruction=f"{verb} the {color} {obj}",
                goal=(verb, color, obj),
                environment={"workspace": "bench-1", "object": obj, "color": color},
                observations=("vision", "proprioception"),
                constraints=TaskConstraints(max_steps=8),
                target_sequence=target,
            )
        )

    events: list[TaskEvent] = []
    cycle = 0
    for repeat in range(1, n_repeats + 1):
        for task in tasks:
            if mode == OBSERVATION_FIRST and repeat == 1:
                observed = ObservedEvent(task.target_sequence, True)
                events.append(TaskEvent(cycle, OBSERVED_EVENT, task, observed))
            else:
                events.append(TaskEvent(cycle, SELF_TASK, task))
            cycle += 1
    return events


def mean_target_length(events: Iterable[TaskEvent]) -> float:
    """Mean hidden-target length over the distinct tasks in a stream."""
    by_sig: dict[str, int] = {}
    for ev in events:
        by_sig.setdefault(ev.task.signature, len(ev.task.target_sequence))
    if not by_sig:
        raise ValueError("empty event stream")
    return sum(by_sig.values()) / len(by_sig)


# ---------------------------------------------------------------------------
# Corpus persistence: {"version": 1, "events": [...]}
# ---------------------------------------------------------------------------

CORPUS_VERSION = 1


@dataclass(frozen=True)
class _CorpusDoc:
    """The corpus document's root object."""

    version: int
    events: tuple[TaskEvent, ...]


def corpus_to_doc(events: Iterable[TaskEvent]) -> dict:
    return to_doc(_CorpusDoc(CORPUS_VERSION, tuple(events)))


def corpus_from_doc(doc: Any) -> list[TaskEvent]:
    """Read a corpus document against ``TaskEvent``; cycles must strictly increase."""
    events = read_versioned(_CorpusDoc, doc, CORPUS_VERSION).events
    for i in range(1, len(events)):
        if events[i].cycle <= events[i - 1].cycle:
            raise SchemaError(f"events[{i}].cycle", "cycle values must be strictly increasing")
    return list(events)


def save_corpus(events: Iterable[TaskEvent], path: str | Path) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(corpus_to_doc(events), indent=2) + "\n")


def load_corpus(path: str | Path) -> list[TaskEvent]:
    return corpus_from_doc(parse_json(Path(path).read_text(encoding="utf-8")))
