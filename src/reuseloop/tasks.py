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
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _str_text
from math import isfinite
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from .errors import SchemaError, load_json, read_versioned, replacing, to_doc

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
    """Lowercase a goal token and drop every character outside ``[a-z0-9]``."""
    return _TOKEN_RE.sub("", token.lower())


def normalize_goal(goal: Iterable[str]) -> tuple[str, ...]:
    """Canonical ordered goal tokens: normalized, empties dropped.

    A canonical goal, one whose tokens are all non-empty and whose joined
    text is ASCII, alphanumeric and lower-case, is returned as it is, as a
    tuple: each of its tokens holds only ``[a-z0-9]``, so the per-token rule
    would give it back unchanged. Every other goal goes through that rule.
    """
    goal = tuple(goal)
    text = "".join(goal)
    if all(goal) and text.isascii() and text.isalnum() and text.islower():
        return goal
    return tuple([t for t in map(normalize_token, goal) if t])


@dataclass(frozen=True)
class TaskConstraints:
    max_steps: int
    deadline_s: float | None = None

    def __post_init__(self):
        # A bool is an int to isinstance and a number to isfinite, and the
        # reader refuses it, so a direct build does too.
        if type(self.max_steps) is bool:
            raise ValueError("max_steps must be an integer, not a bool")
        if not isinstance(self.max_steps, int) or self.max_steps < 1:
            raise ValueError("max_steps must be a positive integer")
        if type(self.deadline_s) is bool:
            raise ValueError("deadline_s must be a number, not a bool")
        if self.deadline_s is not None and not (isfinite(self.deadline_s) and self.deadline_s >= 0):
            raise ValueError("deadline_s must be finite and nonnegative when present")


@dataclass(frozen=True, init=False)
class TaskDescriptor:
    """One benchmark task.

    ``target_sequence`` is the ground-truth action chain used by the
    simulated environment to judge executions; policies must not read it.
    ``goal``, ``observations`` and ``target_sequence`` are sequences of
    strings, stored as tuples: a ``str`` in their place is refused, not read
    as a sequence of one-letter tokens. ``signature`` and ``goal_tokens`` are
    its retrieval key, computed once, at construction; they are not fields,
    so equality ignores them. A canonical goal (see ``normalize_goal``) is
    keyed on as it is, which is what the per-token rule gives it.

    ``signature`` is the first 16 hex digits of the SHA-256 of the bytes of
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` over the
    normalized goal and the constraints, written directly: keys in sorted
    order, each token quoted by the encoder's own
    ``encode_basestring_ascii``, ``deadline_s`` as the ``repr`` of a float
    (``-0.0`` as ``0.0``) or ``null``, and ``max_steps`` as the decimal
    digits of an int, as ``json`` writes them. So equal constraints sign
    alike.

    A task is a slotted record with no instance ``__dict__``. The dataclass
    supplies equality, ``repr``, ``fields`` and ``replace``, and refuses
    ``setattr`` and ``delattr``. ``__hash__`` is the class's own, as the
    dataclass's would hash the ``environment`` mapping and fail. ``__init__``
    stores each slot through its own member descriptor, which costs about
    half of the ``object.__setattr__`` a frozen dataclass pays per field.
    Every way of building a task runs ``__init__``: ``replace``, the corpus
    reader, and copy and pickle through ``__reduce__``.
    """

    __slots__ = (
        "id", "instruction", "goal", "environment", "observations", "constraints",
        "target_sequence", "goal_tokens", "signature",
    )

    id: str
    instruction: str
    goal: tuple[str, ...]
    environment: Mapping[str, str]
    observations: tuple[str, ...]
    constraints: TaskConstraints
    target_sequence: tuple[str, ...]

    def __init__(self, id, instruction, goal, environment, observations, constraints, target_sequence):
        if isinstance(goal, str) or isinstance(observations, str) or isinstance(target_sequence, str):
            name = "goal" if isinstance(goal, str) else (
                "observations" if isinstance(observations, str) else "target_sequence")
            raise ValueError(f"{name} must be a sequence of strings, not a str")
        goal, observations, target_sequence = tuple(goal), tuple(observations), tuple(target_sequence)
        if not goal:
            raise ValueError("goal must be non-empty")
        tokens = normalize_goal(goal)
        if not tokens:
            raise ValueError("goal must contain at least one non-empty token")
        if not target_sequence:
            raise ValueError("target_sequence must be non-empty")
        if len(target_sequence) > constraints.max_steps:
            raise ValueError("target_sequence longer than constraints.max_steps")
        deadline = constraints.deadline_s
        deadline_text = "null" if deadline is None else repr(float(deadline) + 0.0)
        text = (
            f'{{"deadline_s":{deadline_text},"goal":[{",".join(map(_str_text, tokens))}],'
            f'"max_steps":{int(constraints.max_steps)}}}'
        )
        _set_id(self, id)
        _set_instruction(self, instruction)
        _set_goal(self, goal)
        _set_environment(self, environment)
        _set_observations(self, observations)
        _set_constraints(self, constraints)
        _set_target_sequence(self, target_sequence)
        _set_goal_tokens(self, frozenset(tokens))
        _set_signature(self, hashlib.sha256(text.encode()).hexdigest()[:16])

    def __hash__(self):
        # Equality compares all seven fields, so equal tasks hash alike.
        return hash((self.id, self.instruction, self.goal, self.observations,
                     self.constraints, self.target_sequence))

    def __reduce__(self):
        return type(self), tuple([getattr(self, field.name) for field in fields(self)])


# Each slot's own member-descriptor setter, bound once for ``__init__``. The
# frozen ``__setattr__`` does not guard it, as it does not guard
# ``object.__setattr__``.
(
    _set_id, _set_instruction, _set_goal, _set_environment, _set_observations,
    _set_constraints, _set_target_sequence, _set_goal_tokens, _set_signature,
) = [TaskDescriptor.__dict__[name].__set__ for name in TaskDescriptor.__slots__]


class _ObservedEventFields(NamedTuple):
    action_sequence: tuple[str, ...]
    success: bool


class ObservedEvent(_ObservedEventFields):
    """A successful (or failed) external behavior the agent witnessed; the
    enclosing ``TaskEvent`` names its task.

    An immutable ``NamedTuple`` record, checked on every build: ``_make``
    and ``_replace`` go through ``__new__`` too. A ``str`` in place of
    ``action_sequence`` is refused, not read as one-letter actions."""

    __slots__ = ()

    def __new__(cls, action_sequence, success):
        if isinstance(action_sequence, str):
            raise ValueError("action_sequence must be a sequence of strings, not a str")
        if success and not action_sequence:
            raise ValueError("successful observation must carry a non-empty action_sequence")
        return tuple.__new__(cls, (action_sequence, success))

    @classmethod
    def _make(cls, iterable: Iterable) -> ObservedEvent:
        return cls(*iterable)


class _TaskEventFields(NamedTuple):
    cycle: int
    kind: str
    task: TaskDescriptor
    observed: ObservedEvent | None = None


class TaskEvent(_TaskEventFields):
    """One event of the stream: a task to run, or, with ``observed``, one to
    watch. An immutable ``NamedTuple`` record, which builds in about half
    the time of a frozen dataclass; ``__new__`` checks every build,
    ``_make`` and ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, cycle, kind, task, observed=None):
        if cycle < 0:
            raise ValueError("cycle must be nonnegative")
        if kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {', '.join(EVENT_KINDS)}, not {kind!r}")
        if (kind == OBSERVED_EVENT) != (observed is not None):
            raise ValueError("an observed payload is required iff kind is observed_event")
        return tuple.__new__(cls, (cycle, kind, task, observed))

    @classmethod
    def _make(cls, iterable: Iterable) -> TaskEvent:
        return cls(*iterable)


def signature_of(task: TaskDescriptor) -> str:
    """Content signature over the normalized goal and constraints: the key
    ``task`` built at construction.

    Descriptors that differ only in id, instruction, environment, or target
    collide on purpose: structurally identical tasks should retrieve the
    same methods.
    """
    return task.signature


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

    constraints = TaskConstraints(max_steps=8)
    randint, choice = rng.randint, rng.choice
    # Positional, in field order: keyword arguments cost more per build. Each
    # target draws its length, then its actions, as the pinned stream expects.
    tasks = [
        TaskDescriptor(
            f"task-{i:03d}", f"{verb} the {color} {obj}", (verb, color, obj),
            {"workspace": "bench-1", "object": obj, "color": color},
            ("vision", "proprioception"), constraints,
            tuple([choice(DEFAULT_ACTIONS) for _ in range(randint(3, 6))]),
        )
        for i, (verb, color, obj) in enumerate(combos[:n_tasks])
    ]

    observed = n_tasks if mode == OBSERVATION_FIRST else 0  # the first round's cycles
    return [
        TaskEvent(cycle, OBSERVED_EVENT, task, ObservedEvent(task.target_sequence, True))
        if cycle < observed
        else TaskEvent(cycle, SELF_TASK, task)
        for cycle, task in enumerate(tasks * n_repeats)
    ]


def mean_target_length(events: Iterable[TaskEvent]) -> float:
    """Mean hidden-target length per distinct signature, the first task wins."""
    tasks = {id(ev.task): ev.task for ev in events}  # each task object once, in stream order
    by_sig: dict[str, int] = {}
    for task in tasks.values():
        by_sig.setdefault(task.signature, len(task.target_sequence))
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
    return load_json(path, corpus_from_doc)
