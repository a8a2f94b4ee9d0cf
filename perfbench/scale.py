"""Scale corpus and warm method library for the ``scale-library`` workload.

``generate_corpus`` caps a corpus at 384 tasks (8 verbs x 6 colours x 8
objects), which is too small to show how retrieval scales. This module draws
4-token goals from wider pools, one pool per token position, so two goals
have equal token sets exactly when they are the same goal. Stored and novel
goals can share at most three of four tokens, a Jaccard score of 3/5, which
stays below the default ``tau_r`` of 0.8: every novel task is uncovered and
learns, and no reuse ever picks a method for the wrong task.

Everything is built from public constructors and the documented
``library.json`` format, seeded only by the workload seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from reuseloop.library import LIBRARY_VERSION
from reuseloop.tasks import (
    DEFAULT_ACTIONS,
    SELF_TASK,
    TaskConstraints,
    TaskDescriptor,
    TaskEvent,
    normalize_goal,
    signature_of,
)

POOLS = (
    ("pick", "stack", "fetch", "sort", "insert", "flip", "pack", "wipe", "lift", "turn", "press", "slide"),
    ("red", "blue", "green", "yellow", "black", "white", "orange", "purple", "grey", "brown"),
    ("cube", "ball", "peg", "tray", "bottle", "gear", "plate", "ring", "cup", "box", "rod", "disk"),
    ("left", "right", "top", "bottom", "front", "back", "center", "corner", "shelf", "bin"),
)
MAX_STEPS = 8


@dataclass(frozen=True)
class ScaleInputs:
    """The stream to run and the warm library file to load before it."""

    events: list[TaskEvent]
    library_path: Path


def _goal(code: int) -> tuple[str, ...]:
    goal = []
    for pool in POOLS:
        code, index = divmod(code, len(pool))
        goal.append(pool[index])
    return tuple(goal)


def _task(rng: random.Random, index: int, goal: tuple[str, ...]) -> TaskDescriptor:
    target = tuple(rng.choice(DEFAULT_ACTIONS) for _ in range(rng.randint(3, 6)))
    return TaskDescriptor(
        id=f"scale-{index:05d}",
        instruction=" ".join(goal),
        goal=goal,
        environment={"workspace": "bench-scale"},
        observations=("vision", "proprioception"),
        constraints=TaskConstraints(max_steps=MAX_STEPS),
        target_sequence=target,
    )


def _warm_method(index: int, task: TaskDescriptor) -> dict:
    """A validated method for ``task`` as ``learner.build_method`` would store it."""
    signature = signature_of(task)
    return {
        "id": f"w-{signature[:12]}-{index:05d}",
        "procedure": list(task.target_sequence),
        "step_params": None,
        "params": {"model_family": "sequence"},
        "data_profile": {
            "n_self_samples": len(task.target_sequence),
            "n_obs_samples": 0,
            "episodes": 1,
        },
        "applicability": {
            "signatures": [signature],
            "goal_tokens": sorted(set(normalize_goal(task.goal))),
            "max_steps": MAX_STEPS,
        },
        "reliability": {"successes": 1, "attempts": 1, "created_cycle": 0, "last_used_cycle": 0},
    }


def build(seed: int, n_warm: int, n_novel: int, n_repeat: int, out_dir: Path) -> ScaleInputs:
    """Write a warm library of ``n_warm`` methods and return a stream over it.

    The stream has two halves. Each half holds ``n_repeat // 2`` repeats of
    distinct stored tasks (exact-signature hits) and every one of the
    ``n_novel`` new tasks, shuffled. A novel task therefore learns and
    inserts in the first half and hits its own fresh method in the second.
    """
    n_combos = 1
    for pool in POOLS:
        n_combos *= len(pool)
    if n_warm + n_novel > n_combos or n_repeat > n_warm:
        raise ValueError("scale workload sizes exceed the goal pools")
    rng = random.Random(f"perfbench-scale:{seed}")
    codes = rng.sample(range(n_combos), n_warm + n_novel)
    tasks = [_task(rng, i, _goal(code)) for i, code in enumerate(codes)]
    warm, novel = tasks[:n_warm], tasks[n_warm:]

    out_dir.mkdir(parents=True, exist_ok=True)
    library_path = out_dir / "warm_library.json"
    doc = {"version": LIBRARY_VERSION, "methods": [_warm_method(i, t) for i, t in enumerate(warm)]}
    library_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    repeats = rng.sample(warm, n_repeat)
    half = n_repeat // 2
    stream = []
    for part in (repeats[:half], repeats[half:]):
        chunk = part + novel
        rng.shuffle(chunk)
        stream.extend(chunk)
    events = [TaskEvent(cycle, SELF_TASK, task) for cycle, task in enumerate(stream)]
    return ScaleInputs(events=events, library_path=library_path)
