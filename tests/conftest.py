from __future__ import annotations

import gc

import pytest

from reuseloop.experience import ExperienceSample
from reuseloop.library import (
    Applicability,
    DataProfile,
    Method,
    MethodLibrary,
    Reliability,
    matching_score,
)
from reuseloop.tasks import TaskConstraints, TaskDescriptor, normalize_goal, signature_of


def make_task(
    goal=("pick", "up", "red", "cube"),
    target=("move", "grasp", "lift"),
    max_steps=8,
    task_id="task-000",
    instruction=None,
):
    return TaskDescriptor(
        id=task_id,
        instruction=instruction or " ".join(goal),
        goal=tuple(goal),
        environment={"workspace": "bench-1"},
        observations=("vision", "proprioception"),
        constraints=TaskConstraints(max_steps=max_steps),
        target_sequence=tuple(target),
    )


def make_method(
    method_id="m-0",
    procedure=("move", "grasp", "lift"),
    signatures=None,
    goal_tokens=("pick", "up", "red", "cube"),
    successes=0,
    attempts=0,
    created_cycle=0,
    last_used_cycle=0,
    max_steps=8,
):
    return Method(
        id=method_id,
        procedure=tuple(procedure),
        params={"model_family": "sequence"},
        data_profile=DataProfile(n_self_samples=len(procedure), n_obs_samples=0, episodes=1),
        applicability=Applicability(
            signatures=set(signatures) if signatures else {"sig-" + method_id},
            goal_tokens=set(goal_tokens),
            max_steps=max_steps,
        ),
        reliability=Reliability(
            successes=successes,
            attempts=attempts,
            created_cycle=created_cycle,
            last_used_cycle=last_used_cycle,
        ),
    )


def method_for_task(task, method_id="m-task", successes=1, attempts=1, procedure=None):
    """A method that exactly covers ``task``."""
    return Method(
        id=method_id,
        procedure=tuple(procedure) if procedure is not None else task.target_sequence,
        params={"model_family": "sequence"},
        data_profile=DataProfile(n_self_samples=len(task.target_sequence), n_obs_samples=0, episodes=1),
        applicability=Applicability(
            signatures={signature_of(task)},
            goal_tokens=set(normalize_goal(task.goal)),
            max_steps=task.constraints.max_steps,
        ),
        reliability=Reliability(successes=successes, attempts=attempts),
    )


def make_sample(t, action="move", success=True):
    return ExperienceSample(t, action, success)


def linear_scan_oracle(library, task, tau_r):
    """Independent reference for retrieve_best: explicit scan and tie-break.

    Returns ``(method, score, covered)``.
    """
    best, best_key = None, None
    for method in library.methods():
        key = (
            matching_score(task, method),
            method.reliability.success_ratio,
            method.reliability.last_used_cycle,
        )
        if best is None or key > best_key or (key == best_key and method.id < best.id):
            best, best_key = method, key
    if best is None:
        return None, 0.0, False
    score = matching_score(task, best)
    return best, score, score >= tau_r


@pytest.fixture
def task():
    return make_task()


@pytest.fixture
def library():
    return MethodLibrary()


@pytest.fixture(autouse=True)
def collector_left_running(request):
    """Every test must leave CPython's cycle collector running, as
    ``errors.load_json`` restores it; one that does not errors at teardown,
    under its own name, and the collector is turned back on for the rest."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail(f"{request.node.nodeid} left the cycle collector disabled")
