"""When the loop learns: the trigger for one event, and the refinement test.

``decide`` judges one event from the lookup the engine made for it, against
the self-task or the observation coverage threshold. The lookup's
``covered`` is the only coverage test. The cases, in order:

1. a self task that is uncovered                                  -> learn
2. covered, but confidence in the method is below ``tau_q``       -> learn
3. a successful observation of an uncovered task                  -> learn
4. otherwise reuse the retrieved method, or do nothing for an
   observed event.

After a reuse, ``needs_refinement`` says whether the method's utility fell
below ``tau_u``, so that the episode learns once more.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import check_fraction
from .library import Method, RetrievalResult
from .tasks import ObservedEvent

REUSE = "reuse"
LEARN_UNCOVERED = "learn_uncovered"
LEARN_LOW_CONFIDENCE = "learn_low_confidence"
LEARN_OBSERVATION = "learn_observation"
NO_ACTION = "no_action"

LEARN_BRANCHES = frozenset({LEARN_UNCOVERED, LEARN_LOW_CONFIDENCE, LEARN_OBSERVATION})


@dataclass(frozen=True)
class TriggerThresholds:
    tau_r: float = 0.8
    tau_q: float = 0.5
    tau_o: float = 0.8
    tau_u: float = 0.3

    def __post_init__(self):
        for f in fields(self):
            check_fraction(f.name, getattr(self, f.name))


class TriggerDecision(NamedTuple):
    """One event's branch, built only by ``decide``, from the five branch
    constants above."""

    branch: str

    @property
    def z(self) -> bool:
        """The paper's learning indicator: whether the branch learns."""
        return self.branch in LEARN_BRANCHES


def confidence(method: Method, score: float) -> float:
    """Expected suitability of applying ``method`` at matching ``score``, in [0, 1].

    Laplace-smoothed success ratio, (successes + 1) / (attempts + 2), scaled
    by the retrieved matching score so barely-related methods are never
    trusted. A method ``learner.build_method`` stores starts at 1/1, so on an
    exact match it sits at 2/3; an untried 0/0 method would sit at 0.5.
    """
    rel = method.reliability
    return (rel.successes + 1) / (rel.attempts + 2) * score


def decide(
    found: RetrievalResult,
    thresholds: TriggerThresholds,
    observed: ObservedEvent | None = None,
) -> TriggerDecision:
    """Pick the branch for one event from its lookup, ``found``.

    A self task passes no ``observed``; an observed event passes its
    observation.
    """
    if observed is not None:
        if observed.success and not found.covered:
            return TriggerDecision(LEARN_OBSERVATION)
        return TriggerDecision(NO_ACTION)
    if not found.covered:
        return TriggerDecision(LEARN_UNCOVERED)
    if confidence(found.method, found.score) < thresholds.tau_q:
        return TriggerDecision(LEARN_LOW_CONFIDENCE)
    return TriggerDecision(REUSE)


def utility(method: Method, current_cycle: int) -> float:
    """Long-term usefulness: success ratio decayed by time since last use."""
    idle = max(0, current_cycle - method.reliability.last_used_cycle)
    return method.reliability.success_ratio / (1.0 + 0.01 * idle)


def needs_refinement(method: Method, current_cycle: int, tau_u: float) -> bool:
    """True when utility falls strictly below ``tau_u``."""
    return utility(method, current_cycle) < tau_u
