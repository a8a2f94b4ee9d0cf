"""The learning-trigger rule.

Given the retrieval result for the current task (if any) and an optional
external observation, ``decide`` picks exactly one branch, evaluating the
cases in fixed order:

1. the task is uncovered (best score below ``tau_r``)            -> learn
2. covered, but confidence in the method is below ``tau_q``       -> learn
3. a successful observation scores below ``tau_o``                -> learn
4. otherwise reuse the retrieved method, or do nothing when the
   event is a pure observation that is already covered.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .library import Method, RetrievalResult
from .tasks import ObservedEvent

REUSE = "reuse"
LEARN_UNCOVERED = "learn_uncovered"
LEARN_LOW_CONFIDENCE = "learn_low_confidence"
LEARN_OBSERVATION = "learn_observation"
NO_ACTION = "no_action"

LEARN_BRANCHES = frozenset({LEARN_UNCOVERED, LEARN_LOW_CONFIDENCE, LEARN_OBSERVATION})
BRANCHES = (REUSE, LEARN_UNCOVERED, LEARN_LOW_CONFIDENCE, LEARN_OBSERVATION, NO_ACTION)


@dataclass(frozen=True)
class TriggerThresholds:
    tau_r: float = 0.8
    tau_q: float = 0.5
    tau_o: float = 0.8
    tau_u: float = 0.3

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) <= 1.0:
                raise ValueError(f"{f.name} must lie in [0, 1]")


@dataclass(frozen=True)
class TriggerDecision:
    branch: str
    method: Method | None = None

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch {self.branch!r}")
        if (self.method is not None) != (self.branch == REUSE):
            raise ValueError("method present iff branch is reuse")

    @property
    def z(self) -> bool:
        """The paper's learning indicator: whether the branch learns."""
        return self.branch in LEARN_BRANCHES


def confidence(method: Method, score: float) -> float:
    """Expected suitability of applying ``method`` at matching ``score``, in [0, 1].

    Laplace-smoothed success ratio, (successes + 1) / (attempts + 2), scaled
    by the retrieved matching score so barely-related methods are never
    trusted. A fresh method on an exact match sits at 0.5.
    """
    rel = method.reliability
    return (rel.successes + 1) / (rel.attempts + 2) * score


def decide(
    retrieval: RetrievalResult | None,
    observation: ObservedEvent | None,
    obs_retrieval: RetrievalResult | None,
    thresholds: TriggerThresholds,
) -> TriggerDecision:
    """Apply the piecewise trigger rule.

    ``retrieval`` is the lookup for the self-execution task at hand, or None
    for a pure observation event (no self task pending, so the
    uncovered/low-confidence cases cannot fire). ``observation`` and
    ``obs_retrieval`` are paired.
    """
    if (observation is None) != (obs_retrieval is None):
        raise ValueError("observation and obs_retrieval must be provided together")
    if retrieval is None and observation is None:
        raise ValueError("decide needs a retrieval, an observation, or both")

    if retrieval is not None:
        # An empty library scores 0; it is uncovered even under tau_r = 0.
        if retrieval.method is None or retrieval.score < thresholds.tau_r:
            return TriggerDecision(LEARN_UNCOVERED)
        if confidence(retrieval.method, retrieval.score) < thresholds.tau_q:
            return TriggerDecision(LEARN_LOW_CONFIDENCE)

    if observation is not None and observation.success:
        if obs_retrieval.score < thresholds.tau_o:
            return TriggerDecision(LEARN_OBSERVATION)

    if retrieval is not None:
        return TriggerDecision(REUSE, retrieval.method)
    return TriggerDecision(NO_ACTION)
