"""Analytic cost model for reuse-versus-learning amortization.

Handling one task costs retrieval plus execution, and a learning episode
additionally pays planning, collection, training, and storage. The helpers
here quantify when that one-time investment is repaid by later reuse, and
how much a delayed-update strategy loses to quasi-real-time updating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import check_fraction, check_number


@dataclass(frozen=True)
class CostProfile:
    c_retrieve: float = 0.0
    c_plan: float = 0.0
    c_collect: float = 0.0
    c_train: float = 0.0
    c_store: float = 0.0
    c_exec: float = 0.0
    c_delay: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= check_number(f.name, value) < math.inf:
                raise ValueError(f"{f.name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class ReuseBenefit:
    delta_c: float
    investment: float
    b_reuse: float
    b_net: float


@dataclass(frozen=True)
class DelayComparison:
    delayed_total: float
    quasi_total: float


def learning_overhead(profile: CostProfile) -> float:
    """Extra cost a learning episode pays on top of retrieve + execute."""
    return profile.c_plan + profile.c_collect + profile.c_train + profile.c_store


def single_task_cost(profile: CostProfile, z: bool) -> float:
    """Cost of one task: retrieve + execute, plus the learning overhead iff z."""
    base = profile.c_retrieve + profile.c_exec
    return base + learning_overhead(profile) if z else base


def expected_task_cost(profile: CostProfile, p: float) -> float:
    """Expected cost when the task is covered with probability ``p``.

    Affine and non-increasing in p: better coverage never costs more.
    """
    check_fraction("p", p)
    return profile.c_retrieve + profile.c_exec + (1.0 - p) * learning_overhead(profile)


def reuse_benefit(profile: CostProfile, rho: float, k: int) -> ReuseBenefit:
    """Net long-term benefit of consolidating one learned method.

    ``rho`` is the method's future reuse probability and ``k`` the number of
    future occasions. Each successful reuse saves planning + collection +
    training; the one-time investment additionally includes storage.
    """
    check_fraction("rho", rho)
    if k < 0:
        raise ValueError("k must be nonnegative")
    delta_c = profile.c_plan + profile.c_collect + profile.c_train
    investment = learning_overhead(profile)
    b_reuse = rho * k * delta_c
    return ReuseBenefit(
        delta_c=delta_c,
        investment=investment,
        b_reuse=b_reuse,
        b_net=b_reuse - investment,
    )


def benefit_condition_holds(profile: CostProfile, rho: float, k: int) -> bool:
    """True when expected reuse savings strictly exceed the investment."""
    result = reuse_benefit(profile, rho, k)
    return result.b_reuse > result.investment


def delay_comparison(profile: CostProfile, c_delay_quasi: float) -> DelayComparison:
    """Total cost under fully delayed versus quasi-real-time updating.

    The quasi strategy replaces the delay term with the (smaller)
    ``c_delay_quasi``, so its total never exceeds the delayed one.
    """
    if not 0.0 <= c_delay_quasi <= profile.c_delay:
        raise ValueError(f"c_delay_quasi must lie in [0, c_delay], got {c_delay_quasi!r}")
    common = (
        profile.c_retrieve
        + profile.c_exec
        + profile.c_plan
        + profile.c_collect
        + profile.c_train
    )
    return DelayComparison(
        delayed_total=common + profile.c_delay,
        quasi_total=common + c_delay_quasi,
    )
