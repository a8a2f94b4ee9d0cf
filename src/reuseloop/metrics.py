"""Aggregation of run records into benchmark metrics.

Reports carry, per policy, the overall averages (total time, LLM calls, LLM
time ratio, success rate, hit rate) plus repeat-wise slices of total time,
LLM calls, and hit rate. The LLM time ratio is macro-averaged (per-run ratio,
then mean over runs, counting zero-LLM runs as 0); the micro-averaged
variant (sum of LLM time over sum of total time) is reported alongside under
its own name. Values are rounded to 4 decimals at serialization only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import RunRecord, float_sum
from .errors import replacing


@dataclass(frozen=True)
class RepeatMetrics:
    n_runs: int
    avg_total_s: float
    avg_llm_calls: float
    hit_rate: float


@dataclass(frozen=True)
class PolicyMetrics:
    n_runs: int
    avg_total_s: float
    avg_llm_calls: float
    avg_llm_time_ratio: float
    llm_time_ratio_micro: float
    success_rate: float
    hit_rate: float
    per_repeat: dict[int, RepeatMetrics]


@dataclass(frozen=True)
class MetricsReport:
    policies: dict[str, PolicyMetrics]
    notes: tuple[str, ...] = ()


_REPORT_NOTES = (
    "always_llm episodes are charged no retrieval time: that baseline keeps no library.",
    "avg_llm_time_ratio is macro-averaged per run; llm_time_ratio_micro is the pooled ratio.",
)


def _mean(values: list[float]) -> float:
    return float_sum(values) / len(values)


def aggregate(records: list[RunRecord]) -> MetricsReport:
    """Aggregate records into per-policy and per-repeat metrics."""
    if not records:
        raise ValueError("cannot aggregate an empty record list")

    by_policy: dict[str, list[RunRecord]] = {}
    for record in records:
        by_policy.setdefault(record.policy, []).append(record)

    policies = {}
    for policy, rows in by_policy.items():
        per_repeat: dict[int, list[RunRecord]] = {}
        for row in rows:
            per_repeat.setdefault(row.repeat_index, []).append(row)
        repeat_metrics = {
            idx: RepeatMetrics(
                n_runs=len(group),
                avg_total_s=_mean([r.total_s for r in group]),
                avg_llm_calls=_mean([float(r.llm_calls) for r in group]),
                hit_rate=_mean([1.0 if r.hit else 0.0 for r in group]),
            )
            for idx, group in sorted(per_repeat.items())
        }
        total_time = float_sum(r.total_s for r in rows)
        total_llm_time = float_sum(r.llm_time_s for r in rows)
        policies[policy] = PolicyMetrics(
            n_runs=len(rows),
            avg_total_s=_mean([r.total_s for r in rows]),
            avg_llm_calls=_mean([float(r.llm_calls) for r in rows]),
            avg_llm_time_ratio=_mean(
                [(r.llm_time_s / r.total_s) if r.total_s > 0 else 0.0 for r in rows]
            ),
            llm_time_ratio_micro=(total_llm_time / total_time) if total_time > 0 else 0.0,
            success_rate=_mean([1.0 if r.success else 0.0 for r in rows]),
            hit_rate=_mean([1.0 if r.hit else 0.0 for r in rows]),
            per_repeat=repeat_metrics,
        )
    return MetricsReport(policies=policies, notes=_REPORT_NOTES)


# ---------------------------------------------------------------------------
# Serialization (values rounded to 4 decimals here, never upstream)
# ---------------------------------------------------------------------------

_OVERALL_FIELDS = tuple(f.name for f in fields(PolicyMetrics) if f.name != "per_repeat")
_REPEAT_FIELDS = tuple(f.name for f in fields(RepeatMetrics))

CSV_COLUMNS = ("policy", "scope", *_OVERALL_FIELDS)


def _r4(value: float) -> float:
    return round(value, 4)


def _rounded(metrics: PolicyMetrics | RepeatMetrics, names: tuple[str, ...]) -> dict:
    """The named fields of ``metrics``, each through ``_r4``; an int stays an int."""
    return {name: _r4(getattr(metrics, name)) for name in names}


def report_to_dict(report: MetricsReport) -> dict:
    doc: dict = {"policies": {}, "notes": list(report.notes)}
    for policy in sorted(report.policies):
        pm = report.policies[policy]
        doc["policies"][policy] = {
            "overall": _rounded(pm, _OVERALL_FIELDS),
            "per_repeat": {
                str(idx): _rounded(rm, _REPEAT_FIELDS) for idx, rm in pm.per_repeat.items()
            },
        }
    return doc


def write_report_json(report: MetricsReport, path: str | Path) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(report_to_dict(report), indent=2) + "\n")


def write_report_csv(report: MetricsReport, path: str | Path) -> None:
    """One row per (policy, scope); repeat rows leave ratio columns empty."""
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for policy, doc in report_to_dict(report)["policies"].items():
            scopes = {"overall": doc["overall"]}
            scopes.update((f"repeat-{idx}", values) for idx, values in doc["per_repeat"].items())
            for scope, values in scopes.items():
                row = {"policy": policy, "scope": scope, **values}
                writer.writerow([row.get(column, "") for column in CSV_COLUMNS])


def format_report_table(report: MetricsReport) -> str:
    """Fixed-width overall table for terminal output."""
    header = (
        f"{'policy':<22}{'runs':>6}{'avg_total_s':>13}{'llm_calls':>11}"
        f"{'llm_ratio':>11}{'success':>9}{'hit':>7}"
    )
    lines = [header, "-" * len(header)]
    for policy in sorted(report.policies):
        pm = report.policies[policy]
        lines.append(
            f"{policy:<22}{pm.n_runs:>6}{_r4(pm.avg_total_s):>13.4f}"
            f"{_r4(pm.avg_llm_calls):>11.4f}{_r4(pm.avg_llm_time_ratio):>11.4f}"
            f"{_r4(pm.success_rate):>9.4f}{_r4(pm.hit_rate):>7.4f}"
        )
    return "\n".join(lines)
