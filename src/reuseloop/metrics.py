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

from .engine import RunRecord
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


def aggregate(records: list[RunRecord]) -> MetricsReport:
    """Aggregate records into per-policy and per-repeat metrics.

    Each policy's records are walked once. Every sum starts at 0.0 and adds
    its records in record order, as ``engine.float_sum`` does, so each mean
    is the one ``float_sum`` of that statistic's values would give. Counts
    of hits and successes are ints, exact like the float sums of 1.0 they
    stand for.
    """
    if not records:
        raise ValueError("cannot aggregate an empty record list")

    by_policy: dict[str, list[RunRecord]] = {}
    for record in records:
        by_policy.setdefault(record.policy, []).append(record)

    policies = {}
    for policy, rows in by_policy.items():
        total_time = llm_calls = llm_time = ratios = 0.0
        successes = hits = 0
        per_repeat: dict[int, list] = {}  # repeat index -> [runs, total_s, llm_calls, hits]
        for row in rows:
            total_s, calls, llm_time_s, hit = row.total_s, row.llm_calls, row.llm_time_s, row.hit
            total_time += total_s
            llm_calls += calls
            llm_time += llm_time_s
            ratios += (llm_time_s / total_s) if total_s > 0 else 0.0
            successes += row.success
            hits += hit
            sums = per_repeat.get(row.repeat_index)
            if sums is None:
                sums = per_repeat[row.repeat_index] = [0, 0.0, 0.0, 0]
            sums[0] += 1
            sums[1] += total_s
            sums[2] += calls
            sums[3] += hit
        n = len(rows)
        policies[policy] = PolicyMetrics(
            n_runs=n,
            avg_total_s=total_time / n,
            avg_llm_calls=llm_calls / n,
            avg_llm_time_ratio=ratios / n,
            llm_time_ratio_micro=(llm_time / total_time) if total_time > 0 else 0.0,
            success_rate=successes / n,
            hit_rate=hits / n,
            per_repeat={
                idx: RepeatMetrics(runs, time_sum / runs, call_sum / runs, hit_count / runs)
                for idx, (runs, time_sum, call_sum, hit_count) in sorted(per_repeat.items())
            },
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
