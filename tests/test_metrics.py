from __future__ import annotations

import csv
import json
import random

import pytest

from reuseloop.engine import ALWAYS_LLM, PROPOSED, RunRecord
from reuseloop.metrics import (
    CSV_COLUMNS,
    aggregate,
    format_report_table,
    report_to_dict,
    write_report_csv,
    write_report_json,
)


def record(
    policy=PROPOSED,
    repeat_index=1,
    total_s=1.0,
    llm_calls=0,
    llm_time_s=0.0,
    success=True,
    hit=False,
    learned=False,
    task_id="t-0",
    cycle=0,
):
    rest = total_s - llm_time_s
    return RunRecord(
        policy=policy,
        task_id=task_id,
        repeat_index=repeat_index,
        cycle=cycle,
        retrieve_s=0.0,
        plan_llm_s=llm_time_s,
        execute_s=rest,
        collect_s=0.0,
        train_s=0.0,
        store_s=0.0,
        total_s=total_s,
        llm_calls=llm_calls,
        llm_time_s=llm_time_s,
        success=success,
        hit=hit,
        learned=learned,
    )


REFERENCE_TOTALS = [8.7660, 6.2542, 6.2294, 6.3136, 6.3263]


def reference_records():
    rows = []
    for i, total in enumerate(REFERENCE_TOTALS, start=1):
        first = i == 1
        rows.append(
            record(
                repeat_index=i,
                total_s=total,
                llm_calls=1 if first else 0,
                llm_time_s=1.4565 if first else 0.0,
                hit=not first,
                learned=first,
                cycle=i,
            )
        )
    return rows


class TestAggregate:
    def test_means_add_left_to_right(self):
        # From Python 3.12 on, sum() of these gives 0.6, and the mean would
        # read 0.19999999999999998 there.
        rows = [record(total_s=t, cycle=i) for i, t in enumerate((0.1, 0.2, 0.3))]
        assert aggregate(rows).policies[PROPOSED].avg_total_s == (0.1 + 0.2 + 0.3) / 3

    def test_reference_repeat_curve(self):
        report = aggregate(reference_records())
        pm = report.policies[PROPOSED]
        assert pm.avg_total_s == pytest.approx(6.7779)
        for i, total in enumerate(REFERENCE_TOTALS, start=1):
            assert pm.per_repeat[i].avg_total_s == pytest.approx(total)
            assert pm.per_repeat[i].n_runs == 1

    def test_llm_calls_average(self):
        report = aggregate(reference_records())
        assert report.policies[PROPOSED].avg_llm_calls == pytest.approx(0.2)

    def test_all_llm_run_has_ratio_one(self):
        rows = [record(total_s=2.0, llm_calls=1, llm_time_s=2.0)]
        report = aggregate(rows)
        assert report.policies[PROPOSED].avg_llm_time_ratio == pytest.approx(1.0)
        assert report.policies[PROPOSED].llm_time_ratio_micro == pytest.approx(1.0)

    def test_macro_and_micro_ratios_differ(self):
        rows = [
            record(total_s=1.0, llm_calls=1, llm_time_s=1.0),
            record(total_s=3.0),
        ]
        report = aggregate(rows)
        assert report.policies[PROPOSED].avg_llm_time_ratio == pytest.approx(0.5)
        assert report.policies[PROPOSED].llm_time_ratio_micro == pytest.approx(0.25)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_policies_kept_apart(self):
        rows = [record(policy="always_llm", llm_calls=1), record(policy=PROPOSED)]
        report = aggregate(rows)
        assert set(report.policies) == {"always_llm", PROPOSED}

    def test_matches_single_pass_oracle(self):
        rng = random.Random(31)
        rows = []
        for i in range(200):
            total = rng.uniform(0.5, 10.0)
            llm_time = rng.uniform(0, total) if rng.random() < 0.5 else 0.0
            hit = rng.random() < 0.4
            rows.append(
                record(
                    policy=rng.choice([ALWAYS_LLM, PROPOSED]),
                    repeat_index=rng.randint(1, 5),
                    total_s=total,
                    llm_calls=1 if llm_time else 0,
                    llm_time_s=llm_time,
                    success=rng.random() < 0.9,
                    hit=hit,
                    learned=(not hit) and rng.random() < 0.3,
                    cycle=i,
                )
            )
        report = aggregate(rows)

        # independent single-pass recount
        sums: dict = {}
        for r in rows:
            s = sums.setdefault(
                r.policy,
                {"n": 0, "total": 0.0, "calls": 0, "ratio": 0.0, "llm": 0.0,
                 "succ": 0, "hit": 0},
            )
            s["n"] += 1
            s["total"] += r.total_s
            s["calls"] += r.llm_calls
            s["ratio"] += r.llm_time_s / r.total_s if r.total_s else 0.0
            s["llm"] += r.llm_time_s
            s["succ"] += r.success
            s["hit"] += r.hit
        for policy, s in sums.items():
            pm = report.policies[policy]
            assert pm.n_runs == s["n"]
            assert pm.avg_total_s == pytest.approx(s["total"] / s["n"])
            assert pm.avg_llm_calls == pytest.approx(s["calls"] / s["n"])
            assert pm.avg_llm_time_ratio == pytest.approx(s["ratio"] / s["n"])
            assert pm.llm_time_ratio_micro == pytest.approx(s["llm"] / s["total"])
            assert pm.success_rate == pytest.approx(s["succ"] / s["n"])
            assert pm.hit_rate == pytest.approx(s["hit"] / s["n"])


def hit_curve(records):
    """The per-repeat hit rates of the one policy in ``records``: the
    empirical estimate of coverage p, by repeat."""
    (pm,) = aggregate(records).policies.values()
    return [pm.per_repeat[i].hit_rate for i in sorted(pm.per_repeat)]


class TestEmpiricalCoverage:
    def test_reference_curve(self):
        assert hit_curve(reference_records()) == [0.0, 1.0, 1.0, 1.0, 1.0]

    def test_never_hitting_policy(self):
        rows = [record(repeat_index=i, hit=False) for i in range(1, 6)]
        assert hit_curve(rows) == [0.0] * 5

    def test_non_decreasing_on_learning_run(self):
        coverage = hit_curve(reference_records())
        assert all(a <= b for a, b in zip(coverage, coverage[1:]))


class TestSerialization:
    def test_json_rounding(self, tmp_path):
        rows = [record(total_s=1.23456789, llm_calls=1, llm_time_s=0.11111111)]
        path = tmp_path / "report.json"
        write_report_json(aggregate(rows), path)
        doc = json.loads(path.read_text())
        overall = doc["policies"][PROPOSED]["overall"]
        assert overall["avg_total_s"] == 1.2346
        assert overall["avg_llm_time_ratio"] == round(0.11111111 / 1.23456789, 4)

    def test_csv_layout(self, tmp_path):
        rows = reference_records()
        path = tmp_path / "report.csv"
        write_report_csv(aggregate(rows), path)
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert tuple(parsed[0]) == CSV_COLUMNS
        scopes = [row[1] for row in parsed[1:]]
        assert scopes == ["overall"] + [f"repeat-{i}" for i in range(1, 6)]
        overall = parsed[1]
        assert overall[0] == PROPOSED
        assert float(overall[3]) == 6.7779

    def test_table_lists_each_policy(self):
        rows = [record(policy=ALWAYS_LLM), record(policy=PROPOSED)]
        table = format_report_table(aggregate(rows))
        assert ALWAYS_LLM in table and PROPOSED in table and "avg_total_s" in table

    def test_report_dict_sorted_policies(self):
        rows = [record(policy=PROPOSED), record(policy=ALWAYS_LLM)]
        doc = report_to_dict(aggregate(rows))
        assert list(doc["policies"]) == [ALWAYS_LLM, PROPOSED]
