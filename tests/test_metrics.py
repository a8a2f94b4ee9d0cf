from __future__ import annotations

import csv
import dataclasses
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reuseloop.engine import ALWAYS_LLM, POLICY_MODES, PROPOSED, RunRecord
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


def _left_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _per_statistic_report(records):
    """The report as ``aggregate`` computed it before its one-pass walk:
    each statistic over its own list of values, summed left to right, each
    repeat's group gathered apart. Floats as ``float.hex``."""
    def mean(values):
        return float.hex(_left_sum(values) / len(values))

    by_policy = {}
    for r in records:
        by_policy.setdefault(r.policy, []).append(r)
    report = {}
    for policy, rows in by_policy.items():
        groups = {}
        for r in rows:
            groups.setdefault(r.repeat_index, []).append(r)
        total = _left_sum([r.total_s for r in rows])
        llm_time = _left_sum([r.llm_time_s for r in rows])
        report[policy] = {
            "n_runs": len(rows),
            "avg_total_s": mean([r.total_s for r in rows]),
            "avg_llm_calls": mean([float(r.llm_calls) for r in rows]),
            "avg_llm_time_ratio": mean([r.llm_time_s / r.total_s if r.total_s > 0 else 0.0 for r in rows]),
            "llm_time_ratio_micro": float.hex(llm_time / total if total > 0 else 0.0),
            "success_rate": mean([1.0 if r.success else 0.0 for r in rows]),
            "hit_rate": mean([1.0 if r.hit else 0.0 for r in rows]),
            "per_repeat": {
                idx: {
                    "n_runs": len(group),
                    "avg_total_s": mean([r.total_s for r in group]),
                    "avg_llm_calls": mean([float(r.llm_calls) for r in group]),
                    "hit_rate": mean([1.0 if r.hit else 0.0 for r in group]),
                }
                for idx, group in sorted(groups.items())
            },
        }
    return report


def _hexed(metrics):
    """A metrics dataclass as a dict, floats as ``float.hex``, ints as they are."""
    doc = {}
    for field in dataclasses.fields(metrics):
        value = getattr(metrics, field.name)
        if isinstance(value, dict):
            value = {key: _hexed(entry) for key, entry in value.items()}
        elif type(value) is float:
            value = float.hex(value)
        doc[field.name] = value
    return doc


@st.composite
def _records(draw):
    rows = []
    for cycle in range(draw(st.integers(1, 40))):
        total = draw(st.one_of(st.just(0.0), st.floats(1e-9, 1e3), st.sampled_from([0.1, 0.2, 0.3])))
        hit = draw(st.booleans())
        rows.append(record(
            policy=draw(st.sampled_from(POLICY_MODES[:3])),
            repeat_index=draw(st.integers(1, 4)),
            total_s=total,
            llm_calls=draw(st.integers(0, 3)),
            llm_time_s=total * draw(st.sampled_from([0.0, 0.25, 1 / 3, 1.0])),
            success=draw(st.booleans()),
            hit=hit,
            learned=not hit and draw(st.booleans()),
            cycle=cycle,
        ))
    return rows


@settings(max_examples=100, deadline=None)
@given(records=_records())
@example(records=[record(total_s=0.0), record(policy=ALWAYS_LLM, total_s=0.0, llm_calls=1),
                  record(total_s=0.1, repeat_index=2, hit=True), record(total_s=0.2, repeat_index=2)])
def test_one_pass_aggregate_is_bit_identical_to_per_statistic_sums_property(records):
    report = aggregate(records)
    assert list(report.policies) == list(dict.fromkeys(r.policy for r in records))
    assert {policy: _hexed(pm) for policy, pm in report.policies.items()} == _per_statistic_report(records)


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
