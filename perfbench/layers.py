"""Per-layer metrics, named ``<module>.<function>.<stat>``, from one traced pass."""

from __future__ import annotations

import math

from .tracer import Stat, Tracer

LEARNER_STEPS = ("initialize", "quasi_adjust", "train_episode", "validate", "build_method")
BRANCHES = ("reuse", "learn_uncovered", "learn_low_confidence", "learn_observation", "no_action")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_us(durations: list[int], q: float) -> float:
    """Nearest-rank percentile of span durations, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3


def layer_metrics(tracer: Tracer, result, overhead_ratio: float) -> dict[str, float]:
    stats, tally = tracer.stats, tracer.tally

    def get(name: str) -> Stat:
        return stats.get(name) or Stat()

    def calls(name: str) -> int:
        return get(name).calls

    def self_s(name: str) -> float:
        return get(name).self_ns / 1e9

    def total_s(name: str) -> float:
        return get(name).total_ns / 1e9

    n_events = calls("engine.run_episode")
    lookups = calls("library.retrieve_best")
    plans = calls("planner.plan") + calls("planner.replan")
    m = {
        "tasks.signature_of.calls_per_event": _ratio(calls("tasks.signature_of"), n_events),
        "tasks.signature_of.self_s": self_s("tasks.signature_of"),
        "tasks.normalize_goal.calls_per_event": _ratio(calls("tasks.normalize_goal"), n_events),
        "tasks.generate_corpus_s": total_s("tasks.generate_corpus"),
        "library.retrieve_best.calls": lookups,
        "library.retrieve_best.self_s": self_s("library.retrieve_best"),
        "library.retrieve_best.us_p50": _percentile_us(get("library.retrieve_best").durations, 0.50),
        "library.retrieve_best.us_p99": _percentile_us(get("library.retrieve_best").durations, 0.99),
        "library.matching_score.calls_per_retrieve": _ratio(
            get("library.matching_score").by_parent["library.retrieve_best"], lookups),
        "library.covered_ratio": _ratio(tally["retrieve.covered.True"], lookups),
        "library.insert.calls": calls("library.insert"),
        "library.insert.self_s": self_s("library.insert"),
        "library.update_reliability.calls": calls("library.update_reliability"),
        "library.size_final": sum(job.library_after for job in result.jobs),
        "library.load_s": total_s("library.load"),
        "library.save_s": total_s("library.save"),
        "trigger.decide.calls": calls("trigger.decide"),
        "trigger.decide.self_s": self_s("trigger.decide"),
        **{f"trigger.branch.{b}": tally[f"branch.{b}"] for b in BRANCHES},
        "planner.plan.calls": calls("planner.plan"),
        "planner.plan.self_s": self_s("planner.plan"),
        "planner.plan.us_p50": _percentile_us(get("planner.plan").durations, 0.50),
        "planner.replan.calls": calls("planner.replan"),
        "planner.useful_ratio": _ratio(calls("library.insert"), plans),
        "experience.record_step.calls": calls("experience.record_step"),
        "experience.ingest_observation.calls": calls("experience.ingest_observation"),
        "experience.self_s": self_s("experience.record_step") + self_s("experience.ingest_observation"),
    }
    for step in LEARNER_STEPS:
        m[f"learner.{step}.calls"] = calls(f"learner.{step}")
        m[f"learner.{step}.self_s"] = self_s(f"learner.{step}")
    m["learner.validate.pass_ratio"] = _ratio(tally["validate.passed.True"], calls("learner.validate"))
    m.update({
        "engine.run_episode.calls": n_events,
        "engine.run_episode.self_s": self_s("engine.run_episode"),
        "engine.run_episode.us_p50": _percentile_us(get("engine.run_episode").durations, 0.50),
        "engine.run_episode.us_p99": _percentile_us(get("engine.run_episode").durations, 0.99),
        "engine.execute.calls": calls("engine.execute"),
        "engine.collect.calls": calls("engine.collect"),
        "engine.write_records_s": total_s("engine.write_records"),
        "engine.read_records_s": total_s("engine.read_records"),
        "metrics.aggregate_s": total_s("metrics.aggregate"),
        "metrics.write_report_s": total_s("metrics.write_report"),
        "config.build_corpus_s": total_s("config.build_corpus"),
        "config.resolve_executor_s": total_s("config.resolve_executor"),
        "config.build_planner_s": total_s("config.build_planner"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": len(tracer.spans),
    })
    return m
