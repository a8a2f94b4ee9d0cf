"""The benchmark's workloads and the pass that times one of them.

A pass is the equivalent of ``reuseloop bench run`` for each of the
workload's policy modes: set-up (corpus, executor fit, planner, library),
``run_loop``, ``aggregate``, and writing ``runs.jsonl``, ``report.json``,
``report.csv`` and ``library.json``. The loop is closed: one simulated agent
handles the next event only after the previous one completes, in one
process with no extra threads.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from reuseloop import (
    ALWAYS_LLM,
    OBSERVATION_ONLY,
    PROPOSED,
    PROPOSED_OBSERVATION,
    MethodLibrary,
    RunConfig,
    aggregate,
    build_corpus,
    build_planner,
    resolve_executor,
    run_loop,
    write_records,
    write_report_csv,
    write_report_json,
)

from . import scale

OUTPUT_FILES = ("runs.jsonl", "report.json", "report.csv", "library.json")


class Untraced:
    """An observer with no spans and the plain host clock.

    A pass takes its clock and stage spans from an observer: this one, a
    ``calibrate.SpeedProbe`` (a clock that skips the probe's kernel) or a
    ``tracer.Tracer`` (spans, and a clock that skips the oracle).
    """

    now = staticmethod(time.perf_counter_ns)

    def stage(self, name: str, loop: bool = False):
        return nullcontext()


UNTRACED = Untraced()


@dataclass
class Job:
    """Everything one ``bench run`` needs after set-up."""

    mode: str
    config: RunConfig
    events: list
    executor: object
    planner: object
    library: MethodLibrary


@dataclass(frozen=True)
class Workload:
    """Sizes and modes; each workload's reason is in BENCHMARK.json and README.md."""

    name: str
    modes: tuple[str, ...]
    n_tasks: int = 384
    n_repeats: int = 1
    n_warm: int = 0  # scale-library only: warm methods, novel tasks, stored repeats
    n_novel: int = 0
    n_repeat: int = 0

    @property
    def is_scale(self) -> bool:
        return self.n_warm > 0

    def sizes(self) -> dict:
        if self.is_scale:
            return {"modes": list(self.modes), "n_warm_methods": self.n_warm,
                    "n_novel_tasks": self.n_novel, "n_stored_repeats": self.n_repeat,
                    "events_per_pass": self.n_repeat + 2 * self.n_novel}
        return {"modes": list(self.modes), "n_tasks": self.n_tasks, "n_repeats": self.n_repeats,
                "events_per_pass": len(self.modes) * self.n_tasks * self.n_repeats}

    def events_per_pass(self) -> int:
        return self.sizes()["events_per_pass"]

    def prepare(self, seed: int, out_dir: Path):
        """Benchmark-side inputs made from the seed before any timing."""
        if self.is_scale:
            return scale.build(seed, self.n_warm, self.n_novel, self.n_repeat, out_dir / "inputs")
        return None

    def setup(self, seed: int, inputs, observer=UNTRACED) -> list[Job]:
        """Program-side set-up, up to the first event: what ``setup_s`` times."""
        jobs = []
        for mode in self.modes:
            config = RunConfig(seed=seed, n_tasks=self.n_tasks, n_repeats=self.n_repeats, mode=mode)
            if self.is_scale:
                events = inputs.events
            else:
                with observer.stage("config.build_corpus"):
                    events = build_corpus(config)
            with observer.stage("config.resolve_executor"):
                executor = resolve_executor(config, events)
            with observer.stage("config.build_planner"):
                planner = build_planner(config)
            if self.is_scale:
                with observer.stage("library.load"):
                    library = MethodLibrary.load(inputs.library_path)
            else:
                library = MethodLibrary()
            jobs.append(Job(mode, config, events, executor, planner, library))
        return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("baseline-384", (ALWAYS_LLM, OBSERVATION_ONLY), n_repeats=10),
        Workload("reuse-384", (PROPOSED, PROPOSED_OBSERVATION), n_repeats=3),
        Workload("scale-library", (PROPOSED,), n_warm=2000, n_novel=20, n_repeat=80),
    )
}

# Tiny sizes for the smoke run: every workload, every code path, seconds.
SMOKE_SIZES = {
    "baseline-384": {"n_tasks": 24, "n_repeats": 2},
    "reuse-384": {"n_tasks": 24, "n_repeats": 3},
    "scale-library": {"n_warm": 60, "n_novel": 6, "n_repeat": 12},
}


@dataclass
class JobOutcome:
    mode: str
    records: list
    library_before: int
    library_after: int
    digests: dict[str, str]


@dataclass
class PassResult:
    setup_ns: int
    loop_ns: int
    wall_ns: int
    jobs: list[JobOutcome] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return sum(len(job.records) for job in self.jobs)

    @property
    def records(self) -> list:
        return [r for job in self.jobs for r in job.records]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(workload: Workload, seed: int, inputs, out_dir: Path, observer=UNTRACED) -> PassResult:
    """One timed ``bench run`` per mode; outputs land in ``out_dir/<mode>/``."""
    now = observer.now
    start = now()
    jobs = workload.setup(seed, inputs, observer)
    setup_ns = now() - start
    loop_ns = 0
    outcomes = []
    for job in jobs:
        before = len(job.library)
        with observer.stage("engine.run_loop", loop=True):
            loop_start = now()
            records = run_loop(job.events, job.mode, job.library, job.planner,
                               job.config.thresholds, job.executor)
            loop_ns += now() - loop_start
        mode_dir = out_dir / job.mode
        mode_dir.mkdir(parents=True, exist_ok=True)
        with observer.stage("engine.write_records"):
            write_records(records, mode_dir / "runs.jsonl")
        with observer.stage("metrics.aggregate"):
            report = aggregate(records)
        with observer.stage("metrics.write_report"):
            write_report_json(report, mode_dir / "report.json")
            write_report_csv(report, mode_dir / "report.csv")
        with observer.stage("library.save"):
            job.library.save(mode_dir / "library.json")
        outcomes.append(JobOutcome(job.mode, records, before, len(job.library), {}))
    wall_ns = now() - start
    for outcome in outcomes:
        mode_dir = out_dir / outcome.mode
        outcome.digests = {name: _digest(mode_dir / name) for name in OUTPUT_FILES}
    return PassResult(setup_ns, loop_ns, wall_ns, outcomes)


def virtual_metrics(result: PassResult) -> dict[str, float]:
    """The paper's virtual-clock figures, pooled over the pass's events."""
    records = result.records
    n = len(records)
    return {
        "virt_s_per_event": sum(r.total_s for r in records) / n,
        "llm_calls_per_event": sum(r.llm_calls for r in records) / n,
        "miss_rate": sum(1 for r in records if not r.hit) / n,
        "success_rate": sum(1 for r in records if r.success) / n,
    }
