"""In-memory span tracer that instruments reuseloop from outside ``src/``.

``instrumented`` wraps each layer's public functions for the length of one
traced pass and restores them afterwards. A module-level function is
replaced at every ``reuseloop`` module that bound it by import (for example
``signature_of`` in tasks, engine, library, learner and planner), so every
call site sees the wrapper.

Layer boundaries get spans: name, start, end, parent span and the event's
``cycle`` as the shared id. The hot inner functions (``signature_of``,
``normalize_goal``, ``matching_score``) are only counted and timed in
aggregate, which keeps the trace bounded at thousands of methods; their time
stays inside the self time of the span that called them. Event-path wrappers
record only inside the ``engine.run_loop`` stage, so library loads and
corpus fitting do not inflate per-event counts.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from reuseloop import engine, experience, learner, library, planner, tasks, trigger

# Module-level functions: (home module, name, kind). "count" functions are
# aggregated, "span" functions are spanned inside run_loop, "stage" functions
# are spanned wherever the traced pass calls them.
FUNCTIONS = (
    (tasks, "signature_of", "count"),
    (tasks, "normalize_goal", "count"),
    (library, "matching_score", "count"),
    (tasks, "generate_corpus", "stage"),
    (engine, "run_episode", "span"),
    (trigger, "decide", "span"),
    (learner, "initialize", "span"),
    (learner, "quasi_adjust", "span"),
    (learner, "train_episode", "span"),
    (learner, "validate", "span"),
    (learner, "build_method", "span"),
)
METHODS = (
    (library, library.MethodLibrary, ("retrieve_best", "insert", "update_reliability")),
    (planner, planner.MockPlanner, ("plan", "replan")),
    (experience, experience.EpisodeDataset, ("record_step", "ingest_observation")),
    (engine, engine.SequenceExecutor, ("execute", "collect")),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "durations", "by_parent")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations: list[int] = []
        self.by_parent: Counter = Counter()


class Tracer:
    """Spans and per-name statistics for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, cycle]
        self.stats: dict[str, Stat] = {}
        self.tally: Counter = Counter()
        self.active = False  # inside the run_loop stage
        self.cycle: int | None = None
        self._open: list[list[int]] = []  # [span index, ns covered by child spans]
        self._hot: list[int] = []  # child ns of open counted calls
        self._paused_ns = 0

    def now(self) -> int:
        """Host clock in ns, minus time spent in ``paused`` blocks."""
        return time.perf_counter_ns() - self._paused_ns

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, self.now(), 0, parent, self.cycle])
        self._open.append([len(self.spans) - 1, 0])

    def _exit(self) -> None:
        index, child_ns = self._open.pop()
        span = self.spans[index]
        span[2] = self.now()
        duration = span[2] - span[1]
        if self._open:
            self._open[-1][1] += duration
        stat = self.stat(span[0])
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - child_ns
        stat.durations.append(duration)

    @contextmanager
    def stage(self, name: str, loop: bool = False):
        """Span a benchmark stage; ``loop`` turns the event-path wrappers on."""
        self.cycle = None
        self._enter(name)
        self.active = loop
        try:
            yield
        finally:
            self.active = False
            self._exit()

    @contextmanager
    def paused(self):
        """Run benchmark-side work (the oracle) invisibly to spans and counters."""
        start = time.perf_counter_ns()
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active
            self._paused_ns += time.perf_counter_ns() - start

    def span(self, name, fn, gated=True, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if gated and not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        tracer, stat, hot = self, self.stat(name), self._hot

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            hot.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                child_ns = hot.pop()
                if hot:
                    hot[-1] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - child_ns
                stat.by_parent[tracer.spans[tracer._open[-1][0]][0] if tracer._open else ""] += 1

        return wrapper

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, cycle in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "cycle": cycle}) + "\n")


def _set_cycle(tracer: Tracer):
    def before(args):
        tracer.cycle = args[0].cycle
    return before


def _tally(tracer: Tracer, key_of):
    def after(args, result):
        tracer.tally[key_of(result)] += 1
    return after


@contextmanager
def instrumented(tracer: Tracer, on_retrieve=None):
    """Wrap every traced layer for the duration of the block.

    ``on_retrieve(args, result)`` runs after each traced ``retrieve_best``.
    """
    hooks = {
        "engine.run_episode": {"before": _set_cycle(tracer)},
        "trigger.decide": {"after": _tally(tracer, lambda d: f"branch.{d.branch}")},
        "learner.validate": {"after": _tally(tracer, lambda r: f"validate.passed.{r.passed}")},
    }
    covered = _tally(tracer, lambda r: f"retrieve.covered.{r.covered}")

    def after_retrieve(args, result):
        covered(args, result)
        if on_retrieve is not None:
            on_retrieve(args, result)

    hooks["library.retrieve_best"] = {"after": after_retrieve}

    restore = []
    modules = [m for n, m in list(sys.modules.items()) if n == "reuseloop" or n.startswith("reuseloop.")]
    try:
        for home, fname, kind in FUNCTIONS:
            original = getattr(home, fname)
            name = f"{_short(home)}.{fname}"
            if kind == "count":
                wrapper = tracer.count(name, original)
            else:
                wrapper = tracer.span(name, original, gated=kind == "span", **hooks.get(name, {}))
            for module in modules:
                if getattr(module, fname, None) is original:
                    restore.append((module, fname, original))
                    setattr(module, fname, wrapper)
        for home, cls, names in METHODS:
            for fname in names:
                original = cls.__dict__[fname]
                name = f"{_short(home)}.{fname}"
                restore.append((cls, fname, original))
                setattr(cls, fname, tracer.span(name, original, **hooks.get(name, {})))
        yield tracer
    finally:
        for owner, fname, original in reversed(restore):
            setattr(owner, fname, original)
