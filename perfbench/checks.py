"""Output checks. Each check counts as attempted; a false one counts as failed."""

from __future__ import annotations

import math

from reuseloop import (
    MethodLibrary,
    POLICY_MODES,
    RunConfig,
    aggregate,
    build_corpus,
    build_planner,
    read_records,
    resolve_executor,
    run_loop,
    signature_of,
)
from reuseloop.tasks import normalize_goal

# The README reference table: seed 7, 20 tasks x 5 repeats, fitted profiles.
# (avg total s, llm calls, success rate, hit rate), compared at 4 decimals.
REFERENCE_TABLE = {
    "always_llm": (7.7772, 1.0, 0.96, 0.0),
    "library_only": (0.0100, 0.0, 0.00, 0.0),
    "proposed": (6.7779, 0.2, 1.00, 0.8),
    "observation_only": (7.4969, 0.8, 1.00, 0.0),
    "proposed_observation": (5.5833, 0.2, 1.00, 0.8),
}
PROPOSED_HIT_CURVE = (0.0, 1.0, 1.0, 1.0, 1.0)

# sha256 of each mode's runs.jsonl and library.json at the default seed and
# full sizes. A change that moves any simulated output breaks these.
PINNED_SEED = 7
PINNED_DIGESTS = {
    "baseline-384": {
        "always_llm": {
            "runs.jsonl": "6fcebe8249dbd3c0a0e10dc63f17bc91519f23a8156c2f8e9d0e8b7a478321b9",
            "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        },
        "observation_only": {
            "runs.jsonl": "48e4118fc733e209c818539e952ce21d9b5ca1c389b9a71d57240ca4322edf3a",
            "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        },
    },
    "reuse-384": {
        "proposed": {
            "runs.jsonl": "4a9fd183ee03e7644b5c168c40e6c6aa41a37ac4b0a33c6bfcb1a57e72db8e2a",
            "library.json": "79ca30b5cec6daf0199f1387ef8992cdd8902fe44f60f7883c4abf99ac59738f",
        },
        "proposed_observation": {
            "runs.jsonl": "c6a0c8b69817ed2f581ef7e269ee887617b4840791cc60f9f803909e3f4e006e",
            "library.json": "03be2982b36b67af2286a162e1ac619c729c16173a961a42c7c949eac65a99b4",
        },
    },
    "scale-library": {
        "proposed": {
            "runs.jsonl": "3307c80242ae222b38638bb1ec891bf6e68f692c6264546f60b6e4f2b8bfaa0e",
            "library.json": "35a5784bde611f725134c6e7aa013fdaa1f59f60909907d9558dbc1c850fd341",
        },
    },
}

PHASE_FIELDS = ("retrieve_s", "plan_llm_s", "execute_s", "collect_s", "train_s", "store_s")
MAX_REPORTED_FAILURES = 20


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def reference_table(checks: Checks) -> None:
    """The five bundled modes at seed 7, 20x5, reproduce the README table."""
    for mode in POLICY_MODES:
        config = RunConfig(seed=7, n_tasks=20, n_repeats=5, mode=mode)
        events = build_corpus(config)
        records = run_loop(events, mode, MethodLibrary(), build_planner(config),
                           config.thresholds, resolve_executor(config, events))
        pm = aggregate(records).policies[mode]
        got = tuple(round(v, 4) for v in (pm.avg_total_s, pm.avg_llm_calls, pm.success_rate, pm.hit_rate))
        checks.expect(got == REFERENCE_TABLE[mode], f"reference table {mode}: {got} != {REFERENCE_TABLE[mode]}")
        if mode == "proposed":
            curve = tuple(round(pm.per_repeat[i].hit_rate, 4) for i in sorted(pm.per_repeat))
            checks.expect(curve == PROPOSED_HIT_CURVE, f"proposed hit curve {curve}")


def records(checks: Checks, job) -> None:
    """Per-record invariants plus library growth for one mode's run."""
    learned = 0
    for r in job.records:
        phase_sum = sum(getattr(r, name) for name in PHASE_FIELDS)
        ok = math.isclose(r.total_s, phase_sum, rel_tol=1e-12, abs_tol=1e-12) and not (r.hit and r.learned)
        checks.expect(ok, f"{job.mode} cycle {r.cycle}: total_s/phase sum or hit+learned")
        learned += r.learned
    growth = job.library_after - job.library_before
    checks.expect(growth == learned, f"{job.mode}: library grew {growth}, learned {learned}")


def round_trip(checks: Checks, job, path) -> None:
    checks.expect(read_records(path) == job.records, f"{job.mode}: records changed in write/read")


def same_outputs(checks: Checks, want, got, what: str) -> None:
    for w, g in zip(want.jobs, got.jobs):
        for name, digest in w.digests.items():
            checks.expect(g.digests[name] == digest, f"{what}: {g.mode}/{name} differs")


def pinned(checks: Checks, workload: str, result) -> None:
    for job in result.jobs:
        for name, digest in PINNED_DIGESTS.get(workload, {}).get(job.mode, {}).items():
            checks.expect(job.digests[name] == digest, f"pinned digest {workload} {job.mode}/{name}")


def oracle_retrieve(library, task, tau_r):
    """Brute-force retrieval, written independently of ``library.matching_score``.

    Returns (method, score, covered) with the documented tie-break: higher
    score, then success ratio, then last use, then the smaller id.
    """
    signature = signature_of(task)
    tokens = set(normalize_goal(task.goal))
    best, best_key = None, None
    for method in library.methods():
        if signature in method.applicability.signatures:
            score = 1.0
        elif task.constraints.max_steps < len(method.procedure):
            score = 0.0
        else:
            union = tokens | method.applicability.goal_tokens
            score = len(tokens & method.applicability.goal_tokens) / len(union) if union else 0.0
        key = (score, method.reliability.success_ratio, method.reliability.last_used_cycle)
        if best is None or key > best_key or (key == best_key and method.id < best.id):
            best, best_key = method, key
    if best is None:
        return None, 0.0, False
    return best, best_key[0], best_key[0] >= tau_r


def oracle_sampler(checks: Checks, tracer, stride: int):
    """A ``retrieve_best`` hook that checks every ``stride``-th lookup."""
    seen = 0

    def after(args, result):
        nonlocal seen
        seen += 1
        if (seen - 1) % stride:
            return
        library, task, tau_r = args
        with tracer.paused():
            method, score, covered = oracle_retrieve(library, task, tau_r)
            checks.expect(
                result.method is method and result.score == score and result.covered == covered,
                f"retrieve_best disagrees with the oracle for task {task.id}",
            )

    return after
