"""Host-time benchmark of the reuseloop harness.

Usage, from the root of a reuseloop checkout::

    python3 perfbench/run.py --workload reuse-384 --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

With ``--trace 0`` it times repeated passes for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics. Both run the output checks. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 7
SETUP_REPEATS = 20


def machine_stamp() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(workload, seed, inputs, seconds, out_dir, checks, pin) -> tuple[dict, dict]:
    """Untraced: set-up repeats, then whole passes until ``seconds`` elapse.

    Every sample runs under a ``SpeedProbe`` and is reported in reference
    seconds (see calibrate.py); the raw host samples are kept too.
    """
    from perfbench import checks as check
    from perfbench.calibrate import SpeedProbe
    from perfbench.workloads import run_pass, virtual_metrics

    samples = {name: [] for name in ("setup_s", "wall_s", "events_per_s",
                                     "host_setup_s", "host_wall_s", "host_events_per_s")}

    def add(name: str, host: float, factor: float) -> None:
        samples[f"host_{name}"].append(host)
        samples[name].append(host / factor if name == "events_per_s" else host * factor)

    probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        with probe.sampling():
            start = probe.now()
            workload.setup(seed, inputs)
            setup_ns = probe.now() - start
        add("setup_s", setup_ns / 1e9, probe.factor)

    first, virtual = None, {}
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        with probe.sampling():
            result = run_pass(workload, seed, inputs, out_dir, probe)
        add("setup_s", result.setup_ns / 1e9, probe.factor)
        add("wall_s", result.wall_ns / 1e9, probe.factor)
        add("events_per_s", result.n_events / (result.loop_ns / 1e9), probe.factor)
        for job in result.jobs:
            check.records(checks, job)
        if first is None:
            first, virtual = result, virtual_metrics(result)
            for job in result.jobs:
                check.round_trip(checks, job, out_dir / job.mode / "runs.jsonl")
            if pin:
                check.pinned(checks, workload.name, result)
        else:
            check.same_outputs(checks, first, result, "repeat pass")
        for job in result.jobs:
            job.records = []  # keep only digests, so memory holds one pass at a time

    samples["kernel_ms"] = [ns / 1e6 for ns in probe.kernel_ns]
    metrics = {name: quartiles(values)[1] for name, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update(virtual)
    return metrics, samples


def per_layer(workload, seed, inputs, seconds, out_dir, checks, pin) -> tuple[dict, dict]:
    """Traced: untraced/traced pass pairs until ``seconds`` elapse."""
    from perfbench import checks as check
    from perfbench.layers import layer_metrics
    from perfbench.tracer import Tracer, instrumented
    from perfbench.workloads import run_pass

    per_pass: list[dict] = []
    stride = max(1, workload.events_per_pass() // 64)
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        plain = run_pass(workload, seed, inputs, out_dir / "untraced")
        tracer = Tracer()
        with instrumented(tracer, check.oracle_sampler(checks, tracer, stride)):
            traced = run_pass(workload, seed, inputs, out_dir / "traced", tracer)
            for job in traced.jobs:
                with tracer.stage("engine.read_records"):
                    check.round_trip(checks, job, out_dir / "traced" / job.mode / "runs.jsonl")
        for job in traced.jobs:
            check.records(checks, job)
        check.same_outputs(checks, plain, traced, "traced vs untraced")
        if pin and not per_pass:
            check.pinned(checks, workload.name, plain)
        per_pass.append(layer_metrics(tracer, traced, traced.wall_ns / plain.wall_ns))
    tracer.write_spans(out_dir / "trace.jsonl")
    samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    return {name: quartiles(values)[1] for name, values in samples.items()}, samples


def run_one(args, spec: dict) -> int:
    from perfbench import checks as check
    from perfbench.workloads import SMOKE_SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = replace(workload, **SMOKE_SIZES[workload.name])
    out_dir = ROOT / ".perfbench_out" / ("smoke" if args.smoke else "") / workload.name
    stamp = {**machine_stamp(), "workload": workload.name, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "sizes": workload.sizes()}

    checks = check.Checks()
    check.reference_table(checks)  # also warms every code path before timing
    inputs = workload.prepare(args.seed, out_dir)
    measure = per_layer if args.trace else end_to_end
    pin = args.seed == check.PINNED_SEED and not args.smoke
    values, samples = measure(workload, args.seed, inputs, args.seconds, out_dir, checks, pin)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"# perfbench {json.dumps(stamp)}")
    print(f"# {'metric':<44}{'median':>16}  {'unit':<12}{'q1':>14}{'q3':>14}{'n':>5}")
    for name, entry in metrics.items():
        runs = samples.get(name, [entry["value"]])
        q1, _, q3 = quartiles(runs)
        print(f"# {name:<44}{entry['value']:>16.6g}  {entry['unit']:<12}{q1:>14.6g}{q3:>14.6g}{len(runs):>5}")
    for name in samples.keys() - metrics.keys():
        q1, median, q3 = quartiles(samples[name])
        print(f"# {name:<44}{median:>16.6g}  {'':<12}{q1:>14.6g}{q3:>14.6g}{len(samples[name]):>5}")
    for failure in checks.failures[:check.MAX_REPORTED_FAILURES]:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "samples": samples, **result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def result_problems(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    """What is wrong with one run's exit code and result line, if anything."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{result['failed']} of {result['attempted']} checks failed")
    want = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, entry in got.items():
        value = entry["value"]
        if entry["unit"] != want.get(name) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: {entry}")
    return problems


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another, untraced then traced.

    Every result is checked against ``BENCHMARK.json``: metric names, units,
    finite values and passing output checks.
    """
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            problems = result_problems(proc, spec["per_layer" if trace else "end_to_end"])
            print(f"== {workload} trace={trace}: {'; '.join(problems) or 'ok'}")
            failures += bool(problems)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke run")
    args = parser.parse_args(argv)

    spec_path, src = ROOT / "BENCHMARK.json", ROOT / "src"
    if not (src / "reuseloop" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a reuseloop checkout (needs src/reuseloop and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path[:0] = [str(src), str(ROOT)]
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
