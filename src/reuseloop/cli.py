"""Command-line entry point.

Commands::

    reuseloop bench run --config CFG [--out DIR] [--dotted.key value ...]
    reuseloop bench report --runs RUNS.jsonl [--out DIR]
    reuseloop library inspect --path LIBRARY.json
    reuseloop cost analyze --profile PROFILE.json --rho R --k K

Exit codes: 0 on success, 2 on configuration, schema, or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Any

from . import costs, metrics
from .config import RunConfig, build_corpus, build_planner, resolve_executor
from .engine import read_records, run_loop, write_records
from .errors import RecordStreamError, ReuseLoopError, SchemaError, load_json, read_dataclass
from .library import MethodLibrary
from .tasks import save_corpus


def _read_config(path: str, leftovers: list[str]) -> RunConfig:
    """The run config at ``path``, with the ``--dotted.key value`` pairs in
    ``leftovers`` applied to it.

    A value is read as JSON if it parses and as a string otherwise. A key
    given twice takes its last value, applied where the key first appears.
    """
    overrides: dict[str, Any] = {}
    for i in range(0, len(leftovers), 2):
        flag = leftovers[i]
        if not flag.startswith("--") or i + 1 == len(leftovers):
            raise SchemaError("<args>", f"expected '--key value' override pairs, got {flag!r}")
        try:
            overrides[flag[2:]] = json.loads(leftovers[i + 1])
        except json.JSONDecodeError:
            overrides[flag[2:]] = leftovers[i + 1]

    def read(doc: Any) -> RunConfig:
        if isinstance(doc, dict):  # any other root is named by read_dataclass
            for dotted, value in overrides.items():
                *parents, last = dotted.split(".")
                node = doc
                for part in parents:
                    node = node.setdefault(part, {})
                    if not isinstance(node, dict):
                        raise SchemaError(dotted, "override path crosses a non-object value")
                node[last] = value
        return read_dataclass(RunConfig, doc)

    return load_json(path, read)


def cmd_bench_run(args: argparse.Namespace, leftovers: list[str]) -> int:
    config = _read_config(args.config, leftovers)

    events = build_corpus(config)
    executor = resolve_executor(config, events)
    planner = build_planner(config)
    library = MethodLibrary.load(config.library_path) if config.library_path else MethodLibrary()

    records = run_loop(events, config.mode, library, planner, config.thresholds, executor)

    out_dir = Path(args.out if args.out else config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(records, out_dir / "runs.jsonl")
    report = metrics.aggregate(records)
    metrics.write_report_json(report, out_dir / "report.json")
    metrics.write_report_csv(report, out_dir / "report.csv")
    library.save(out_dir / "library.json")
    if args.events:
        save_corpus(events, out_dir / "events.json")

    print(metrics.format_report_table(report))
    print(f"outputs written to {out_dir}")
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    records = read_records(args.runs)
    if not records:
        raise SchemaError("<runs>", "record stream is empty")
    report = metrics.aggregate(records)
    out_dir = Path(args.out) if args.out else Path(args.runs).resolve().parent
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics.write_report_json(report, out_dir / "report.json")
    metrics.write_report_csv(report, out_dir / "report.csv")
    print(metrics.format_report_table(report))
    return 0


def cmd_library_inspect(args: argparse.Namespace) -> int:
    methods = sorted(MethodLibrary.load(args.path).methods(), key=lambda m: m.id)
    print(f"{len(methods)} methods")
    if methods:
        header = f"{'id':<24}{'steps':>6}{'success_ratio':>15}{'goal_tokens':>13}"
        print(header)
        print("-" * len(header))
        for m in methods:
            print(
                f"{m.id:<24}{len(m.procedure):>6}"
                f"{m.reliability.success_ratio:>15.4f}{len(m.applicability.goal_tokens):>13}"
            )
    return 0


def cmd_cost_analyze(args: argparse.Namespace) -> int:
    profile = load_json(args.profile, partial(read_dataclass, costs.CostProfile))
    result = costs.reuse_benefit(profile, args.rho, args.k)
    holds = costs.benefit_condition_holds(profile, args.rho, args.k)
    print(f"delta_c     {result.delta_c:.4f}")
    print(f"investment  {result.investment:.4f}")
    print(f"b_reuse     {result.b_reuse:.4f}")
    print(f"b_net       {result.b_net:.4f}")
    print(f"consolidation pays off: {'yes' if holds else 'no'}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reuseloop",
        description="Closed-loop method-reuse benchmark and cost analysis.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    bench = top.add_parser("bench", help="run or re-aggregate benchmarks")
    bench_sub = bench.add_subparsers(dest="subcommand", required=True)
    run = bench_sub.add_parser("run", help="run a benchmark from a config file")
    run.add_argument("--config", required=True, help="path to the JSON run configuration")
    run.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    run.add_argument("--events", action="store_true",
                     help="also dump the generated event stream as events.json")
    report = bench_sub.add_parser("report", help="recompute the report from runs.jsonl")
    report.add_argument("--runs", required=True, help="path to a runs.jsonl file")
    report.add_argument("--out", default=None, help="where to write report files")

    library = top.add_parser("library", help="inspect a method library file")
    library_sub = library.add_subparsers(dest="subcommand", required=True)
    inspect = library_sub.add_parser("inspect", help="print library statistics")
    inspect.add_argument("--path", required=True, help="path to a library.json file")

    cost = top.add_parser("cost", help="cost-model analysis")
    cost_sub = cost.add_subparsers(dest="subcommand", required=True)
    analyze = cost_sub.add_parser("analyze", help="evaluate the reuse-benefit condition")
    analyze.add_argument("--profile", required=True, help="path to a cost-profile JSON file")
    analyze.add_argument("--rho", type=float, required=True, help="future reuse probability")
    analyze.add_argument("--k", type=int, required=True, help="expected future reuse occasions")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args, leftovers = parser.parse_known_args(argv)

    is_bench_run = args.command == "bench" and args.subcommand == "run"
    if leftovers and not is_bench_run:
        print(f"error: unrecognized arguments: {' '.join(leftovers)}", file=sys.stderr)
        return 2

    try:
        if is_bench_run:
            return cmd_bench_run(args, leftovers)
        if args.command == "bench":
            return cmd_bench_report(args)
        if args.command == "library":
            return cmd_library_inspect(args)
        return cmd_cost_analyze(args)
    except RecordStreamError as exc:
        print(f"error: malformed run record ({exc})", file=sys.stderr)
        return 2
    except (ReuseLoopError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
