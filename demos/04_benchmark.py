"""The full benchmark: five policies on the recurring-task corpus.

Reproduces the headline comparison on the virtual clock. Self-execution
policies run on the 20x5 self corpus; observation policies run on the
observation-first variant where round 1 is a watched external success.
Repeat-wise curves show where the amortization comes from: the proposed
policy pays a learning premium once, then reuses for free.
"""

from reuseloop import MethodLibrary, POLICY_MODES, aggregate, run_loop
from reuseloop.config import RunConfig, build_corpus, build_planner, resolve_executor

reports = {}
for mode in POLICY_MODES:
    config = RunConfig(seed=7, n_tasks=20, n_repeats=5, mode=mode)
    events = build_corpus(config)
    executor = resolve_executor(config, events)  # fitted reference profile
    planner = build_planner(config)
    library = MethodLibrary()
    records = run_loop(events, mode, library, planner, config.thresholds, executor)
    reports[mode] = aggregate(records).policies[mode]

print("overall (100 runs per policy)")
header = f"{'policy':<22}{'total_s':>9}{'llm_calls':>11}{'llm_ratio':>11}{'success':>9}{'hit':>7}"
print(header)
print("-" * len(header))
for mode in POLICY_MODES:
    pm = reports[mode]
    print(
        f"{mode:<22}{pm.avg_total_s:>9.4f}{pm.avg_llm_calls:>11.4f}"
        f"{pm.avg_llm_time_ratio:>11.4f}{pm.success_rate:>9.4f}{pm.hit_rate:>7.4f}"
    )

print("\naverage total time by repeat")
print(f"{'policy':<22}" + "".join(f"{f'r{i}':>9}" for i in range(1, 6)))
for mode in POLICY_MODES:
    curve = [reports[mode].per_repeat[i].avg_total_s for i in range(1, 6)]
    print(f"{mode:<22}" + "".join(f"{v:>9.4f}" for v in curve))

print("\nllm calls by repeat")
print(f"{'policy':<22}" + "".join(f"{f'r{i}':>9}" for i in range(1, 6)))
for mode in POLICY_MODES:
    curve = [reports[mode].per_repeat[i].avg_llm_calls for i in range(1, 6)]
    print(f"{mode:<22}" + "".join(f"{v:>9.2f}" for v in curve))

print("\nlibrary hit rate by repeat (empirical coverage)")
print(f"{'policy':<22}" + "".join(f"{f'r{i}':>9}" for i in range(1, 6)))
for mode in POLICY_MODES:
    curve = [reports[mode].per_repeat[i].hit_rate for i in range(1, 6)]
    print(f"{mode:<22}" + "".join(f"{v:>9.2f}" for v in curve))

print(
    "\nreading the curves: the proposed policy is slowest in repeat 1 (it"
    "\nplans, collects, trains, and stores on top of executing), then beats"
    "\nthe always-plan baseline from repeat 2 on with zero planner calls."
)
