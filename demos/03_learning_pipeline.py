"""From a learning plan to a stored method.

Runs the consolidation pipeline by hand, twice:

1. self-execution: the planner proposes a slightly wrong action sequence,
   the agent executes it while recording per-step experience, adjusts the
   shaky step, consolidates, and (here) fails validation honestly;
2. observation: a watched successful sequence outvotes the planner's
   corrupted proposal, so the refined method passes and lands in the
   library.
"""

from reuseloop import (
    EpisodeDataset,
    ExecutorConfig,
    MethodLibrary,
    MockPlanner,
    SequenceExecutor,
    build_method,
    generate_corpus,
    initialize,
    quasi_adjust,
    train_episode,
    validate,
)
from reuseloop.tasks import ObservedEvent

task = generate_corpus(seed=11, n_tasks=1, n_repeats=1)[0].task
executor = SequenceExecutor(task, ExecutorConfig())
library = MethodLibrary()

print(f"task: '{task.instruction}'  hidden target: {list(task.target_sequence)}")

# --- 1. self-execution with a corrupted plan -------------------------------
planner = MockPlanner(seed=2, p_corrupt=1.0)  # force one wrong step
plan = planner.plan(task).plan
print(f"\nplanner proposed: {list(plan.direct_solution)}")

dataset = EpisodeDataset()
executor.collect(list(plan.direct_solution), dataset, {"collect": 0.0})
candidate = initialize(plan, dataset)
for sample in dataset.self_samples:
    if not sample.success:
        print(f"  step {sample.t} failed ({sample.action}); confidence halved, step flagged")
        quasi_adjust(candidate, sample)

candidate = train_episode(candidate, dataset)
report = validate(candidate, executor, plan.update_criteria)
print(f"refined: {candidate.sequence}")
print(f"confidence floor: {min(candidate.per_step_confidence):.2f}")
print(f"validation passed: {report.passed} (replay {report.replay_success})")
print("nothing stored: a single bad attempt cannot outvote itself")

# --- 2. the same planner, plus one successful observation ------------------
observation = ObservedEvent(task.target_sequence, success=True)
dataset = EpisodeDataset()
dataset.ingest_observation(observation)

plan = MockPlanner(seed=2, p_corrupt=1.0).plan(task).plan
candidate = train_episode(initialize(plan, dataset), dataset)
report = validate(candidate, executor, plan.update_criteria)
print(f"\nwith an observed success, refined: {candidate.sequence}")
print(f"validation passed: {report.passed}")

method = build_method(candidate, task, dataset, cycle=0)
library.insert(method)
print(f"stored {method.id}: {method.data_profile.n_obs_samples} observation samples, "
      f"reliability {method.reliability.successes}/{method.reliability.attempts}")

result = library.retrieve_best(task, tau_r=0.8)
print(f"retrieval now covers the task: score={result.score:.1f} covered={result.covered}")
