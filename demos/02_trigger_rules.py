"""When does the agent learn instead of reuse?

Exercises the four-branch trigger rule: uncovered tasks, covered-but-shaky
methods, uncovered successful observations, and the reuse/no-action
fallthrough. Branch precedence follows the rule's order.
"""

from reuseloop import MethodLibrary, TriggerThresholds, confidence, decide, generate_corpus
from reuseloop.library import Applicability, DataProfile, Method, Reliability
from reuseloop.tasks import ObservedEvent

thresholds = TriggerThresholds(tau_r=0.8, tau_q=0.5, tau_o=0.8, tau_u=0.3)
events = generate_corpus(seed=7, n_tasks=2, n_repeats=1)
task_a, task_b = events[0].task, events[1].task


def stored_method(task, successes, attempts):
    return Method(
        id=f"m-{task.id}",
        procedure=task.target_sequence,
        params={"model_family": "sequence"},
        data_profile=DataProfile(0, len(task.target_sequence), 1),
        applicability=Applicability(
            signatures={task.signature},
            goal_tokens=set(task.goal_tokens),
            max_steps=task.constraints.max_steps,
        ),
        reliability=Reliability(successes=successes, attempts=attempts),
    )


def show(label, decision):
    print(f"  {label:<52} z={int(decision.z)} branch={decision.branch}")


print("=== empty library: everything is uncovered ===")
library = MethodLibrary()
retrieval = library.retrieve_best(task_a, thresholds.tau_r)
show("first sight of task A", decide(retrieval, None, None, thresholds))

print("\n=== covered task, trustworthy method ===")
library.insert(stored_method(task_a, successes=5, attempts=5))
retrieval = library.retrieve_best(task_a, thresholds.tau_r)
method = retrieval.method
print(f"  score={retrieval.score:.2f} confidence={confidence(method, retrieval.score):.3f}")
show("task A again", decide(retrieval, None, None, thresholds))

print("\n=== covered task, shaky method ===")
shaky_library = MethodLibrary([stored_method(task_b, successes=1, attempts=8)])
retrieval = shaky_library.retrieve_best(task_b, thresholds.tau_r)
print(f"  score={retrieval.score:.2f} confidence={confidence(retrieval.method, retrieval.score):.3f}")
show("task B with a 1/8 record", decide(retrieval, None, None, thresholds))

print("\n=== observations can trigger learning on their own ===")
observation = ObservedEvent(task_b.target_sequence, success=True)
obs_retrieval = library.retrieve_best(task_b, thresholds.tau_o)
show("watched someone solve uncovered task B",
     decide(None, observation, obs_retrieval, thresholds))

library.insert(stored_method(task_b, successes=3, attempts=3))
obs_retrieval = library.retrieve_best(task_b, thresholds.tau_o)
show("same observation, but task B is covered now",
     decide(None, observation, obs_retrieval, thresholds))

failed = ObservedEvent(task_b.target_sequence, success=False)
show("a failed external attempt never triggers",
     decide(None, failed, obs_retrieval, thresholds))
