"""reuseloop: closed-loop method reuse, learning triggers, and cost amortization.

An agent facing recurring tasks first tries to reuse a stored method; only
uncovered or unreliable tasks (and uncovered observed successes) trigger a
planner-driven learning episode whose validated result is consolidated into
a persistent method library. The package bundles the loop engine, a
deterministic benchmark over a virtual clock, and the analytic cost model
that quantifies when the one-time learning investment amortizes.

The package root re-exports only what README's quick start, ``demos/`` and
``perfbench/`` import from it; import everything else from its submodule.
"""

from .config import RunConfig, build_corpus, build_planner, resolve_executor
from .costs import (
    CostProfile,
    benefit_condition_holds,
    delay_comparison,
    expected_task_cost,
    reuse_benefit,
    single_task_cost,
)
from .engine import (
    ALWAYS_LLM,
    OBSERVATION_ONLY,
    POLICY_MODES,
    PROPOSED,
    PROPOSED_OBSERVATION,
    ExecutorConfig,
    SequenceExecutor,
    VirtualClock,
    read_records,
    run_loop,
    write_records,
)
from .experience import EpisodeDataset
from .learner import build_method, initialize, quasi_adjust, train_episode, validate
from .library import MethodLibrary, matching_score
from .metrics import aggregate, write_report_csv, write_report_json
from .planner import MockPlanner
from .tasks import generate_corpus, signature_of
from .trigger import TriggerThresholds, confidence, decide

__version__ = "0.1.0"
