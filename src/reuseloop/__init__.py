"""reuseloop: closed-loop method reuse, learning triggers, and cost amortization.

An agent facing recurring tasks first tries to reuse a stored method; only
uncovered or unreliable tasks (and uncovered observed successes) trigger a
planner-driven learning episode whose validated result is consolidated into
a persistent method library. The package bundles the loop engine, a
deterministic benchmark over a virtual clock, and the analytic cost model
that quantifies when the one-time learning investment amortizes.
"""

from .config import (
    PlannerSettings,
    RunConfig,
    build_corpus,
    build_planner,
    config_from_dict,
    load_config,
    reference_executor,
    reference_latency,
    resolve_executor,
)
from .costs import (
    CostProfile,
    DelayComparison,
    ReuseBenefit,
    benefit_condition_holds,
    delay_comparison,
    expected_task_cost,
    reuse_benefit,
    single_task_cost,
)
from .engine import (
    ALWAYS_LLM,
    LIBRARY_ONLY,
    OBSERVATION_ONLY,
    POLICY_MODES,
    PROPOSED,
    PROPOSED_OBSERVATION,
    ExecutorConfig,
    RunRecord,
    SequenceExecutor,
    VirtualClock,
    read_records,
    run_episode,
    run_loop,
    write_records,
)
from .errors import (
    LibraryError,
    PlannerError,
    PlanningFailedError,
    RecordStreamError,
    ReuseLoopError,
    SchemaError,
)
from .experience import EpisodeDataset, ExperienceSample
from .learner import (
    CandidateSolution,
    ValidationReport,
    build_method,
    initialize,
    needs_refinement,
    quasi_adjust,
    train_episode,
    utility,
    validate,
)
from .library import (
    Applicability,
    DataProfile,
    Method,
    MethodLibrary,
    Reliability,
    RetrievalResult,
    matching_score,
)
from .metrics import (
    MetricsReport,
    aggregate,
    empirical_coverage,
    format_report_table,
    report_to_dict,
    write_report_csv,
    write_report_json,
)
from .planner import (
    HttpPlanner,
    LearningPlan,
    MockPlanner,
    PlannerCall,
    PlannerFeedback,
    PlannerHistory,
    parse_plan,
    plan_to_dict,
)
from .tasks import (
    DEFAULT_ACTIONS,
    ObservedEvent,
    TaskConstraints,
    TaskDescriptor,
    TaskEvent,
    generate_corpus,
    load_corpus,
    save_corpus,
    signature_of,
)
from .trigger import TriggerDecision, TriggerThresholds, confidence, decide

__version__ = "0.1.0"
