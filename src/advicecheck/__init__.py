"""advicecheck: statistical verification of a mediator's advice in repeated games.

Agents in a repeated normal-form game receive private action suggestions
drawn from a publicly announced correlated strategy. This library lets them
(1) check the announced strategy's incentive constraints, (2) verify by a
goodness-of-fit sampling test that everyone is actually following it, with
both error probabilities budgeted in advance, and (3) repeat the test on a
growing schedule interleaved with free periods where agents either keep
following the advice or run their own learning algorithm.
"""

from .agents import (
    FictitiousPlayLearner,
    Learner,
    Mode,
    TriggerLearner,
    UniformLearner,
    agent_act,
    make_learner,
)
from .chi2 import chi2_cdf, chi2_isf, chi2_quantile, chi2_sf, noncentral_chi2_cdf
from .chi2 import power_beta, sample_size
from .errors import (
    HorizonExceededError,
    InfeasiblePlanError,
    InfeasibleScheduleError,
    InvalidInputError,
    NoDataError,
    NonConvergenceError,
    UndefinedConditionalError,
    ZeroCellObserved,
)
from .games import (
    CeVerdict,
    CeViolation,
    CorrelatedStrategy,
    Game,
    MixedStrategy,
    check_correlated_equilibrium,
    compose_deviation,
    conditional_given_signal,
    expected_utility,
    load_game,
    load_strategy,
)
from .schedule import (
    Phase,
    PhaseKind,
    Schedule,
    ScheduleRules,
    build_schedule,
    geometric_rules,
    harmonic_rules,
    literal_layout,
    locate,
    single_test_schedule,
    toy_schedule,
    validate_schedule,
)
from .sim import (
    EmpiricalFrequency,
    RunSummary,
    Transcript,
    UtilityLedger,
    average_utility,
    batch_summary_dict,
    build_ledger,
    empirical_frequency,
    phase_average,
    run_batch,
    run_game,
    run_game_counts,
    run_pure_learning,
    transcript_to_csv,
    tv_distance,
)
from .verifier import (
    Decision,
    Outcome,
    PsiCurve,
    PsiEstimate,
    TestPlan,
    estimate_psi,
    manual_plan,
    pearson_statistic,
    plan_test,
    run_sampling_decision,
    sensitivity_delta,
)

__version__ = "0.1.0"
