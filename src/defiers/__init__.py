"""Design-based likelihood analysis of randomized experiments.

Given the four observed cell counts of a binary-intervention/binary-outcome
experiment and its randomization design, this package computes the exact
likelihood of every joint distribution of potential outcomes in the sample
(the counts of always takers, compliers, defiers, and never takers), finds
the maximizers by exhaustive grid search, bounds defiers within the estimated
Fréchet set, builds smallest credible sets under a uniform prior, and scores
decision rules by exact Bayes expected utility.
"""
from .core import (
    ArmSplit,
    Bernoulli,
    BudgetExceededError,
    CompletelyRandomized,
    DegenerateDataError,
    Design,
    DesignInconsistencyError,
    ExperimentData,
    Theta,
    data_from_split,
    enumerate_thetas,
    theta_count,
    theta_index,
)
from .combinatorics import (
    LOG_ZERO,
    exact_binomial,
    log_binomial,
)
from .likelihood import (
    PopulationShares,
    assignment_count_grid,
    exact_assignment_count,
    index_set,
    log_likelihood,
    oracle_assignment_count,
    oracle_data_distribution,
    relative_log_likelihood,
    sampling_log_likelihood,
)
from .frechet import (
    FrechetSet,
    Marginals,
    ProfileRow,
    estimate_marginals,
    frechet_profile,
    frechet_set,
    marginals_of,
    profile_level_flags,
    theta_at_defiers,
)
from .inference import (
    CredibleSummary,
    MleResult,
    PosteriorTable,
    mle,
    monotonicity_mle,
    posterior,
    smallest_credible_set,
)
from .evaluation import (
    FRECHET_RULE,
    MAX_LIKELIHOOD_RULE,
    MONOTONICITY_RULE,
    DecisionRule,
    HeatmapCell,
    MontyHallResult,
    RuleComparisonRow,
    bayes_expected_utilities,
    bayes_expected_utility,
    custom_rule,
    defier_region_check,
    expected_utility,
    fisher_exact_p,
    heatmap,
    heatmap_symmetry_counterexamples,
    monty_hall_likelihoods,
    rule_comparison_curve,
)
from .reports import AnalysisReport, AnalysisRequest, analyze

__version__ = "0.1.0"
