"""Design-based likelihood analysis of randomized experiments.

Given the four observed cell counts of a binary-intervention/binary-outcome
experiment and its randomization design, this package computes the exact
likelihood of every joint distribution of potential outcomes in the sample
(the counts of always takers, compliers, defiers, and never takers), finds
the maximizers by exhaustive grid search, bounds defiers within the estimated
Fréchet set, builds smallest credible sets under a uniform prior, and scores
decision rules by exact Bayes expected utility.

The package root re-exports the names the README documents; every other
name is importable from its module.
"""
from .core import (
    Bernoulli,
    BudgetExceededError,
    CompletelyRandomized,
    DegenerateDataError,
    DesignInconsistencyError,
    ExperimentData,
    Theta,
    theta_index,
)
from .likelihood import (
    assignment_count_grid,
    exact_assignment_count,
    log_likelihood,
    oracle_assignment_count,
    relative_log_likelihood,
)
from .frechet import estimate_marginals, frechet_profile, frechet_set, theta_at_defiers
from .inference import mle, monotonicity_mle, posterior, smallest_credible_set
from .evaluation import (
    FRECHET_RULE,
    MAX_LIKELIHOOD_RULE,
    MONOTONICITY_RULE,
    bayes_expected_utility,
    custom_rule,
    defier_region_check,
    fisher_exact_p,
    heatmap,
    heatmap_symmetry_counterexamples,
    monty_hall_likelihoods,
    rule_comparison_curve,
)
from .reports import AnalysisRequest, analyze

__version__ = "0.1.0"
