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

Importing the package before numpy loads numpy with one BLAS thread, so the
program's own numpy linear algebra runs single-threaded (a cost not measured);
import numpy first, or set ``OPENBLAS_NUM_THREADS``, to keep a BLAS pool.
"""
import os

# OpenBLAS starts a worker per extra CPU as numpy loads, which spins before it sleeps; this
# package calls no BLAS routine (on a 2-vCPU VM, numpy's import and a sleep took 0.20 s of CPU
# with the worker, 0.14 s without).  So numpy loads with one BLAS thread unless a count is
# set, and the variable goes again on every path, so child processes do not inherit it.
if not os.environ.keys() & {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
