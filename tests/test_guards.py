"""Every guard raise in the package, driven once with its exception and message."""
import numpy as np
import pytest

from defiers.combinatorics import choose_table, log_binomial
from defiers.core import (
    MAX_N,
    BudgetExceededError,
    CompletelyRandomized,
    DegenerateDataError,
    ExperimentData,
    Theta,
    ThetaIndex,
    enumerate_thetas,
    theta_index,
)
from defiers.evaluation import MAX_LIKELIHOOD_RULE, bayes_expected_utility, fisher_exact_p
from defiers.frechet import Marginals, frechet_profile, frechet_set, profile_level_flags
from defiers.inference import _argmax_ties
from defiers.likelihood import log_likelihood, oracle_assignment_count

X4 = ExperimentData(1, 1, 1, 1)
CR4 = CompletelyRandomized(2, 4)

GUARDS = {
    "log_binomial": (
        lambda: log_binomial(-1, 0), ValueError, "n must be non-negative",
    ),
    "choose_table": (
        lambda: choose_table(-1), ValueError, "n must be non-negative",
    ),
    "Theta.average_effect": (
        lambda: Theta(0, 0, 0, 0).average_effect(),
        DegenerateDataError,
        "average effect undefined for n = 0",
    ),
    "ExperimentData.average_effect": (
        lambda: ExperimentData(0, 0, 1, 1).average_effect(),
        DegenerateDataError,
        "average effect needs both arms non-empty",
    ),
    "enumerate_thetas negative": (
        lambda: next(enumerate_thetas(-1)), ValueError, "n must be non-negative",
    ),
    "enumerate_thetas cap": (
        lambda: next(enumerate_thetas(MAX_N + 1)),
        ValueError,
        f"n={MAX_N + 1} exceeds the cap of {MAX_N}",
    ),
    "ThetaIndex": (lambda: ThetaIndex(-1), ValueError, "n must be non-negative"),
    "ThetaIndex.flat": (
        lambda: theta_index(3).flat(Theta(1, 1, 1, 1)),
        ValueError,
        "theta has n=4, index built for n=3",
    ),
    "bayes design n": (
        lambda: bayes_expected_utility(MAX_LIKELIHOOD_RULE, 4, CompletelyRandomized(3, 6)),
        ValueError,
        "design n=6 does not match requested n=4",
    ),
    "fisher_exact_p": (  # C(n, n//2) first exceeds float64 at n=1030
        lambda: fisher_exact_p(ExperimentData(258, 258, 258, 258)),
        BudgetExceededError,
        "Fisher's exact test needs C(1032, 516) within float64 range; "
        "it exceeds the float64 maximum 1.79769e+308",
    ),
    "Marginals m1": (
        lambda: Marginals(5, 0, 4), ValueError, "need 0 <= m1 <= n, got m1=5, n=4",
    ),
    "Marginals mc": (
        lambda: Marginals(0, 5, 4), ValueError, "need 0 <= mc <= n, got mc=5, n=4",
    ),
    "frechet_profile": (
        lambda: frechet_profile(frechet_set(Marginals(1, 1, 2)), X4, CR4),
        ValueError,
        "data n=4 but Fréchet set n=2",
    ),
    "profile_level_flags": (
        lambda: profile_level_flags([], 1.0), ValueError, "level must be in (0,1), got 1.0",
    ),
    "_argmax_ties": (
        lambda: _argmax_ties([np.ones((1, 1, 1)), np.zeros((1, 1, 1))], [X4, X4]),
        AssertionError,
        "likelihood is zero everywhere; data inconsistent",
    ),
    "log_likelihood": (
        lambda: log_likelihood(Theta(1, 0, 0, 0), X4, CR4),
        ValueError,
        "data n=4 but theta n=1",
    ),
    "oracle_assignment_count": (
        lambda: oracle_assignment_count(Theta(1, 0, 0, 0), X4),
        ValueError,
        "data n=4 but theta n=1",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
