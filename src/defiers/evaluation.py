"""Exact evaluation of decision rules, the all-data MLE map, and Fisher's test.

A decision rule guesses the joint type counts after seeing the data.  With
one util for a correct guess and zero otherwise, a rule's expected utility
given the truth is its probability of guessing right, and its Bayes expected
utility averages that over a uniform prior on the parameter grid.  Everything
here is computed by full enumeration, so results are exact up to float64
rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    BudgetExceededError,
    CompletelyRandomized,
    Design,
    ExperimentData,
    Theta,
    theta_index,
)
from .likelihood import assignment_count_grid
from .inference import _argmax_ties, _monotone_flat_indices, _thetas_from_flat
from .frechet import estimate_marginals, frechet_set

# Exact Bayes evaluation enumerates every (theta, data) pair; these guards
# keep that enumeration within memory and time budgets.
BAYES_MAX_N_CR = 60
BAYES_MAX_N_BERNOULLI = 24

# Heatmaps beyond this size run only when explicitly forced.
HEATMAP_MAX_N = 60

FISHER_SLACK = 1e-7


WeightedGuess = Sequence[tuple[Theta, float]]

# A decision rule maps one data realization, with its assignment-count grid,
# to the flat indices of its guesses and the weight on each (a scalar when
# all weights are equal): rule(grid, x, design) -> (flat_indices, weight).
DecisionRule = Callable[
    [np.ndarray, ExperimentData, Design], tuple[np.ndarray, "float | np.ndarray"]
]


def MAX_LIKELIHOOD_RULE(
    grid: np.ndarray, x: ExperimentData, design: Design
) -> tuple[np.ndarray, float]:
    """Every likelihood maximizer, with equal weights."""
    flat, _ = _argmax_ties(grid, x)
    return flat, 1.0 / flat.size


def MONOTONICITY_RULE(
    grid: np.ndarray, x: ExperimentData, design: Design
) -> tuple[np.ndarray, float]:
    """Every maximizer among no-defier or no-complier vectors, with equal weights."""
    flat, _ = _argmax_ties(grid, x, _monotone_flat_indices(x.n))
    return flat, 1.0 / flat.size


def FRECHET_RULE(
    grid: np.ndarray, x: ExperimentData, design: Design
) -> tuple[np.ndarray, float]:
    """Every member of the estimated Fréchet set, with equal weights.

    Data with an empty arm do not estimate the marginals, so there the rule
    makes no guess: its support is empty and its utility is zero, which is
    its probability of guessing right.
    """
    if x.intervention_size == 0 or x.control_size == 0:
        return np.empty(0, dtype=np.int64), 0.0
    fs = frechet_set(estimate_marginals(x, design))
    ds = np.arange(fs.defier_lo, fs.defier_hi + 1, dtype=np.int64)
    m = fs.marginals
    flat = theta_index(x.n).flatten(m.mc - ds, m.m1 - m.mc + ds, ds)
    return flat, 1.0 / flat.size


def custom_rule(decide: Callable[[ExperimentData, Design], WeightedGuess]) -> DecisionRule:
    """Decision rule from a function returning ``[(theta, weight), ...]`` for data."""

    def rule(
        grid: np.ndarray, x: ExperimentData, design: Design
    ) -> tuple[np.ndarray, np.ndarray]:
        guesses = decide(x, design)
        index = theta_index(x.n)
        flat = np.asarray([index.flat(theta) for theta, _ in guesses], dtype=np.int64)
        return flat, np.asarray([weight for _, weight in guesses])

    return rule


def _data_space(n: int, design: Design) -> list[ExperimentData]:
    """All data realizations with positive probability under the design."""
    if isinstance(design, CompletelyRandomized):
        m = design.m
        return [
            ExperimentData(i1, m - i1, c1, n - m - c1)
            for i1 in range(m + 1)
            for c1 in range(n - m + 1)
        ]
    return [
        ExperimentData(i1, i0, c1, n - i1 - i0 - c1)
        for i1 in range(n + 1)
        for i0 in range(n - i1 + 1)
        for c1 in range(n - i1 - i0 + 1)
    ]


def _design_log_constant(x: ExperimentData, design: Design) -> float:
    """Per-realization factor turning assignment counts into probabilities."""
    if isinstance(design, CompletelyRandomized):
        return -math.log(math.comb(design.n, design.m))
    return x.intervention_size * math.log(design.p) + x.control_size * math.log1p(
        -design.p
    )


def _check_bayes_budget(n: int, design: Design) -> None:
    if isinstance(design, CompletelyRandomized) and design.n != n:
        raise ValueError(f"design n={design.n} does not match requested n={n}")
    cap = BAYES_MAX_N_CR if isinstance(design, CompletelyRandomized) else BAYES_MAX_N_BERNOULLI
    if n > cap:
        raise BudgetExceededError(
            f"exact Bayes evaluation enumerates every (theta, data) pair; "
            f"n={n} exceeds the guard of {cap}"
        )


# A serial map, kept while perfbench/tracer.py wraps it by name (ROADMAP item 4).
def _thread_map(fn, items, threads: int | None):
    return [fn(item) for item in items]


def rule_eu_vectors(
    rules: Sequence[DecisionRule],
    n: int,
    design: Design,
) -> list[np.ndarray]:
    """Expected utility of each rule at every theta, in canonical order.

    One pass over the data space: each realization contributes its likelihood
    column, restricted to the rule's guesses, scaled by the guess weights.
    Per-realization partials are combined in the fixed data-space order.
    """
    _check_bayes_budget(n, design)
    size = theta_index(n).size

    def column(x: ExperimentData) -> list[tuple[np.ndarray, np.ndarray]]:
        grid = assignment_count_grid(x)
        log_const = _design_log_constant(x, design)
        scale = math.exp(log_const)
        parts = []
        for rule in rules:
            flat, weight = rule(grid, x, design)
            parts.append((flat, grid[flat] * (weight * scale)))
        return parts

    xs = _data_space(n, design)
    results = _thread_map(column, xs, None)
    vectors = [np.zeros(size) for _ in rules]
    for parts in results:  # fixed data-space order
        for vec, (flat, contrib) in zip(vectors, parts):
            np.add.at(vec, flat, contrib)
    return vectors


def expected_utility(rule: DecisionRule, theta: Theta, design: Design) -> float:
    """Probability that the rule guesses ``theta`` when ``theta`` is the truth."""
    if isinstance(design, CompletelyRandomized) and design.n != theta.n:
        raise ValueError(f"design n={design.n} but theta n={theta.n}")
    vec = rule_eu_vectors([rule], theta.n, design)[0]
    return float(vec[theta_index(theta.n).flat(theta)])


def bayes_expected_utilities(
    rules: Sequence[DecisionRule],
    n: int,
    design: Design,
) -> list[float]:
    """Bayes expected utility of several rules under the uniform prior, shared pass."""
    vectors = rule_eu_vectors(rules, n, design)
    return [float(vec.mean()) for vec in vectors]


def bayes_expected_utility(rule: DecisionRule, n: int, design: Design) -> float:
    return bayes_expected_utilities([rule], n, design)[0]


@dataclass(frozen=True)
class RuleComparisonRow:
    n: int
    eu_mle: float
    eu_frechet: float
    eu_mono: float

    @property
    def ratio_frechet(self) -> float:
        return self.eu_mle / self.eu_frechet

    @property
    def ratio_mono(self) -> float:
        return self.eu_mle / self.eu_mono


def rule_comparison_curve(n_values: Sequence[int]) -> list[RuleComparisonRow]:
    """Bayes expected utilities of the three rules at each even n, half treated."""
    rows = []
    for n in n_values:
        if n % 2 != 0 or n <= 0:
            raise ValueError(f"rule comparison needs positive even n, got {n}")
        design = CompletelyRandomized(m=n // 2, n=n)
        eu = bayes_expected_utilities(
            [MAX_LIKELIHOOD_RULE, FRECHET_RULE, MONOTONICITY_RULE], n, design
        )
        rows.append(RuleComparisonRow(n, eu[0], eu[1], eu[2]))
    return rows


def fisher_exact_p(x: ExperimentData) -> float:
    """Two-sided Fisher exact p-value for the arm-by-outcome table.

    Probability-mass method: with both margins fixed, sum the hypergeometric
    probabilities of every table whose probability is at most that of the
    observed table, with a small relative slack so equal-probability tables
    are included despite float rounding.
    """
    n = x.n
    m = x.intervention_size
    takers = x.i1 + x.c1
    lo = max(0, takers - (n - m))
    hi = min(m, takers)
    weights = [math.comb(m, k) * math.comb(n - m, takers - k) for k in range(lo, hi + 1)]
    observed = weights[x.i1 - lo]
    cutoff = observed * (1.0 + FISHER_SLACK)
    included = sum(w for w in weights if w <= cutoff)
    return float(included) / float(sum(weights))


@dataclass(frozen=True)
class HeatmapCell:
    """MLE summary for one realizable (takeup-in-intervention, takeup-in-control)."""

    i1: int
    c1: int
    mle_set: tuple[Theta, ...]
    defier_count: int  # max over tied maximizers
    type_signature: str  # letters among "ACDN" present in any maximizer
    fisher_p: float
    fisher_reject_5: bool


def _heatmap_cell(n: int, m: int, i1: int, c1: int) -> HeatmapCell:
    x = ExperimentData(i1, m - i1, c1, n - m - c1)
    grid = assignment_count_grid(x)
    flat, _ = _argmax_ties(grid, x)
    ties = _thetas_from_flat(n, flat)
    letters = sorted(
        {letter for theta in ties for letter in theta.types_present()},
        key="ACDN".index,
    )
    p = fisher_exact_p(x)
    return HeatmapCell(
        i1=i1,
        c1=c1,
        mle_set=ties,
        defier_count=max(theta.de for theta in ties),
        type_signature="".join(letters),
        fisher_p=p,
        fisher_reject_5=p <= 0.05,
    )


def heatmap(
    n: int,
    m: int,
    *,
    force: bool = False,
    progress: Callable[[str], None] | None = None,
) -> list[list[HeatmapCell]]:
    """MLE of every possible data realization, as cells[i1][c1].

    Work grows with the fourth power of n; sizes beyond ``HEATMAP_MAX_N``
    require ``force=True``.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if n > HEATMAP_MAX_N and not force:
        raise BudgetExceededError(
            f"heatmap at n={n} exceeds the guard of {HEATMAP_MAX_N}; "
            "pass force=True (CLI: --force) to run it anyway"
        )

    cells = []
    for i1 in range(m + 1):
        cells.append([_heatmap_cell(n, m, i1, c1) for c1 in range(n - m + 1)])
        if progress is not None:
            progress(f"heatmap row i1={i1} of {m}")
    return cells


def heatmap_symmetry_counterexamples(
    cells: list[list[HeatmapCell]],
) -> list[tuple[int, int]]:
    """Cells violating the joint relabeling symmetry (swap outcomes, A<->N, C<->D)."""
    m = len(cells) - 1
    mc = len(cells[0]) - 1
    bad = []
    for i1 in range(m + 1):
        for c1 in range(mc + 1):
            mirrored = {t.relabeled() for t in cells[m - i1][mc - c1].mle_set}
            if set(cells[i1][c1].mle_set) != mirrored:
                bad.append((i1, c1))
    return bad


@dataclass(frozen=True)
class RegionCheckResult:
    n: int
    passed: bool
    counterexamples: tuple[tuple[int, int], ...]


def defier_region_check(n: int, *, force: bool = False) -> RegionCheckResult:
    """Verify where the MLE includes defiers on the half-treated heatmap.

    Claim checked cell by cell: with takeup strictly below half in control and
    strictly above half in intervention, the MLE includes defiers, except when
    takeup is zero in control or full in intervention.
    """
    if n % 2 != 0 or n <= 0:
        raise ValueError(f"region check needs positive even n, got {n}")
    m = n // 2
    cells = heatmap(n, m, force=force)
    bad = []
    for i1 in range(m + 1):
        for c1 in range(n - m + 1):
            in_region = 2 * c1 < (n - m) and 2 * i1 > m and c1 != 0 and i1 != m
            if in_region and cells[i1][c1].defier_count == 0:
                bad.append((i1, c1))
    return RegionCheckResult(n=n, passed=not bad, counterexamples=tuple(bad))


@dataclass(frozen=True)
class MontyHallResult:
    """Likelihood of each car placement behind the two unchosen doors."""

    car_absent: float  # no car behind either unchosen door
    car_present: float  # car behind the unopened unchosen door

    @property
    def decision(self) -> str:
        return "switch" if self.car_present > self.car_absent else "keep"


def monty_hall_likelihoods() -> MontyHallResult:
    """Likelihoods of the two configurations after the host opens the left door.

    The host must open an unchosen door with no car; a fair randomizer picks
    his preferred door, giving two equally likely reveal policies.  Each
    configuration's likelihood is the share of policies that produce the
    observed reveal (left door, no car).
    """
    policies = ("prefer_left", "prefer_right")
    configurations = {
        "car_absent": (False, False),  # (car in left, car in right)
        "car_present": (False, True),
    }

    def opened(policy: str, config: tuple[bool, bool]) -> str:
        car_left, car_right = config
        if policy == "prefer_left":
            return "left" if not car_left else "right"
        return "right" if not car_right else "left"

    likelihood = {
        name: sum(opened(p, config) == "left" for p in policies) / len(policies)
        for name, config in configurations.items()
    }
    return MontyHallResult(
        car_absent=likelihood["car_absent"], car_present=likelihood["car_present"]
    )
