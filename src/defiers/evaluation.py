"""Exact evaluation of decision rules, the all-data MLE map, and Fisher's test.

A decision rule guesses the joint type counts after seeing the data.  With
one util for a correct guess and zero otherwise, a rule's expected utility
given the truth is its probability of guessing right, and its Bayes expected
utility averages that over a uniform prior on the parameter grid.  Everything
here is computed by full enumeration, so results are exact up to float64
rounding.

The Bayes pass and the heatmap decide realizations in batches (``Batch``)
whose support boxes share one buffer of at most ``_BATCH_CELLS`` cells; a rule,
or the heatmap's one ``_argmax_ties`` call, decides a whole batch.  A
realization and its arm-swap mirror share one fill wherever the box is exact.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Bernoulli,
    BudgetExceededError,
    CompletelyRandomized,
    Design,
    ExperimentData,
    Theta,
    theta_index,
)
from .likelihood import _log_likelihood_of_count, assignment_count_grid, box_shape
from .inference import EXACT_FLOAT_LIMIT, _argmax_ties, _thetas_from_flat

# Exact Bayes evaluation enumerates every (theta, data) pair; these guards
# keep that enumeration within memory and time budgets.
BAYES_MAX_N_CR = 60
BAYES_MAX_N_BERNOULLI = 24

# Heatmaps beyond this size run only when explicitly forced.
HEATMAP_MAX_N = 60

# Box cells of one batch of the Bayes pass (1 MB); a larger box is a batch alone.
_BATCH_CELLS = 1 << 17

WeightedGuess = Sequence[tuple[Theta, float]]


class Batch:
    """Data realizations of one n, with their support boxes in one buffer.

    ``boxes[k]`` holds ``assignment_count_grid(xs[k])`` as a view of ``buffer``
    from ``offsets[k]`` of shape ``shapes[:, k]``; ``counts[:, k]`` is
    ``xs[k].counts()``.  Right after its arm-swap mirror (c1, c0, i1, i0), a
    realization takes the mirror's box transposed (compliers and defiers trade
    places) if its top is below ``EXACT_FLOAT_LIMIT``: both fills are exact there.
    """

    def __init__(self, xs: Sequence[ExperimentData]):
        self.xs, self.n = list(xs), xs[0].n
        self.counts = np.array([x.counts() for x in self.xs], dtype=np.int64).T
        self.shapes = np.stack(box_shape(*self.counts))
        sizes = self.shapes.prod(axis=0)
        self.offsets = np.cumsum(sizes) - sizes
        self.buffer, self.boxes = np.empty(int(sizes.sum())), []
        for k, (x, start, shape) in enumerate(zip(self.xs, self.offsets, self.shapes.T)):
            box = self.buffer[start : start + sizes[k]].reshape(shape)
            mirror = k > 0 and self.xs[k - 1].counts() == (x.c1, x.c0, x.i1, x.i0)
            if mirror and self.boxes[-1].max() < EXACT_FLOAT_LIMIT:
                box[...] = self.boxes[-1].transpose(0, 2, 1)
            else:
                box[...] = assignment_count_grid(x)
            self.boxes.append(box)


# A decision rule decides a batch at once: rule(batch, design) -> (owner, flat,
# weight), with, for each guess, the position in the batch of the realization
# it is for, its canonical flat index (``theta_index(n)``) and its weight.
DecisionRule = Callable[[Batch, Design], tuple[np.ndarray, np.ndarray, np.ndarray]]


def MAX_LIKELIHOOD_RULE(batch: Batch, design: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every likelihood maximizer, with equal weights."""
    flat, _, owner = _argmax_ties(batch.boxes, batch.xs, None)
    return owner, flat, 1.0 / np.bincount(owner)[owner]


def MONOTONICITY_RULE(batch: Batch, design: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximizer among no-defier or no-complier vectors, with equal weights."""
    flat, _, owner = _argmax_ties(batch.boxes, batch.xs, True)
    return owner, flat, 1.0 / np.bincount(owner)[owner]


def FRECHET_RULE(batch: Batch, design: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every member of the estimated Fréchet set, with equal weights.

    The marginals are ``estimate_marginals``'s, in the same integers.  Data
    with an empty arm do not estimate them, so there the rule makes no guess:
    its utility is zero, which is its probability of guessing right.
    """
    n, (i1, i0, c1, c0) = batch.n, batch.counts
    if isinstance(design, Bernoulli):  # i1 / p = i1 b / a, c1 / (1 - p) = c1 b / (b - a)
        a, b = design.p.as_integer_ratio()
        num, den = (i1.astype(object) * b, c1.astype(object) * b), (a, b - a)
    else:  # an empty arm's marginal goes unused
        num, den = (n * i1, n * c1), (np.maximum(i1 + i0, 1), np.maximum(c1 + c0, 1))
    m1, mc = (np.minimum((2 * u + v) // (2 * v), n).astype(np.int64) for u, v in zip(num, den))
    lo, hi = np.maximum(0, mc - m1), np.minimum(mc, n - m1)  # the defier bounds
    members = np.where((i1 + i0 > 0) & (c1 + c0 > 0), hi - lo + 1, 0)
    owner = np.repeat(np.arange(members.size), members)
    d = lo[owner] + np.arange(owner.size) - (np.cumsum(members) - members)[owner]
    flat = theta_index(n).flatten(mc[owner] - d, m1[owner] - mc[owner] + d, d)
    return owner, flat, 1.0 / members[owner]


def custom_rule(decide: Callable[[ExperimentData, Design], WeightedGuess]) -> DecisionRule:
    """Decision rule from a function returning ``[(theta, weight), ...]`` for data."""

    def rule(batch: Batch, design: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        flat_of = theta_index(batch.n).flat
        guesses = [(k, flat_of(t), w) for k, x in enumerate(batch.xs) for t, w in decide(x, design)]
        # owners and flat indices are small integers, exact in float64
        owner, flat, weight = np.array(guesses, dtype=float).reshape(-1, 3).T
        return owner.astype(np.int64), flat.astype(np.int64), weight

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


def _batches(xs: list[ExperimentData]):
    """Positions in ``xs`` by batch of at most ``_BATCH_CELLS`` box cells, each
    realization followed by its arm-swap mirror where ``xs`` holds that too."""
    where = {x.counts(): k for k, x in enumerate(xs)}
    batch, cells = [], 0
    for k, x in enumerate(xs):
        i1, i0, c1, c0 = x.counts()
        mirror = where.get((c1, c0, i1, i0), k)
        if mirror < k:  # already placed after its mirror
            continue
        pair = [k] if mirror == k else [k, mirror]
        size = math.prod(box_shape(i1, i0, c1, c0)) * len(pair)
        if batch and cells + size > _BATCH_CELLS:
            yield batch
            batch, cells = [], 0
        batch, cells = batch + pair, cells + size
    yield batch


def rule_eu_vectors(
    rules: Sequence[DecisionRule],
    n: int,
    design: Design,
) -> list[np.ndarray]:
    """Expected utility of each rule at every theta, in canonical order.

    One pass over the data space: each realization contributes its likelihood
    column, restricted to the rule's guesses, scaled by the guess weights.
    Contributions are added in the fixed data-space order.
    """
    _check_bayes_budget(n, design)
    size = theta_index(n).size
    # (at, co, de) of every flat index, decoded once for all realizations
    decoded = np.stack(theta_index(n).components(np.arange(size))[:3])
    xs = _data_space(n, design)

    def column(positions: list[int]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        batch = Batch([xs[k] for k in positions])
        # P(one assignment) of each realization
        scale = np.array([math.exp(_log_likelihood_of_count(1, x, design)) for x in batch.xs])
        parts = []
        for rule in rules:
            owner, flat, weight = rule(batch, design)
            (at, co, de), (shape_at, shape_co, shape_de) = decoded[:, flat], batch.shapes[:, owner]
            # a guess outside its box (a Fréchet member can be) has likelihood 0
            inside = (at < shape_at) & (co < shape_co) & (de < shape_de)
            cells = batch.offsets[owner] + (at * shape_co + co) * shape_de + de
            likelihood = np.zeros(flat.size)
            likelihood[inside] = batch.buffer[cells[inside]]
            parts.append((np.array(positions)[owner], flat, likelihood * (weight * scale[owner])))
        return parts

    results = _thread_map(column, _batches(xs), None)
    vectors = [np.zeros(size) for _ in rules]
    for j, vec in enumerate(vectors):
        where, flat, contrib = map(np.concatenate, zip(*(parts[j] for parts in results)))
        # ufunc.at adds in index order, so each cell sums in data-space order
        order = np.argsort(where, kind="stable")
        np.add.at(vec, flat[order], contrib[order])
    return vectors


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


def _fisher_weights(x: ExperimentData) -> tuple[int, int]:
    """Exact hypergeometric weights of the tables no likelier than x, and of all."""
    n = x.n
    m = x.intervention_size
    takers = x.i1 + x.c1
    lo = max(0, takers - (n - m))
    hi = min(m, takers)
    weights = [math.comb(m, k) * math.comb(n - m, takers - k) for k in range(lo, hi + 1)]
    observed = weights[x.i1 - lo]
    return sum(w for w in weights if w <= observed), sum(weights)  # C(n, takers)


def fisher_exact_p(x: ExperimentData) -> float:
    """Two-sided Fisher exact p-value for the arm-by-outcome table.

    Probability-mass method: with both margins fixed, sum the hypergeometric
    probabilities of every table whose probability is at most that of the
    observed table.  The weights are exact integers, so tables of equal
    probability compare equal; only the final ratio is rounded, which needs
    C(n, i1 + c1) within float64 range (n <= 1029 always is).
    """
    included, total = _fisher_weights(x)
    if total > sys.float_info.max:
        raise BudgetExceededError(
            f"Fisher's exact test needs C({x.n}, {x.i1 + x.c1}) within float64 range; "
            f"it exceeds the float64 maximum {sys.float_info.max:.6g}"
        )
    return float(included) / float(total)


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


def heatmap(
    n: int,
    m: int,
    *,
    force: bool = False,
    progress: Callable[[str], None] | None = None,
) -> list[list[HeatmapCell]]:
    """MLE of every possible data realization, as cells[i1][c1].

    Realizations are decided in the Bayes pass's batches, so with equal arms a
    cell and its arm-swap mirror share one fill.  Each row is reported to
    ``progress`` once all its cells are decided.  Work grows with the fourth
    power of n; sizes beyond ``HEATMAP_MAX_N`` require ``force=True``.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if n > HEATMAP_MAX_N and not force:
        raise BudgetExceededError(
            f"heatmap at n={n} exceeds the guard of {HEATMAP_MAX_N}; "
            "pass force=True (CLI: --force) to run it anyway"
        )

    xs = _data_space(n, CompletelyRandomized(m, n))
    cells: list[list[HeatmapCell | None]] = [[None] * (n - m + 1) for _ in range(m + 1)]
    row = 0  # the next row to report
    for positions in _batches(xs):
        group = [xs[k] for k in positions]
        flat, _, owner = _argmax_ties(Batch(group).boxes, group, None)  # buffer freed on return
        thetas, bounds = _thetas_from_flat(n, flat), np.searchsorted(owner, range(len(group) + 1))
        for x, lo, hi in zip(group, bounds, bounds[1:]):
            ties = thetas[lo:hi]
            letters = {letter for theta in ties for letter in theta.types_present()}
            included, total = _fisher_weights(x)  # p is rounded; the flag reads the integers
            cells[x.i1][x.c1] = HeatmapCell(
                x.i1, x.c1, ties, max(theta.de for theta in ties),
                "".join(sorted(letters, key="ACDN".index)), fisher_exact_p(x), included * 20 <= total,
            )
        while row <= m and None not in cells[row]:
            if progress is not None:
                progress(f"heatmap row i1={row} of {m}")
            row += 1
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
