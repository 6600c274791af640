"""Exact evaluation of decision rules, the all-data MLE map, and Fisher's test.

A decision rule guesses the joint type counts after seeing the data.  With
one util for a correct guess and zero otherwise, a rule's expected utility
given the truth is its probability of guessing right, and its Bayes expected
utility averages that over a uniform prior on the parameter grid.  Everything
here is computed by full enumeration, so results are exact up to float64
rounding.

The Bayes pass and the heatmap decide realizations in batches (``Batch``) of
whole relabeling orbits: swapping the arms, the outcomes or both maps one
realization's likelihood onto another's.  An orbit shares one fill and one
maximizer scan wherever its box is exact, in a buffer of at most
``_BATCH_CELLS`` cells, and a rule decides a whole batch at once.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
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
from .frechet import Marginals, estimate_marginals, frechet_set
from .likelihood import _log_likelihood_of_count, assignment_count_grid, box_shape
from .inference import EXACT_FLOAT_LIMIT, _argmax_ties, _thetas_from_flat

# Exact Bayes evaluation enumerates every (theta, data) pair; these guards
# keep that enumeration within memory and time budgets.
BAYES_MAX_N_CR = 60
BAYES_MAX_N_BERNOULLI = 24

# Heatmaps beyond this size run only when explicitly forced.
HEATMAP_MAX_N = 60

# Buffer cells of one batch (1 MB) as ``_orbits`` counts them; a realization of more is alone.
_BATCH_CELLS = 1 << 17

WeightedGuess = Sequence[tuple[Theta, float]]

# For each relabeling g of the data, as ``_relabeled`` lists them, the permutation of
# (at, co, de, nt) that keeps the likelihood: L(theta, g x) = L(g theta, x), and g = g^-1.
_PERMS = ((0, 1, 2, 3), (0, 2, 1, 3), (3, 2, 1, 0), (3, 1, 2, 0))


def _relabeled(counts: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
    """(i1, i0, c1, c0) as is, arms swapped (C <-> D), outcomes swapped (A <-> N, C <-> D), both."""
    i1, i0, c1, c0 = counts
    return [(i1, i0, c1, c0), (c1, c0, i1, i0), (i0, i1, c0, c1), (c0, c1, i0, i1)]


def _orbits(xs: Sequence[ExperimentData]):
    """Positions in ``xs`` by relabeling orbit, smallest box first, with their box
    sizes and the orbit's buffer cells: its smallest box where C(n, m), for m
    subjects in intervention, bounds every count below ``EXACT_FLOAT_LIMIT`` (so
    the orbit shares that box), and all its boxes otherwise."""
    orbits: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for k, x in enumerate(xs):
        counts = x.counts()
        orbits.setdefault(min(_relabeled(counts)), []).append((math.prod(box_shape(*counts)), k))
    for members in orbits.values():
        sizes, orbit = map(list, zip(*sorted(members)))
        sure = math.comb(xs[orbit[0]].n, xs[orbit[0]].intervention_size) < EXACT_FLOAT_LIMIT
        yield orbit, sizes, sizes[0] if sure else sum(sizes)


class Batch:
    """Data realizations ``xs`` of one n, with one filled support box per relabeling orbit.

    ``boxes[b]``, ``assignment_count_grid(xs[filled[b]])``, is a view of ``buffer``
    from ``offsets[b]`` of shape ``shapes[:, b]``; the buffer's last cell is 0.
    Realization k's likelihood at (at, co, de, nt) is box ``box_of[k]``'s cell at
    the first three of ``(at, co, de, nt)[perm[k]]``, 0 outside it.  An orbit reads
    the box of its member with the fewest cells where its top is below
    ``EXACT_FLOAT_LIMIT``, so every box of the orbit is exact; else each fills its own.
    ``orbits`` takes that grouping as ``_orbits(xs)`` yields it, where it is already made;
    it must list each position of ``xs`` exactly once.
    """

    def __init__(self, xs: Sequence[ExperimentData], orbits: list | None = None):
        self.xs, self.n = list(xs), xs[0].n
        orbits = list(_orbits(xs)) if orbits is None else orbits
        if sorted(k for orbit, *_ in orbits for k in orbit) != list(range(len(xs))):
            raise ValueError("orbits must list each position of xs exactly once")
        self.buffer = np.zeros(sum(room for *_, room in orbits) + 1)
        self.box_of, self.perm = np.zeros(len(xs), np.int64), np.tile(_PERMS[0], (len(xs), 1))
        self.filled, self.boxes, start = [], [], 0
        for orbit, sizes, _ in orbits:
            exact = False  # the orbit's last box is exact, so the rest of it reads that box
            for k, size in zip(orbit, sizes):
                counts = self.xs[k].counts()
                if exact:  # through the relabeling that takes xs[k] to the box's own data
                    self.box_of[k] = len(self.boxes) - 1
                    self.perm[k] = _PERMS[_relabeled(counts).index(self.xs[self.filled[-1]].counts())]
                    continue
                self.boxes.append(self.buffer[start : start + size].reshape(box_shape(*counts)))
                exact = assignment_count_grid(self.xs[k], self.boxes[-1]).max() < EXACT_FLOAT_LIMIT
                self.box_of[k], start = len(self.filled), start + size
                self.filled.append(k)
        self.offsets = np.cumsum([0] + [box.size for box in self.boxes])[:-1]
        self.shapes = np.array([box.shape for box in self.boxes], dtype=np.int64).T


# A decision rule decides a batch at once: rule(batch, design) -> (owner, flat,
# weight), with, for each guess, the position in the batch of the realization
# it is for, its canonical flat index (``theta_index(n)``) and its weight.
DecisionRule = Callable[[Batch, Design], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _maximizers(batch: Batch, monotone: bool | None) -> tuple[np.ndarray, np.ndarray]:
    """Every realization's maximizers as (owner, flat), ascending flat within each owner:
    those of its box, scanned once, through its relabeling, which keeps the monotone set."""
    flat, _, box = _argmax_ties(batch.boxes, [batch.xs[k] for k in batch.filled], monotone)
    found, index = np.bincount(box, minlength=len(batch.boxes)), theta_index(batch.n)
    per = found[batch.box_of]  # each owner takes its box's run of maximizers
    owner = np.repeat(np.arange(per.size), per)
    pick = (np.cumsum(found) - found)[batch.box_of[owner]] - (np.cumsum(per) - per)[owner]
    pick += np.arange(owner.size)
    at, co, de, _ = np.stack(index.components(flat))[batch.perm[owner].T, pick]
    return np.divmod(np.sort(owner * index.size + index.flatten(at, co, de)), index.size)


def MAX_LIKELIHOOD_RULE(batch: Batch, design: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every likelihood maximizer, with equal weights."""
    owner, flat = _maximizers(batch, None)
    return owner, flat, 1.0 / np.bincount(owner)[owner]


def MONOTONICITY_RULE(batch: Batch, design: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximizer among no-defier or no-complier vectors, with equal weights."""
    owner, flat = _maximizers(batch, True)
    return owner, flat, 1.0 / np.bincount(owner)[owner]


def FRECHET_RULE(batch: Batch, design: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every member of the estimated Fréchet set, with equal weights.

    The set is ``frechet_set(estimate_marginals(x, design))``.  Data with an
    empty arm do not estimate the marginals, so there the rule makes no guess:
    its utility is zero, which is its probability of guessing right.
    """
    n, full = batch.n, [x.intervention_size > 0 < x.control_size for x in batch.xs]
    sets = [frechet_set(estimate_marginals(x, design) if f else Marginals(0, 0, n))
            for x, f in zip(batch.xs, full)]
    m1, mc, lo, hi = np.array([(s.marginals.m1, s.marginals.mc, s.defier_lo, s.defier_hi)
                               for s in sets]).T
    members = np.where(full, hi - lo + 1, 0)
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
    """Batches of at most ``_BATCH_CELLS`` buffer cells, each as its positions in ``xs``
    and its orbits as ``Batch`` takes them: each relabeling orbit (see ``_orbits``)
    whole where its cells fit one batch, and one realization at a time otherwise."""
    batch, orbits, cells = [], [], 0
    for orbit, sizes, room in _orbits(xs):
        whole = room <= _BATCH_CELLS
        for group, group_sizes, size in (
            [(orbit, sizes, room)] if whole else [([k], [s], s) for k, s in zip(orbit, sizes)]
        ):
            if batch and cells + size > _BATCH_CELLS:
                yield batch, orbits
                batch, orbits, cells = [], [], 0
            orbits.append((list(range(len(batch), len(batch) + len(group))), group_sizes, size))
            batch, cells = batch + group, cells + size
    yield batch, orbits


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
    index, xs = theta_index(n), _data_space(n, design)

    def column(item: tuple[list[int], list]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        positions, orbits = item
        batch = Batch([xs[k] for k in positions], orbits)
        # P(one assignment) of each realization
        scale = np.array([math.exp(_log_likelihood_of_count(1, x, design)) for x in batch.xs])
        parts = []
        for rule in rules:
            owner, flat, weight = rule(batch, design)
            box = batch.box_of[owner]  # each guess read through its realization's relabeling
            (at, co, de, _), (shape_at, shape_co, shape_de) = (
                np.stack(index.components(flat))[batch.perm[owner].T, np.arange(flat.size)],
                batch.shapes[:, box])
            # a guess outside its box (a Fréchet member can be) reads the buffer's last cell, 0
            inside = (at < shape_at) & (co < shape_co) & (de < shape_de)
            cells = batch.offsets[box] + (at * shape_co + co) * shape_de + de
            likelihood = batch.buffer[np.where(inside, cells, batch.buffer.size - 1)]
            parts.append((np.array(positions)[owner], flat, likelihood * (weight * scale[owner])))
        return parts

    results = _thread_map(column, _batches(xs), None)
    vectors = [np.zeros(index.size) for _ in rules]
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


def rule_comparison_curve(
    n_values: Sequence[int], *, progress: Callable[[str], None] | None = None
) -> list[RuleComparisonRow]:
    """Bayes expected utilities of the three rules at each even n, half treated.

    Every n is checked, its parity and then the Bayes guard, before any is
    evaluated; each evaluated n is then reported to ``progress``.
    """
    designs = []
    for n in n_values:
        if n % 2 != 0 or n <= 0:
            raise ValueError(f"rule comparison needs positive even n, got {n}")
        designs.append(CompletelyRandomized(m=n // 2, n=n))
        _check_bayes_budget(n, designs[-1])
    rows = []
    for design in designs:
        eu = bayes_expected_utilities([MAX_LIKELIHOOD_RULE, FRECHET_RULE, MONOTONICITY_RULE],
                                      design.n, design)
        rows.append(RuleComparisonRow(design.n, *eu))
        if progress is not None:
            progress(f"evaluated rules at n={design.n}")
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

    Realizations are decided in the Bayes pass's batches, so the cells that
    relabel into one another share one fill and one scan.  Each row is reported to
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
    for positions, orbits in _batches(xs):
        group = [xs[k] for k in positions]
        owner, flat = _maximizers(Batch(group, orbits), None)  # buffer freed on return
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
    bad = defier_region_counterexamples(heatmap(n, n // 2, force=force))
    return RegionCheckResult(n=n, passed=not bad, counterexamples=tuple(bad))


def defier_region_counterexamples(cells: list[list[HeatmapCell]]) -> list[tuple[int, int]]:
    """Cells where ``defier_region_check``'s claim fails: takeup strictly below half
    in control and above half in intervention, neither zero in control nor full in
    intervention, yet no maximizer with defiers."""
    m, mc = len(cells) - 1, len(cells[0]) - 1
    return [
        (i1, c1)
        for i1 in range(m + 1)
        for c1 in range(mc + 1)
        if 2 * c1 < mc and 2 * i1 > m and c1 != 0 and i1 != m and cells[i1][c1].defier_count == 0
    ]


@dataclass(frozen=True)
class MontyHallResult:
    """Likelihood of each car placement behind the two unchosen doors."""

    car_absent: Fraction  # no car behind either unchosen door
    car_present: Fraction  # car behind the unopened unchosen door

    @property
    def decision(self) -> str:
        return "switch" if self.car_present > self.car_absent else "keep"


def monty_hall_likelihoods() -> MontyHallResult:
    """Likelihoods of the two configurations after the host opens the left door.

    The host must open an unchosen door with no car; a fair randomizer picks
    the host's preferred door, giving two equally likely reveal policies.  Each
    configuration's likelihood is the share of policies that open the left door:
    a host who prefers it always does, and one who prefers the right door does
    only when the car is behind the right door.
    """
    def likelihood(car_right: bool) -> Fraction:
        opens_left = (True, car_right)  # under the policies preferring left and right
        return Fraction(sum(opens_left), len(opens_left))

    return MontyHallResult(car_absent=likelihood(False), car_present=likelihood(True))
