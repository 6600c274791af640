"""Grid-search maximum likelihood, posterior under a uniform prior, credible sets.

The scan works on the float64 likelihood's support box
(``assignment_count_grid``) and converts only what it returns to canonical
flat indices; any maximizer or boundary candidates that the float values
cannot separate are re-checked with exact integer assignment counts.

``posterior(x, design, level)`` returns a ``PosteriorTable`` that holds only
the top of the sorted posterior: every entry with mass at or above the mass
where the cumulative sum crosses ``level``, in descending likelihood and then
canonical order.  ``smallest_credible_set(post, level)`` reads it at that
level or any lower one.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Design,
    ExperimentData,
    Theta,
    check_design,
    theta_index,
)
from .likelihood import (
    GRID_TIE_BOUND,
    assignment_count_grid,
    exact_assignment_count,
    log_likelihood,
)

# The posterior normaliser sums the whole grid, zeros included, up to this
# sample size and the positive entries above it.  The two pairwise-sum orders
# can differ in the last bit; keeping both keeps reported masses bit-identical.
FULL_TABLE_MAX_N = 300

# Exact tie confirmation is attempted on at most this many candidates; beyond
# it, bit-equal float grouping is used and results are flagged unverified,
# unless the maxima lie below EXACT_FLOAT_LIMIT.
EXACT_TIE_CAP = 10_000

# A box value below this is an exact count, and so is every product and partial
# sum that formed it: each factor of a term is at least 1, so each factor and
# partial product is at most the term, which is at most its cell.  Bit-equal
# maxima below it are therefore the exact maximizers, with no exact recount.
EXACT_FLOAT_LIMIT = 2.0**53


@functools.lru_cache(maxsize=1)
def _cached_grid(x: ExperimentData) -> np.ndarray:
    grid = assignment_count_grid(x)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class MleResult:
    """All likelihood maximizers for one data realization, in canonical order."""

    maximizers: tuple[Theta, ...]
    log_likelihood: float
    tie_verified_exact: bool

    @property
    def estimate(self) -> Theta:
        """First maximizer in canonical order (the unique MLE when no tie)."""
        return self.maximizers[0]


def _exact_counts(
    at: np.ndarray, co: np.ndarray, de: np.ndarray, x: ExperimentData
) -> list[int]:
    """Exact assignment counts of the vectors at box coordinates (at, co, de)."""
    return [
        exact_assignment_count(Theta(a, c, d, x.n - a - c - d), x)
        for a, c, d in zip(at.tolist(), co.tolist(), de.tolist())
    ]


def _argmax_ties(
    box: np.ndarray, x: ExperimentData, monotone: bool | None = None
) -> tuple[np.ndarray, bool]:
    """Flat indices of all exact maximizers, ascending (= canonical order).

    ``monotone`` restricts the search to vectors with no defiers or no
    compliers, the box planes ``box[:, :, 0]`` and ``box[:, 0, :]``; it is
    passed positionally, None when unrestricted, as perfbench's tracer reads it.
    """
    parts = (box[:, :, :1], box[:, :1, :]) if monotone else (box,)
    top = float(max(part.max() for part in parts))
    if top <= 0.0:
        raise AssertionError("likelihood is zero everywhere; data inconsistent")
    # every exact maximizer lies within the fill's rounding-error bound of top
    cutoff = top * (1.0 - GRID_TIE_BOUND)
    near = [np.flatnonzero(p >= cutoff) for p in parts]
    if sum(hits.size for hits in near) == 1:  # the monotone corner (at,0,0) is in both planes
        part, (hit,) = next((p, hits) for p, hits in zip(parts, near) if hits.size)
        at, rest = divmod(int(hit), part.shape[1] * part.shape[2])
        return theta_index(x.n).flatten(at, *divmod(rest, part.shape[2]))[None], True
    near = [np.unravel_index(hits, p.shape) for p, hits in zip(parts, near)]
    at, co, de = (np.concatenate(axis) for axis in zip(*near))
    flat, first = np.unique(theta_index(x.n).flatten(at, co, de), return_index=True)
    if flat.size == 1:
        return flat, True
    if top < EXACT_FLOAT_LIMIT or flat.size > EXACT_TIE_CAP:
        # Below the limit the bit-equal maxima are the exact ones; above the
        # cap there are too many suspects to confirm, so they stay unverified.
        return flat[box[at, co, de][first] == top], top < EXACT_FLOAT_LIMIT
    counts = _exact_counts(at[first], co[first], de[first], x)
    best = max(counts)
    return flat[np.asarray([c == best for c in counts])], True


def _thetas_from_flat(n: int, flat: np.ndarray) -> tuple[Theta, ...]:
    index = theta_index(n)
    at, co, de, nt = index.components(flat)
    return tuple(
        Theta(int(a), int(c), int(d), int(t)) for a, c, d, t in zip(at, co, de, nt)
    )


def _mle_over(x: ExperimentData, design: Design, monotone: bool | None) -> MleResult:
    check_design(x, design)
    flat, verified = _argmax_ties(_cached_grid(x), x, monotone)
    maximizers = _thetas_from_flat(x.n, flat)
    return MleResult(
        maximizers=maximizers,
        log_likelihood=log_likelihood(maximizers[0], x, design),
        tie_verified_exact=verified,
    )


def mle(x: ExperimentData, design: Design) -> MleResult:
    """Exhaustive grid-search maximum likelihood estimate, with all ties."""
    return _mle_over(x, design, None)


def monotonicity_mle(x: ExperimentData, design: Design) -> MleResult:
    """Maximum likelihood restricted to no-defier and/or no-complier vectors."""
    return _mle_over(x, design, True)


@dataclass(frozen=True, eq=False)
class PosteriorTable:
    """Top block of the posterior under a uniform prior, sorted.

    Holds every entry whose mass is at or above the mass at which the
    cumulative sum crosses ``level`` (every positive entry when it never
    does), as flat component arrays ordered by descending likelihood and then
    canonical order: a prefix of the full sorted posterior.
    """

    x: ExperimentData
    level: float
    at: np.ndarray
    co: np.ndarray
    de: np.ndarray
    mass: np.ndarray

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def entry_count(self) -> int:
        return int(self.mass.size)


def posterior(x: ExperimentData, design: Design, level: float) -> PosteriorTable:
    """Posterior masses proportional to the likelihood, down to the level's boundary.

    The top entries are found by partition, growing the block fourfold until
    its mass reaches the level; only the block is sorted.
    """
    check_design(x, design)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    box = _cached_grid(x)
    index = theta_index(x.n)
    # Reversed on every axis, the box lists its positive entries in canonical
    # order, the order the normaliser is summed in.
    values = np.flip(box)[np.flip(box) > 0]
    total = (  # up to FULL_TABLE_MAX_N, the canonical grid's sum, zeros included
        np.bincount(index.flatten(*np.nonzero(box)), box[box > 0], index.size).sum()
        if x.n <= FULL_TABLE_MAX_N
        else values.sum()
    )
    assert total > 0.0, "saturated theta always has positive likelihood"
    # No fewer than level / (top mass) entries can reach the level.
    size = math.ceil(level / (values.max() / total))
    while True:
        size = min(size, values.size)
        values.partition(values.size - size)  # values is a copy; reorder it
        top = np.sort(values[values.size - size:])[::-1] / total
        cum = np.cumsum(top)
        if cum[-1] >= level or size == values.size:
            break
        size *= 4
    v = top[min(int(np.searchsorted(cum, level, side="left")), size - 1)]
    # The smallest value of mass v or more.  Values outside the block are at most
    # its minimum, so none reaches mass v unless that minimum's mass equals v.
    pool = values[values.size - size:] if top[-1] < v else values
    w = pool[pool / total >= v].min()
    coords = np.unravel_index(np.flatnonzero(box >= w), box.shape)
    block = box[coords]
    order = np.lexsort((index.flatten(*coords), -block))
    at, co, de = (axis[order].astype(np.uint32) for axis in coords)
    return PosteriorTable(x, level, at, co, de, block[order] / total)


@dataclass(frozen=True)
class CredibleSummary:
    """Smallest credible set at a level, summarized by per-type count ranges.

    The four ranges are taken over members of one joint set, so they are
    dependent: combining the four extremes need not give a member.
    """

    level: float
    member_count: int
    achieved_mass: float
    at_range: tuple[int, int]
    co_range: tuple[int, int]
    de_range: tuple[int, int]
    nt_range: tuple[int, int]
    boundary_verified_exact: bool


def _boundary_members(
    post: PosteriorTable, run: np.ndarray, level: float, pre_mass: float
) -> tuple[np.ndarray, bool]:
    """Entries of the boundary float-tie run that belong in the credible set.

    Float masses that compare equal can hide exactly distinct counts, so the
    run is re-ordered by exact count (descending, canonical within blocks) and
    whole equal-count blocks are admitted until the level is reached.  A run
    longer than ``EXACT_TIE_CAP`` is taken whole, unconfirmed.
    """
    if run.size > EXACT_TIE_CAP:
        return run, False
    counts = _exact_counts(post.at[run], post.co[run], post.de[run], post.x)
    # the run is in canonical order, so a stable sort keeps it within blocks
    order = sorted(range(run.size), key=lambda i: -counts[i])
    v = float(post.mass[run[0]])
    taken: list[int] = []
    for _, block in itertools.groupby(order, key=counts.__getitem__):
        if pre_mass >= level:
            break
        block = list(block)
        taken += block
        pre_mass += v * len(block)
    return run[taken], True


def smallest_credible_set(post: PosteriorTable, level: float) -> CredibleSummary:
    """Fewest-member set with posterior mass at or above the level.

    Entries are accumulated from the highest mass down; where several entries
    share one mass, the whole tie block enters together.
    """
    if not 0.0 < level <= post.level:
        raise ValueError(f"level must be in (0,{post.level}], the table's level; got {level}")
    mass = post.mass
    cum = np.cumsum(mass)
    k = min(int(np.searchsorted(cum, level, side="left")), mass.size - 1)
    v = mass[k]
    run = np.flatnonzero(mass == v)  # the bit-equal float run holding the crossing
    run_start = int(run[0])
    pre_mass = float(cum[run_start - 1]) if run_start > 0 else 0.0
    if run.size == 1:
        boundary, verified = run, True
    else:
        boundary, verified = _boundary_members(post, run, level, pre_mass)
    idx = np.concatenate((np.arange(run_start), boundary))
    achieved = pre_mass + float(v) * boundary.size
    at = post.at[idx]
    co = post.co[idx]
    de = post.de[idx]
    nt = post.n - at.astype(np.int64) - co.astype(np.int64) - de.astype(np.int64)
    return CredibleSummary(
        level=level,
        member_count=int(idx.size),
        achieved_mass=achieved,
        at_range=(int(at.min()), int(at.max())),
        co_range=(int(co.min()), int(co.max())),
        de_range=(int(de.min()), int(de.max())),
        nt_range=(int(nt.min()), int(nt.max())),
        boundary_verified_exact=verified,
    )
