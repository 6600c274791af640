"""Grid-search maximum likelihood, posterior under a uniform prior, credible sets.

The scan works on the float64 likelihood grid; any maximizer or boundary
candidates that the float values cannot separate are re-checked with exact
integer assignment counts before ties are reported.

``posterior(x, design, level)`` returns a ``PosteriorTable`` that holds only
the top of the sorted posterior: every entry with mass at or above the mass
where the cumulative sum crosses ``level``, in descending likelihood and then
canonical order.  ``smallest_credible_set(post, level)`` reads it at that
level or any lower one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Design,
    ExperimentData,
    Theta,
    ThetaIndex,
    check_design,
    theta_index,
)
from .combinatorics import log_tie_cutoff
from .likelihood import (
    assignment_count_grid,
    exact_assignment_count,
    log_likelihood,
)

# The posterior normaliser sums the whole grid, zeros included, up to this
# sample size and the positive entries above it.  The two pairwise-sum orders
# can differ in the last bit; keeping both keeps reported masses bit-identical.
FULL_TABLE_MAX_N = 300

# Exact tie confirmation is attempted on at most this many candidates; beyond
# it, bit-equal float grouping is used and results are flagged unverified.
EXACT_TIE_CAP = 10_000


@functools.lru_cache(maxsize=2)
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


def _exact_counts(index: ThetaIndex, flat: np.ndarray, x: ExperimentData) -> list[int]:
    return [exact_assignment_count(t, x) for t in _thetas_from_flat(index.n, flat)]


def _argmax_ties(
    grid: np.ndarray, x: ExperimentData, candidate_flat: np.ndarray | None = None
) -> tuple[np.ndarray, bool]:
    """Flat indices of all exact maximizers, ascending (= canonical order).

    ``candidate_flat`` restricts the search to a subset of the grid.
    """
    index = theta_index(x.n)
    values = grid if candidate_flat is None else grid[candidate_flat]
    top = float(values.max())
    if top <= 0.0:
        raise AssertionError("likelihood is zero everywhere; data inconsistent")
    cutoff = math.exp(log_tie_cutoff(math.log(top)))
    near = np.nonzero(values >= cutoff)[0]
    flat = near if candidate_flat is None else candidate_flat[near]
    if flat.size == 1:
        return flat, True
    if flat.size > EXACT_TIE_CAP:
        # Too many suspects for exact confirmation: keep bit-equal maxima.
        return np.sort(flat[grid[flat] == top]), False
    counts = _exact_counts(index, flat, x)
    best = max(counts)
    ties = flat[np.asarray([c == best for c in counts])]
    return np.sort(ties), True


def _thetas_from_flat(n: int, flat: np.ndarray) -> tuple[Theta, ...]:
    index = theta_index(n)
    at, co, de, nt = index.components(flat)
    return tuple(
        Theta(int(a), int(c), int(d), int(t)) for a, c, d, t in zip(at, co, de, nt)
    )


def _mle_over(
    x: ExperimentData, design: Design, candidate_flat: np.ndarray | None
) -> MleResult:
    """All maximizers among ``candidate_flat`` (None: the whole grid)."""
    check_design(x, design)
    flat, verified = _argmax_ties(_cached_grid(x), x, candidate_flat)
    maximizers = _thetas_from_flat(x.n, flat)
    return MleResult(
        maximizers=maximizers,
        log_likelihood=log_likelihood(maximizers[0], x, design),
        tie_verified_exact=verified,
    )


def mle(x: ExperimentData, design: Design) -> MleResult:
    """Exhaustive grid-search maximum likelihood estimate, with all ties."""
    return _mle_over(x, design, None)


@functools.lru_cache(maxsize=8)
def _monotone_flat_indices(n: int) -> np.ndarray:
    """Flat indices of all thetas with no defiers or no compliers."""
    index = theta_index(n)
    chunks = []
    for at in range(n + 1):
        co = np.arange(n - at + 1, dtype=np.int64)
        chunks.append(index.flatten(np.full_like(co, at), co, np.zeros_like(co)))
        de = np.arange(1, n - at + 1, dtype=np.int64)
        chunks.append(index.flatten(np.full_like(de, at), np.zeros_like(de), de))
    out = np.unique(np.concatenate(chunks))
    out.setflags(write=False)
    return out


def monotonicity_mle(x: ExperimentData, design: Design) -> MleResult:
    """Maximum likelihood restricted to no-defier and/or no-complier vectors."""
    return _mle_over(x, design, _monotone_flat_indices(x.n))


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
    its mass reaches the level; only the block is sorted and decoded.
    """
    check_design(x, design)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    grid = _cached_grid(x)
    values = grid[grid > 0]
    total = grid.sum() if x.n <= FULL_TABLE_MAX_N else values.sum()
    assert total > 0.0, "saturated theta always has positive likelihood"
    # No fewer than level / (top mass) entries can reach the level.
    size = math.ceil(level / (values.max() / total))
    while True:
        size = min(size, values.size)
        kept = np.argpartition(values, values.size - size)[values.size - size:]
        top = np.sort(values[kept])[::-1] / total
        cum = np.cumsum(top)
        if cum[-1] >= level or size == values.size:
            break
        size *= 4
    v = top[min(int(np.searchsorted(cum, level, side="left")), size - 1)]
    # Gather every entry of mass v or more from the whole grid, so that a
    # float-tie run the partition cut stays whole.
    flat = np.flatnonzero(grid >= values[values / total >= v].min())
    order = np.lexsort((flat, -grid[flat]))
    flat = flat[order]
    at, co, de, _ = theta_index(x.n).components(flat)
    return PosteriorTable(
        x,
        level,
        at.astype(np.uint32),
        co.astype(np.uint32),
        de.astype(np.uint32),
        grid[flat] / total,
    )


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


def _boundary_members(
    post: PosteriorTable, run_start: int, run_end: int, k: int, level: float, pre_mass: float
) -> np.ndarray:
    """Entries of the boundary float-tie run that belong in the credible set.

    Float masses that compare equal can hide exactly distinct counts, so the
    run is re-ordered by exact count (descending, canonical within blocks) and
    whole equal-count blocks are admitted until the level is reached.
    """
    run = np.arange(run_start, run_end + 1)
    if run.size > EXACT_TIE_CAP:
        return run  # accept the whole float block; conservative and deterministic
    index = theta_index(post.n)
    flat = index.flatten(
        post.at[run].astype(np.int64),
        post.co[run].astype(np.int64),
        post.de[run].astype(np.int64),
    )
    counts = _exact_counts(index, flat, post.x)
    order = sorted(range(run.size), key=lambda i: (-counts[i], flat[i]))
    v = float(post.mass[k])
    taken: list[int] = []
    acc = pre_mass
    pos = 0
    while pos < run.size and acc < level:
        block = [order[pos]]
        pos += 1
        while pos < run.size and counts[order[pos]] == counts[block[0]]:
            block.append(order[pos])
            pos += 1
        taken.extend(block)
        acc += v * len(block)
    return run[np.asarray(taken, dtype=np.int64)]


def smallest_credible_set(post: PosteriorTable, level: float) -> CredibleSummary:
    """Fewest-member set with posterior mass at or above the level.

    Entries are accumulated from the highest mass down; where several entries
    share one mass, the whole tie block enters together.
    """
    if not 0.0 < level <= post.level:
        raise ValueError(f"level must be in (0,{post.level}], the table's level; got {level}")
    mass = post.mass
    cum = np.cumsum(mass)
    k = int(np.searchsorted(cum, level, side="left"))
    if k >= mass.size:
        k = mass.size - 1
    v = mass[k]
    # Bit-equal float run containing the crossing entry.
    run_start = int(np.searchsorted(-mass, -v, side="left"))
    run_end = int(np.searchsorted(-mass, -v, side="right")) - 1
    pre_mass = float(cum[run_start - 1]) if run_start > 0 else 0.0
    if run_start == run_end:
        boundary = np.arange(run_start, k + 1)
    else:
        boundary = _boundary_members(post, run_start, run_end, k, level, pre_mass)
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
    )
