"""Grid-search maximum likelihood, posterior under a uniform prior, credible sets.

The scan works on the float64 likelihood's support box
(``assignment_count_grid``) and converts only what it returns to canonical
flat indices.  Maximizer suspects and the credible boundary's tie run are
ordered by exact counts from ``_exact_counts``: the box values themselves
where they are exact, integer recounts otherwise.  One routine,
``_argmax_ties``, finds the maximizers of any number of boxes at once: one for
``mle`` and ``monotonicity_mle``, a batch for the heatmap and the Bayes rules.

``posterior(x, level)`` returns a ``PosteriorTable`` that holds only the top
of the sorted posterior: every entry with mass at or above the mass where the
cumulative sum crosses ``level``, in descending likelihood and then canonical
order.  Its masses do not depend on the design.  ``smallest_credible_set(post)``
reads it at the table's own level.  Where the box is exact (see
``EXACT_FLOAT_LIMIT``) both decide the crossing in integers, reading the level
as the decimal it prints as: ``Fraction(repr(0.95))`` is 19/20 (``_crossing``).
``posterior`` reads the box in bounded chunks and never copies every value:
see ``_normaliser`` and ``posterior``.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    Design,
    ExperimentData,
    Theta,
    ThetaIndex,
    check_design,
    theta_index,
)
from .combinatorics import choose_table
from .likelihood import (
    GRID_TIE_BOUND,
    assignment_count_grid,
    exact_assignment_count,
    log_likelihood,
)

# The posterior normaliser sums the whole grid, zeros included, up to this
# sample size and the positive entries above it.  The two pairwise-sum orders
# can differ in the last bit; keeping both keeps reported masses bit-identical.
# Either order is read in _CHUNK runs, so the posterior's scratch beside the box
# is a few runs and its table: 2.4 MB at n=612, 1.7 MB at n=300 (tracemalloc).
FULL_TABLE_MAX_N = 300

# Values read at once from the box or the normaliser's order (posterior, MLE scan).
_CHUNK = 1 << 16  # 512 KB of float64

# Where box values are not exact (see the next constant), at most this many
# cells are recounted in integers; more stay unconfirmed, grouped by bit-equal
# float values.
EXACT_TIE_CAP = 10_000

# A box value below this is an exact count, and so is every product and partial
# sum that formed it: each factor of a term is at least 1, so each factor and
# partial product is at most the term, which is at most its cell.  Values below
# it are their own exact counts: no recount runs and no cap applies.
EXACT_FLOAT_LIMIT = 2.0**53


@functools.lru_cache(maxsize=1)
def _cached_grid(x: ExperimentData) -> np.ndarray:
    grid = assignment_count_grid(x)
    grid.setflags(write=False)
    choose_table.cache_clear()  # an analysis reads only the box; the table is 3 MB at n=612
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


def _exact_counts(values: np.ndarray, cells: tuple, x: ExperimentData) -> np.ndarray | None:
    """Exact assignment counts of the cells at box coordinates ``cells`` = (at, co, de).

    Their box ``values`` serve when there is one cell or all are exact; otherwise
    the cells are recounted in integers, or None says there are too many to confirm.
    """
    if values.size == 1 or values.max() < EXACT_FLOAT_LIMIT:
        return values
    if values.size > EXACT_TIE_CAP:
        return None
    rows = zip(*(axis.tolist() for axis in cells))
    counts = [exact_assignment_count(Theta(a, c, d, x.n - a - c - d), x) for a, c, d in rows]
    return np.array(counts, dtype=object)


def _at_least(flat: np.ndarray, cut: float) -> np.ndarray:
    """Positions of the values of ``flat`` at or above ``cut``, read in ``_CHUNK`` slices."""
    if flat.size <= _CHUNK:  # every box of n <= 60: one scan, no concatenate
        return (flat >= cut).nonzero()[0]
    starts = range(0, flat.size, _CHUNK)
    return np.concatenate([np.flatnonzero(flat[s : s + _CHUNK] >= cut) + s for s in starts])


def _argmax_ties(
    boxes: Sequence[np.ndarray], xs: Sequence[ExperimentData], monotone: bool | None = None
) -> tuple[np.ndarray, bool, np.ndarray]:
    """Every box's exact maximizers, as (flat, verified, owner).

    ``boxes[k]`` is the support box of ``xs[k]``, all of one n.  ``flat`` holds
    canonical flat indices, ascending within each owner; ``owner`` the position
    k of each one's box.  Suspects lie within ``GRID_TIE_BOUND`` of the box's
    top: below ``EXACT_FLOAT_LIMIT`` its bit-equal maxima are the exact ones,
    above it ``_exact_counts`` confirms them.  ``verified`` is false when some
    box had too many suspects to confirm and keeps its bit-equal maxima.
    ``monotone`` restricts the search to vectors with no defiers or no
    compliers; it is passed positionally, None when unrestricted, as
    perfbench's tracer reads it.
    """
    tops, hits, values = [], [], []  # hits: suspects as cells of the box's own C order
    for box in boxes:
        _, co_n, de_n = box.shape
        raveled = box.reshape(-1)
        if monotone:  # planes de = 0 and co = 0, holding the corner (at, 0, 0) once
            no_de, no_co = raveled[::de_n], box[:, 0, 1:]
            tops.append(max(no_de.max(), no_co.max(initial=0.0)))
            cut = tops[-1] * (1.0 - GRID_TIE_BOUND)
            (at, de), (plane,) = (no_co >= cut).nonzero(), (no_de >= cut).nonzero()
            hits.append(np.concatenate((plane * de_n, at * co_n * de_n + de + 1)))
        else:
            tops.append(raveled.max())
            hits.append(_at_least(raveled, tops[-1] * (1.0 - GRID_TIE_BOUND)))
        values.append(raveled[hits[-1]])
    if min(tops) <= 0.0:
        raise AssertionError("likelihood is zero everywhere; data inconsistent")
    owner = np.repeat(np.arange(len(hits)), [h.size for h in hits])
    local, values, top = np.concatenate(hits), np.concatenate(values), np.array(tops)[owner]
    _, co_n, de_n = np.array([box.shape for box in boxes]).T[:, owner]
    cells = (local // (co_n * de_n), local // de_n % co_n, local % de_n)
    keep, verified = values == top, True
    for k in set(owner[top >= EXACT_FLOAT_LIMIT].tolist()):
        run = owner == k
        counts = _exact_counts(values[run], tuple(c[run] for c in cells), xs[k])
        verified &= counts is not None  # None: too many to confirm, the bit-equal maxima stay
        if counts is not None:
            keep[run] = counts == counts.max()
    index = theta_index(xs[0].n)
    key = np.sort(owner[keep] * index.size + index.flatten(*(c[keep] for c in cells)))
    owner, flat = np.divmod(key, index.size)
    return flat, verified, owner


def _thetas_from_flat(n: int, flat: np.ndarray) -> tuple[Theta, ...]:
    index = theta_index(n)
    at, co, de, nt = index.components(flat)
    return tuple(
        Theta(int(a), int(c), int(d), int(t)) for a, c, d, t in zip(at, co, de, nt)
    )


def _mle_over(x: ExperimentData, design: Design, monotone: bool | None) -> MleResult:
    check_design(x, design)
    flat, verified, _ = _argmax_ties([_cached_grid(x)], [x], monotone)
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
    value: np.ndarray  # the entries' box values; mass is value / normaliser
    exact_total: int | None  # the box's integer sum where its values are exact, else None

    @property
    def entry_count(self) -> int:
        return int(self.mass.size)


def _tree_sum(take: Callable[[int], np.ndarray], size: int) -> float:
    """``.sum()`` of ``size`` values that ``take(k)`` reads in order, bit for bit.

    numpy sums a contiguous float64 array in a fixed pairwise tree that splits
    n > 128 values at n//2 - (n//2) % 8; runs of at most ``_CHUNK`` are read whole.
    """
    if size <= max(_CHUNK, 128):
        return float(take(size).sum())
    half = size // 2 - (size // 2) % 8
    return _tree_sum(take, half) + _tree_sum(take, size - half)


def _normaliser(box: np.ndarray, index: ThetaIndex) -> float:
    """The likelihood's sum in canonical order, bit for bit as ``.sum()`` gives it.

    Only positive cells count above FULL_TABLE_MAX_N, every position up to it.
    The box's planes, last first, hold consecutive runs of that order: a
    reversed plane lists its cells canonically, and up to the limit each is
    scattered into its at-block of zeros, after the at-blocks above the box.
    """
    n, full = index.n, index.n <= FULL_TABLE_MAX_N
    co, de = np.ogrid[: box.shape[1], : box.shape[2]]

    def run(at: int) -> np.ndarray:
        plane = box[at]
        if not full:
            return plane[plane > 0][::-1]
        block, inside = np.zeros(math.comb(n - at + 2, 2)), co + de <= n - at
        block[index.flatten(at, co, de)[inside] - index.flatten(at, n - at, 0)] = plane[inside]
        return block

    head = index.flatten(len(box) - 1, n + 1 - len(box), 0) if full else 0
    runs = itertools.chain([np.broadcast_to(0.0, head)], map(run, range(len(box) - 1, -1, -1)))
    buf, rest = np.empty(max(_CHUNK, 128)), np.empty(0)

    def take(k: int) -> np.ndarray:
        nonlocal rest
        got = 0
        while got < k:
            rest = rest if rest.size else next(runs)
            step = min(k - got, rest.size)
            buf[got : got + step], rest, got = rest[:step], rest[step:], got + step
        return buf[:k]

    return _tree_sum(take, index.size if full else np.count_nonzero(box))


def _int_halves(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer values below 2**53 as int64 high and low 26-bit halves,
    which sum or accumulate without overflow over up to 2**36 values."""
    ints = values.astype(np.int64)
    return ints >> 26, ints & ((1 << 26) - 1)


def _crossing(
    values: np.ndarray, masses: np.ndarray, level: float, exact_total: int | None
) -> int:
    """First position at which the cumulative mass of these entries reaches ``level``.

    ``values.size`` when it never does.  With the box's exact integer sum, the
    test is ``cum * den >= num * total`` on the integer cumulative values, the
    level read as num/den = ``Fraction(repr(float(level)))``; otherwise the float
    cumulative sum of ``masses`` is searched for ``level``.
    """
    if exact_total is None:
        return int(np.searchsorted(np.cumsum(masses), level, side="left"))
    goal, (high, low) = Fraction(repr(float(level))), map(np.cumsum, _int_halves(values))
    num, den = goal.numerator * exact_total, goal.denominator
    reached = lambda i: ((int(high[i]) << 26) + int(low[i])) * den >= num
    return bisect.bisect_left(range(values.size), True, key=reached)


def posterior(x: ExperimentData, level: float) -> PosteriorTable:
    """Posterior masses proportional to the likelihood, down to the level's boundary.

    Partition keeps the 4k largest values, k the fewest that can reach the level;
    the top k are sorted first, the rest only if those fall short, and the kept
    block grows fourfold until its mass reaches the level.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    box = _cached_grid(x)
    index, flat = theta_index(x.n), box.reshape(-1)
    starts = range(0, flat.size, _CHUNK)
    total = _normaliser(box, index)
    assert total > 0.0, "saturated theta always has positive likelihood"
    exact_total, peak = None, box.max()
    if peak < EXACT_FLOAT_LIMIT:  # every value is its exact count
        halves = (_int_halves(flat[s : s + _CHUNK]) for s in starts)
        exact_total = sum((int(high.sum()) << 26) + int(low.sum()) for high, low in halves)
    size = math.ceil(level / (peak / total))  # no fewer entries reach the level
    while True:  # kept[kept.size - held:] holds the size largest positive values, or more
        size, held, floor, kept = 4 * size, 0, 0.0, np.empty(4 * size + _CHUNK)  # 4x the first block
        for part in (flat[s : s + _CHUNK] for s in starts):
            picked = part[part > floor]
            if held + picked.size > kept.size:  # keep only the size largest; floor: their minimum
                kept[kept.size - held :].partition(held - size)
                held, floor = size, kept[kept.size - size]
            kept[kept.size - held - picked.size : kept.size - held] = picked
            held += picked.size
        kept = kept[kept.size - held :]
        kept.partition([max(held - size, 0), max(held - size // 4, 0)])
        for block in (size // 4, size):  # the whole kept block only if its top quarter falls short
            kept[-block:].sort()
            top = kept[-block:][::-1]
            crossing = _crossing(top, top / total, level, exact_total)
            if crossing < top.size:
                break
        if crossing < top.size or held < size:  # fewer held: every positive value
            break
    v = top[min(crossing, top.size - 1)] / total
    del kept, top
    # Every entry of mass v or more, kept or not (a value just below the block
    # may round to mass v), has a value of at least v * total / (1 + u),
    # u = 2**-53; the cut, 8u below v * total, stays below that after its own
    # two roundings.  Canonical order is box C order reversed, so ties keep it
    # through a stable ascending sort, reversed.
    near = _at_least(flat, v * total * (1.0 - 2.0**-50))
    near = near[flat[near] / total >= v]
    near = near[np.argsort(flat[near], kind="stable")[::-1]].astype(np.uint32)  # < 2**32 cells
    value = flat[near]
    at, near = np.divmod(near, box.shape[1] * box.shape[2])
    co, de = np.divmod(near, box.shape[2])
    return PosteriorTable(x, level, at, co, de, value / total, value, exact_total)


@dataclass(frozen=True)
class CredibleSummary:
    """Smallest credible set at a level, summarized by per-type count ranges.

    The four ranges are taken over members of one joint set, so they are
    dependent: combining the four extremes need not give a member.

    Below ``EXACT_FLOAT_LIMIT`` membership is decided in integers, with the
    level read as the decimal it prints as (above it, ``boundary_verified_exact``
    says whether the boundary was confirmed).  ``achieved_mass`` is the float
    sum of the members' masses, so it can read an ulp below the level that they
    reach exactly: 0.9499999999999997 for (14, 1, 2, 0) with m = 15, whose 49
    members hold exactly 19/20.
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
    whose counts cannot be confirmed is taken whole, unverified.
    """
    counts = _exact_counts(post.value[run], (post.at[run], post.co[run], post.de[run]), post.x)
    if counts is None:
        return run, False
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


def smallest_credible_set(post: PosteriorTable) -> CredibleSummary:
    """Fewest-member set with posterior mass at or above the table's level.

    Entries are accumulated from the highest mass down; where several entries
    share one mass, the whole tie block enters together.
    """
    level, mass = post.level, post.mass
    crossing = min(_crossing(post.value, mass, level, post.exact_total), mass.size - 1)
    run = np.flatnonzero(mass == mass[crossing])  # the bit-equal float run holding it
    run_start = int(run[0])
    pre_mass = float(np.cumsum(mass[:run_start])[-1]) if run_start > 0 else 0.0
    if post.exact_total is None:
        boundary, verified = _boundary_members(post, run, level, pre_mass)
    else:  # the values are the counts: the set ends with the crossing's count
        boundary, verified = run[post.value[run] >= post.value[crossing]], True
    def extent(axis: np.ndarray) -> tuple[int, int]:  # over the entries before the run, its boundary
        members = np.concatenate((axis[:run_start], axis[boundary]))
        return int(members.min()), int(members.max())
    low, high = extent(post.at + post.co + post.de)  # n - nt
    return CredibleSummary(
        level=level,
        member_count=run_start + boundary.size,
        achieved_mass=pre_mass + float(mass[crossing]) * boundary.size,
        at_range=extent(post.at),
        co_range=extent(post.co),
        de_range=extent(post.de),
        nt_range=(post.x.n - high, post.x.n - low),
        boundary_verified_exact=verified,
    )
