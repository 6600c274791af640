"""Grid-search maximum likelihood, posterior under a uniform prior, credible sets.

The scan works on the float64 likelihood's support box
(``assignment_count_grid``) and converts only what it returns to canonical
flat indices.  Maximizer suspects and the credible boundary's tie run are
ordered by exact counts from ``_exact_counts``: the box values themselves
where they are exact, integer recounts otherwise.  One routine,
``_argmax_ties``, finds the maximizers of any number of boxes at once: one for
``mle`` and ``monotonicity_mle``, a batch for the heatmap and the Bayes rules.

``mle``, ``monotonicity_mle`` and ``posterior`` never hold a data set's box.
They read ``_scan(x)``: one pass over the box in windows of at-planes, last
first, each filled into one reused buffer of ``_WINDOW_CELLS`` cells, which
keeps the box's top and maximizer suspects, its planes de = 0 and co = 0, its
normaliser and exact total and its largest values (``_Kept``).

``posterior(x, level)`` returns a ``PosteriorTable`` that holds only the top
of the sorted posterior: every entry with mass at or above the mass where the
cumulative sum crosses ``level``, in descending likelihood and then canonical
order.  Its masses do not depend on the design.  ``smallest_credible_set(post)``
reads it at the table's own level.  Where the box is exact (see
``EXACT_FLOAT_LIMIT``) both decide the crossing in integers, reading the level
as the decimal it prints as: ``Fraction(repr(0.95))`` is 19/20 (``_crossing``).
"""
from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    Design,
    ExperimentData,
    Theta,
    ThetaIndex,
    check_design,
    theta_index,
)
from .likelihood import (
    GRID_TIE_BOUND,
    assignment_count_grid,
    box_shape,
    exact_assignment_count,
    log_likelihood,
)

# The posterior normaliser sums the whole grid, zeros included, up to this
# sample size and the positive entries above it.  The two pairwise-sum orders
# can differ in the last bit; keeping both keeps reported masses bit-identical.
FULL_TABLE_MAX_N = 300

# Values read at once from a box or window, or from the normaliser's order.
_CHUNK = 1 << 16  # 512 KB of float64

# Cells of the window of at-planes ``_scan`` fills at a time, whole planes at
# least (4 MB; five planes of the n=612 smoking box, two of 251,001 cells at the
# guard).  Larger windows filled the smoking box slower (2-vCPU VM, in process:
# 0.18, 0.20 and 0.28 s of wall time in windows of 5, 11 and 22 planes).
# Beside it the scan holds the binomial table (3 MB at n=612) and ``_Kept``.
_WINDOW_CELLS = 1 << 19

# Values the posterior keeps from the scan, with their box positions (``_Kept``):
# 71,111 of them make the smoking table's posterior.
_KEPT_CELLS = 1 << 17

# Where box values are not exact (see the next constant), at most this many
# cells are recounted in integers; more stay unconfirmed, grouped by bit-equal
# float values.
EXACT_TIE_CAP = 10_000

# A box value below this is an exact count, and so is every product and partial
# sum that formed it: each factor of a term is at least 1, so each factor and
# partial product is at most the term, which is at most its cell.  Values below
# it are their own exact counts: no recount runs and no cap applies.
EXACT_FLOAT_LIMIT = 2.0**53


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


def _plane_suspects(
    no_de: np.ndarray, no_co: np.ndarray, shape: tuple[int, int, int]
) -> tuple[float, np.ndarray]:
    """(top, hits) of ``_suspects`` for the monotone maximum, from a box's plane de = 0
    (``no_de``, flat by (at, co)) and plane co = 0 without its corner (``no_co``, by
    (at, de > 0))."""
    _, co_n, de_n = shape
    top = max(no_de.max(), no_co.max(initial=0.0))
    cut = top * (1.0 - GRID_TIE_BOUND)
    (at, de), (plane,) = (no_co >= cut).nonzero(), (no_de >= cut).nonzero()
    return top, np.concatenate((plane * de_n, at * co_n * de_n + de + 1))


def _suspects(box, monotone: bool | None) -> tuple[float, np.ndarray, np.ndarray]:
    """(top, hits, values) of a support box or a ``_Scan`` of one: its largest value (in
    the planes de = 0 and co = 0 if ``monotone``) and its cells within ``GRID_TIE_BOUND``
    of it, as positions in the box's C order and their values."""
    if isinstance(box, _Scan):
        return box.suspects(monotone)
    raveled = box.reshape(-1)
    if monotone:
        top, hits = _plane_suspects(raveled[:: box.shape[2]], box[:, 0, 1:], box.shape)
    else:
        top = raveled.max()
        hits = _at_least(raveled, top * (1.0 - GRID_TIE_BOUND))
    return top, hits, raveled[hits]


def _argmax_ties(
    boxes: Sequence, xs: Sequence[ExperimentData], monotone: bool | None = None
) -> tuple[np.ndarray, bool, np.ndarray]:
    """Every box's exact maximizers, as (flat, verified, owner).

    ``boxes[k]`` is the support box of ``xs[k]``, all of one n, or a ``_Scan`` of
    it.  ``flat`` holds canonical flat indices, ascending within each owner;
    ``owner`` the position k of each one's box.  Suspects lie within
    ``GRID_TIE_BOUND`` of the box's top (``_suspects``): below
    ``EXACT_FLOAT_LIMIT`` its bit-equal maxima are the exact ones, above it
    ``_exact_counts`` confirms them.  ``verified`` is false when some box had too
    many suspects to confirm and keeps its bit-equal maxima.  ``monotone``
    restricts the search to vectors with no defiers or no compliers; it is passed
    positionally, None when unrestricted, as perfbench's tracer reads it.
    """
    tops, hits, values = [], [], []
    for box in boxes:
        top, hit, value = _suspects(box, monotone)
        tops.append(top)
        hits.append(hit)
        values.append(value)
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


def _windows(x: ExperimentData) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, window) over x's support box, last first: each window its box rows
    lo <= at < lo + len(window), filled in turn into one buffer of ``_WINDOW_CELLS``."""
    at_n, co_n, de_n = box_shape(*x.counts())
    planes = max(1, _WINDOW_CELLS // (co_n * de_n))
    buffer = np.empty(min(planes, at_n) * co_n * de_n)
    for hi in range(at_n, 0, -planes):
        lo = max(0, hi - planes)
        window = buffer[: (hi - lo) * co_n * de_n].reshape(hi - lo, co_n, de_n)
        window[...] = 0.0
        yield lo, assignment_count_grid(x, window, (lo, hi))


def _parts(lo: int, window: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(start, part): a window's cells in ``_CHUNK`` runs, with their first box position."""
    flat, base = window.reshape(-1), lo * window[0].size
    return ((base + s, flat[s : s + _CHUNK]) for s in range(0, flat.size, _CHUNK))


class _Kept:
    """The largest positive values of a box, with their C-order box positions, read in parts.

    Every value above ``floor`` is held, and none below it.  Once more than twice
    ``cap`` are held, the ``cap`` largest stay and ``floor`` rises to the least of
    them (Munro and Paterson, "Selection and Sorting with Limited Storage", TCS 12,
    1980), so it holds at most 2 cap + ``_CHUNK`` values.
    """

    def __init__(self, cap: float, floor: float = 0.0) -> None:
        self.cap, self.floor, self.held = cap, floor, 0
        self.parts = [(np.empty(0), np.empty(0, np.uint32))]

    def add(self, part: np.ndarray, start: int) -> None:
        picked = np.flatnonzero(part > self.floor)
        self.parts.append((part[picked], (picked + start).astype(np.uint32)))  # < 2**32 cells
        self.held += picked.size
        if self.held > 2 * self.cap:
            values, positions = self.arrays()
            top = np.argpartition(values, self.held - self.cap)[self.held - self.cap :]
            self.parts, self.held = [(values[top], positions[top])], self.cap
            self.floor = values[top[0]]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, positions) of every value held, in no particular order."""
        if len(self.parts) > 1:
            self.parts = [tuple(map(np.concatenate, zip(*self.parts)))]
        return self.parts[0]


def _refill(x: ExperimentData, kept: _Kept) -> _Kept:
    """``kept`` after a further fill of x's box, window by window, that reads nothing else."""
    for lo, window in _windows(x):
        for start, part in _parts(lo, window):
            kept.add(part, start)
    return kept


class _Scan:
    """What ``mle``, ``monotonicity_mle`` and ``posterior`` read of x's support box,
    from one pass over it in windows of at-planes (``_windows``), last first.

    It keeps the box's ``shape`` and largest value ``top``, the cells within
    ``GRID_TIE_BOUND`` of it (``hits``: ascending C-order positions, and their
    ``values``), copies of the planes de = 0 (``no_de``) and co = 0 (``no_co``),
    the normaliser ``total`` (``_normaliser``), the integer total while every value
    lies below ``EXACT_FLOAT_LIMIT`` (``exact_total``, else None), and the largest
    values with their positions (``kept``, a ``_Kept`` of ``_KEPT_CELLS``).  The
    suspects are collected against the running top and filtered as it rises.
    """

    def __init__(self, x: ExperimentData) -> None:
        self.x, self.shape, windows = x, box_shape(*x.counts()), _windows(x)
        first = next(windows)  # its fill checks the size guard before anything here is allocated
        at_n, co_n, de_n = self.shape
        self.no_de, self.no_co = np.empty((at_n, co_n)), np.empty((at_n, de_n))
        self.top, self.exact_total, self.kept = 0.0, 0, _Kept(_KEPT_CELLS)
        self.hits, self.values = np.empty(0, np.int64), np.empty(0)
        planes = self._read(itertools.chain([first], windows))
        self.total = _normaliser(planes, self.shape, _support_size(x), theta_index(x.n))
        collections.deque(planes, maxlen=0)  # reads any window past the normaliser's last value
        self.kept.arrays()

    def _read(self, windows: Iterator[tuple[int, np.ndarray]]) -> Iterator[np.ndarray]:
        """The box's at-planes, last first; each window is read whole as it is filled."""
        for lo, window in windows:
            self.no_de[lo : lo + len(window)], self.no_co[lo : lo + len(window)] = (
                window[:, :, 0], window[:, 0]
            )
            hits, values = [], []
            for start, part in _parts(lo, window):
                self.top = max(self.top, float(part.max()))
                if self.exact_total is not None and self.top >= EXACT_FLOAT_LIMIT:
                    self.exact_total = None
                if self.exact_total is not None:
                    high, low = _int_halves(part)
                    self.exact_total += (int(high.sum()) << 26) + int(low.sum())
                self.kept.add(part, start)
                if self.top > 0.0:
                    hit = np.flatnonzero(part >= self.top * (1.0 - GRID_TIE_BOUND))
                    hits.append(hit + start)
                    values.append(part[hit])
            hits, values = np.concatenate([*hits, self.hits]), np.concatenate([*values, self.values])
            near = values >= self.top * (1.0 - GRID_TIE_BOUND)
            self.hits, self.values = hits[near], values[near]
            yield from window[::-1]

    def suspects(self, monotone: bool | None) -> tuple[float, np.ndarray, np.ndarray]:
        if not monotone:
            return self.top, self.hits, self.values
        top, hits = _plane_suspects(self.no_de.reshape(-1), self.no_co[:, 1:], self.shape)
        at, co, de = np.unravel_index(hits, self.shape)
        return top, hits, np.where(de == 0, self.no_de[at, co], self.no_co[at, de])


@functools.lru_cache(maxsize=1)
def _scan(x: ExperimentData) -> _Scan:
    return _Scan(x)


def _support_size(x: ExperimentData) -> int:
    """Positive cells of x's box.  Per (at, co), ``index_set`` is feasible for the de of
    one run: its bounds without de are lo <= hi, and those with de give the run's ends."""
    i1, i0, c1, c0 = x.counts()
    at, co = np.ogrid[: i1 + c1 + 1, : i1 + c0 + 1]
    lo = np.maximum(np.maximum(0, i1 - co), at - c1)
    hi = np.minimum(np.minimum(at, i1), i1 + c0 - co)
    runs = hi - at + i0 + c1 + 1 - np.maximum(0, lo - at + c1)
    return int(runs[lo <= hi].sum())


def _thetas_from_flat(n: int, flat: np.ndarray) -> tuple[Theta, ...]:
    index = theta_index(n)
    at, co, de, nt = index.components(flat)
    return tuple(
        Theta(int(a), int(c), int(d), int(t)) for a, c, d, t in zip(at, co, de, nt)
    )


def _mle_over(x: ExperimentData, design: Design, monotone: bool | None) -> MleResult:
    check_design(x, design)
    flat, verified, _ = _argmax_ties([_scan(x)], [x], monotone)
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


def _normaliser(
    planes: Iterator[np.ndarray], shape: tuple[int, int, int], support: int, index: ThetaIndex
) -> float:
    """The likelihood's sum in canonical order, bit for bit as ``.sum()`` gives it.

    ``planes`` are a box's at-planes, last first, which hold consecutive runs of
    that order: a reversed plane lists its cells canonically.  Only the box's
    ``support`` positive cells count above FULL_TABLE_MAX_N; every position up to
    it, each plane scattered into its at-block of zeros, after the at-blocks above
    the box.  It reads the planes only as far as its last value.
    """
    n, full, at_n = index.n, index.n <= FULL_TABLE_MAX_N, shape[0]
    co, de = np.ogrid[: shape[1], : shape[2]]

    def run(at: int, plane: np.ndarray) -> np.ndarray:
        if not full:
            return plane[plane > 0][::-1]
        block, inside = np.zeros(math.comb(n - at + 2, 2)), co + de <= n - at
        block[index.flatten(at, co, de)[inside] - index.flatten(at, n - at, 0)] = plane[inside]
        return block

    head = index.flatten(at_n - 1, n + 1 - at_n, 0) if full else 0
    runs = itertools.chain([np.broadcast_to(0.0, head)], map(run, range(at_n - 1, -1, -1), planes))
    buf, rest = np.empty(max(_CHUNK, 128)), np.empty(0)

    def take(k: int) -> np.ndarray:
        nonlocal rest
        got = 0
        while got < k:
            rest = rest if rest.size else next(runs)
            step = min(k - got, rest.size)
            buf[got : got + step], rest, got = rest[:step], rest[step:], got + step
        return buf[:k]

    return _tree_sum(take, index.size if full else support)


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

    The top values come from the scan's ``kept`` buffer: the k largest, k the fewest
    that can reach the level, are partitioned out and sorted first, then 4k, 16k
    and so on.  The box is filled again only if the level lies past the buffer
    (keeping four times as many) or the boundary cut lies at or below its floor.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    scan = _scan(x)
    total, kept = scan.total, scan.kept
    exact_total = scan.exact_total if scan.top < EXACT_FLOAT_LIMIT else None  # read now, as ties are
    assert total > 0.0, "saturated theta always has positive likelihood"
    block = math.ceil(level / (scan.top / total))  # no fewer entries reach the level
    while True:  # the crossing among the block largest values held, sorted descending
        values = kept.arrays()[0]
        top = values if block >= values.size else np.partition(values, values.size - block)[-block:]
        top = np.sort(top)[::-1]
        crossing = _crossing(top, top / total, level, exact_total)
        if crossing < top.size or block >= values.size and kept.floor == 0.0:  # or all are held
            break
        if block >= values.size:  # the level lies past the buffer
            kept = _refill(x, _Kept(4 * kept.cap))
        block *= 4
    v = top[min(crossing, top.size - 1)] / total
    # Every entry of mass v or more, kept or not (a value just below the block
    # may round to mass v), has a value of at least v * total / (1 + u),
    # u = 2**-53; the cut, 8u below v * total, stays below that after its own
    # two roundings.
    cut = v * total * (1.0 - 2.0**-50)
    if cut <= kept.floor:  # some of those entries may have left the buffer
        kept = _refill(x, _Kept(math.inf, float(np.nextafter(cut, 0.0))))
    values, positions = kept.arrays()
    near = np.flatnonzero(values >= cut)
    near = near[values[near] / total >= v]
    # canonical order is box C order reversed: descending values, then positions
    near = near[np.lexsort((positions[near], values[near]))[::-1]]
    value, near = values[near], positions[near]
    at, near = np.divmod(near, scan.shape[1] * scan.shape[2])
    co, de = np.divmod(near, scan.shape[2])
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
