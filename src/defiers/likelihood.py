"""Design-based likelihood of the joint distribution of potential outcomes.

The observed data arise from randomizing a fixed sample into two arms, so the
probability of the data given the type counts is a sum, over the feasible
numbers of always takers assigned to intervention, of products of four
binomial coefficients.  Both randomization designs share that sum; they differ
only by a factor that does not depend on the type counts.

Each use of the assignment count has one route:

* exact integer sums (``exact_assignment_count``) confirm: published counts,
  tie confirmation and profile masses.  ``relative_log_likelihood`` and
  ``log_likelihood`` are float64 logs of that exact count, not another route;
* the float64 grid (``assignment_count_grid``) scans: it fills the count of
  every parameter vector at once by enumerating arm compositions instead of
  parameter vectors;
* the brute-force oracle (``oracle_assignment_count(theta, x)``, the shape of
  ``exact_assignment_count``) checks: it enumerates actual randomized
  assignments of x's arm size, independently of the binomial sum.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .core import (
    Bernoulli,
    BudgetExceededError,
    Design,
    ExperimentData,
    Theta,
    check_design,
)
from .combinatorics import LOG_ZERO, choose_table, log_binomial

# Above this sample size the assignment oracle would enumerate more than
# C(20, 10) = 184,756 subsets per call.
ORACLE_MAX_N = 20

# The grid scan allocates its support box, (i1+c1+1)(i1+c0+1)(i0+c1+1) float64
# cells: 8.87M (71 MB) on the n=612 smoking table, where the canonical grid has
# C(n+3, 3) = 38.6M (309 MB).  All-takeup tables (n/2, 0, n/2, 0) give the
# largest box, about n**3/4 cells = 1.5 C(n+3, 3): 57.8M (0.46 GB) at n=612 and
# 251M (2.01 GB) at the cap below (canonical: 1.34 GB).  The cap also keeps sums
# in float64 range: each entry is at most C(n, n//2), so the grid sum is at most
# C(n+3, 3) * C(n, n//2), 10^307.66 at n=1000; the bound first exceeds the
# float64 maximum (10^308.25) at n=1002.  Scratch beside the box is small: per
# fill band a ``term`` block of about 256 KB (228 KB of padded box rows at n=612)
# and ``head`` for one block of rows (60 KB); later passes read 512 KB slices, and
# the posterior holds 2.6 MB at most.
GRID_MAX_N = 1000

# Relative gap within which two box cells may hold equal exact counts, for any
# n <= GRID_MAX_N.  A cell is a running sum of at most i1+1 <= n+1 positive
# products; each carries 7 roundings (four correctly rounded ``choose_table``
# entries, three multiplications) and at most n from the sum, so the cell's
# relative error is at most gamma = (n+7)u / (1 - (n+7)u), u = 2**-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1 and 4.2).
# Equal counts thus differ by at most 2 gamma / (1 - gamma), and 2u more covers
# the rounding of ``top * (1 - GRID_TIE_BOUND)``: 2.2382e-13 at n = 1000.
GRID_TIE_BOUND = 2.24e-13

# Cells of one block of the fill's products (256 KB), so that the block and the
# box cells it adds onto stay in a 2 MB L2 cache while every a_i passes them.
_BLOCK_CELLS = 1 << 15
_BAND_WORK = 1 << 22  # arm compositions per fill band; below two bands, the calling thread fills
# d_i runs from this length on fill faster under a 16-cell ufunc buffer, shorter
# ones through numpy's default of 8,192 cells (fills at n = 1000 on a 2-vCPU VM,
# CPU under 16 cells against the default: 8.7 against 3.8 ms for runs of 8 cells,
# even for 64, 0.18 against 0.23 s for 128).
_LONG_RUN = 64

SHARE_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PopulationShares:
    """Population shares of the four types, for the sampling-based contrast."""

    q_at: float
    q_co: float
    q_de: float
    q_nt: float

    def __post_init__(self) -> None:
        shares = self.counts()
        if any(q < 0.0 or q > 1.0 for q in shares):
            raise ValueError(f"shares must lie in [0,1], got {shares}")
        if abs(sum(shares) - 1.0) > SHARE_SUM_TOL:
            raise ValueError(f"shares must sum to 1, got {sum(shares)!r}")

    def counts(self) -> tuple[float, float, float, float]:
        return (self.q_at, self.q_co, self.q_de, self.q_nt)

    @property
    def takeup_intervention(self) -> float:
        return self.q_at + self.q_co

    @property
    def takeup_control(self) -> float:
        return self.q_at + self.q_de


def index_set(x: ExperimentData, theta: Theta) -> range:
    """Feasible counts of always takers assigned to intervention.

    The four arm-composition identities pin every composition count once this
    one is chosen; the range is empty when theta cannot produce x.
    """
    if x.n != theta.n:
        raise ValueError(f"data n={x.n} but theta n={theta.n}")
    lo = max(0, x.i1 - theta.co, theta.at - x.c1, theta.at + theta.de - x.i0 - x.c1)
    hi = min(
        theta.at,
        x.i1,
        theta.at + theta.de - x.c1,
        theta.at + theta.de + theta.nt - x.i0 - x.c1,
    )
    return range(lo, hi + 1)


def exact_assignment_count(theta: Theta, x: ExperimentData) -> int:
    """Number of intervention-arm subsets of theta's sample that yield x, exactly."""
    comb = math.comb
    at, co, de, nt = theta.counts()
    total = 0
    for i in index_set(x, theta):
        total += (
            comb(at, i)
            * comb(co, x.i1 - i)
            * comb(de, at + de - x.c1 - i)
            * comb(nt, x.i0 + x.c1 + i - at - de)
        )
    return total


def relative_log_likelihood(theta: Theta, x: ExperimentData) -> float:
    """Design-free log likelihood: ln of the assignment count.

    Equals the log likelihood under either design up to an additive constant
    that does not depend on theta; -inf when theta cannot produce x.
    """
    count = exact_assignment_count(theta, x)
    if count == 0:
        return LOG_ZERO
    return math.log(count)


def log_likelihood(theta: Theta, x: ExperimentData, design: Design) -> float:
    """ln P(X = x | theta) under the given randomization design."""
    if theta.n != x.n:
        raise ValueError(f"data n={x.n} but theta n={theta.n}")
    check_design(x, design)
    return _log_likelihood_of_count(exact_assignment_count(theta, x), x, design)


def _log_likelihood_of_count(count: int, x: ExperimentData, design: Design) -> float:
    """ln P(X = x | theta) from theta's exact assignment count for x."""
    if count == 0:
        return LOG_ZERO
    rel = math.log(count)
    if isinstance(design, Bernoulli):
        p = design.p
        return rel + x.intervention_size * math.log(p) + x.control_size * math.log1p(-p)
    return rel - log_binomial(design.n, design.m)


def sampling_log_likelihood(
    q: PopulationShares, x: ExperimentData, design: Design
) -> float:
    """Log likelihood of population shares under IID sampling from a population.

    The shares enter only through the two marginal takeup probabilities, which
    is what makes this likelihood flat across population joint distributions
    with equal marginals, in contrast to the design-based likelihood.
    """
    check_design(x, design)
    p1, pc = q.takeup_intervention, q.takeup_control

    def xlogy(k: int, prob: float) -> float:
        if k == 0:
            return 0.0
        return k * math.log(prob) if prob > 0.0 else LOG_ZERO

    margin_terms = (
        xlogy(x.i1, p1)
        + xlogy(x.i0, 1.0 - p1)
        + xlogy(x.c1, pc)
        + xlogy(x.c0, 1.0 - pc)
    )
    if margin_terms == LOG_ZERO:
        return LOG_ZERO
    if isinstance(design, Bernoulli):
        p = design.p
        coef = (
            math.lgamma(x.n + 1)
            - math.lgamma(x.i1 + 1)
            - math.lgamma(x.i0 + 1)
            - math.lgamma(x.c1 + 1)
            - math.lgamma(x.c0 + 1)
        )
        return (
            coef
            + x.intervention_size * math.log(p)
            + x.control_size * math.log1p(-p)
            + margin_terms
        )
    m = design.m
    return (
        log_binomial(m, x.i1)
        + log_binomial(design.n - m, x.c1)
        + margin_terms
    )


def _roster(theta: Theta) -> list[int]:
    """Subject list coded by type: 0=A, 1=C, 2=D, 3=N."""
    codes: list[int] = []
    for code, count in enumerate(theta.counts()):
        codes.extend([code] * count)
    return codes


def oracle_data_distribution(theta: Theta, m: int) -> dict[ExperimentData, int]:
    """Tally of the data produced by every one of the C(n, m) assignments.

    Brute-force reference implementation: enumerates actual subsets, so it is
    independent of the binomial-sum likelihood it is used to check.
    """
    n = theta.n
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if n > ORACLE_MAX_N:
        raise BudgetExceededError(
            f"assignment oracle enumerates all subsets; n={n} exceeds {ORACLE_MAX_N}"
        )
    codes = _roster(theta)
    # takeup indicator per type in intervention and in control
    takes_i = (1, 1, 0, 0)
    takes_c = (1, 0, 1, 0)
    total_c1 = theta.at + theta.de
    tally: dict[ExperimentData, int] = {}
    for subset in combinations(range(n), m):
        i1 = sum(takes_i[codes[j]] for j in subset)
        c1 = total_c1 - sum(takes_c[codes[j]] for j in subset)
        x = ExperimentData(i1, m - i1, c1, n - m - c1)
        tally[x] = tally.get(x, 0) + 1
    return tally


def oracle_assignment_count(theta: Theta, x: ExperimentData) -> int:
    """Number of assignments of theta's sample, at x's arm size, that produce x."""
    if x.n != theta.n:
        raise ValueError(f"data n={x.n} but theta n={theta.n}")
    return oracle_data_distribution(theta, x.intervention_size).get(x, 0)


def box_shape(i1, i0, c1, c0):
    """Shape (at, co, de) of the support box of (i1, i0, c1, c0); ints or int arrays."""
    return i1 + c1 + 1, i1 + c0 + 1, i0 + c1 + 1


def _band_edges(i1: int, c0: int, bands: int) -> list[int]:
    """Edges 0 = e_0 < ... < e_k = i1 + c0 + 1, k <= bands, of runs of box columns
    co, each within one column of an even share of the arm compositions."""
    co = np.arange(i1 + c0 + 1)  # takes the (a_i, c_c) pairs with i1 - a_i + c_c = co
    through = np.cumsum(np.minimum(i1, i1 + c0 - co) - np.maximum(0, i1 - co) + 1)
    ends = np.searchsorted(through, np.arange(1, bands + 1) * through[-1] / bands) + 1
    return [0, *dict.fromkeys(ends.tolist())]  # non-decreasing; np.unique would load numpy.ma


def _padded(i1: int, i0: int, c1: int, c0: int) -> bool:
    """Whether the fill adds whole box rows of i0+c1+1 cells, not d_i runs of i0+1: where
    the runs are long and the rows at most a fifth wider.  Against the runs alone, both
    under the small buffer, padded rows filled n = 612 boxes on a 2-vCPU VM in 0.56
    against 0.66 s of CPU at rows 1.2 times the run, and in 0.94 against 0.70 s at 1.25."""
    return i0 + 1 >= _LONG_RUN and 5 * (i0 + c1 + 1) <= 6 * (i0 + 1)


def assignment_count_grid(x: ExperimentData, box: np.ndarray | None = None) -> np.ndarray:
    """Assignment count of every Theta with n = x.n, as its support box.

    Returns ``box[at, co, de]`` (nt implied) of shape ``box_shape(*x.counts())``;
    every Theta outside it has count 0, and so do its cells with at + co + de > n.
    A zeroed float64 ``box`` of that shape is filled in place (another shape or
    dtype raises ``ValueError``; zeros are not checked).  This enumerates arm
    compositions rather than parameter vectors: how many intervention takers are
    always takers (a_i), intervention non-takers defiers (d_i), control takers
    always takers (a_c) and control non-takers compliers (c_c) determines one
    vector, (at, co, de) = (a_i + a_c, i1 - a_i + c_c, c1 - a_c + d_i), and one
    product of four binomial coefficients.  For each a_i that map is affine and
    injective, so its products are added onto one strided view of the box: a d_i
    run of i0+1 cells per (a_c, c_c), one de column left per a_c.  Runs of at
    least ``_LONG_RUN`` cells fill under a 16-cell ufunc buffer, so numpy reads
    them in place; where the box rows of i0+c1+1 cells are also at most a fifth
    wider (``_padded``; every table near the n=612 smoking one), they are padded
    instead: the products cover whole box rows, 0 outside each d_i run, so each
    a_c adds one contiguous (co, de) run.  The work is O((i1+1)(i0+1)(c1+1)(c0+1))
    in all, in blocks of about 256 KB of a run of a_i values by c_c rows.  From
    2 * ``_BAND_WORK`` compositions up, bands of box columns co, one per usable
    CPU, fill on their own threads with a block each; a cell lies in one band and
    sums in ascending a_i at any band count.

    Values are float64; counts are exact wherever they stay below 2**53, and
    suspected ties are confirmed with exact integer sums by callers.
    """
    n = x.n
    if n > GRID_MAX_N:
        raise BudgetExceededError(
            f"full likelihood grid at n={n} exceeds the guard of {GRID_MAX_N}"
        )
    i1, i0, c1, c0 = x.counts()
    table, shape = choose_table(n), box_shape(i1, i0, c1, c0)
    box = np.zeros(shape) if box is None else box
    if box.shape != shape or box.dtype != np.float64:
        raise ValueError(f"box must be float64 of shape {shape}, got {box.dtype} of shape {box.shape}")
    long_runs, pad = i0 + 1 >= _LONG_RUN, _padded(i1, i0, c1, c0)
    width = i0 + 1 + pad * c1  # cells a slab row adds onto: its d_i run, or padded, its box row
    s_at, s_co, s_de = box.strides
    view = lambda base, off, shape, strides: np.ndarray(shape, buffer=base, offset=off, strides=strides)
    # slabs[a_i][a_c, c_c, w] is box[a_i + a_c, i1 - a_i + c_c, w + (1 - pad)(c1 - a_c)]
    slabs = view(box, i1 * s_co + (1 - pad) * c1 * s_de, (i1 + 1, c1 + 1, c0 + 1, width),
                 (s_at - s_co, s_at - (1 - pad) * s_de, s_co, s_de))
    # Each factor runs along diagonals of the table (one step down and right is
    # `dr`), so it is a strided view; de_part is copied, head and nt per c_c block.
    # term = ((C(at, a_i) C(co, i1-a_i)) C(de, d_i)) C(nt, i0-d_i); order fixes bits
    down, dr, cell = table.strides[0], sum(table.strides), table.itemsize
    # C(a_i + a_c, a_i) by (a_i, a_c, 1); C(i1 - a_i + c_c, i1 - a_i) by (a_i, 1, c_c)
    at_part = view(table, 0, (i1 + 1, c1 + 1, 1), (dr, down, 0))
    co_part = view(table, i1 * dr, (i1 + 1, 1, c0 + 1), (-dr, 0, down))
    # C(c1 - a_c + d_i, d_i) by (a_c, d_i); C(i0 - d_i + c0 - c_c, i0 - d_i) by (c_c, d_i)
    de_part = view(table, c1 * down, (c1 + 1, i0 + 1), (-down, dr)).copy()
    nt_part = view(table, i0 * dr + c0 * down, (c0 + 1, i0 + 1), (-down, -dr))
    if pad:  # de_part by (a_c, w), at w = c1 - a_c + d_i in its box row and 0 elsewhere
        de_part, by_d_i = np.zeros((c1 + 1, width)), de_part
        view(de_part, c1 * cell, by_d_i.shape, ((width - 1) * cell, cell))[...] = by_d_i
    rows = min(c0 + 1, max(1, _BLOCK_CELLS // ((c1 + 1) * width)))
    run = min(i1 + 1, max(1, _BLOCK_CELLS // (rows * (c1 + 1) * width)))  # a_i per block

    def band(lo: int, hi: int) -> None:  # adds every product onto the columns lo <= co < hi
        def add(k0: int, k1: int, r0: int, r1: int) -> None:  # a_i in [k0, k1), c_c in [r0, r1)
            part = term[: k1 - k0, :, : r1 - r0]
            np.multiply(head[k0:k1, :, r0 - b0 : r1 - b0, None], de_part[:, None], out=part)
            part *= nt[..., r0 - b0 : r1 - b0, :]
            for slab, products in zip(slabs[k0:k1, :, r0:r1], part):
                slab += products
        # c_c = co - i1 + a_i grows with a_i, so blocks of c_c rows taken in
        # order, each run over ascending a_i, still sum each cell in ascending a_i.
        try:
            if long_runs:  # numpy copies operands whose runs are shorter than its ufunc buffer
                bufsize = np.setbufsize(16)  # (8,192 cells); long runs it reads in place
            if pad:
                # nt_rows holds a block's nt_part rows in `slots`, c1 zeros after each and
                # before the first, so nt[a_c, c_c, w] (shifted by a_c) is 0 where de_part is.
                # A padded product is (head * 0) * 0 = +0.0, never inf * 0: head, a partial
                # product of a real term, is at most C(n, n//2).
                nt_rows = np.zeros(c1 + rows * width)
                slots = view(nt_rows, c1 * cell, (rows, i0 + 1), (width * cell, cell))
            term = np.empty((run, c1 + 1, rows, width))
            for b0, k0 in product(range(0, c0 + 1, rows), range(0, i1 + 1, run)):
                b1, k1 = min(b0 + rows, c0 + 1), min(k0 + run, i1 + 1)
                if k0 == 0:  # a new block of c_c rows: the head and nt_part rows it reads
                    head, nt = at_part * co_part[:, :, b0:b1], nt_part[b0:b1].copy()
                    if pad:
                        slots[: b1 - b0] = nt
                        nt = view(nt_rows, 0, (c1 + 1, b1 - b0, width), (cell, width * cell, cell))
                if lo <= i1 - k1 + 1 + b0 and i1 - k0 + b1 <= hi:  # the block lies in the band
                    add(k0, k1, b0, b1)
                else:  # across an edge, each a_i over its c_c rows in the band; none if outside
                    for a_i in range(max(k0, b0 + i1 - hi + 1), min(k1, b1 + i1 - lo)):
                        add(a_i, a_i + 1, max(b0, lo - i1 + a_i), min(b1, hi - i1 + a_i))
        except BaseException as failure:  # for the calling thread to raise
            failures[lo] = failure
        if long_runs:  # the calling thread's later ufuncs buffer as before
            np.setbufsize(bufsize)

    work = (i1 + 1) * (i0 + 1) * (c1 + 1) * (c0 + 1)  # arm compositions
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    bands = min(cpus, work // _BAND_WORK)  # _band_edges would add 9% to an n=50 fill
    edges, failures = _band_edges(i1, c0, bands) if bands > 1 else [0, i1 + c0 + 1], {}
    threads = [threading.Thread(target=band, args=edge) for edge in zip(edges[1:-1], edges[2:])]
    for thread in threads:
        thread.start()
    band(*edges[:2])  # this thread fills the first band
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return box
