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
from dataclasses import dataclass
from itertools import combinations

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
# float64 maximum (10^308.25) at n=1002.  Fill scratch beside the box is small:
# 256 KB of products and ``head``, (i1+1)(c0+1)(c1+1) cells (4.2 MB at n=612);
# the posterior's is a few 4 MB chunks and its top block (6.7 MB at n=612).
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


def assignment_count_grid(x: ExperimentData) -> np.ndarray:
    """Assignment count of every Theta with n = x.n, as its support box.

    Returns ``box[at, co, de]`` (nt implied) of shape ``box_shape(*x.counts())``;
    every Theta outside it has count 0, and so do its cells with
    at + co + de > n.  Instead of visiting each parameter vector, this
    enumerates arm compositions: how many intervention takers are always
    takers (a_i), intervention non-takers defiers (d_i), control takers always
    takers (a_c) and control non-takers compliers (c_c) determines one vector,
    (at, co, de) = (a_i + a_c, i1 - a_i + c_c, c1 - a_c + d_i), and one product
    of four binomial coefficients.  For each a_i that map is affine and
    injective, so its products are added onto one strided view of the box, in
    O((i1+1)(i0+1)(c1+1)(c0+1)) work in all.  Products are formed for blocks
    of a run of a_i values by c_c rows, about 256 KB each, so scratch beside
    the box is that block plus the (a_i, c_c, a_c) factor ``head``.

    Values are float64; counts are exact wherever they stay below 2**53, and
    suspected ties are confirmed with exact integer sums by callers.
    """
    n = x.n
    if n > GRID_MAX_N:
        raise BudgetExceededError(
            f"full likelihood grid at n={n} exceeds the guard of {GRID_MAX_N}"
        )
    i1, i0, c1, c0 = x.counts()
    table = choose_table(n)
    box = np.zeros(box_shape(i1, i0, c1, c0))
    s_at, s_co, s_de = box.strides
    view = lambda base, off, shape, strides: np.ndarray(shape, buffer=base, offset=off, strides=strides)
    # slabs[a_i][c_c, a_c, d_i] is box[a_i + a_c, i1 - a_i + c_c, c1 - a_c + d_i]
    slabs = view(box, i1 * s_co + c1 * s_de, (i1 + 1, c0 + 1, c1 + 1, i0 + 1),
                 (s_at - s_co, s_co, s_at - s_de, s_de))
    # Each factor runs along diagonals of the table (one step down and right is
    # `dr`), so it is a strided view; the two every block reads are copied.
    # term = ((C(at, a_i) C(co, i1-a_i)) C(de, d_i)) C(nt, i0-d_i); order fixes bits
    down, dr = table.strides[0], sum(table.strides)
    # C(a_i + a_c, a_i) * C(i1 - a_i + c_c, i1 - a_i), by (a_i, c_c, a_c)
    head = view(table, 0, (i1 + 1, 1, c1 + 1), (dr, 0, down)) * view(
        table, i1 * dr, (i1 + 1, c0 + 1, 1), (-dr, down, 0))
    # C(c1 - a_c + d_i, d_i) by (a_c, d_i); C(i0 - d_i + c0 - c_c, i0 - d_i) by (c_c, 1, d_i)
    de_part = view(table, c1 * down, (c1 + 1, i0 + 1), (-down, dr)).copy()
    nt_part = view(table, i0 * dr + c0 * down, (c0 + 1, 1, i0 + 1), (-down, 0, -dr)).copy()
    # c_c = co - i1 + a_i grows with a_i, so blocks of c_c rows taken in order,
    # each run over ascending a_i, still sum each cell in ascending a_i.
    rows = min(c0 + 1, max(1, _BLOCK_CELLS // ((c1 + 1) * (i0 + 1))))
    run = min(i1 + 1, max(1, _BLOCK_CELLS // (rows * (c1 + 1) * (i0 + 1))))  # a_i per block
    term = np.empty((run, rows, c1 + 1, i0 + 1))
    for r in range(0, c0 + 1, rows):
        nt_rows = nt_part[r : r + rows]
        for k0 in range(0, i1 + 1, run):
            heads = head[k0 : k0 + run, r : r + rows, :, None]
            part = term[: len(heads), : len(nt_rows)]  # the last run or rows may be short
            np.multiply(heads, de_part, out=part)
            part *= nt_rows
            for slab, products in zip(slabs[k0 : k0 + run, r : r + rows], part):
                slab += products
    return box
