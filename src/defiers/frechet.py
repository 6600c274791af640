"""Marginal takeup counts, bounds on defiers, and profiles across a Fréchet set.

A pair of marginal takeup counts pins the whole family of joint type-count
vectors consistent with it; the family is indexed by the number of defiers,
whose feasible range is given by the classical bounds on joint distributions
with fixed margins.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import (
    Bernoulli,
    DegenerateDataError,
    Design,
    ExperimentData,
    Theta,
    check_design,
)
from .likelihood import _log_likelihood_of_count, exact_assignment_count


@dataclass(frozen=True)
class Marginals:
    """Marginal takeup counts: m1 under intervention, mc under control, out of n."""

    m1: int
    mc: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.m1 <= self.n:
            raise ValueError(f"need 0 <= m1 <= n, got m1={self.m1}, n={self.n}")
        if not 0 <= self.mc <= self.n:
            raise ValueError(f"need 0 <= mc <= n, got mc={self.mc}, n={self.n}")


@dataclass(frozen=True)
class FrechetSet:
    """All type-count vectors sharing a pair of marginals, indexed by defier count."""

    marginals: Marginals
    defier_lo: int
    defier_hi: int

    def defier_range(self) -> range:
        return range(self.defier_lo, self.defier_hi + 1)

    def members(self) -> list[Theta]:
        return [theta_at_defiers(self, d) for d in self.defier_range()]


def estimate_marginals(x: ExperimentData, design: Design) -> Marginals:
    """Marginal takeup counts estimated from observed takeup rates, rounded.

    Rates are scaled to counts out of n, rounded half away from zero, and
    clamped to [0, n].  For Bernoulli designs the denominator is the expected
    arm size n*p per the probability form of the estimator; completely
    randomized designs use the realized arm sizes.
    """
    check_design(x, design)
    if x.intervention_size == 0 or x.control_size == 0:
        raise DegenerateDataError("marginal estimation needs both arms non-empty")
    n = x.n
    half_up = lambda num, den: (2 * num + den) // (2 * den)  # num / den, halves up
    if isinstance(design, Bernoulli):
        a, b = design.p.as_integer_ratio()  # i1 / p = i1 b / a, c1 / (1-p) = c1 b / (b-a)
        m1, mc = half_up(x.i1 * b, a), half_up(x.c1 * b, b - a)
    else:
        m1 = half_up(n * x.i1, x.intervention_size)
        mc = half_up(n * x.c1, x.control_size)
    return Marginals(min(m1, n), min(mc, n), n)


def frechet_set(marginals: Marginals) -> FrechetSet:
    """Feasible defier counts for the given marginals; never empty."""
    lo = max(0, marginals.mc - marginals.m1)
    hi = min(marginals.mc, marginals.n - marginals.m1)
    return FrechetSet(marginals, lo, hi)


def theta_at_defiers(fs: FrechetSet, d: int) -> Theta:
    """The unique member of the set with d defiers."""
    if not fs.defier_lo <= d <= fs.defier_hi:
        raise ValueError(
            f"d={d} outside defier bounds [{fs.defier_lo}, {fs.defier_hi}]"
        )
    m = fs.marginals
    return Theta(at=m.mc - d, co=m.m1 - m.mc + d, de=d, nt=m.n - m.m1 - d)


class ProfileRow(NamedTuple):
    defiers: int
    log_likelihood: float
    mass: float


def frechet_profile(fs: FrechetSet, x: ExperimentData, design: Design) -> list[ProfileRow]:
    """Likelihood of each member of the set, with masses normalized to sum to one.

    Emitted in ascending defier count.  Each member's exact assignment count
    is computed once; masses come from those counts, so they are immune to
    the rounding of the log values.
    """
    if fs.marginals.n != x.n:
        raise ValueError(f"data n={x.n} but Fréchet set n={fs.marginals.n}")
    check_design(x, design)
    counts = [exact_assignment_count(theta, x) for theta in fs.members()]
    total = sum(counts)
    if total == 0:
        # No member can produce the data; report a flat zero profile.
        masses = [0.0] * len(counts)
    else:
        masses = [float(Fraction(c, total)) for c in counts]
    return [
        ProfileRow(d, _log_likelihood_of_count(count, x, design), mass)
        for d, count, mass in zip(fs.defier_range(), counts, masses)
    ]


def profile_level_flags(rows: list[ProfileRow], level: float) -> list[bool]:
    """Mark the members of the within-set mass subset at the given level.

    Bars are admitted from the highest mass downward, whole tie blocks at a
    time, for as long as the running total stays within the level; the block
    that would cross the level is left out.  The top block is always admitted.
    This is the convention behind the published within-set exclusions; the
    joint credible sets in :mod:`defiers.inference` instead accumulate until
    the level is reached.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    order = sorted(range(len(rows)), key=lambda i: (-rows[i].mass, rows[i].defiers))
    included = [False] * len(rows)
    cum = 0.0
    for rank, (_, block) in enumerate(itertools.groupby(order, key=lambda i: rows[i].mass)):
        block = list(block)
        block_mass = sum(rows[i].mass for i in block)
        if rank > 0 and cum + block_mass > level:
            break
        for i in block:
            included[i] = True
        cum += block_mass
    return included
