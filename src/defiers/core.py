"""Value types for a binary-intervention / binary-outcome randomized experiment.

The estimand is the joint distribution of potential outcomes in the fixed
sample, summarized by four type counts (always takers, compliers, defiers,
never takers).  The data are four observed cell counts.  Everything here is
an immutable value type; enumeration of the parameter space is canonical and
deterministic so that downstream reports are reproducible byte for byte.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Type constructors refuse samples larger than this; every enumeration the
# library performs sits far below it.
MAX_N = 100_000


class DegenerateDataError(ValueError):
    """Raised when data cannot support an estimator (e.g. an empty arm)."""


class DesignInconsistencyError(ValueError):
    """Raised when a design contradicts the data it is paired with."""


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its documented size guard."""


def _check_counts(counts: object) -> None:
    """Validate a frozen dataclass of counts, store them as Python ints, cap its ``n``."""
    name = type(counts).__name__
    for field in dataclasses.fields(counts):
        v = getattr(counts, field.name)
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ValueError(f"{name} counts must be integers, got {v!r}")
        if v < 0:
            raise ValueError(f"{name} counts must be non-negative, got {v}")
        if type(v) is not int:  # numpy integers add in their own dtype and wrap
            object.__setattr__(counts, field.name, int(v))
    if counts.n > MAX_N:
        raise ValueError(f"{name} total {counts.n} exceeds the cap of {MAX_N}")


@dataclass(frozen=True)
class Theta:
    """Joint distribution of potential outcomes in the sample, as type counts.

    ``at`` always takers (take up under both arms), ``co`` compliers (take up
    only under intervention), ``de`` defiers (take up only under control),
    ``nt`` never takers.  The sample size is the sum of the four counts.
    """

    at: int
    co: int
    de: int
    nt: int

    def __post_init__(self) -> None:
        _check_counts(self)

    @property
    def n(self) -> int:
        return self.at + self.co + self.de + self.nt

    def counts(self) -> tuple[int, int, int, int]:
        return (self.at, self.co, self.de, self.nt)

    def types_present(self) -> str:
        """Letters among "ACDN" whose type count is positive."""
        return "".join(
            letter
            for letter, count in zip("ACDN", self.counts())
            if count > 0
        )

    def average_effect(self) -> float:
        """(compliers - defiers) / n: the mean of the in-sample unit effects."""
        if self.n == 0:
            raise DegenerateDataError("average effect undefined for n = 0")
        return (self.co - self.de) / self.n

    def relabeled(self) -> "Theta":
        """Swap takeup and no-takeup labels (A<->N, C<->D)."""
        return Theta(self.nt, self.de, self.co, self.at)


@dataclass(frozen=True)
class ExperimentData:
    """Observed cell counts: takeup/no-takeup crossed with intervention/control."""

    i1: int  # takeup in intervention
    i0: int  # no takeup in intervention
    c1: int  # takeup in control
    c0: int  # no takeup in control

    def __post_init__(self) -> None:
        _check_counts(self)

    @property
    def n(self) -> int:
        return self.i1 + self.i0 + self.c1 + self.c0

    @property
    def intervention_size(self) -> int:
        return self.i1 + self.i0

    @property
    def control_size(self) -> int:
        return self.c1 + self.c0

    def counts(self) -> tuple[int, int, int, int]:
        return (self.i1, self.i0, self.c1, self.c0)

    def relabeled(self) -> "ExperimentData":
        """Swap takeup and no-takeup labels in both arms."""
        return ExperimentData(self.i0, self.i1, self.c0, self.c1)

    def average_effect(self) -> float:
        """Difference of observed takeup rates between arms."""
        if self.intervention_size == 0 or self.control_size == 0:
            raise DegenerateDataError("average effect needs both arms non-empty")
        return self.i1 / self.intervention_size - self.c1 / self.control_size


@dataclass(frozen=True)
class Bernoulli:
    """Simple randomization: each subject enters intervention with probability p."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"Bernoulli probability must be in (0,1), got {self.p}")


@dataclass(frozen=True)
class CompletelyRandomized:
    """Exactly m of n subjects drawn into intervention, all subsets equally likely."""

    m: int
    n: int

    def __post_init__(self) -> None:
        _check_counts(self)
        if self.m > self.n:
            raise ValueError(f"need m <= n, got m={self.m} n={self.n}")


Design = Bernoulli | CompletelyRandomized


def check_design(x: ExperimentData, design: Design) -> None:
    """Validate that a design is consistent with observed data."""
    if isinstance(design, CompletelyRandomized):
        if design.n != x.n:
            raise DesignInconsistencyError(
                f"design n={design.n} but data total is {x.n}"
            )
        if design.m != x.intervention_size:
            raise DesignInconsistencyError(
                f"design m={design.m} but intervention arm has {x.intervention_size}"
            )


def enumerate_thetas(n: int) -> Iterator[Theta]:
    """Yield every Theta with counts summing to n, exactly once.

    Order is lexicographic descending by (at, co, de) with nt implied, so
    (n,0,0,0) comes first and (0,0,0,n) last.  This fixes tie reporting,
    credible-set construction, and CSV output.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the cap of {MAX_N}")
    for at in range(n, -1, -1):
        for co in range(n - at, -1, -1):
            for de in range(n - at - co, -1, -1):
                yield Theta(at, co, de, n - at - co - de)


class ThetaIndex:
    """Flat indexing of the canonical Theta enumeration, vectorized.

    Index i corresponds to the i-th element of ``enumerate_thetas(n)``.  Used
    so that grid scans can work on plain numpy arrays instead of objects.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = n
        # j = n - at; thetas with larger at come first, and the number of
        # vectors preceding the at-block is C(j+2, 3).
        j = np.arange(n + 2, dtype=np.int64)
        self._base = j * (j + 1) * (j + 2) // 6
        # Within an at-block, C(u+1, 2) vectors precede those with u = n - at - co.
        self._tri = j * (j + 1) // 2

    @property
    def size(self) -> int:
        return int(self._base[-1])

    def flatten(self, at, co, de):
        """Flat index of (at, co, de[, nt implied]); Python ints or integer arrays."""
        u = self.n - at - co  # vectors with this at and larger co come first
        return self._base[self.n - at] + u * (u + 1) // 2 + (u - de)

    def components(self, idx):
        """Inverse of ``flatten``: arrays (at, co, de, nt) for flat indices."""
        idx = np.asarray(idx, dtype=np.int64)
        j = np.searchsorted(self._base, idx, side="right") - 1
        at = self.n - j
        r = idx - self._base[j]
        u = np.searchsorted(self._tri, r, side="right") - 1
        co = j - u
        de = u - (r - self._tri[u])
        return at, co, de, self.n - at - co - de

    def flat(self, theta: Theta) -> int:
        if theta.n != self.n:
            raise ValueError(f"theta has n={theta.n}, index built for n={self.n}")
        return int(self.flatten(theta.at, theta.co, theta.de))


@functools.lru_cache(maxsize=16)
def theta_index(n: int) -> ThetaIndex:
    return ThetaIndex(n)
