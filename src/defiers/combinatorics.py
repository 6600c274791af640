"""Exact and log-space combinatorial kernels shared by every likelihood path.

Two arithmetic routes are kept deliberately separate: float64 (log or linear
space) for grid scans, and exact Python integers for published assignment
counts and for confirming suspected likelihood ties.  Python's built-in int
is the arbitrary-precision counter type throughout.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

LOG_ZERO = float("-inf")


def exact_binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; out-of-range k gives 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k); returns -inf for out-of-range k so zero terms are uniform.

    Computed as the log of the exact coefficient (math.log accepts arbitrary
    precision integers), so accuracy is limited only by the final rounding.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return LOG_ZERO
    if k == 0 or k == n:
        return 0.0
    return math.log(math.comb(n, k))


@functools.lru_cache(maxsize=8)
def choose_table(n: int) -> np.ndarray:
    """(n+1, n+1) float64 table with entry [a, k] = C(a, k), zero when k > a.

    Each entry is the correctly rounded float of the exact coefficient, so
    the table is exact wherever coefficients stay below 2**53.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    table = np.zeros((n + 1, n + 1))
    half = [1]  # exact C(a, k) for k <= a // 2; the rest of row a mirrors it
    for a in range(n + 1):
        table[a, : len(half)] = floats = list(map(float, half))
        table[a, a + 1 - len(half) : a + 1] = floats[::-1]
        # C(a+1, k) for k <= (a+1) // 2; for odd a the last is 2 C(a, a // 2)
        half = [1, *map(operator.add, half[1:], half)] + [2 * half[-1]] * (a % 2)
    table.setflags(write=False)
    return table
