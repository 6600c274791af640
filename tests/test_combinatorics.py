import math

import numpy as np
import pytest

from defiers.combinatorics import (
    LOG_ZERO,
    choose_table,
    exact_binomial,
    log_binomial,
)


def pascal_triangle(n):
    """Independent oracle: binomials by the addition recurrence."""
    rows = [[1]]
    for a in range(1, n + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, a)] + [1]
        )
    return rows


def test_exact_binomial_examples():
    assert exact_binomial(6, 3) == 20
    assert exact_binomial(4, 2) == 6
    assert exact_binomial(7, 7) == 1
    assert exact_binomial(21, 11) == 352716
    assert exact_binomial(5, 9) == 0
    assert exact_binomial(5, -1) == 0
    # leading digits of a count beyond 64-bit range
    assert f"{exact_binomial(115, 61):.1e}".startswith("2.5e+33")
    with pytest.raises(ValueError):
        exact_binomial(-1, 0)


def test_exact_binomial_matches_pascal():
    rows = pascal_triangle(25)
    for a in range(26):
        for k in range(a + 1):
            assert exact_binomial(a, k) == rows[a][k]


def test_log_binomial_examples():
    assert log_binomial(6, 3) == pytest.approx(math.log(20), rel=1e-15)
    assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-15)
    assert log_binomial(9, 0) == 0.0
    assert log_binomial(9, 10) == LOG_ZERO
    assert log_binomial(9, -1) == LOG_ZERO


def test_log_binomial_symmetry_and_accuracy():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(0, 301))
        k = int(rng.integers(0, n + 1))
        lb = log_binomial(n, k)
        assert lb == log_binomial(n, n - k)
        exact = exact_binomial(n, k)
        assert math.exp(lb) == pytest.approx(exact, rel=1e-12)


def test_choose_table_matches_exact():
    for n, rows in ((60, (0, 1, 7, 33, 60)), (1000, (57, 500, 999, 1000))):
        table = choose_table(n)
        for a in rows:
            for k in range(a + 1):
                assert table[a, k] == float(exact_binomial(a, k))
            assert np.all(table[a, a + 1 :] == 0.0)
    # at n=1000 entries are rounded, and the largest nears the float64 maximum
    assert int(table[1000, 500]) != exact_binomial(1000, 500)
    assert 1e299 < table[1000, 500] < np.finfo(np.float64).max
    # every row of an odd and an even table, each half mirrored, past 2**53 from row 57 on
    rows = pascal_triangle(612)
    for n in (611, 612):
        exact = np.zeros((n + 1, n + 1))
        for a in range(n + 1):
            exact[a, : a + 1] = [float(c) for c in rows[a]]
        assert np.array_equal(choose_table(n).view(np.int64), exact.view(np.int64))
    assert max(rows[57]) > 2**53 > max(rows[56])


def test_log_binomial_accuracy_exhaustive_to_300():
    for n in range(0, 301):
        for k in range(0, n + 1, max(1, n // 25)):
            assert math.exp(log_binomial(n, k)) == pytest.approx(
                exact_binomial(n, k), rel=1e-12
            )
    # dense sweep on a handful of rows, edges included
    for n in (37, 150, 299, 300):
        for k in range(n + 1):
            assert math.exp(log_binomial(n, k)) == pytest.approx(
                exact_binomial(n, k), rel=1e-12
            )
