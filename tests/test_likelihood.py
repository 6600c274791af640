import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from defiers.core import (
    Bernoulli,
    BudgetExceededError,
    CompletelyRandomized,
    DesignInconsistencyError,
    ExperimentData,
    Theta,
    enumerate_thetas,
    theta_count,
    theta_index,
)
from defiers.combinatorics import LOG_ZERO
from defiers.likelihood import (
    GRID_MAX_N,
    PopulationShares,
    assignment_count_grid,
    exact_assignment_count,
    index_set,
    log_likelihood,
    oracle_assignment_count,
    oracle_data_distribution,
    relative_log_likelihood,
    sampling_log_likelihood,
)

SIX = ExperimentData(2, 1, 1, 2)
CR6 = CompletelyRandomized(3, 6)


def test_index_set_examples():
    assert list(index_set(SIX, Theta(0, 4, 2, 0))) == [0]
    assert list(index_set(SIX, Theta(1, 3, 1, 1))) == [0, 1]
    n, m = 5, 5
    x = ExperimentData(n, 0, 0, 0)
    assert list(index_set(x, Theta(n, 0, 0, 0))) == [m]
    # incompatible: no feasible split
    assert len(index_set(ExperimentData(2, 0, 0, 0), Theta(0, 0, 0, 2))) == 0
    with pytest.raises(ValueError):
        index_set(SIX, Theta(1, 0, 0, 0))


def test_six_person_likelihoods_exact():
    assert exact_assignment_count(Theta(2, 2, 0, 2), SIX) == 8
    assert exact_assignment_count(Theta(1, 3, 1, 1), SIX) == 6
    assert exact_assignment_count(Theta(0, 4, 2, 0), SIX) == 12
    assert relative_log_likelihood(Theta(0, 4, 2, 0), SIX) == pytest.approx(
        math.log(12), rel=1e-15
    )
    assert log_likelihood(Theta(0, 4, 2, 0), SIX, CR6) == pytest.approx(
        math.log(12 / 20), rel=1e-14
    )
    assert log_likelihood(Theta(2, 2, 0, 2), SIX, CR6) == pytest.approx(
        math.log(8 / 20), rel=1e-14
    )
    assert log_likelihood(Theta(1, 3, 1, 1), SIX, CR6) == pytest.approx(
        math.log(6 / 20), rel=1e-14
    )


def test_six_person_bernoulli():
    # 12 compatible splits, each subject assigned heads/tails
    val = log_likelihood(Theta(0, 4, 2, 0), SIX, Bernoulli(0.5))
    assert val == pytest.approx(math.log(12 / 64), rel=1e-14)


def test_incompatible_theta_is_log_zero():
    assert relative_log_likelihood(Theta(6, 0, 0, 0), SIX) == LOG_ZERO
    assert log_likelihood(Theta(6, 0, 0, 0), SIX, CR6) == LOG_ZERO


def test_design_consistency_errors():
    with pytest.raises(DesignInconsistencyError):
        log_likelihood(Theta(0, 4, 2, 0), SIX, CompletelyRandomized(2, 6))
    with pytest.raises(DesignInconsistencyError):
        log_likelihood(Theta(0, 4, 2, 0), SIX, CompletelyRandomized(3, 7))


def test_oracle_examples():
    assert oracle_assignment_count(Theta(0, 4, 2, 0), SIX, 3) == 12
    assert oracle_assignment_count(Theta(1, 3, 1, 1), SIX, 3) == 6
    # all never takers: every assignment yields the same data
    n, m = 7, 3
    x = ExperimentData(0, m, 0, n - m)
    assert oracle_assignment_count(Theta(0, 0, 0, n), x, m) == math.comb(n, m)
    with pytest.raises(BudgetExceededError):
        oracle_data_distribution(Theta(21, 0, 0, 0), 10)


@pytest.mark.parametrize("n", range(0, 7))
def test_oracle_equivalence_exhaustive(n):
    # every theta, every arm size: exact sums equal brute-force assignment tallies
    for theta in enumerate_thetas(n):
        for m in range(n + 1):
            tally = oracle_data_distribution(theta, m)
            assert sum(tally.values()) == math.comb(n, m)
            for x, count in tally.items():
                assert exact_assignment_count(theta, x) == count
            # a data realization outside the tally has zero likelihood
            for i1 in range(m + 1):
                for c1 in range(n - m + 1):
                    x = ExperimentData(i1, m - i1, c1, n - m - c1)
                    if x not in tally:
                        assert exact_assignment_count(theta, x) == 0


def test_cr_normalization():
    # probabilities over all realizable data sum to one
    for theta in enumerate_thetas(9):
        for m in (0, 4, 9):
            total = 0.0
            for i1 in range(m + 1):
                for c1 in range(9 - m + 1):
                    x = ExperimentData(i1, m - i1, c1, 9 - m - c1)
                    ll = log_likelihood(theta, x, CompletelyRandomized(m, 9))
                    if ll > LOG_ZERO:
                        total += math.exp(ll)
            assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_bernoulli_normalization(p):
    rng = np.random.default_rng(4)
    n = 8
    thetas = list(enumerate_thetas(n))
    for theta in rng.choice(len(thetas), size=10, replace=False):
        theta = thetas[int(theta)]
        total = 0.0
        for i1 in range(n + 1):
            for i0 in range(n - i1 + 1):
                for c1 in range(n - i1 - i0 + 1):
                    x = ExperimentData(i1, i0, c1, n - i1 - i0 - c1)
                    ll = log_likelihood(theta, x, Bernoulli(p))
                    if ll > LOG_ZERO:
                        total += math.exp(ll)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_design_proportionality():
    # log-likelihood differences between thetas do not depend on the design
    x = ExperimentData(5, 3, 2, 4)
    cr = CompletelyRandomized(8, 14)
    pairs = [
        (Theta(2, 5, 1, 6), Theta(4, 3, 0, 7)),
        (Theta(7, 0, 2, 5), Theta(2, 3, 0, 9)),
    ]
    for ta, tb in pairs:
        d_cr = log_likelihood(ta, x, cr) - log_likelihood(tb, x, cr)
        for p in (0.2, 0.5, 0.9):
            d_b = log_likelihood(ta, x, Bernoulli(p)) - log_likelihood(tb, x, Bernoulli(p))
            assert d_b == pytest.approx(d_cr, abs=1e-10)
        d_rel = relative_log_likelihood(ta, x) - relative_log_likelihood(tb, x)
        assert d_rel == pytest.approx(d_cr, abs=1e-10)


def test_grid_matches_scalar_path():
    for x in (SIX, ExperimentData(3, 2, 4, 1), ExperimentData(0, 5, 5, 0)):
        grid = assignment_count_grid(x)
        index = theta_index(x.n)
        assert grid.size == index.size
        for i, theta in enumerate(enumerate_thetas(x.n)):
            assert grid[i] == float(exact_assignment_count(theta, x))
    assert assignment_count_grid(SIX)[theta_index(6).flat(Theta(0, 4, 2, 0))] == 12.0


def test_grid_total_is_partition_of_assignments():
    # summing counts over all thetas that share nothing still partitions
    # each theta's own assignments; check one theta column against the oracle
    x = ExperimentData(4, 2, 3, 3)
    grid = assignment_count_grid(x)
    index = theta_index(x.n)
    rng = np.random.default_rng(5)
    flats = rng.integers(0, index.size, size=50)
    for f in flats:
        theta = index.theta(int(f))
        assert grid[int(f)] == float(exact_assignment_count(theta, x))


def test_population_shares_validation():
    q = PopulationShares(0.25, 0.25, 0.25, 0.25)
    assert q.takeup_intervention == 0.5
    with pytest.raises(ValueError):
        PopulationShares(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        PopulationShares(0.5, 0.5, 0.1, 0.1)


def test_sampling_likelihood_examples():
    # all always takers: the only possible data occurs with probability one
    n, m = 6, 2
    q = PopulationShares(1.0, 0.0, 0.0, 0.0)
    x = ExperimentData(m, 0, n - m, 0)
    assert sampling_log_likelihood(q, x, CompletelyRandomized(m, n)) == 0.0
    # two independent draws
    q = PopulationShares(0.5, 0.0, 0.0, 0.5)
    x = ExperimentData(1, 0, 0, 1)
    val = sampling_log_likelihood(q, x, CompletelyRandomized(1, 2))
    assert val == pytest.approx(math.log(0.25), rel=1e-14)
    # takeup observed where the shares give it probability zero
    q = PopulationShares(0.0, 0.0, 0.5, 0.5)
    assert sampling_log_likelihood(q, SIX, CR6) == LOG_ZERO


def test_sampling_flatness_vs_design_variation():
    # population vectors sharing marginals are indistinguishable, while the
    # design-based likelihood distinguishes sample vectors in one Fréchet set
    rng = np.random.default_rng(6)
    for _ in range(60):
        qm1, qmc = rng.uniform(0.05, 0.95, size=2)
        lo = max(0.0, qm1 + qmc - 1.0)
        hi = min(qm1, qmc)
        a, b = sorted(rng.uniform(lo, hi, size=2))
        qa = PopulationShares(a, qm1 - a, qmc - a, 1 - qm1 - qmc + a)
        qb = PopulationShares(b, qm1 - b, qmc - b, 1 - qm1 - qmc + b)
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, n))
        i1 = int(rng.integers(0, m + 1))
        c1 = int(rng.integers(0, n - m + 1))
        x = ExperimentData(i1, m - i1, c1, n - m - c1)
        for design in (CompletelyRandomized(m, n), Bernoulli(0.4)):
            va = sampling_log_likelihood(qa, x, design)
            vb = sampling_log_likelihood(qb, x, design)
            if va == LOG_ZERO or vb == LOG_ZERO:
                assert va == vb
            else:
                assert va == pytest.approx(vb, abs=1e-12)
    # the design-based likelihood varies across the sample Fréchet set
    assert exact_assignment_count(Theta(2, 2, 0, 2), SIX) != exact_assignment_count(
        Theta(0, 4, 2, 0), SIX
    )


def test_exact_fraction_of_assignments():
    # exact CR likelihood as a fraction: count over C(n, m)
    count = exact_assignment_count(Theta(0, 4, 2, 0), SIX)
    assert Fraction(count, math.comb(6, 3)) == Fraction(3, 5)


def test_split_roundtrip_in_index_set():
    # any split that produced the data is a feasible index value for it
    from defiers.core import ArmSplit, data_from_split

    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 14))
        parts = rng.multinomial(n, [0.25] * 4)
        theta = Theta(*map(int, parts))
        split = ArmSplit(*(int(rng.integers(0, c + 1)) for c in theta.counts()))
        x = data_from_split(theta, split)
        assert split.at_i in index_set(x, theta)


def test_grid_budget_guard():
    with pytest.raises(BudgetExceededError):
        assignment_count_grid(ExperimentData(500, 500, 500, 501))


def test_grid_sum_fits_float64_at_the_guard():
    # every entry counts assignments of one arm size, at most C(n, n//2), so
    # the grid sum (the posterior's normaliser) is at most this bound
    bound = theta_count(GRID_MAX_N) * math.comb(GRID_MAX_N, GRID_MAX_N // 2)
    assert bound < sys.float_info.max
