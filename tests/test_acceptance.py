"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from defiers.core import (
    Bernoulli,
    CompletelyRandomized,
    ExperimentData,
    Theta,
    enumerate_thetas,
    theta_index,
)
from defiers.combinatorics import LOG_ZERO, exact_binomial
from defiers.likelihood import (
    PopulationShares,
    assignment_count_grid,
    exact_assignment_count,
    oracle_data_distribution,
    sampling_log_likelihood,
)
from defiers.frechet import (
    estimate_marginals,
    frechet_profile,
    frechet_set,
    profile_level_flags,
)
from defiers.inference import mle, monotonicity_mle, posterior, smallest_credible_set
from defiers.evaluation import (
    FRECHET_RULE,
    MAX_LIKELIHOOD_RULE,
    MONOTONICITY_RULE,
    bayes_expected_utilities,
    bayes_expected_utility,
    custom_rule,
    defier_region_check,
    heatmap,
    heatmap_symmetry_counterexamples,
    monty_hall_likelihoods,
    rule_comparison_curve,
)

from grid_reference import canonical

SIX_X = ExperimentData(2, 1, 1, 2)
SIX_CR = CompletelyRandomized(3, 6)
ORGAN_X = ExperimentData(50, 11, 23, 31)
ORGAN_CR = CompletelyRandomized(61, 115)
SMOKE_X = ExperimentData(69, 237, 26, 280)
SMOKE_CR = CompletelyRandomized(306, 612)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {description}")


def test_criterion_01_six_person_exact():
    with criterion(1, "six-person example: exact likelihoods and MLE, under 1s"):
        start = time.perf_counter()
        nm = math.comb(6, 3)
        expected = {
            Theta(2, 2, 0, 2): Fraction(8, 20),
            Theta(1, 3, 1, 1): Fraction(6, 20),
            Theta(0, 4, 2, 0): Fraction(12, 20),
        }
        for theta, frac in expected.items():
            assert Fraction(exact_assignment_count(theta, SIX_X), nm) == frac
        result = mle(SIX_X, SIX_CR)
        assert result.maximizers == (Theta(0, 4, 2, 0),)
        assert result.tie_verified_exact
        assert time.perf_counter() - start < 1.0


def test_criterion_02_organ_donation_application():
    with criterion(2, "organ-donation default application: marginals, bounds, MLE, profile, credible set"):
        start = time.perf_counter()
        marginals = estimate_marginals(ORGAN_X, ORGAN_CR)
        assert (marginals.m1, marginals.mc) == (94, 49)
        fs = frechet_set(marginals)
        assert (fs.defier_lo, fs.defier_hi) == (0, 21)
        assert mle(ORGAN_X, ORGAN_CR).maximizers == (Theta(28, 66, 21, 0),)
        rows = frechet_profile(fs, ORGAN_X, ORGAN_CR)
        flags = profile_level_flags(rows, 0.95)
        excluded = [r.defiers for r, f in zip(rows, flags) if not f]
        assert excluded == [8, 9]
        summary = smallest_credible_set(posterior(ORGAN_X, 0.95))
        assert summary.de_range[1] == 34
        assert time.perf_counter() - start < 30.0


def test_criterion_03_smoking_application():
    with criterion(3, "smoking-cessation payment application: 38.6M-vector grid search and credible set"):
        start = time.perf_counter()
        result = mle(SMOKE_X, SMOKE_CR)
        assert result.maximizers == (Theta(52, 86, 0, 474),)
        mono = monotonicity_mle(SMOKE_X, SMOKE_CR)
        assert mono.maximizers == result.maximizers
        summary = smallest_credible_set(posterior(SMOKE_X, 0.95))
        assert summary.de_range == (0, 71)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0  # inside even the 8-thread budget, single-threaded


def test_criterion_04_assignment_count_percentages():
    with criterion(4, "assignment-count ratios 3.4% / 3.1% and leading digits"):
        total = exact_binomial(115, 61)
        no_never = exact_binomial(28, 15) * exact_binomial(66, 35) * exact_binomial(21, 11)
        no_defier = exact_binomial(49, 26) * exact_binomial(45, 24) * exact_binomial(21, 11)
        assert abs(Fraction(no_never, total) - Fraction(34, 1000)) <= Fraction(5, 10000)
        assert abs(Fraction(no_defier, total) - Fraction(31, 1000)) <= Fraction(5, 10000)
        assert 8.4e31 <= no_never <= 8.6e31
        assert 7.7e31 <= no_defier <= 7.9e31
        assert 2.4e33 <= total <= 2.6e33
        # the two products are exactly the likelihood numerators of the
        # corresponding joint distributions
        assert exact_assignment_count(Theta(28, 66, 21, 0), ORGAN_X) == no_never
        assert exact_assignment_count(Theta(49, 45, 0, 21), ORGAN_X) == no_defier


def test_criterion_05_bayes_ratio_curve():
    with criterion(5, "Bayes expected utility ratios 1.50 / 1.19 at n=50, curve >= 1"):
        start = time.perf_counter()
        rows = rule_comparison_curve(list(range(2, 51, 2)))
        assert len(rows) == 25
        last = rows[-1]
        assert last.n == 50
        assert abs(last.ratio_frechet - 1.50) <= 0.02
        assert abs(last.ratio_mono - 1.19) <= 0.02
        for row in rows:
            assert row.ratio_frechet >= 1.0 - 1e-12
            assert row.ratio_mono >= 1.0 - 1e-12
        # endpoint matches standalone evaluations
        design = CompletelyRandomized(25, 50)
        assert bayes_expected_utility(MAX_LIKELIHOOD_RULE, 50, design) == pytest.approx(
            last.eu_mle, rel=1e-12
        )
        assert time.perf_counter() - start < 600.0


def test_criterion_06_heatmap_properties():
    with criterion(6, "n=50 heatmap: corners, symmetry, type counts, Fisher region"):
        start = time.perf_counter()
        n, m = 50, 25
        cells = heatmap(n, m)
        assert cells[m][n - m].type_signature == "A"
        assert cells[m][0].type_signature == "C"
        assert cells[0][n - m].type_signature == "D"
        assert cells[0][0].type_signature == "N"
        assert heatmap_symmetry_counterexamples(cells) == []
        for row in cells:
            for cell in row:
                for theta in cell.mle_set:
                    assert len(theta.types_present()) < 4
        region = defier_region_check(n)
        assert region.passed, region.counterexamples
        an_only = [
            cell for row in cells for cell in row if set(cell.type_signature) <= {"A", "N"}
        ]
        fail_to_reject = [
            cell for row in cells for cell in row if not cell.fisher_reject_5
        ]
        assert all(not cell.fisher_reject_5 for cell in an_only)
        assert len(fail_to_reject) > len(an_only)
        assert time.perf_counter() - start < 300.0


def test_criterion_07_oracle_equivalence_and_normalization():
    with criterion(7, "oracle equivalence (exact) and likelihood normalization"):
        # every theta, every arm size, every realizable data value at n <= 8
        for n in range(0, 9):
            nm_cache = {}
            for theta in enumerate_thetas(n):
                for m in range(n + 1):
                    tally = oracle_data_distribution(theta, m)
                    assert sum(tally.values()) == math.comb(n, m)
                    for x, count in tally.items():
                        assert exact_assignment_count(theta, x) == count
        # 200 random cases at n <= 14
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(9, 15))
            parts = rng.multinomial(n, [0.25] * 4)
            theta = Theta(*map(int, parts))
            m = int(rng.integers(0, n + 1))
            tally = oracle_data_distribution(theta, m)
            x = list(tally)[int(rng.integers(0, len(tally)))]
            assert exact_assignment_count(theta, x) == tally[x]
        # normalization at n <= 12 under both designs, all thetas at once
        for n in (6, 9, 12):
            index = theta_index(n)
            for m in {n // 2, max(1, n // 3)}:
                totals = np.zeros(index.size)
                for i1 in range(m + 1):
                    for c1 in range(n - m + 1):
                        x = ExperimentData(i1, m - i1, c1, n - m - c1)
                        totals += canonical(assignment_count_grid(x), n)
                totals /= math.comb(n, m)
                assert np.max(np.abs(totals - 1.0)) < 1e-10
            for p in (0.3, 0.5):
                totals = np.zeros(index.size)
                for i1 in range(n + 1):
                    for i0 in range(n - i1 + 1):
                        for c1 in range(n - i1 - i0 + 1):
                            x = ExperimentData(i1, i0, c1, n - i1 - i0 - c1)
                            scale = p ** (i1 + i0) * (1 - p) ** (x.c1 + x.c0)
                            totals += canonical(assignment_count_grid(x), n) * scale
                assert np.max(np.abs(totals - 1.0)) < 1e-10


def test_criterion_08_sampling_flatness():
    with criterion(8, "sampling likelihood flat on matched marginals; design-based varies"):
        rng = np.random.default_rng(15)
        design_based_varies = False
        for _ in range(100):
            qm1, qmc = rng.uniform(0.05, 0.95, size=2)
            lo = max(0.0, qm1 + qmc - 1.0)
            hi = min(qm1, qmc)
            a, b = rng.uniform(lo, hi, size=2)
            qa = PopulationShares(a, qm1 - a, qmc - a, 1 - qm1 - qmc + a)
            qb = PopulationShares(b, qm1 - b, qmc - b, 1 - qm1 - qmc + b)
            n = int(rng.integers(4, 21))
            m = int(rng.integers(1, n))
            i1 = int(rng.integers(0, m + 1))
            c1 = int(rng.integers(0, n - m + 1))
            x = ExperimentData(i1, m - i1, c1, n - m - c1)
            for design in (CompletelyRandomized(m, n), Bernoulli(float(rng.uniform(0.2, 0.8)))):
                va = sampling_log_likelihood(qa, x, design)
                vb = sampling_log_likelihood(qb, x, design)
                if va == LOG_ZERO or vb == LOG_ZERO:
                    assert va == vb
                else:
                    assert abs(va - vb) < 1e-12
            fs = frechet_set(estimate_marginals(x, CompletelyRandomized(m, n)))
            counts = {exact_assignment_count(t, x) for t in fs.members()}
            if len(counts) > 1:
                design_based_varies = True
        assert design_based_varies


def test_criterion_09_bayes_optimality():
    with criterion(9, "Bayes optimality of the maximum likelihood rule up to n=14"):
        rng = np.random.default_rng(16)
        for n in range(2, 15):
            design = CompletelyRandomized(n // 2, n)
            eu_mle, eu_fre, eu_mono = bayes_expected_utilities(
                [MAX_LIKELIHOOD_RULE, FRECHET_RULE, MONOTONICITY_RULE], n, design
            )
            assert eu_mle >= eu_fre - 1e-12
            assert eu_mle >= eu_mono - 1e-12
            thetas = list(enumerate_thetas(n))
            for _ in range(50):
                size = int(rng.integers(1, 6))
                support = rng.choice(len(thetas), size=size, replace=False)
                weights = rng.dirichlet([1.0] * size)

                def decide(x, design, s=support, w=weights):
                    return [(thetas[int(i)], float(wi)) for i, wi in zip(s, w)]

                assert eu_mle >= bayes_expected_utility(
                    custom_rule(decide), n, design
                ) - 1e-12


def test_criterion_10_monty_hall():
    with criterion(10, "three-door reveal: likelihoods (1/2, 1), decision switch"):
        result = monty_hall_likelihoods()
        assert result.car_absent == 0.5
        assert result.car_present == 1.0
        assert result.decision == "switch"
