import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from defiers.core import (
    Bernoulli,
    CompletelyRandomized,
    DegenerateDataError,
    ExperimentData,
    Theta,
    enumerate_thetas,
)
from defiers import frechet, likelihood
from defiers.frechet import (
    Marginals,
    estimate_marginals,
    frechet_profile,
    frechet_set,
    profile_level_flags,
    theta_at_defiers,
)
from defiers.likelihood import log_likelihood

from grid_reference import tables

ORGAN_X = ExperimentData(50, 11, 23, 31)
ORGAN_CR = CompletelyRandomized(61, 115)


def test_estimate_marginals_organ_donation():
    m = estimate_marginals(ORGAN_X, ORGAN_CR)
    assert (m.m1, m.mc) == (94, 49)  # 94.26 and 48.98 before rounding


def test_estimate_marginals_smoking():
    x = ExperimentData(69, 237, 26, 280)
    m = estimate_marginals(x, CompletelyRandomized(306, 612))
    assert (m.m1, m.mc) == (138, 52)


def test_estimate_marginals_universal_takeup():
    n, m = 10, 4
    x = ExperimentData(m, 0, n - m, 0)
    res = estimate_marginals(x, CompletelyRandomized(m, n))
    assert (res.m1, res.mc) == (n, n)


def test_estimate_marginals_bernoulli_denominators():
    x = ExperimentData(3, 3, 2, 4)
    est = estimate_marginals(x, Bernoulli(0.5))
    # expected arm sizes: 3/0.5 = 6 and 2/0.5 = 4
    assert (est.m1, est.mc) == (6, 4)
    skewed = estimate_marginals(x, Bernoulli(0.25))
    assert (skewed.m1, skewed.mc) == (12, 3)  # 3/0.25 = 12, 2/0.75 = 2.67 -> 3


def half_up(value):
    """Nearest integer to a non-negative Fraction, halves rounded up."""
    return math.floor(value + Fraction(1, 2))


@settings(max_examples=200, deadline=None)
@given(counts=tables(max_n=60))
@example(counts=(1, 3, 3, 1))  # 8 * 1 / 4 = 2 and 8 * 3 / 4 = 6: exact integers
@example(counts=(1, 1, 3, 1))  # 6 * 1 / 2 = 3 and 6 * 3 / 4 = 4.5: an exact half
@example(counts=(3, 5, 1, 3))  # 12 * 3 / 8 = 4.5 and 12 * 1 / 4 = 3
def test_estimate_marginals_match_fraction_rounding_completely_randomized(counts):
    x = ExperimentData(*counts)
    m, k = x.intervention_size, x.control_size
    assume(m > 0 and k > 0)
    est = estimate_marginals(x, CompletelyRandomized(m, x.n))
    assert (est.m1, est.mc) == (half_up(Fraction(x.n * x.i1, m)), half_up(Fraction(x.n * x.c1, k)))


@settings(max_examples=200, deadline=None)
@given(counts=tables(max_n=60), p=st.sampled_from([0.5, 0.3, 1 / 3, 0.7]))
@example(counts=(1, 0, 1, 0), p=0.5)  # 1 / 0.5 = 2: exact integers
# a dyadic p = a / 2**k with a odd never gives an exact half; the float 0.4
# exceeds 2/5, so 3 / 0.4 lies just below 7.5 (float division rounds it to 7.5)
@example(counts=(3, 2, 5, 0), p=0.4)
@example(counts=(3, 3, 3, 3), p=0.75)  # 3 / 0.75 = 4 and 3 / 0.25 = 12
def test_estimate_marginals_match_fraction_rounding_bernoulli(counts, p):
    x = ExperimentData(*counts)
    assume(x.intervention_size > 0 and x.control_size > 0)
    est = estimate_marginals(x, Bernoulli(p))
    q = Fraction(p)  # the exact value of the float p
    want = (half_up(x.i1 / q), half_up(x.c1 / (1 - q)))
    assert (est.m1, est.mc) == tuple(min(v, x.n) for v in want)


def test_estimate_marginals_degenerate():
    with pytest.raises(DegenerateDataError):
        estimate_marginals(ExperimentData(0, 0, 3, 3), CompletelyRandomized(0, 6))


def test_frechet_set_bounds():
    assert frechet_set(Marginals(94, 49, 115)).defier_lo == 0
    assert frechet_set(Marginals(94, 49, 115)).defier_hi == 21
    fs = frechet_set(Marginals(7, 0, 7))
    assert (fs.defier_lo, fs.defier_hi) == (0, 0)
    fs = frechet_set(Marginals(2, 4, 6))
    assert (fs.defier_lo, fs.defier_hi) == (2, 4)


def test_frechet_set_never_empty():
    for n in (0, 1, 5, 9):
        for m1 in range(n + 1):
            for mc in range(n + 1):
                fs = frechet_set(Marginals(m1, mc, n))
                assert fs.defier_lo <= fs.defier_hi
                for d in fs.defier_range():
                    theta = theta_at_defiers(fs, d)
                    assert min(theta.counts()) >= 0
                    assert theta.n == n


def test_theta_at_defiers_examples():
    fs = frechet_set(Marginals(4, 2, 6))
    assert theta_at_defiers(fs, 0) == Theta(2, 2, 0, 2)
    assert theta_at_defiers(fs, 2) == Theta(0, 4, 2, 0)
    fs = frechet_set(Marginals(94, 49, 115))
    assert theta_at_defiers(fs, 21) == Theta(28, 66, 21, 0)
    with pytest.raises(ValueError):
        theta_at_defiers(fs, 22)


def test_marginals_roundtrip():
    for theta in enumerate_thetas(8):
        fs = frechet_set(Marginals(theta.at + theta.co, theta.at + theta.de, theta.n))
        assert theta_at_defiers(fs, theta.de) == theta
        for d in fs.defier_range():
            t = theta_at_defiers(fs, d)
            assert Marginals(t.at + t.co, t.at + t.de, t.n) == fs.marginals


def test_profile_six_person():
    x = ExperimentData(2, 1, 1, 2)
    cr = CompletelyRandomized(3, 6)
    fs = frechet_set(estimate_marginals(x, cr))
    rows = frechet_profile(fs, x, cr)
    assert [r.defiers for r in rows] == [0, 1, 2]
    assert [r.mass for r in rows] == pytest.approx([8 / 26, 6 / 26, 12 / 26])
    assert rows[2].log_likelihood == pytest.approx(math.log(12 / 20), rel=1e-12)


def test_profile_organ_donation_exclusions():
    fs = frechet_set(estimate_marginals(ORGAN_X, ORGAN_CR))
    rows = frechet_profile(fs, ORGAN_X, ORGAN_CR)
    assert len(rows) == 22
    assert max(rows, key=lambda r: r.mass).defiers == 21
    flags = profile_level_flags(rows, 0.95)
    assert [r.defiers for r, f in zip(rows, flags) if not f] == [8, 9]
    assert sum(r.mass for r in rows) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "x, design",
    [
        (ORGAN_X, ORGAN_CR),
        (ExperimentData(3, 3, 2, 4), Bernoulli(0.5)),
        (ExperimentData(3, 3, 2, 4), Bernoulli(0.3)),  # every member counts 0
    ],
)
def test_profile_counts_each_member_once(monkeypatch, x, design):
    counted = []

    def counting(theta, data):
        counted.append(theta)
        return exact_count(theta, data)

    # the profile's own calls and any through the scalar likelihood route
    exact_count = likelihood.exact_assignment_count
    monkeypatch.setattr(frechet, "exact_assignment_count", counting)
    monkeypatch.setattr(likelihood, "exact_assignment_count", counting)
    fs = frechet_set(estimate_marginals(x, design))
    rows = frechet_profile(fs, x, design)
    assert counted == fs.members()
    # the log values are the scalar route's, bit for bit
    assert [r.log_likelihood for r in rows] == [
        log_likelihood(theta, x, design) for theta in fs.members()
    ]


def test_profile_degenerate_single_member():
    n, m = 8, 3
    x = ExperimentData(m, 0, n - m, 0)  # universal takeup
    cr = CompletelyRandomized(m, n)
    fs = frechet_set(estimate_marginals(x, cr))
    rows = frechet_profile(fs, x, cr)
    assert len(rows) == 1
    assert rows[0].mass == 1.0
    assert profile_level_flags(rows, 0.95) == [True]


def test_profile_u_shape_soft_property():
    # empirical regularity: within estimated sets the profile has at most one
    # interior local minimum and peaks at an endpoint; warn, never fail
    violations = []
    for n, m in ((10, 5), (12, 6)):
        cr = CompletelyRandomized(m, n)
        for i1 in range(1, m):
            for c1 in range(1, n - m):
                x = ExperimentData(i1, m - i1, c1, n - m - c1)
                fs = frechet_set(estimate_marginals(x, cr))
                rows = frechet_profile(fs, x, cr)
                masses = [r.mass for r in rows]
                if len(masses) < 2 or max(masses) == 0.0:
                    continue
                peak = max(masses)
                if peak not in (masses[0], masses[-1]):
                    violations.append((n, x.counts(), "peak interior"))
                rises = sum(
                    1
                    for k in range(1, len(masses) - 1)
                    if masses[k] < masses[k - 1] and masses[k] < masses[k + 1]
                )
                if rises > 1:
                    violations.append((n, x.counts(), "several local minima"))
    if violations:
        import warnings

        warnings.warn(f"profile shape regularity violated: {violations[:5]}")
