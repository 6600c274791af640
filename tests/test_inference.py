import math

import numpy as np
import pytest

from defiers.core import (
    CompletelyRandomized,
    ExperimentData,
    Theta,
    enumerate_thetas,
    theta_count,
)
from defiers.likelihood import oracle_assignment_count
from defiers.inference import (
    mle,
    monotonicity_mle,
    posterior,
    smallest_credible_set,
)

SIX = ExperimentData(2, 1, 1, 2)
CR6 = CompletelyRandomized(3, 6)


def test_mle_six_person():
    result = mle(SIX, CR6)
    assert result.maximizers == (Theta(0, 4, 2, 0),)
    assert result.log_likelihood == pytest.approx(math.log(12 / 20), rel=1e-12)
    assert result.tie_verified_exact
    assert result.weight == 1.0
    assert result.estimate == Theta(0, 4, 2, 0)


def test_mle_matches_oracle_argmax_small_n():
    # grid-search maximizers equal brute-force assignment-count maximizers
    for n, m in ((4, 2), (5, 2), (6, 3), (7, 4)):
        thetas = list(enumerate_thetas(n))
        for i1 in range(m + 1):
            for c1 in range(n - m + 1):
                x = ExperimentData(i1, m - i1, c1, n - m - c1)
                counts = [oracle_assignment_count(t, x, m) for t in thetas]
                best = max(counts)
                expect = {t for t, c in zip(thetas, counts) if c == best}
                got = set(mle(x, CompletelyRandomized(m, n)).maximizers)
                assert got == expect, (n, m, x.counts())


def test_mle_two_way_tie_midline():
    # exact two-way ties on the midline where takeup is half the intervention arm
    x = ExperimentData(50, 50, 20, 80)
    result = mle(x, CompletelyRandomized(100, 200))
    assert len(result.maximizers) == 2
    assert result.tie_verified_exact
    assert set(result.maximizers) == {Theta(0, 100, 40, 60), Theta(40, 60, 0, 100)}


def test_monotonicity_mle_examples():
    # the monotone maximizer for the six-person data pools takers:
    # three always takers and three never takers yield the data in
    # C(3,2)*C(3,1) = 9 of 20 assignments, beating every other monotone vector
    result = monotonicity_mle(SIX, CR6)
    assert result.maximizers == (Theta(3, 0, 0, 3),)
    assert oracle_assignment_count(Theta(3, 0, 0, 3), SIX, 3) == 9
    # restriction never helps
    assert mle(SIX, CR6).log_likelihood >= result.log_likelihood
    # all maximizers satisfy the restriction
    assert all(t.de == 0 or t.co == 0 for t in result.maximizers)


def test_monotonicity_mle_matches_restricted_oracle():
    for n, m in ((5, 2), (6, 3)):
        thetas = [t for t in enumerate_thetas(n) if t.de == 0 or t.co == 0]
        for i1 in range(m + 1):
            for c1 in range(n - m + 1):
                x = ExperimentData(i1, m - i1, c1, n - m - c1)
                counts = [oracle_assignment_count(t, x, m) for t in thetas]
                best = max(counts)
                expect = {t for t, c in zip(thetas, counts) if c == best}
                got = set(monotonicity_mle(x, CompletelyRandomized(m, n)).maximizers)
                assert got == expect


def test_monotonicity_all_defier_corner():
    n, m = 8, 3
    x = ExperimentData(0, m, n - m, 0)  # zero takeup in intervention, full in control
    result = monotonicity_mle(x, CompletelyRandomized(m, n))
    assert result.maximizers == (Theta(0, 0, n, 0),)


def test_posterior_six_person():
    post = posterior(SIX, CR6)
    top_theta, top_mass = post.top()
    assert top_theta == Theta(0, 4, 2, 0)
    assert post.entry_count == theta_count(6)
    assert float(post.mass.sum()) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(post.mass) <= 0)
    # MAP set equals MLE set under the uniform prior
    mle_set = set(mle(SIX, CR6).maximizers)
    top_block = {t for t, m in post.entries(limit=5) if m == top_mass}
    assert mle_set == top_block


def test_posterior_single_subject():
    x = ExperimentData(1, 0, 0, 0)
    post = posterior(x, CompletelyRandomized(1, 1))
    masses = dict(post.entries())
    assert masses[Theta(1, 0, 0, 0)] == pytest.approx(0.5)
    assert masses[Theta(0, 1, 0, 0)] == pytest.approx(0.5)
    assert masses[Theta(0, 0, 1, 0)] == 0.0
    assert masses[Theta(0, 0, 0, 1)] == 0.0


def test_credible_set_degenerate():
    n, m = 6, 2
    x = ExperimentData(0, m, n - m, 0)
    post = posterior(x, CompletelyRandomized(m, n))
    assert post.top()[0] == Theta(0, 0, n, 0)
    summary = smallest_credible_set(post, 0.5)
    # the all-defier vector produces this data under every assignment and is
    # the unique positive-mass entry... unless other vectors also can; check
    assert summary.member_count >= 1
    assert summary.achieved_mass >= 0.5


def test_credible_set_minimality_and_tie_blocks():
    post = posterior(SIX, CR6)
    for level in (0.5, 0.8, 0.95):
        summary = smallest_credible_set(post, level)
        assert summary.achieved_mass >= level - 1e-12
        k = summary.member_count
        # removing the trailing tie block drops below the level
        masses = post.mass[:k]
        boundary = masses[-1]
        block = int(np.sum(masses == boundary))
        assert float(np.sum(masses[: k - block])) < level
        # per-type ranges cover the top entry
        top = post.top()[0]
        assert summary.at_range[0] <= top.at <= summary.at_range[1]
        assert summary.de_range[0] <= top.de <= summary.de_range[1]


def test_credible_set_level_validation():
    post = posterior(SIX, CR6)
    with pytest.raises(ValueError):
        smallest_credible_set(post, 0.0)
    with pytest.raises(ValueError):
        smallest_credible_set(post, 1.0)


def test_organ_donation_inference():
    x = ExperimentData(50, 11, 23, 31)
    cr = CompletelyRandomized(61, 115)
    assert mle(x, cr).maximizers == (Theta(28, 66, 21, 0),)
    assert monotonicity_mle(x, cr).maximizers == (Theta(49, 45, 0, 21),)
    summary = smallest_credible_set(posterior(x, cr), 0.95)
    assert summary.de_range == (0, 34)


def test_posterior_degenerate_single_theta():
    x = ExperimentData(0, 0, 0, 0)
    post = posterior(x, CompletelyRandomized(0, 0))
    assert post.entry_count == 1
    assert post.top() == (Theta(0, 0, 0, 0), 1.0)
    for level in (0.25, 0.95):
        summary = smallest_credible_set(post, level)
        assert summary.member_count == 1
        assert summary.achieved_mass == 1.0
        assert summary.de_range == (0, 0)


def test_average_effect_recovery_named_applications():
    # six people: exact recovery of the estimated effect by the MLE
    six = mle(SIX, CR6).estimate
    assert six.average_effect() == pytest.approx(SIX.average_effect(), abs=1e-15)
    # smoking-cessation data: recovery is exact; half the even sample is treated
    x = ExperimentData(69, 237, 26, 280)
    t = mle(x, CompletelyRandomized(306, 612)).estimate
    assert t.average_effect() == pytest.approx(x.average_effect(), abs=1e-15)
    # organ-donation data: the MLE preserves rounded marginal estimates, so the match
    # is to the whole percent
    xj = ExperimentData(50, 11, 23, 31)
    j = mle(xj, CompletelyRandomized(61, 115)).estimate
    assert round(100 * j.average_effect()) == round(100 * xj.average_effect()) == 39


def test_map_equals_mle_on_random_data():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, n))
        i1 = int(rng.integers(0, m + 1))
        c1 = int(rng.integers(0, n - m + 1))
        x = ExperimentData(i1, m - i1, c1, n - m - c1)
        design = CompletelyRandomized(m, n)
        post = posterior(x, design)
        top_mass = post.top()[1]
        top_block = {t for t, mass in post.entries() if mass == top_mass}
        assert set(mle(x, design).maximizers) <= top_block
