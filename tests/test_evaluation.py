import dataclasses
import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from defiers.core import (
    Bernoulli,
    BudgetExceededError,
    CompletelyRandomized,
    ExperimentData,
    Theta,
    enumerate_thetas,
    theta_index,
)
from defiers.likelihood import (
    assignment_count_grid,
    oracle_assignment_count,
    oracle_data_distribution,
)
from defiers import evaluation
from defiers.frechet import estimate_marginals, frechet_set
from defiers.evaluation import (
    FRECHET_RULE,
    MAX_LIKELIHOOD_RULE,
    MONOTONICITY_RULE,
    bayes_expected_utilities,
    bayes_expected_utility,
    custom_rule,
    defier_region_check,
    expected_utility,
    fisher_exact_p,
    heatmap,
    heatmap_symmetry_counterexamples,
    monty_hall_likelihoods,
    rule_comparison_curve,
    rule_eu_vectors,
)


def brute_force_eu(rule_decide, theta, m):
    """Independent oracle: average the rule's weight on theta over assignments."""
    n = theta.n
    tally = oracle_data_distribution(theta, m)
    total = math.comb(n, m)
    eu = Fraction(0)
    for x, count in tally.items():
        for guess, weight in rule_decide(x):
            if guess == theta:
                eu += Fraction(count, total) * Fraction(weight)
    return float(eu)


def oracle_mle_decide(m, n):
    thetas = list(enumerate_thetas(n))

    def decide(x):
        counts = [oracle_assignment_count(t, x, m) for t in thetas]
        best = max(counts)
        ties = [t for t, c in zip(thetas, counts) if c == best]
        return [(t, Fraction(1, len(ties))) for t in ties]

    return decide


def oracle_frechet_decide(m, n):
    def decide(x):
        fs = frechet_set(estimate_marginals(x, CompletelyRandomized(m, n)))
        members = fs.members()
        return [(t, Fraction(1, len(members))) for t in members]

    return decide


def test_expected_utility_examples():
    # all never takers produce one data realization, uniquely maximized
    for n, m in ((4, 2), (6, 3)):
        theta = Theta(0, 0, 0, n)
        assert expected_utility(
            MAX_LIKELIHOOD_RULE, theta, CompletelyRandomized(m, n)
        ) == pytest.approx(1.0)
    # probability bound
    rng = np.random.default_rng(7)
    for _ in range(5):
        parts = rng.multinomial(6, [0.25] * 4)
        theta = Theta(*map(int, parts))
        for rule in (MAX_LIKELIHOOD_RULE, FRECHET_RULE, MONOTONICITY_RULE):
            v = expected_utility(rule, theta, CompletelyRandomized(3, 6))
            assert 0.0 <= v <= 1.0


def test_expected_utility_matches_brute_force_n2():
    n, m = 2, 1
    design = CompletelyRandomized(m, n)
    mle_decide = oracle_mle_decide(m, n)
    fre_decide = oracle_frechet_decide(m, n)
    for theta in enumerate_thetas(n):
        assert expected_utility(MAX_LIKELIHOOD_RULE, theta, design) == pytest.approx(
            brute_force_eu(mle_decide, theta, m), abs=1e-12
        )
        assert expected_utility(FRECHET_RULE, theta, design) == pytest.approx(
            brute_force_eu(fre_decide, theta, m), abs=1e-12
        )


def test_expected_utility_matches_brute_force_n4():
    n, m = 4, 2
    design = CompletelyRandomized(m, n)
    mle_decide = oracle_mle_decide(m, n)
    for theta in enumerate_thetas(n):
        assert expected_utility(MAX_LIKELIHOOD_RULE, theta, design) == pytest.approx(
            brute_force_eu(mle_decide, theta, m), abs=1e-12
        )


def test_bayes_eu_dominance_small_n():
    rng = np.random.default_rng(8)
    for n in range(2, 9):
        m = n // 2
        design = CompletelyRandomized(m, n)
        eu_mle, eu_fre, eu_mono = bayes_expected_utilities(
            [MAX_LIKELIHOOD_RULE, FRECHET_RULE, MONOTONICITY_RULE], n, design
        )
        assert eu_mle >= eu_fre - 1e-12
        assert eu_mle >= eu_mono - 1e-12
        # randomized rules cannot beat the maximum likelihood rule either
        thetas = list(enumerate_thetas(n))
        for _ in range(5):
            support = rng.choice(len(thetas), size=3, replace=False)
            weights = rng.dirichlet([1.0] * 3)

            def decide(x, design, s=support, w=weights):
                return [(thetas[int(i)], float(wi)) for i, wi in zip(s, w)]

            eu_rand = bayes_expected_utility(custom_rule(decide), n, design)
            assert eu_mle >= eu_rand - 1e-12


def test_bayes_eu_figure_endpoint():
    rows = rule_comparison_curve([50])
    row = rows[0]
    assert row.ratio_frechet == pytest.approx(1.50, abs=0.02)
    assert row.ratio_mono == pytest.approx(1.19, abs=0.02)


def test_rule_comparison_curve_small():
    rows = rule_comparison_curve([2, 4, 6])
    assert [r.n for r in rows] == [2, 4, 6]
    for r in rows:
        assert r.ratio_frechet >= 1.0 - 1e-12
        assert r.ratio_mono >= 1.0 - 1e-12
    with pytest.raises(ValueError):
        rule_comparison_curve([3])


def test_bayes_budget_guard():
    with pytest.raises(BudgetExceededError):
        bayes_expected_utility(
            MAX_LIKELIHOOD_RULE, 62, CompletelyRandomized(31, 62)
        )


def test_fisher_exact_balanced():
    assert fisher_exact_p(ExperimentData(3, 3, 3, 3)) == 1.0
    assert fisher_exact_p(ExperimentData(2, 1, 1, 2)) == 1.0


def test_fisher_exact_johnson():
    p = fisher_exact_p(ExperimentData(50, 11, 23, 31))
    assert p < 0.001


def test_fisher_exact_against_direct_summation():
    # independent implementation with Fractions
    def fisher_fraction(x):
        n, m, K = x.n, x.i1 + x.i0, x.i1 + x.c1
        lo, hi = max(0, K - (n - m)), min(m, K)
        weights = {
            k: math.comb(m, k) * math.comb(n - m, K - k) for k in range(lo, hi + 1)
        }
        obs = weights[x.i1]
        total = sum(weights.values())
        return float(
            Fraction(sum(w for w in weights.values() if w <= obs), total)
        )

    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, n))
        i1 = int(rng.integers(0, m + 1))
        c1 = int(rng.integers(0, n - m + 1))
        x = ExperimentData(i1, m - i1, c1, n - m - c1)
        assert fisher_exact_p(x) == pytest.approx(fisher_fraction(x), rel=1e-9)


def test_fisher_transpose_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, n))
        i1 = int(rng.integers(0, m + 1))
        c1 = int(rng.integers(0, n - m + 1))
        x = ExperimentData(i1, m - i1, c1, n - m - c1)
        swapped = ExperimentData(x.c1, x.c0, x.i1, x.i0)
        assert fisher_exact_p(x) == pytest.approx(fisher_exact_p(swapped), rel=1e-12)
        assert fisher_exact_p(x) == pytest.approx(
            fisher_exact_p(x.relabeled()), rel=1e-12
        )


def test_heatmap_six():
    cells = heatmap(6, 3)
    assert len(cells) == 4 and len(cells[0]) == 4
    cell = cells[2][1]
    assert cell.mle_set == (Theta(0, 4, 2, 0),)
    assert cell.defier_count == 2
    assert cell.type_signature == "CD"
    # corners
    assert cells[3][3].type_signature == "A"
    assert cells[3][0].type_signature == "C"
    assert cells[0][3].type_signature == "D"
    assert cells[0][0].type_signature == "N"
    assert heatmap_symmetry_counterexamples(cells) == []
    # a maximizer with no mirror image breaks the cell and its mirror cell
    cells[2][1] = dataclasses.replace(cells[2][1], mle_set=(Theta(1, 3, 1, 1),))
    assert heatmap_symmetry_counterexamples(cells) == [(1, 2), (2, 1)]


def test_heatmap_two_subject_corners():
    cells = heatmap(2, 1)
    assert len(cells) == 2 and len(cells[0]) == 2
    assert cells[1][1].type_signature == "A"
    assert cells[1][0].type_signature == "C"
    assert cells[0][1].type_signature == "D"
    assert cells[0][0].type_signature == "N"


def test_heatmap_budget_guard():
    with pytest.raises(BudgetExceededError):
        heatmap(100, 50)


def test_defier_region_small():
    for n in (2, 6, 10):
        result = defier_region_check(n)
        assert result.passed, result.counterexamples
    with pytest.raises(ValueError):
        defier_region_check(5)


def test_defier_region_reports_a_cell_without_defiers(monkeypatch):
    real_heatmap = evaluation.heatmap

    def no_defiers_at_2_1(n, m, **kwargs):
        cells = real_heatmap(n, m, **kwargs)
        cells[2][1] = dataclasses.replace(cells[2][1], defier_count=0)
        return cells

    monkeypatch.setattr(evaluation, "heatmap", no_defiers_at_2_1)
    result = defier_region_check(6)
    assert not result.passed
    assert result.counterexamples == ((2, 1),)


def test_monty_hall():
    result = monty_hall_likelihoods()
    assert result.car_absent == 0.5
    assert result.car_present == 1.0
    assert result.decision == "switch"
    assert max(result.car_absent, result.car_present) == result.car_present
    assert 0.0 <= result.car_absent <= 1.0
    assert 0.0 <= result.car_present <= 1.0


def test_decision_rule_decide_surface():
    x = ExperimentData(2, 1, 1, 2)
    design = CompletelyRandomized(3, 6)
    grid = assignment_count_grid(x)
    index = theta_index(6)
    flat, weight = MAX_LIKELIHOOD_RULE(grid, x, design)
    assert [index.theta(int(f)) for f in flat] == [Theta(0, 4, 2, 0)]
    assert weight == 1.0
    flat, weight = FRECHET_RULE(grid, x, design)
    assert weight == pytest.approx(1 / 3)
    assert [index.theta(int(f)) for f in flat] == [
        Theta(2, 2, 0, 2),
        Theta(1, 3, 1, 1),
        Theta(0, 4, 2, 0),
    ]
    guesses = [(Theta(1, 3, 1, 1), 0.25), (Theta(0, 4, 2, 0), 0.75)]
    flat, weight = custom_rule(lambda x, design: guesses)(grid, x, design)
    assert [index.theta(int(f)) for f in flat] == [t for t, _ in guesses]
    assert list(weight) == [0.25, 0.75]
    # full takeup in both arms: the set holds only the all-always-taker vector
    x = ExperimentData(3, 0, 5, 0)
    flat, weight = FRECHET_RULE(assignment_count_grid(x), x, CompletelyRandomized(3, 8))
    assert [theta_index(8).theta(int(f)) for f in flat] == [Theta(8, 0, 0, 0)]
    assert weight == 1.0


def test_frechet_rule_guesses_nothing_with_an_empty_arm():
    x = ExperimentData(0, 0, 3, 1)
    flat, _ = FRECHET_RULE(assignment_count_grid(x), x, CompletelyRandomized(0, 4))
    assert flat.size == 0
    for m in (0, 4):
        assert bayes_expected_utility(FRECHET_RULE, 4, CompletelyRandomized(m, 4)) == 0.0


def bernoulli_data_distribution(theta, p):
    """Independent oracle: P(x | theta) from all 2**n assignments of the subjects."""
    types = "A" * theta.at + "C" * theta.co + "D" * theta.de + "N" * theta.nt
    p = Fraction(p)
    dist = {}
    for treated in product((True, False), repeat=theta.n):
        # takers: always takers and compliers if treated, always takers and defiers if not
        cells = Counter(
            ("i" if t else "c") + ("1" if kind in ("AC" if t else "AD") else "0")
            for t, kind in zip(treated, types)
        )
        x = ExperimentData(cells["i1"], cells["i0"], cells["c1"], cells["c0"])
        m = sum(treated)
        dist[x] = dist.get(x, 0) + p**m * (1 - p) ** (theta.n - m)
    return dist


def bernoulli_oracle_rules(n, p):
    """Maximum likelihood, uniform-in-set and monotonicity rules by enumeration."""
    thetas = list(enumerate_thetas(n))
    monotone = [t for t in thetas if t.de == 0 or t.co == 0]

    def argmax(x, candidates):
        counts = [oracle_assignment_count(t, x, x.intervention_size) for t in candidates]
        ties = [t for t, c in zip(candidates, counts) if c == max(counts)]
        return [(t, Fraction(1, len(ties))) for t in ties]

    def frechet(x):
        if x.intervention_size == 0 or x.control_size == 0:
            return []
        half = Fraction(1, 2)
        m1 = min(int(x.i1 / Fraction(p) + half), n)
        mc = min(int(x.c1 / (1 - Fraction(p)) + half), n)
        members = [t for t in thetas if (t.at + t.co, t.at + t.de) == (m1, mc)]
        return [(t, Fraction(1, len(members))) for t in members]

    return [lambda x: argmax(x, thetas), frechet, lambda x: argmax(x, monotone)]


def bernoulli_bayes_eu(decide, n, p):
    thetas = list(enumerate_thetas(n))
    total = Fraction(0)
    for theta in thetas:
        for x, prob in bernoulli_data_distribution(theta, p).items():
            total += prob * sum(w for t, w in decide(x) if t == theta)
    return float(total / len(thetas))


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_bernoulli_bayes_eu_matches_brute_force(p):
    for n in range(1, 5):
        got = bayes_expected_utilities(
            [MAX_LIKELIHOOD_RULE, FRECHET_RULE, MONOTONICITY_RULE], n, Bernoulli(p)
        )
        want = [bernoulli_bayes_eu(decide, n, p) for decide in bernoulli_oracle_rules(n, p)]
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("design", [Bernoulli(0.3), CompletelyRandomized(2, 5)])
def test_data_probabilities_sum_to_one(design):
    # a rule guessing every theta with weight one scores sum_x P(x | theta)
    everything = custom_rule(lambda x, design: [(t, 1.0) for t in enumerate_thetas(x.n)])
    vec = rule_eu_vectors([everything], 5, design)[0]
    assert np.allclose(vec, 1.0, rtol=0, atol=1e-12)
