import dataclasses
import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings

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
    _log_likelihood_of_count,
    assignment_count_grid,
    box_shape,
    oracle_assignment_count,
    oracle_data_distribution,
)
from defiers import evaluation, inference
from defiers.frechet import estimate_marginals, frechet_set
from defiers.inference import _thetas_from_flat, mle
from defiers.evaluation import (
    FRECHET_RULE,
    MAX_LIKELIHOOD_RULE,
    MONOTONICITY_RULE,
    bayes_expected_utilities,
    bayes_expected_utility,
    custom_rule,
    defier_region_check,
    fisher_exact_p,
    heatmap,
    heatmap_symmetry_counterexamples,
    monty_hall_likelihoods,
    rule_comparison_curve,
    rule_eu_vectors,
)

from grid_reference import canonical, reference_grid, tables


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
        counts = [oracle_assignment_count(t, x) for t in thetas]
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


def expected_utility(rule, theta, design):
    """Probability that the rule guesses ``theta`` when ``theta`` is the truth."""
    return rule_eu_vectors([rule], theta.n, design)[0][theta_index(theta.n).flat(theta)]


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


def test_rule_curve_checks_every_n_before_it_fills_a_box(monkeypatch):
    fills = []
    monkeypatch.setattr(evaluation, "assignment_count_grid", lambda *args: fills.append(args))
    with pytest.raises(BudgetExceededError, match="n=62 exceeds the guard of 60"):
        rule_comparison_curve([2, 4, 62])
    # a negative n is refused by the curve, not by the design it would build
    with pytest.raises(ValueError, match="rule comparison needs positive even n, got -2"):
        rule_comparison_curve([2, -2])
    assert fills == []


def test_rule_curve_reports_each_n_once_evaluated():
    heard = []
    rows = rule_comparison_curve([2, 4], progress=heard.append)
    assert heard == ["evaluated rules at n=2", "evaluated rules at n=4"]
    assert rows == rule_comparison_curve([2, 4])


def test_the_mle_gains_with_n_over_the_whole_curve():
    # the gain grows with the sample size wherever exhaustive search is possible
    rows = rule_comparison_curve(range(2, 51, 2))
    frechet, mono = [r.ratio_frechet for r in rows], [r.ratio_mono for r in rows]
    assert all(a < b for a, b in zip(frechet, frechet[1:]))
    assert all(a <= b for a, b in zip(mono, mono[1:]))


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


def fisher_fraction(x):
    """Independent implementation of Fisher's p with Fractions, exactly."""
    n, m, K = x.n, x.i1 + x.i0, x.i1 + x.c1
    lo, hi = max(0, K - (n - m)), min(m, K)
    weights = {
        k: math.comb(m, k) * math.comb(n - m, K - k) for k in range(lo, hi + 1)
    }
    obs = weights[x.i1]
    total = sum(weights.values())
    return Fraction(sum(w for w in weights.values() if w <= obs), total)


def test_fisher_exact_against_direct_summation():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, n))
        i1 = int(rng.integers(0, m + 1))
        c1 = int(rng.integers(0, n - m + 1))
        x = ExperimentData(i1, m - i1, c1, n - m - c1)
        assert fisher_exact_p(x) == pytest.approx(float(fisher_fraction(x)), rel=1e-9)


@pytest.mark.parametrize("rounded_p", [None, 0.05])
def test_heatmap_fisher_flag_is_the_exact_rule(monkeypatch, rounded_p):
    # Every half-treated table with n <= 40 against p <= 1/20 in exact
    # rationals, also with every p rounded onto 0.05, where a test of p alone
    # would flag every cell.
    if rounded_p is not None:
        monkeypatch.setattr(evaluation, "fisher_exact_p", lambda x: rounded_p)
    for n in range(2, 41, 2):
        m = n // 2
        for row in heatmap(n, m):
            for cell in row:
                x = ExperimentData(cell.i1, m - cell.i1, cell.c1, n - m - cell.c1)
                assert cell.fisher_reject_5 == (fisher_fraction(x) <= Fraction(1, 20))


def test_heatmap_computes_each_list_of_fisher_weights_once():
    # the weights depend only on (n, m, takers): 11 lists for the 36 cells at n = 10,
    # read twice a cell, by the flag and by the p-value
    evaluation._hypergeometric_weights.cache_clear()
    cells = [cell for row in heatmap(10, 5) for cell in row]
    info = evaluation._hypergeometric_weights.cache_info()
    assert info.misses == len({cell.i1 + cell.c1 for cell in cells}) == 11
    assert info.hits == 2 * len(cells) - 11


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


@pytest.mark.parametrize("n", range(1, 13))
def test_heatmap_cells_are_the_mle(n):
    for m in range(n + 1):
        for row in heatmap(n, m):
            for cell in row:
                x = ExperimentData(cell.i1, m - cell.i1, cell.c1, n - m - cell.c1)
                assert cell.mle_set == mle(x, CompletelyRandomized(m, n)).maximizers


def test_heatmap_cells_at_the_acceptance_size_are_the_mle_of_their_own_fill():
    # heatmap cells come from one fill per relabeling orbit, mle from its own fill
    design = CompletelyRandomized(25, 50)
    for row in heatmap(50, 25):
        for cell in row:
            x = ExperimentData(cell.i1, 25 - cell.i1, cell.c1, 25 - cell.c1)
            assert cell.mle_set == mle(x, design).maximizers


# orbits of (i1, c1) under the arm swap (c1, i1), which needs equal arms, and the
# outcome swap (m - i1, n - m - c1): 16 of the 49 cells for m = 6, 24 of 48 for m = 5
@pytest.mark.parametrize("m, fills, cells", [(6, 16, 49), (5, 24, 48)])
def test_heatmap_relabeling_orbits_share_a_fill(monkeypatch, m, fills, cells):
    made = []
    monkeypatch.setattr(
        evaluation,
        "assignment_count_grid",
        lambda x, box: made.append(x) or assignment_count_grid(x, box),
    )
    assert sum(map(len, heatmap(12, m))) == cells
    assert len(made) == fills


def test_heatmap_reports_each_row_once_all_its_cells_are_decided(monkeypatch):
    # 32 cells a batch, an orbit counted at its smallest box and filled once:
    # (0,0) with (2,2) and (0,1) with (1,0), (1,2), (2,1), 9 + 16 cells, then
    # (0,2) with (2,0), then (1,1), 27 cells.  So row 0 is done after the third
    # fill and rows 1 and 2 after the fourth
    made, reported = [], []
    monkeypatch.setattr(evaluation, "_BATCH_CELLS", 32)
    monkeypatch.setattr(
        evaluation,
        "assignment_count_grid",
        lambda x, box: made.append(x) or assignment_count_grid(x, box),
    )
    heatmap(4, 2, progress=lambda line: reported.append((line, len(made))))
    assert reported == [(f"heatmap row i1={i} of 2", fills) for i, fills in enumerate((3, 4, 4))]


@pytest.mark.parametrize(
    "run, n, m",
    [
        (lambda: rule_eu_vectors([MAX_LIKELIHOOD_RULE], 20, CompletelyRandomized(10, 20)), 20, 10),
        (lambda: heatmap(12, 6), 12, 6),
    ],
    ids=["rule_eu_vectors", "heatmap"],
)
def test_each_realization_is_grouped_into_its_orbit_once(monkeypatch, run, n, m):
    grouped, orbits = Counter(), evaluation._orbits
    monkeypatch.setattr(evaluation, "_orbits", lambda xs: grouped.update(xs) or orbits(xs))
    run()
    assert grouped == Counter(evaluation._data_space(n, CompletelyRandomized(m, n)))


@pytest.mark.parametrize("n", [50, 60, 80, 100])
def test_batches_keep_the_cell_budget_and_hold_each_realization_once(n):
    xs = evaluation._data_space(n, CompletelyRandomized(n // 2, n))
    batches, orbits_of = zip(*evaluation._batches(xs))
    assert sorted(k for batch in batches for k in batch) == list(range(len(xs)))

    def room(orbit):
        # one box where every count, at most C(n, n/2), is below 2**53; else all
        sizes = [math.prod(box_shape(*y.counts())) for y in orbit]
        return min(sizes) if math.comb(n, n // 2) < 2**53 else sum(sizes)

    for batch, handed in zip(batches, orbits_of):
        orbits = {}
        for k in batch:
            orbits.setdefault(frozenset(relabelings(xs[k])), []).append(xs[k])
        cells = sum(map(room, orbits.values()))
        assert len(batch) == 1 or cells <= evaluation._BATCH_CELLS
        # the grouping handed to Batch is the batch's own where every orbit is whole
        group = [xs[k] for k in batch]
        if n <= 60:
            assert handed == list(evaluation._orbits(group))
            # the buffer the batch fills (and its one zero cell), here within a second
            assert evaluation.Batch(group, handed).buffer.size == cells + 1
        else:  # each listed once, in batch order
            assert sorted(k for orbit, *_ in handed for k in orbit) == list(range(len(batch)))
    # an orbit whose room fits one batch lies in one batch, and fits at n = 50
    batch_of = {xs[k]: j for j, batch in enumerate(batches) for k in batch}
    for x in xs:
        orbit = set(relabelings(x))
        assert room(orbit) <= evaluation._BATCH_CELLS or n > 50
        if room(orbit) <= evaluation._BATCH_CELLS:
            assert {batch_of[y] for y in orbit} == {batch_of[x]}


def test_batch_refuses_a_grouping_that_misses_or_repeats_a_position():
    xs = evaluation._data_space(4, CompletelyRandomized(2, 4))[:3]
    orbits = list(evaluation._orbits(xs))
    assert len(evaluation.Batch(xs, orbits).box_of) == 3
    for wrong in (orbits[1:], orbits + orbits[:1]):
        with pytest.raises(ValueError, match="exactly once"):
            evaluation.Batch(xs, wrong)


def test_the_bayes_pass_fills_and_scans_one_box_per_orbit(monkeypatch):
    design, made, scanned = CompletelyRandomized(25, 50), [], []
    monkeypatch.setattr(
        evaluation,
        "assignment_count_grid",
        lambda x, box: made.append(x) or assignment_count_grid(x, box),
    )
    monkeypatch.setattr(
        evaluation,
        "_argmax_ties",
        lambda boxes, xs, monotone: scanned.extend(boxes) or inference._argmax_ties(boxes, xs, monotone),
    )
    rule_eu_vectors([MAX_LIKELIHOOD_RULE], 50, design)
    assert len(evaluation._data_space(50, design)) == 676
    assert len(made) == len(scanned) == 182


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


def guesses_of(rule, xs, design):
    """The rule's guesses on a batch of xs, as [[(theta, weight), ...] per x]."""
    owner, flat, weight = rule(evaluation.Batch(xs), design)
    guesses = [[] for _ in xs]
    for k, theta, w in zip(owner.tolist(), _thetas_from_flat(xs[0].n, flat), weight.tolist()):
        guesses[k].append((theta, w))
    return guesses


def test_decision_rule_decide_surface():
    x = ExperimentData(2, 1, 1, 2)
    design = CompletelyRandomized(3, 6)
    assert guesses_of(MAX_LIKELIHOOD_RULE, [x], design) == [[(Theta(0, 4, 2, 0), 1.0)]]
    assert guesses_of(FRECHET_RULE, [x], design) == [
        [(Theta(2, 2, 0, 2), 1 / 3), (Theta(1, 3, 1, 1), 1 / 3), (Theta(0, 4, 2, 0), 1 / 3)]
    ]
    guesses = [(Theta(1, 3, 1, 1), 0.25), (Theta(0, 4, 2, 0), 0.75)]
    assert guesses_of(custom_rule(lambda x, design: guesses), [x, x], design) == [guesses] * 2
    # full takeup in both arms: the set holds only the all-always-taker vector
    x = ExperimentData(3, 0, 5, 0)
    assert guesses_of(FRECHET_RULE, [x], CompletelyRandomized(3, 8)) == [[(Theta(8, 0, 0, 0), 1.0)]]


def test_frechet_rule_guesses_nothing_with_an_empty_arm():
    x = ExperimentData(0, 0, 3, 1)
    assert guesses_of(FRECHET_RULE, [x], CompletelyRandomized(0, 4)) == [[]]
    for m in (0, 4):
        assert bayes_expected_utility(FRECHET_RULE, 4, CompletelyRandomized(m, 4)) == 0.0


@pytest.mark.parametrize("n", range(1, 13))
def test_batch_frechet_members_are_the_estimated_sets(n):
    designs = [CompletelyRandomized(m, n) for m in range(n + 1)]
    # 1e-10's binary denominator, about 2**86, is past int64
    for design in designs + [Bernoulli(0.3), Bernoulli(1e-10)]:
        xs = evaluation._data_space(n, design)
        for x, guesses in zip(xs, guesses_of(FRECHET_RULE, xs, design)):
            if x.intervention_size == 0 or x.control_size == 0:
                assert guesses == []
                continue
            members = frechet_set(estimate_marginals(x, design)).members()
            assert guesses == [(t, 1.0 / len(members)) for t in members]


def relabelings(x):
    """x, its arm swap, its outcome swap and both, without repeats."""
    mirror = ExperimentData(x.c1, x.c0, x.i1, x.i0)
    return list(dict.fromkeys([x, mirror, x.relabeled(), mirror.relabeled()]))


@settings(max_examples=200, deadline=None)
@given(counts=tables(max_n=60))
def test_the_mirror_box_is_the_box_transposed_where_exact(counts):
    # swapping the arms swaps compliers and defiers: box[at, co, de] -> box[at, de, co]
    i1, i0, c1, c0 = counts
    x, mirror = ExperimentData(*counts), ExperimentData(c1, c0, i1, i0)
    box = assignment_count_grid(x)
    assert box.shape == box_shape(*counts)
    if box.max() < inference.EXACT_FLOAT_LIMIT:
        assert np.array_equal(
            assignment_count_grid(mirror).view(np.int64), box.transpose(0, 2, 1).view(np.int64)
        )


@settings(max_examples=200, deadline=None)
@given(counts=tables(max_n=60))
def test_the_outcome_swapped_box_is_the_box_relabeled_where_exact(counts):
    # swapping the outcomes swaps A <-> N and C <-> D; swapping the arms too, only A <-> N
    i1, i0, c1, c0 = counts
    x = ExperimentData(*counts)
    box = assignment_count_grid(x)
    if box.max() >= inference.EXACT_FLOAT_LIMIT:
        return
    for swapped, outcomes_only in ((x.relabeled(), True), (ExperimentData(c0, c1, i0, i1), False)):
        other = assignment_count_grid(swapped)
        a, c, d = np.indices(other.shape)
        at, (co, de) = x.n - a - c - d, ((d, c) if outcomes_only else (c, d))
        # a cell outside x's box, or with more than n subjects, reads 0
        inside = (at >= 0) & (at < box.shape[0]) & (co < box.shape[1]) & (de < box.shape[2])
        want = np.zeros(other.shape)
        want[inside] = box[at[inside], co[inside], de[inside]]
        assert np.array_equal(other.view(np.int64), want.view(np.int64))
        assert np.count_nonzero(other) == np.count_nonzero(box)


def read_through(batch, k, n):
    """Realization k's likelihood in canonical order, as the batch contract reads it."""
    index = theta_index(n)
    components = np.stack(index.components(np.arange(index.size)))
    at, co, de, _ = components[batch.perm[k]]
    return canonical(batch.boxes[batch.box_of[k]], n)[index.flatten(at, co, de)]


@settings(max_examples=100, deadline=None)
@given(counts=tables(max_n=60), other=tables(max_n=60))
@example(counts=(15, 15, 15, 15), other=(20, 10, 10, 20))  # boxes past the exact limit
def test_each_realization_reads_its_own_fill_through_the_batch(counts, other):
    x = ExperimentData(*counts)
    xs = relabelings(x) + [y for y in [ExperimentData(*other)] if y.n == x.n]
    batch = evaluation.Batch(xs)
    for k, y in enumerate(xs):
        own = canonical(assignment_count_grid(y), y.n)
        assert np.array_equal(read_through(batch, k, y.n).view(np.int64), own.view(np.int64))
    for b, box in enumerate(batch.boxes):
        assert box.shape == tuple(batch.shapes[:, b])
        assert np.shares_memory(box, batch.buffer)
        assert batch.box_of[batch.filled[b]] == b
    # the orbit alone: one fill where its box is exact, one fill each otherwise
    exact = assignment_count_grid(x).max() < inference.EXACT_FLOAT_LIMIT
    assert len(evaluation.Batch(relabelings(x)).boxes) == (1 if exact else len(relabelings(x)))


def named_rule_vectors(n, design):
    return rule_eu_vectors([MAX_LIKELIHOOD_RULE, FRECHET_RULE, MONOTONICITY_RULE], n, design)


def assert_bit_equal(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


@pytest.mark.parametrize(
    "n, design", [(4, CompletelyRandomized(2, 4)), (9, CompletelyRandomized(4, 9)), (5, Bernoulli(0.3))]
)
def test_fresh_fills_and_integer_confirmation_keep_the_bits(monkeypatch, n, design):
    want = named_rule_vectors(n, design)
    fills, recounts = Counter(), Counter()

    def counted(fn, tally):
        return lambda *args: tally.update([args[0]]) or fn(*args)

    # every box counts as inexact: each member of an orbit fills its own, ties are recounted
    for module in (evaluation, inference):
        monkeypatch.setattr(module, "EXACT_FLOAT_LIMIT", 1.0)
    monkeypatch.setattr(evaluation, "assignment_count_grid", counted(assignment_count_grid, fills))
    monkeypatch.setattr(
        inference, "exact_assignment_count", counted(inference.exact_assignment_count, recounts)
    )
    assert_bit_equal(named_rule_vectors(n, design), want)
    assert set(fills.values()) == {1}
    assert len(fills) == len(evaluation._data_space(n, design))
    assert recounts


@pytest.mark.parametrize("limit", [None, 1.0])
def test_batch_maximizers_are_the_argmax_ties(monkeypatch, limit):
    # each realization's guesses are the brute-force argmax of its exact counts
    count = inference.exact_assignment_count
    if limit is not None:
        # above the limit the suspects are recounted; a made-up count that
        # splits exact ties shows the batch follows the counts, not the floats
        real_count, count = count, lambda t, x: 4 * real_count(t, x) + t.de % 3
        for module in (evaluation, inference):
            monkeypatch.setattr(module, "EXACT_FLOAT_LIMIT", limit)
        monkeypatch.setattr(inference, "exact_assignment_count", count)
    for n, design in ((7, CompletelyRandomized(3, 7)), (5, Bernoulli(0.3))):
        xs, index = evaluation._data_space(n, design), theta_index(n)
        batch = evaluation.Batch(xs)
        for rule, monotone in ((MAX_LIKELIHOOD_RULE, False), (MONOTONICITY_RULE, True)):
            owner, flat, weight = rule(batch, design)
            thetas = [t for t in enumerate_thetas(n) if not monotone or t.co == 0 or t.de == 0]
            for k, x in enumerate(xs):
                counts = [count(t, x) for t in thetas]
                best = max(counts)
                want = [index.flat(t) for t, c in zip(thetas, counts) if c == best]
                assert flat[owner == k].tolist() == want  # canonical order
                assert np.all(weight[owner == k] == 1.0 / len(want))


@pytest.mark.parametrize("design", [CompletelyRandomized(4, 8), CompletelyRandomized(3, 8), Bernoulli(0.5)])
def test_custom_rule_through_the_batch_is_the_named_rule(monkeypatch, design):
    def mle_decide(x, design):
        maximizers = mle(x, design).maximizers
        return [(t, 1.0 / len(maximizers)) for t in maximizers]

    want = rule_eu_vectors([MAX_LIKELIHOOD_RULE], 8, design)
    assert_bit_equal(rule_eu_vectors([custom_rule(mle_decide)], 8, design), want)
    monkeypatch.setattr(evaluation, "_BATCH_CELLS", 1)  # one realization a batch
    assert_bit_equal(rule_eu_vectors([custom_rule(mle_decide)], 8, design), want)
    assert_bit_equal(named_rule_vectors(8, design)[:1], want)


@functools.lru_cache(maxsize=None)
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
    """Maximum likelihood, uniform-in-set and monotonicity rules by enumeration.

    Each rule maps data to {theta: weight}, computed once per realization.
    """
    thetas = list(enumerate_thetas(n))
    monotone = [t for t in thetas if t.de == 0 or t.co == 0]
    tally = functools.lru_cache(maxsize=None)(oracle_data_distribution)

    def argmax(x, candidates):
        counts = [tally(t, x.intervention_size).get(x, 0) for t in candidates]
        ties = [t for t, c in zip(candidates, counts) if c == max(counts)]
        return {t: Fraction(1, len(ties)) for t in ties}

    def frechet(x):
        if x.intervention_size == 0 or x.control_size == 0:
            return {}
        half = Fraction(1, 2)
        m1 = min(int(x.i1 / Fraction(p) + half), n)
        mc = min(int(x.c1 / (1 - Fraction(p)) + half), n)
        members = [t for t in thetas if (t.at + t.co, t.at + t.de) == (m1, mc)]
        return {t: Fraction(1, len(members)) for t in members}

    rules = [lambda x: argmax(x, thetas), frechet, lambda x: argmax(x, monotone)]
    return [functools.lru_cache(maxsize=None)(rule) for rule in rules]


def bernoulli_bayes_eu(decide, n, p):
    thetas = list(enumerate_thetas(n))
    total = Fraction(0)
    for theta in thetas:
        for x, prob in bernoulli_data_distribution(theta, p).items():
            total += prob * decide(x).get(theta, 0)
    return float(total / len(thetas))


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_bernoulli_bayes_eu_matches_brute_force(p):
    for n in range(1, 9):  # n = 9 would take about three times as long as n <= 8
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


def reference_rule_eu_vectors(n, design):
    """The three named rules' EU vectors, read off ``reference_grid``.

    Maximizers are the bit-equal float maxima, which are the exact ones at
    n <= 12; the likelihood of each guess is read in canonical order, so a
    guess outside the support box reads 0 without any box arithmetic.
    """
    index = theta_index(n)
    _, co, de, _ = index.components(np.arange(index.size))
    monotone = (co == 0) | (de == 0)
    vectors = [np.zeros(index.size) for _ in range(3)]
    for x in evaluation._data_space(n, design):
        grid = reference_grid(x)
        scale = math.exp(_log_likelihood_of_count(1, x, design))
        mle_flat = np.flatnonzero(grid == grid.max())
        mono_flat = np.flatnonzero(monotone & (grid == grid[monotone].max()))
        guesses = (
            (mle_flat, 1.0 / mle_flat.size),
            FRECHET_RULE(evaluation.Batch([x]), design)[1:],
            (mono_flat, 1.0 / mono_flat.size),
        )
        for vec, (flat, weight) in zip(vectors, guesses):
            np.add.at(vec, flat, grid[flat] * (weight * scale))
    return vectors


@pytest.mark.parametrize("n", range(1, 13))
def test_rule_eu_vectors_match_the_reference_grid(n):
    rules = [MAX_LIKELIHOOD_RULE, FRECHET_RULE, MONOTONICITY_RULE]
    designs = {CompletelyRandomized(n // 2, n), CompletelyRandomized(n // 3, n), Bernoulli(0.3)}
    for design in designs:
        got = rule_eu_vectors(rules, n, design)
        want = reference_rule_eu_vectors(n, design)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
