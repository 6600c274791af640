import dataclasses
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defiers import inference, reports
from defiers.combinatorics import choose_table
from defiers.core import (
    CompletelyRandomized,
    ExperimentData,
    Theta,
    enumerate_thetas,
    theta_index,
)
from defiers.likelihood import (
    assignment_count_grid,
    box_shape,
    exact_assignment_count,
    oracle_assignment_count,
)
from defiers.inference import (
    FULL_TABLE_MAX_N,
    PosteriorTable,
    _argmax_ties,
    mle,
    monotonicity_mle,
    posterior,
    smallest_credible_set,
)
from defiers.reports import AnalysisRequest, analyze, render_text, report_to_json

from grid_reference import canonical, tables

SIX = ExperimentData(2, 1, 1, 2)
CR6 = CompletelyRandomized(3, 6)


def test_mle_six_person():
    result = mle(SIX, CR6)
    assert result.maximizers == (Theta(0, 4, 2, 0),)
    assert result.log_likelihood == pytest.approx(math.log(12 / 20), rel=1e-12)
    assert result.tie_verified_exact
    assert result.estimate == Theta(0, 4, 2, 0)


def test_mle_matches_oracle_argmax_small_n():
    # grid-search maximizers equal brute-force assignment-count maximizers
    for n, m in ((4, 2), (5, 2), (6, 3), (7, 4)):
        thetas = list(enumerate_thetas(n))
        for i1 in range(m + 1):
            for c1 in range(n - m + 1):
                x = ExperimentData(i1, m - i1, c1, n - m - c1)
                counts = [oracle_assignment_count(t, x) for t in thetas]
                best = max(counts)
                expect = {t for t, c in zip(thetas, counts) if c == best}
                got = set(mle(x, CompletelyRandomized(m, n)).maximizers)
                assert got == expect, (n, m, x.counts())


def test_mle_two_way_tie_midline(monkeypatch):
    # exact two-way ties on the midline where takeup is half the intervention arm;
    # the top count is above 2**53, so the tie is confirmed by exact counts
    x = ExperimentData(50, 50, 20, 80)
    recounts = []

    def exact_count(theta, x):
        recounts.append(theta)
        return real_exact_count(theta, x)

    real_exact_count = inference.exact_assignment_count
    monkeypatch.setattr(inference, "exact_assignment_count", exact_count)
    result = mle(x, CompletelyRandomized(100, 200))
    assert recounts
    assert len(result.maximizers) == 2
    assert result.tie_verified_exact
    assert set(result.maximizers) == {Theta(0, 100, 40, 60), Theta(40, 60, 0, 100)}


def test_monotonicity_mle_examples():
    # the monotone maximizer for the six-person data pools takers:
    # three always takers and three never takers yield the data in
    # C(3,2)*C(3,1) = 9 of 20 assignments, beating every other monotone vector
    result = monotonicity_mle(SIX, CR6)
    assert result.maximizers == (Theta(3, 0, 0, 3),)
    assert oracle_assignment_count(Theta(3, 0, 0, 3), SIX) == 9
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
                counts = [oracle_assignment_count(t, x) for t in thetas]
                best = max(counts)
                expect = {t for t, c in zip(thetas, counts) if c == best}
                got = set(monotonicity_mle(x, CompletelyRandomized(m, n)).maximizers)
                assert got == expect


def test_monotonicity_all_defier_corner():
    n, m = 8, 3
    x = ExperimentData(0, m, n - m, 0)  # zero takeup in intervention, full in control
    result = monotonicity_mle(x, CompletelyRandomized(m, n))
    assert result.maximizers == (Theta(0, 0, n, 0),)


def _theta(post, i):
    at, co, de = int(post.at[i]), int(post.co[i]), int(post.de[i])
    return Theta(at, co, de, post.x.n - at - co - de)


def _entries(post):
    return [(_theta(post, i), float(post.mass[i])) for i in range(post.entry_count)]


def test_posterior_six_person():
    post = posterior(SIX, 0.95)
    assert _theta(post, 0) == Theta(0, 4, 2, 0)
    assert 0.95 <= float(post.mass.sum()) <= 1.0
    assert np.all(np.diff(post.mass) <= 0)
    # MAP set equals MLE set under the uniform prior
    mle_set = set(mle(SIX, CR6).maximizers)
    top_block = {t for t, m in _entries(post) if m == post.mass[0]}
    assert mle_set == top_block


def test_posterior_holds_only_the_top_block():
    # each level keeps the entries down to its boundary mass, so a higher
    # level's table extends a lower one's
    low = posterior(SIX, 0.5)
    high = posterior(SIX, 0.99)
    assert 0 < low.entry_count < high.entry_count < math.comb(6 + 3, 3)
    assert np.array_equal(high.mass[: low.entry_count], low.mass)
    assert np.array_equal(high.de[: low.entry_count], low.de)
    assert low.mass[-1] > high.mass[low.entry_count]


def test_posterior_single_subject():
    x = ExperimentData(1, 0, 0, 0)
    post = posterior(x, 0.99)
    # the zero-mass vectors (0,0,1,0) and (0,0,0,1) are never held
    assert _entries(post) == [(Theta(1, 0, 0, 0), 0.5), (Theta(0, 1, 0, 0), 0.5)]


def test_credible_set_degenerate():
    n, m = 6, 2
    x = ExperimentData(0, m, n - m, 0)
    post = posterior(x, 0.5)
    assert _theta(post, 0) == Theta(0, 0, n, 0)
    summary = smallest_credible_set(post)
    # the all-defier vector produces this data under every assignment and is
    # the unique positive-mass entry... unless other vectors also can; check
    assert summary.member_count >= 1
    assert summary.achieved_mass >= 0.5


def test_credible_set_minimality_and_tie_blocks():
    for level in (0.5, 0.8, 0.95):
        post = posterior(SIX, level)
        summary = smallest_credible_set(post)
        assert summary.level == level
        assert summary.achieved_mass >= level - 1e-12
        k = summary.member_count
        # removing the trailing tie block drops below the level
        masses = post.mass[:k]
        boundary = masses[-1]
        block = int(np.sum(masses == boundary))
        assert float(np.sum(masses[: k - block])) < level
        # per-type ranges cover the top entry
        top = _theta(post, 0)
        assert summary.at_range[0] <= top.at <= summary.at_range[1]
        assert summary.de_range[0] <= top.de <= summary.de_range[1]


def test_credible_set_level_validation():
    # the credible set reads the table's own level, so only posterior checks it
    for level in (0.0, 1.0):
        with pytest.raises(ValueError):
            posterior(SIX, level)


def test_level_above_the_positive_mass_admits_no_zero_mass_vector():
    # the positive masses sum to 0.9999999999999656 in float, below the level,
    # so the set takes every positive entry and none of the 189,050 zero-mass ones
    x = ExperimentData(50, 11, 23, 31)
    level = 0.9999999999999999
    summary = smallest_credible_set(posterior(x, level))
    assert summary.member_count == np.count_nonzero(assignment_count_grid(x)) == 77_866
    assert summary.achieved_mass < level


def test_organ_donation_inference():
    x = ExperimentData(50, 11, 23, 31)
    cr = CompletelyRandomized(61, 115)
    assert mle(x, cr).maximizers == (Theta(28, 66, 21, 0),)
    assert monotonicity_mle(x, cr).maximizers == (Theta(49, 45, 0, 21),)
    summary = smallest_credible_set(posterior(x, 0.95))
    assert summary.de_range == (0, 34)


def test_analyze_releases_its_box_when_it_returns_and_when_it_raises(monkeypatch):
    # analyze fills the box window by window into one buffer (a box would hold
    # 71 MB on the smoking table, 2.01 GB at the guard); the scan it leaves cached
    # keeps no window, whether it returns or raises
    x = ExperimentData(50, 11, 23, 31)
    request = AnalysisRequest(design=CompletelyRandomized(61, 115), data=x)
    buffers, fill = [], inference.assignment_count_grid

    def recorded(x, box, window):
        buffers.append(weakref.ref(box.base))
        return fill(x, box, window)

    def no_room(x, level):
        raise MemoryError("no room for the posterior")

    monkeypatch.setattr(inference, "assignment_count_grid", recorded)
    for posterior_stage in (posterior, no_room):
        monkeypatch.setattr(reports, "posterior", posterior_stage)
        inference._scan.cache_clear()
        buffers.clear()
        try:
            analyze(request)
        except MemoryError as failure:
            assert posterior_stage is no_room and "no room" in str(failure)
        assert buffers and all(buffer() is None for buffer in buffers)
    inference._scan.cache_clear()


def test_posterior_degenerate_single_theta():
    x = ExperimentData(0, 0, 0, 0)
    for level in (0.25, 0.95):
        post = posterior(x, level)
        assert _entries(post) == [(Theta(0, 0, 0, 0), 1.0)]
        summary = smallest_credible_set(post)
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
        post = posterior(x, 0.5)
        top_block = {t for t, mass in _entries(post) if mass == post.mass[0]}
        assert set(mle(x, design).maximizers) <= top_block


def full_sort_posterior(x, level):
    """Reference: every positive entry, sorted and decoded (the earlier posterior).

    The normaliser is summed as ``posterior`` sums it: over the whole grid up
    to ``FULL_TABLE_MAX_N`` and over the positive entries above.
    """
    grid = canonical(assignment_count_grid(x), x.n)
    flat = np.flatnonzero(grid)
    values = grid[flat]
    total = grid.sum() if x.n <= FULL_TABLE_MAX_N else values.sum()
    order = np.lexsort((flat, -values))
    at, co, de, _ = theta_index(x.n).components(flat[order])
    return PosteriorTable(
        x,
        level,
        at.astype(np.uint32),
        co.astype(np.uint32),
        de.astype(np.uint32),
        values[order] / total,
        values[order],
        sum(map(int, values)) if values.max() < inference.EXACT_FLOAT_LIMIT else None,
    )


def settled_block(full, level):
    """Size of the block ``posterior`` partitions out, and its boundary entry.

    The block starts at four times level / (top mass) entries and grows
    fourfold until its cumulative mass reaches the level or it holds every entry.
    """
    cum = np.cumsum(full.mass)
    size = 4 * math.ceil(level / full.mass[0])
    while size < full.entry_count and cum[size - 1] < level:
        size *= 4
    size = min(size, full.entry_count)
    return size, min(int(np.searchsorted(cum[:size], level)), size - 1)


# (table, level) pairs on which the partition must grow past its first block
# (four times level / top mass entries) and the block that reaches the level
# ends inside the boundary float-tie run, so the run must be gathered whole.
GROWN_AND_CUT = [
    ((1, 8, 1, 10), 0.9999809707028621),
    ((1, 9, 10, 1), 0.9999087824064434),
    ((1, 8, 2, 11), 0.999993483158619),
]

# (table, level) pairs on which the first block reaches the level and ends
# inside the boundary float-tie run.
CUT_IN_THE_FIRST_BLOCK = [
    ((4, 0, 1, 7), 0.9512492382693478),
    ((10, 4, 5, 2), 0.8055838706844878),
    ((1, 2, 14, 23), 0.9674089823115505),
]

# (table, level) pairs on which the block ends below the boundary mass, so
# no entry past the block reaches that mass.
INSIDE_THE_BLOCK = [
    ((4, 3, 2, 5), 0.95),
    ((10, 10, 5, 15), 0.5),
]

# A table and level on which the block ends with the boundary mass, and the
# next, smaller count divides by the normaliser to that same mass, so the
# entries of that mass must be gathered from past the block too.
MASS_TIE_PAST_THE_BLOCK = ((33, 0, 1, 82), 0.9983427349743728)

# A table and level whose boundary mass a smaller count shares inside the block.
MASS_TIE_IN_THE_BLOCK = ((52, 12, 13, 22), 0.003130930414093042)


@pytest.mark.parametrize("counts,level", GROWN_AND_CUT)
def test_cases_grow_the_block_and_cut_the_boundary_run(counts, level):
    full = full_sort_posterior(ExperimentData(*counts), level)
    assert np.cumsum(full.mass)[4 * math.ceil(level / full.mass[0]) - 1] < level
    size, k = settled_block(full, level)
    run = np.flatnonzero(full.mass == full.mass[k])
    assert run[0] < size <= run[-1]


@pytest.mark.parametrize(
    "counts,level,in_block",
    [(*case, True) for case in INSIDE_THE_BLOCK]
    + [(*case, False) for case in (*CUT_IN_THE_FIRST_BLOCK, MASS_TIE_PAST_THE_BLOCK)]
    + [(*case, False) for case in GROWN_AND_CUT]
    + [(*MASS_TIE_IN_THE_BLOCK, True)],
)
def test_cases_end_inside_or_past_the_kept_block(counts, level, in_block):
    # posterior's gather pass scans the whole box for entries of the boundary
    # mass: on the in_block cases they all lie in the kept block, on the others
    # some lie past it, where only that scan finds them
    x = ExperimentData(*counts)
    full = full_sort_posterior(x, level)
    size, k = settled_block(full, level)
    assert (full.mass[size - 1] < full.mass[k]) == in_block
    post = posterior(x, level)
    assert (post.entry_count <= size) == in_block


@settings(max_examples=150, deadline=None)
@given(counts=tables(), level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(counts=GROWN_AND_CUT[0][0], level=GROWN_AND_CUT[0][1])
@example(counts=GROWN_AND_CUT[1][0], level=GROWN_AND_CUT[1][1])
@example(counts=GROWN_AND_CUT[2][0], level=GROWN_AND_CUT[2][1])
@example(counts=INSIDE_THE_BLOCK[0][0], level=INSIDE_THE_BLOCK[0][1])
@example(counts=INSIDE_THE_BLOCK[1][0], level=INSIDE_THE_BLOCK[1][1])
@example(counts=MASS_TIE_PAST_THE_BLOCK[0], level=MASS_TIE_PAST_THE_BLOCK[1])
@example(counts=CUT_IN_THE_FIRST_BLOCK[0][0], level=CUT_IN_THE_FIRST_BLOCK[0][1])
@example(counts=CUT_IN_THE_FIRST_BLOCK[1][0], level=CUT_IN_THE_FIRST_BLOCK[1][1])
@example(counts=CUT_IN_THE_FIRST_BLOCK[2][0], level=CUT_IN_THE_FIRST_BLOCK[2][1])
@example(counts=MASS_TIE_IN_THE_BLOCK[0], level=MASS_TIE_IN_THE_BLOCK[1])
@example(counts=(50, 11, 23, 31), level=0.9999999999999999)
@example(counts=(94, 20, 179, 9), level=0.95)  # n > FULL_TABLE_MAX_N
@example(counts=(0, 5, 0, 7), level=0.25)  # v * total rounds above the boundary value
def test_posterior_is_a_prefix_of_the_full_sort(counts, level):
    assert_prefix_of_the_full_sort(counts, level)


def assert_prefix_of_the_full_sort(counts, level):
    x = ExperimentData(*counts)
    post = posterior(x, level)
    full = full_sort_posterior(x, level)
    k = post.entry_count
    for name in ("at", "co", "de", "mass", "value"):
        assert np.array_equal(getattr(post, name), getattr(full, name)[:k])
    # the prefix holds every entry of the boundary mass or more
    v = full.mass[min(int(np.searchsorted(np.cumsum(full.mass), level)), full.entry_count - 1)]
    assert k == np.count_nonzero(full.mass >= v)
    got = smallest_credible_set(post)
    want = smallest_credible_set(full)
    assert got == want
    assert got.achieved_mass.hex() == want.achieved_mass.hex()


@pytest.mark.parametrize(
    "counts,level,chunk",
    [(*case, 7) for case in (*CUT_IN_THE_FIRST_BLOCK, *INSIDE_THE_BLOCK, MASS_TIE_IN_THE_BLOCK)]
    + [((94, 20, 179, 9), 0.95, 4096)]  # n > FULL_TABLE_MAX_N
    + [(*case, 7) for case in (*GROWN_AND_CUT, MASS_TIE_PAST_THE_BLOCK)],
)
def test_posterior_streamed_in_small_chunks_is_a_prefix_of_the_full_sort(
    monkeypatch, counts, level, chunk
):
    # With chunks of a few cells every pass over the box and every normaliser
    # run spans many chunks; the cases also grow the block and gather entries
    # of the boundary mass from past it (see the case lists above).
    monkeypatch.setattr(inference, "_CHUNK", chunk)
    assert_prefix_of_the_full_sort(counts, level)


@pytest.fixture
def made_up_box(monkeypatch):
    """Make the scan read the windows of a given box in place of x's fill, with the
    scan's cache cleared before and after."""

    def use(box):
        def fill(x, window, rows):
            window[...] = box[rows[0] : rows[1]]
            return window

        monkeypatch.setattr(inference, "assignment_count_grid", fill)

    inference._scan.cache_clear()
    yield use
    inference._scan.cache_clear()


def test_posterior_drops_values_just_below_the_boundary_mass(made_up_box):
    # On this made-up box a value 4u below the boundary value (u = 2**-53)
    # passes the gather's cut, 8u below, but its mass is smaller, so the
    # exact mass test must drop it.
    box = np.zeros(assignment_count_grid(SIX).shape)
    at, co, de = np.indices(box.shape)
    box[at + co + de <= SIX.n] = 1.0
    box[0, 0, 0] = 1.0 - 2.0**-51
    made_up_box(box)
    post = posterior(SIX, 0.5)
    assert post.entry_count == np.count_nonzero(box == 1.0)
    assert np.all(post.mass == post.mass[0])


@pytest.mark.parametrize("chunk", [1, 100, 4096, 100_000])
@pytest.mark.parametrize("size", [1, 7, 8, 127, 128, 129, 12_345, 1_000_007])
def test_tree_sum_is_numpys_pairwise_sum(monkeypatch, size, chunk):
    # _tree_sum copies the tree of numpy's pairwise add.reduce; a numpy whose
    # tree differs would move the normaliser's bits, and fails here first.
    # Signed values of mixed magnitude cancel, so the sum's bits depend on
    # where the tree splits.
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 2.0 ** rng.integers(-20, 21, size)
    read = 0

    def take(k):
        nonlocal read
        read += k
        return values[read - k : read]

    monkeypatch.setattr(inference, "_CHUNK", chunk)
    assert inference._tree_sum(take, size).hex() == float(values.sum()).hex()
    assert read == size


@pytest.mark.parametrize("counts", [(69, 237, 26, 280), (100, 50, 20, 130)])
def test_posterior_scratch_stays_small_beside_the_box(counts):
    # The smoking table (n=612) sums positive cells; (100,50,20,130) at n=300
    # sums every canonical position.  Copying every value made 69.5 MB and
    # 65.6 MB of scratch on them; reading the values the scan kept, 2.3 and 1.9 MB.
    x = ExperimentData(*counts)
    inference._scan(x)
    tracemalloc.start()
    try:
        posterior(x, 0.95)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


@pytest.mark.parametrize(
    "counts",
    [(69, 237, 26, 280), (80, 226, 26, 280), (50, 11, 23, 31), (300, 0, 300, 0), (200, 5, 180, 3),
     (4, 3, 2, 5), (2, 1, 1, 2), (0, 0, 7, 5), (6, 9, 0, 0), (0, 20, 0, 20)],
)
def test_support_size_counts_the_positive_cells(counts):
    # the normaliser's size above FULL_TABLE_MAX_N, from index_set's bounds alone
    x = ExperimentData(*counts)
    assert inference._support_size(x) == np.count_nonzero(assignment_count_grid(x))


@settings(max_examples=100, deadline=None)
@given(counts=tables())
def test_support_size_counts_the_positive_cells_of_random_tables(counts):
    x = ExperimentData(*counts)
    assert inference._support_size(x) == np.count_nonzero(assignment_count_grid(x))


def test_boxes_up_to_n_60_are_scanned_in_one_slice():
    # the heatmap and the Bayes pass scan thousands of these boxes, each with one
    # comparison and no concatenation
    n = 60
    assert max(
        math.prod(box_shape(i1, i0, c1, n - i1 - i0 - c1))
        for i1 in range(n + 1)
        for i0 in range(n - i1 + 1)
        for c1 in range(n - i1 - i0 + 1)
    ) == 58_621 <= inference._CHUNK


@pytest.mark.parametrize("monotone", [None, True])
def test_a_box_and_its_scan_give_the_same_suspects(monotone):
    # (25, 25, 26, 24)'s box holds 135,200 cells, so a batch compares it in
    # _CHUNK slices rather than in one box-sized mask; the scan reads it in
    # windows.  Its unrestricted maximum is a two-way tie.
    x = ExperimentData(25, 25, 26, 24)
    box = assignment_count_grid(x)
    assert box.size > inference._CHUNK
    inference._scan.cache_clear()
    top, hits, values = inference._suspects(inference._scan(x), monotone)
    inference._scan.cache_clear()
    box_top, box_hits, box_values = inference._suspects(box, monotone)
    assert top == box_top and hits.size == (1 if monotone else 2)
    assert hits.tolist() == box_hits.tolist() and values.tolist() == box_values.tolist()


def test_analyze_stages_keep_their_scratch_small_on_the_published_table():
    # Each stage's traced peak above what it began with: the fill of the whole box,
    # beyond the 71 MB box it returns (3 MB of that is the n = 612 binomial table,
    # built afresh), the scan, which fills the box in windows from that table,
    # mle + monotonicity_mle on the scan, then the posterior and its credible set.
    # About 3.5, 12.7, 0.1 and 2.9 MB: the fill's 0.5 MB beside the table is one
    # 228 KB padded block, its head and nt rows, and no ufunc buffers; the scan's
    # is its 3.7 MB window of five planes, the kept values while they are cut back
    # (up to 2**18 + 2**16 values with 32-bit positions, the partition's 64-bit
    # order and its gathers) and the 0.5 MB of planes de = 0 and co = 0.  The three
    # analysis stages from nothing, the table included, hold about 15.7 MB.
    x, design = ExperimentData(69, 237, 26, 280), CompletelyRandomized(306, 612)
    inference._scan.cache_clear()
    choose_table.cache_clear()
    stages = [
        (4_000_000, lambda: assignment_count_grid(x).nbytes),
        (14_000_000, lambda: inference._scan(x) and 0),
        (1_000_000, lambda: (mle(x, design), monotonicity_mle(x, design)) and 0),
        (3_000_000, lambda: smallest_credible_set(posterior(x, 0.95)) and 0),
    ]
    tracemalloc.start()
    try:
        for bound, stage in stages:
            begin = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kept = stage()
            assert tracemalloc.get_traced_memory()[1] - begin - kept < bound
        inference._scan.cache_clear()
        choose_table.cache_clear()
        tracemalloc.reset_peak()
        mle(x, design), monotonicity_mle(x, design), posterior(x, 0.95)
        assert tracemalloc.get_traced_memory()[1] < 20_000_000  # the three, from nothing
    finally:
        tracemalloc.stop()


def exact_credible_count(x, level):
    """Reference: members of the smallest credible set, in exact rationals.

    Counts are taken from the highest down, whole equal-count blocks at a
    time, until their share of the total reaches the level read as the
    decimal it prints as.
    """
    counts = sorted((exact_assignment_count(t, x) for t in enumerate_thetas(x.n)), reverse=True)
    goal, total, cum = Fraction(repr(level)), sum(counts), 0
    for count, block in itertools.groupby(counts):
        cum += count * len(list(block))
        if Fraction(cum, total) >= goal:
            return sum(1 for c in counts if c >= count)


def block_boundary_levels(x):
    """Each exact cumulative mass at the end of an equal-count block, as a float,
    with the floats one ulp below and above it."""
    counts = sorted((exact_assignment_count(t, x) for t in enumerate_thetas(x.n)), reverse=True)
    total, cum, levels = sum(counts), 0, []
    for count, block in itertools.groupby(c for c in counts if c):
        cum += count * len(list(block))
        on = float(Fraction(cum, total))
        levels += [float(np.nextafter(on, 0.0)), on, float(np.nextafter(on, 1.0))]
    return [level for level in levels if 0.0 < level < 1.0]


@pytest.mark.parametrize("counts,m,members", [((0, 2, 3, 3), 2, 37), ((14, 1, 2, 0), 15, 49)])
def test_a_set_whose_exact_mass_is_the_level_stops_there(counts, m, members):
    # The likeliest `members` vectors hold exactly 19/20 of the mass; the float
    # cumulative sum lands an ulp below 0.95, which once let one more block in.
    x = ExperimentData(*counts)
    report = analyze(AnalysisRequest(design=CompletelyRandomized(m, x.n), data=x))
    assert report.credible.member_count == members == exact_credible_count(x, 0.95)
    assert smallest_credible_set(posterior(x, np.float64(0.95))) == report.credible
    assert report.credible.boundary_verified_exact
    assert "boundary_verified_exact" not in report_to_json(report)


def member_counts_and_total(x, level):
    """Exact assignment counts of the credible members, likeliest first, and of all."""
    post = posterior(x, level)
    members = smallest_credible_set(post).member_count
    coords = zip(*(axis[:members].tolist() for axis in (post.at, post.co, post.de)))
    counts = [exact_assignment_count(Theta(a, c, d, x.n - a - c - d), x) for a, c, d in coords]
    box = assignment_count_grid(x)
    assert box.max() < inference.EXACT_FLOAT_LIMIT  # so its values are the exact counts
    return counts, sum(int(v) for v in box.ravel().tolist())


@pytest.mark.parametrize("counts,m,members", [((0, 2, 3, 3), 2, 37), ((14, 1, 2, 0), 15, 49)])
def test_members_exact_counts_hold_exactly_the_decimal_level(counts, m, members):
    x = ExperimentData(*counts)
    counts, total = member_counts_and_total(x, 0.95)
    assert sum(counts) * 20 == 19 * total
    report = analyze(AnalysisRequest(design=CompletelyRandomized(m, x.n), data=x))
    assert len(counts) == report.credible.member_count == members


@settings(max_examples=40, deadline=None)
@given(counts=tables(max_n=40), level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_members_exact_counts_reach_the_level_and_no_fewer_blocks_do(counts, level):
    x = ExperimentData(*counts)
    members, total = member_counts_and_total(x, level)
    goal = Fraction(repr(level))
    assert sum(members) * goal.denominator >= goal.numerator * total
    without_last_block = sum(c for c in members if c > members[-1])
    assert without_last_block * goal.denominator < goal.numerator * total


@pytest.mark.parametrize(
    "counts,blocks",
    [
        ((0, 0, 306, 306), 1),  # an empty arm reaches the level within the first block
        ((0, 0, 7, 5), 1),
        ((4, 3, 2, 5), 2),
    ],
)
def test_posterior_sorts_its_kept_block_only_when_the_first_falls_short(
    monkeypatch, counts, blocks
):
    # The pass keeps four times level / (top mass) entries but sorts and sums that
    # many first, so a table that reaches the level among them sorts no more.
    sorted_sizes, crossing = [], inference._crossing

    def counted(top, *rest):
        sorted_sizes.append(top.size)
        return crossing(top, *rest)

    monkeypatch.setattr(inference, "_crossing", counted)
    post = posterior(ExperimentData(*counts), 0.95)
    first = math.ceil(0.95 / post.mass[0])
    assert sorted_sizes == [first, 4 * first][:blocks]


def test_posterior_fills_the_box_again_only_past_its_buffer(monkeypatch):
    # (60, 246, 31, 275) needs 83,354 entries, 4.02 times level / top mass, so the
    # earlier posterior took a second pass over its box; the scan keeps every one of
    # them.  With a buffer of 2**15 values the level lies past it, and one more fill
    # keeping four times as many gives the same table.
    x = ExperimentData(60, 246, 31, 275)
    refills, refill = [], inference._refill
    monkeypatch.setattr(inference, "_refill", lambda x, kept: refills.append(kept.cap) or refill(x, kept))
    inference._scan.cache_clear()
    want = posterior(x, 0.95)
    assert want.entry_count == 83_354 and not refills
    monkeypatch.setattr(inference, "_KEPT_CELLS", 1 << 15)
    inference._scan.cache_clear()
    got = posterior(x, 0.95)
    inference._scan.cache_clear()
    assert refills == [1 << 17]
    for name in ("at", "co", "de", "mass", "value"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert smallest_credible_set(got) == smallest_credible_set(want)


def kept_floor_box():
    """A made-up SIX box whose first 8 cells hold 10000, 9000 twice, 8000, 7000 and
    6000, and whose next 8 hold 9005."""
    box = np.zeros(assignment_count_grid(SIX).shape)
    assert box.shape == (4, 5, 3)  # its at = 0 plane, cells 0 to 14, holds only vectors of SIX
    box.reshape(-1)[[0, 1, 2, 3, 4, 5, 8]] = [10000, 9000, 9000, 8000, 7000, 6000, 9005]
    return box


def test_posterior_fills_again_for_boundary_entries_at_its_floor(monkeypatch, made_up_box):
    # With room for two values the buffer keeps 10000 and one 9000 and sets its floor
    # at 9000; 9005 comes later and is held.  At a level that 10000, 9005 and 9000
    # reach (of 58005) the boundary value is 9000, at the floor, so the other 9000,
    # which left the buffer, is fetched by a further fill.
    monkeypatch.setattr(inference, "_CHUNK", 8)
    monkeypatch.setattr(inference, "_KEPT_CELLS", 2)
    made_up_box(kept_floor_box())
    post = posterior(SIX, 0.45)
    assert (10000 + 9005) / 58005 < 0.45 < (10000 + 9005 + 9000) / 58005
    assert inference._scan(SIX).kept.floor == 9000.0
    assert post.value.tolist() == [10000, 9005, 9000, 9000]


def test_scan_drops_suspects_of_a_lower_top_as_the_top_rises(monkeypatch, made_up_box):
    # The scan reads one plane of this made-up SIX box at a time, at = 3 first, so
    # 5 is its top until 10 comes at at = 0.  Only 10 may stay a suspect: with the
    # limit at 0 and a cap of one recount, two suspects would be left unconfirmed.
    box = np.zeros(assignment_count_grid(SIX).shape)
    box[3, 0, 0], box[0, 4, 2] = 5.0, 10.0
    monkeypatch.setattr(inference, "_WINDOW_CELLS", box[0].size)
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
    monkeypatch.setattr(inference, "EXACT_TIE_CAP", 1)
    made_up_box(box)
    result = mle(SIX, CR6)
    assert result.maximizers == (Theta(0, 4, 2, 0),) and result.tie_verified_exact
    assert inference._scan(SIX).hits.tolist() == [4 * 3 + 2]


def test_posterior_keeps_a_value_just_above_its_floor(monkeypatch, made_up_box):
    # 9005 lies 0.06% above the floor of 9000: it must be held, so that a level that
    # 10000 and 9005 reach ends the table there with no further fill
    monkeypatch.setattr(inference, "_CHUNK", 8)
    monkeypatch.setattr(inference, "_KEPT_CELLS", 2)
    monkeypatch.setattr(inference, "_refill", None)
    made_up_box(kept_floor_box())
    post = posterior(SIX, 0.3)
    assert 10000 / 58005 < 0.3 < (10000 + 9005) / 58005
    assert post.value.tolist() == [10000, 9005]


def test_posterior_grows_its_block_to_the_exact_crossing():
    # 0.5555555555555556 reads as a decimal just above 5/9, the exact mass of
    # the first block of two; the float sum of that block reaches the level,
    # so only the exact test sends the posterior on to the next block.
    x = ExperimentData(0, 1, 0, 2)
    summary = smallest_credible_set(posterior(x, 0.5555555555555556))
    assert summary.member_count == exact_credible_count(x, 0.5555555555555556) == 6


@settings(max_examples=150, deadline=None)
@given(counts=tables(max_n=20), data=st.data())
def test_credible_set_matches_the_exact_rationals(counts, data):
    x = ExperimentData(*counts)
    if data.draw(st.booleans()):
        level = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    else:  # on or one ulp beside the exact mass at the end of a block
        levels = block_boundary_levels(x)
        if not levels:
            return
        level = data.draw(st.sampled_from(levels))
    summary = smallest_credible_set(posterior(x, level))
    assert summary.member_count == exact_credible_count(x, level)
    assert summary.boundary_verified_exact


def test_unconfirmed_maximizer_tie_reaches_both_reports(monkeypatch):
    # (2,0,0,2) and (0,2,2,0) tie; with the cap below two suspects the tie is
    # kept by bit-equal float values and flagged unverified
    x = ExperimentData(1, 1, 1, 1)
    request = AnalysisRequest(design=CompletelyRandomized(2, 4), data=x)
    verified = analyze(request)
    assert verified.mle.tie_verified_exact
    assert "not confirmed" not in render_text(verified)
    monkeypatch.setattr(inference, "EXACT_TIE_CAP", 1)
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
    report = analyze(request)
    assert not report.mle.tie_verified_exact
    assert report.mle.maximizers == verified.mle.maximizers
    assert report_to_json(report).count('"tie_verified_exact": false') == 1
    assert render_text(report).count("  maximizer tie not confirmed exactly\n") == 1


def test_unconfirmed_monotone_tie_is_printed(monkeypatch):
    # four monotone maximizers tie; the unrestricted maximum (0,5,2,0) is unique
    monkeypatch.setattr(inference, "EXACT_TIE_CAP", 1)
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
    report = analyze(AnalysisRequest(design=CompletelyRandomized(3, 7), data=ExperimentData(2, 1, 1, 3)))
    assert report.mle.tie_verified_exact
    assert len(report.monotonicity.maximizers) == 4
    assert not report.monotonicity.tie_verified_exact
    assert render_text(report).count("  maximizer tie not confirmed exactly\n") == 1


def test_unconfirmed_fallback_keeps_only_the_bit_equal_maxima(monkeypatch):
    # a cutoff at e**-5 times the maximum makes lesser entries suspects; above
    # the cap the fallback must keep exactly the entries equal to the maximum
    x, design = ExperimentData(2, 1, 1, 3), CompletelyRandomized(3, 7)
    want = mle(x, design).maximizers, monotonicity_mle(x, design).maximizers
    monkeypatch.setattr(inference, "EXACT_TIE_CAP", 1)
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
    monkeypatch.setattr(inference, "GRID_TIE_BOUND", 1.0 - math.exp(-5.0))
    inference._scan.cache_clear()  # the scan keeps the suspects of the bound it was read at
    for result, maximizers in zip((mle(x, design), monotonicity_mle(x, design)), want):
        assert result.maximizers == maximizers
        assert not result.tie_verified_exact


def test_credible_boundary_run_above_the_cap_is_taken_whole(monkeypatch):
    # the boundary run of this table holds two entries; with the limit at 0 and
    # above the cap they are admitted together without exact counting
    counts, level = CUT_IN_THE_FIRST_BLOCK[0]
    post = posterior(ExperimentData(*counts), level)
    confirmed = smallest_credible_set(post)

    def no_exact_count(*args):
        raise AssertionError("exact counts are not taken above the cap")

    monkeypatch.setattr(inference, "EXACT_TIE_CAP", 1)
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
    monkeypatch.setattr(inference, "exact_assignment_count", no_exact_count)
    summary = smallest_credible_set(dataclasses.replace(post, exact_total=None))
    assert confirmed.boundary_verified_exact
    assert summary == dataclasses.replace(confirmed, boundary_verified_exact=False)
    assert summary.member_count == post.entry_count == 41


def test_credible_boundary_run_above_the_cap_on_real_input(monkeypatch):
    # with no one assigned to intervention, all 10,201 vectors with at + de = 100
    # produce the data in the one assignment, so the boundary run is all of them
    x = ExperimentData(0, 0, 100, 100)
    post = posterior(x, 0.95)
    summary = smallest_credible_set(post)
    assert summary.member_count == 10_201
    assert summary.achieved_mass.hex() == "0x1.fffffffffffffp-1"
    # the run is longer than the cap, but its values (all 1) lie below 2**53,
    # so they are its exact counts and the run is confirmed
    assert summary.boundary_verified_exact
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 1.0)  # the run's count is 1
    assert smallest_credible_set(dataclasses.replace(post, exact_total=None)) == dataclasses.replace(
        summary, boundary_verified_exact=False
    )


def test_bit_equal_maxima_below_the_exact_float_limit_are_exact_ties(monkeypatch):
    # the same 10,201 vectors tie at count 1: above the cap, but every value of
    # the fill is an exact integer below 2**53, so the bit-equal maxima are exact
    x, design = ExperimentData(0, 0, 100, 100), CompletelyRandomized(0, 200)
    result = mle(x, design)
    assert len(result.maximizers) == 10_201 > inference.EXACT_TIE_CAP
    assert {t.at + t.de for t in result.maximizers} == {100}
    assert result.tie_verified_exact
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 1.0)  # the top count is 1
    assert mle(x, design) == dataclasses.replace(result, tie_verified_exact=False)


def test_unconfirmed_credible_boundary_reaches_both_reports(monkeypatch):
    # the six-person boundary run holds several entries; with the cap at one
    # it is taken whole, while the unique MLE stays confirmed
    request = AnalysisRequest(design=CR6, data=SIX)
    confirmed = analyze(request)
    assert "boundary_verified_exact" not in report_to_json(confirmed)
    assert "not confirmed" not in render_text(confirmed)
    monkeypatch.setattr(inference, "EXACT_TIE_CAP", 1)
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
    report = analyze(request)
    assert not report.credible.boundary_verified_exact
    assert report.mle.tie_verified_exact
    assert report_to_json(report).count('"boundary_verified_exact": false') == 1
    assert render_text(report).count("  credible boundary not confirmed exactly\n") == 1


def test_boundary_blocks_stop_once_the_level_is_reached(monkeypatch):
    # the crossing entry opens a two-entry float run; given two distinct exact
    # counts, the larger one's block alone reaches the level
    x = ExperimentData(0, 3, 2, 2)
    post = posterior(x, 0.95)
    confirmed = smallest_credible_set(post)
    assert confirmed.member_count == 28  # the run is entries 26 and 27
    runs = []

    def two_counts(theta, x):
        runs.append(theta)
        return len(runs)  # 1, then 2

    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
    monkeypatch.setattr(inference, "exact_assignment_count", two_counts)
    summary = smallest_credible_set(dataclasses.replace(post, exact_total=None))
    assert runs == [_theta(post, 26), _theta(post, 27)]
    assert summary.member_count == 27
    assert summary.boundary_verified_exact
    assert summary.achieved_mass == float(np.cumsum(post.mass)[26])


def test_credible_ranges_leave_out_the_boundary_entries_left_out(monkeypatch):
    # Only the larger-count block of the boundary float-tie run (entries 26 and 27)
    # enters the set; entry 26, left out and moved here to co = 3, past every
    # member's co, must not widen the ranges.
    x = ExperimentData(0, 3, 2, 2)
    post = posterior(x, 0.95)
    co = post.co.copy()
    co[26] = 3
    post = dataclasses.replace(post, co=co, exact_total=None)
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
    monkeypatch.setattr(inference, "exact_assignment_count", lambda theta, x: 1 if theta.co == 3 else 2)
    summary = smallest_credible_set(post)
    assert summary.member_count == 27 and summary.boundary_verified_exact
    assert summary.co_range == (0, 2)
    assert summary.nt_range == (0, 5)


@settings(max_examples=200, deadline=None)
@given(
    counts=tables(max_n=12),
    monotone=st.sampled_from([None, True]),
    limit=st.sampled_from([inference.EXACT_FLOAT_LIMIT, 0.0]),
)
@example(counts=(15, 15, 16, 14), monotone=None, limit=inference.EXACT_FLOAT_LIMIT)
def test_argmax_ties_match_the_exact_argmax(counts, monotone, limit):
    # Below the limit bit equality decides every tie with no exact count; with
    # the limit at 0 every multi-suspect window is recounted exactly.  No table
    # with n <= 12 reaches 2**53; the example (n=60) has two maximizers above it.
    x = ExperimentData(*counts)
    thetas = [
        t for t in enumerate_thetas(x.n) if not monotone or t.co == 0 or t.de == 0
    ]
    exact = [exact_assignment_count(t, x) for t in thetas]
    index, best = theta_index(x.n), max(exact)
    want = [index.flat(t) for t, c in zip(thetas, exact) if c == best]
    box = assignment_count_grid(x)
    recounts = []

    def exact_count(theta, x):
        assert box.max() >= limit, "bit equality decides ties below the limit"
        recounts.append(theta)
        return real_exact_count(theta, x)

    real_exact_count = inference.exact_assignment_count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "EXACT_FLOAT_LIMIT", limit)
        patch.setattr(inference, "exact_assignment_count", exact_count)
        flat, verified, owner = _argmax_ties([box], [x], monotone)
    assert flat.tolist() == want
    assert verified and not owner.any()
    if box.max() >= limit and len(want) > 1:
        assert recounts


@pytest.mark.parametrize("monotone", [None, True])
def test_argmax_ties_of_many_boxes_are_each_box_alone(monkeypatch, monotone):
    # Every n=7 table in one call, in boxes of many shapes.  With the limit at
    # 12, 72 of the 120 boxes lie above it, and those with several suspects are
    # recounted under a made-up count that splits exact ties; the rest are
    # decided by bit equality.
    xs = [
        ExperimentData(i1, i0, c1, 7 - i1 - i0 - c1)
        for i1 in range(8) for i0 in range(8 - i1) for c1 in range(8 - i1 - i0)
    ]
    boxes = [assignment_count_grid(x) for x in xs]
    recounted, real_count = set(), inference.exact_assignment_count
    monkeypatch.setattr(inference, "EXACT_FLOAT_LIMIT", 12.0)
    monkeypatch.setattr(
        inference,
        "exact_assignment_count",
        lambda t, x: recounted.add(x) or 4 * real_count(t, x) + t.de % 3,
    )
    flat, verified, owner = _argmax_ties(boxes, xs, monotone)
    assert len({box.shape for box in boxes}) > 1 and recounted
    assert all(assignment_count_grid(x).max() >= 12.0 for x in recounted)
    assert verified and np.all(np.diff(owner) >= 0)
    for k, (box, x) in enumerate(zip(boxes, xs)):
        alone, alone_verified, alone_owner = _argmax_ties([box], [x], monotone)
        assert flat[owner == k].tolist() == alone.tolist()
        assert alone_verified and not alone_owner.any()


@settings(max_examples=100, deadline=None)
@given(counts=tables(), level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(counts=(0, 3, 2, 2), level=0.95)  # a two-entry boundary run
@example(counts=(0, 0, 20, 20), level=0.5)  # 441 maximizers tie at count 1
def test_exact_values_and_integer_recounts_agree(counts, level):
    # Below 2**53 (every table with n <= 40) the box values are the exact
    # counts; with the limit at 0 every tie is recounted in integers instead.
    # Both routes must give the same maximizers and the same credible set.
    x = ExperimentData(*counts)
    design = CompletelyRandomized(x.i1 + x.i0, x.n)
    post = posterior(x, level)

    def run():
        sets = (mle(x, design), monotonicity_mle(x, design), smallest_credible_set(post))
        assert all(s.tie_verified_exact for s in sets[:2]) and sets[2].boundary_verified_exact
        return sets, sets[2].achieved_mass.hex()

    by_values = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "EXACT_FLOAT_LIMIT", 0.0)
        assert run() == by_values


def test_no_exact_recount_below_the_exact_float_limit(monkeypatch):
    # The six-person credible boundary run holds several entries; all values
    # lie below 2**53, so neither the maxima nor the boundary are recounted.
    post = posterior(SIX, 0.95)
    run = np.flatnonzero(post.mass == post.mass[smallest_credible_set(post).member_count - 1])
    assert run.size > 1

    def no_exact_count(*args):
        raise AssertionError("no exact recount below the limit")

    monkeypatch.setattr(inference, "exact_assignment_count", no_exact_count)
    assert mle(SIX, CR6).tie_verified_exact
    assert monotonicity_mle(SIX, CR6).tie_verified_exact
    assert smallest_credible_set(post).boundary_verified_exact
