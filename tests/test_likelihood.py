import hashlib
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defiers import likelihood
from defiers.core import (
    Bernoulli,
    BudgetExceededError,
    CompletelyRandomized,
    DesignInconsistencyError,
    ExperimentData,
    Theta,
    enumerate_thetas,
    theta_index,
)
from defiers.combinatorics import LOG_ZERO
from defiers.inference import _thetas_from_flat
from defiers.likelihood import (
    GRID_MAX_N,
    GRID_TIE_BOUND,
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

from grid_reference import at_plane_sums, canonical, reference_grid, tables

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
    assert oracle_assignment_count(Theta(0, 4, 2, 0), SIX) == 12
    assert oracle_assignment_count(Theta(1, 3, 1, 1), SIX) == 6
    # all never takers: every assignment yields the same data
    n, m = 7, 3
    x = ExperimentData(0, m, 0, n - m)
    assert oracle_assignment_count(Theta(0, 0, 0, n), x) == math.comb(n, m)
    # unequal arms (2 of 7): the oracle takes the arm size from x
    x = ExperimentData(1, 1, 3, 2)
    thetas = list(enumerate_thetas(7))
    counts = [exact_assignment_count(t, x) for t in thetas]
    assert [oracle_assignment_count(t, x) for t in thetas] == counts and any(counts)
    with pytest.raises(BudgetExceededError):
        oracle_data_distribution(Theta(21, 0, 0, 0), 10)


def test_oracle_checks_the_arm_size_before_the_budget():
    # an impossible arm size is an input error at any n, not a size refusal
    with pytest.raises(ValueError, match="need 0 <= m <= n, got m=30, n=25"):
        oracle_data_distribution(Theta(25, 0, 0, 0), 30)


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
        grid = canonical(assignment_count_grid(x), x.n)
        index = theta_index(x.n)
        assert grid.size == index.size
        for i, theta in enumerate(enumerate_thetas(x.n)):
            assert grid[i] == float(exact_assignment_count(theta, x))
    grid = canonical(assignment_count_grid(SIX), 6)
    assert grid[theta_index(6).flat(Theta(0, 4, 2, 0))] == 12.0


def assert_box_is_the_reference(x, reference=None):
    """The support box holds the reference grid's bits, and the rest is 0."""
    box = assignment_count_grid(x)
    i1, i0, c1, c0 = x.counts()
    assert box.shape == (i1 + c1 + 1, i1 + c0 + 1, i0 + c1 + 1)
    reference = reference_grid(x) if reference is None else reference
    coords = np.nonzero(box)
    assert (coords[0] + coords[1] + coords[2] <= x.n).all()
    flat = theta_index(x.n).flatten(*coords)
    # every positive reference entry is a positive box cell, with the same bits
    assert np.array_equal(np.sort(flat), np.flatnonzero(reference))
    assert np.array_equal(box[coords].view(np.int64), reference[flat].view(np.int64))
    return reference


@settings(max_examples=150, deadline=None)
@given(counts=tables())
def test_box_equals_the_reference_grid(counts):
    x = ExperimentData(*counts)
    reference = assert_box_is_the_reference(x)
    box = assignment_count_grid(x)
    assert np.array_equal(canonical(box, x.n).view(np.int64), reference.view(np.int64))
    exact = [float(exact_assignment_count(t, x)) for t in enumerate_thetas(x.n)]
    assert np.array_equal(reference, exact)


@pytest.mark.parametrize(
    "counts",
    [
        (69, 237, 26, 280),  # the published smoking table
        (50, 11, 23, 31),  # organ donation
        (20, 0, 20, 0),  # full takeup in both arms
        (0, 20, 0, 20),  # no takeup
        (0, 0, 7, 5),  # empty intervention arm
        (6, 9, 0, 0),  # empty control arm
    ],
)
def test_box_is_bit_equal_to_the_reference(counts):
    # filled as one band, and as two and three bands of box columns on threads
    x = ExperimentData(*counts)
    reference = reference_grid(x)
    for bands in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            fill_in_bands(mp, bands)
            assert_box_is_the_reference(x, reference)


@settings(max_examples=60, deadline=None)
@given(counts=tables(max_n=14))
def test_at_plane_sums_are_the_exact_counts_by_plane(counts):
    x = ExperimentData(*counts)
    by_plane = [0] * (x.i1 + x.c1 + 1)
    for theta in enumerate_thetas(x.n):
        if theta.at < len(by_plane):
            by_plane[theta.at] += exact_assignment_count(theta, x)
    assert at_plane_sums(x) == by_plane


def assert_at_planes_are_exact_within_the_fill_bound(x, exact):
    """Each at-plane sum of the box is within its rounding bound of the exact sum.

    A cell is within gamma_{n+7} of its count, relatively (see ``GRID_TIE_BOUND``);
    numpy sums a plane's k cells pairwise, passing each through at most 25 additions
    in its leaves of up to 128 values, one per halving above them and one onto the
    reduction's start.  All terms are positive, so a plane sum is within
    gamma_{n+7+26+ceil(log2 k)} of its exact sum (Higham, 2002, 3.1 and 4.2).
    """
    box = assignment_count_grid(x)
    planes, k = box.sum(axis=(1, 2)), box[0].size
    u, steps = Fraction(1, 2**53), x.n + 7 + 26 + math.ceil(math.log2(k))
    gamma = steps * u / (1 - steps * u)
    assert len(planes) == len(exact)
    for got, want in zip(planes.tolist(), exact):
        assert abs(Fraction(got) - want) <= gamma * want


@pytest.mark.parametrize("counts", [(50, 11, 23, 31), (200, 5, 180, 3)])
def test_box_at_planes_match_the_exact_chain(counts):
    x = ExperimentData(*counts)
    assert_at_planes_are_exact_within_the_fill_bound(x, at_plane_sums(x))


def test_smoking_box_at_planes_match_the_exact_chain_at_every_band_count():
    x = ExperimentData(69, 237, 26, 280)
    exact = at_plane_sums(x)
    for bands in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            fill_in_bands(mp, bands)
            assert_at_planes_are_exact_within_the_fill_bound(x, exact)


def fill_in_bands(mp, bands):
    """Every fill takes ``bands`` bands, or one per box column if it has fewer."""
    mp.setattr(likelihood, "_BAND_WORK", 1)
    mp.setattr(likelihood.os, "sched_getaffinity", lambda pid: set(range(bands)))


def row_cells(i1, i0, c1, c0):
    """Cells of one c_c row of a block: a slab row of i0+1 cells, or padded, of a box
    row of i0+c1+1, for every a_c."""
    return (c1 + 1) * (i0 + 1 + likelihood._padded(i1, i0, c1, c0) * c1)


def one_row(i1, i0, c1, c0):
    return 1


def ragged(i1, i0, c1, c0):
    """Blocks of max(1, c0) rows: c0+1 rows leave a 1-row last block when c0 > 1."""
    return c0 * row_cells(i1, i0, c1, c0)


def one_block(i1, i0, c1, c0):
    return (c0 + 1) * row_cells(i1, i0, c1, c0)


def runs_of_two(i1, i0, c1, c0):
    """Every c_c row of two a_i per block: an even i1 leaves a 1-a_i last run."""
    return 2 * (c0 + 1) * row_cells(i1, i0, c1, c0)


def every_a_i(i1, i0, c1, c0):
    return (i1 + 1) * (c0 + 1) * row_cells(i1, i0, c1, c0)


def fill_in_blocks(mp, counts, block_cells, padded):
    """Every fill adds d_i runs, or box rows if ``padded``, in blocks of ``block_cells``."""
    mp.setattr(likelihood, "_padded", lambda i1, i0, c1, c0: padded)
    mp.setattr(likelihood, "_BLOCK_CELLS", block_cells(*counts))


@settings(max_examples=100, deadline=None)
@given(counts=tables())
@example(counts=(4, 3, 2, 5))  # a_i runs 0-1, 2-3 and 4
@pytest.mark.parametrize("block_cells", [one_row, ragged, runs_of_two, every_a_i])
def test_blocked_fill_is_bit_equal_to_the_reference(block_cells, counts):
    reference = reference_grid(ExperimentData(*counts))
    for padded in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            fill_in_blocks(mp, counts, block_cells, padded)
            assert_box_is_the_reference(ExperimentData(*counts), reference)


@settings(max_examples=150, deadline=None)
@given(
    counts=tables(),
    bands=st.integers(1, 3),
    block_cells=st.sampled_from([one_row, ragged, runs_of_two, every_a_i]),
)
@example(counts=(4, 3, 2, 5), bands=2, block_cells=ragged)  # blocks inside, outside and across
def test_banded_fill_is_bit_equal_to_the_reference(counts, bands, block_cells):
    reference = reference_grid(ExperimentData(*counts))
    for padded in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            fill_in_blocks(mp, counts, block_cells, padded)
            fill_in_bands(mp, bands)
            assert_box_is_the_reference(ExperimentData(*counts), reference)


@settings(max_examples=150, deadline=None)
@given(counts=tables(max_n=200), bands=st.integers(1, 8))
def test_bands_partition_the_columns_into_even_shares(counts, bands):
    i1, _, _, c0 = counts
    edges = likelihood._band_edges(i1, c0, bands)
    assert edges[0] == 0 and edges[-1] == i1 + c0 + 1 and len(edges) - 1 <= bands
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    # (a_i, c_c) pairs per box column co = i1 - a_i + c_c
    a_i, c_c = np.indices((i1 + 1, c0 + 1))
    per_column = np.bincount((i1 - a_i + c_c).ravel())
    shares = [per_column[lo:hi].sum() for lo, hi in zip(edges, edges[1:])]
    # each band is within one column of an even split
    even = per_column.sum() / bands
    assert all(abs(share - even) < per_column.max() for share in shares)


def test_bands_follow_cpu_count_where_sched_getaffinity_is_missing(monkeypatch):
    # os.sched_getaffinity exists only on some platforms (Linux, not macOS or Windows)
    x = ExperimentData(12, 13, 7, 18)
    reference, band_edges, bands = reference_grid(x), likelihood._band_edges, []
    monkeypatch.setattr(likelihood, "_BAND_WORK", 1)
    monkeypatch.delattr(likelihood.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(
        likelihood, "_band_edges", lambda i1, c0, k: bands.append(k) or band_edges(i1, c0, k)
    )
    for cpus in (None, 1, 3):
        monkeypatch.setattr(likelihood.os, "cpu_count", lambda: cpus)
        assert_box_is_the_reference(x, reference)
    assert bands == [3]  # an unknown count or one CPU fills one band


def test_fills_up_to_n_60_run_on_the_calling_thread():
    # the heatmap and the Bayes pass stop at n = 60, where a box has at most
    # 16**4 compositions: far below one band's work
    n = 60
    assert max(
        (i1 + 1) * (i0 + 1) * (c1 + 1) * (n - i1 - i0 - c1 + 1)
        for i1 in range(n + 1)
        for i0 in range(n - i1 + 1)
        for c1 in range(n - i1 - i0 + 1)
    ) == 16**4 < likelihood._BAND_WORK


def test_banded_fill_joins_its_threads_and_raises_a_band_failure(monkeypatch):
    x = ExperimentData(12, 13, 7, 18)
    box, threads = assignment_count_grid(x), threading.active_count()
    fill_in_bands(monkeypatch, 3)
    assert np.array_equal(assignment_count_grid(x).view(np.int64), box.view(np.int64))
    assert threading.active_count() == threads

    # every band calls np.multiply; it fails on the bands the fill started threads for
    caller, multiply = threading.current_thread(), np.multiply

    def multiply_on_the_caller_only(*args, **kwargs):
        if threading.current_thread() is not caller:
            raise MemoryError("a band failed")
        return multiply(*args, **kwargs)

    monkeypatch.setattr(likelihood.np, "multiply", multiply_on_the_caller_only)
    with pytest.raises(MemoryError, match="a band failed"):
        assignment_count_grid(x)
    assert threading.active_count() == threads


# SHA-256 of the smoking table's box bytes, shape (96, 350, 264)
SMOKING_BOX_SHA256 = "fe3ddd78179cf14d0f87be18b27156a972889f3358ac0f5b38dd8e2771e00edc"


def test_smoking_box_bytes_are_pinned_at_every_band_count():
    x = ExperimentData(69, 237, 26, 280)
    for bands in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            fill_in_bands(mp, bands)
            box = assignment_count_grid(x)
        assert box.shape == (96, 350, 264)
        assert hashlib.sha256(box.tobytes()).hexdigest() == SMOKING_BOX_SHA256


def test_smoking_box_bits_do_not_depend_on_the_block_size(monkeypatch):
    x = ExperimentData(69, 237, 26, 280)
    # padded box rows of 264 cells, in 4-row blocks of 27 * 264 cells and one a_i
    # at the default, the last one 1 row
    assert likelihood._padded(*x.counts()) and row_cells(*x.counts()) == 27 * 264
    assert likelihood._BLOCK_CELLS // (27 * 264) == 4 and 281 % 4 == 1
    assert likelihood._BLOCK_CELLS // (4 * 27 * 264) == 1
    box = assignment_count_grid(x)
    for block_cells in (one_row, one_block):
        monkeypatch.setattr(likelihood, "_BLOCK_CELLS", block_cells(*x.counts()))
        assert np.array_equal(assignment_count_grid(x).view(np.int64), box.view(np.int64))


def test_padded_and_unpadded_fills_agree_near_the_float64_top(monkeypatch):
    # n = 1000: a 2.76M-cell box whose largest cell is 4.8e298, padded at the default
    # (box rows of 511 cells against d_i runs of 501); every padded product is +0.0
    x = ExperimentData(0, 500, 10, 490)
    assert likelihood._padded(*x.counts())
    bufsize, box = np.getbufsize(), assignment_count_grid(x)
    assert np.getbufsize() == bufsize  # the caller's ufuncs buffer as before
    assert box.size == 2_759_911 and np.isfinite(box).all() and 4.7e298 < box.max() < 4.9e298
    assert hashlib.sha256(box.tobytes()).hexdigest().startswith("372ffb08aa04")
    monkeypatch.setattr(likelihood, "_padded", lambda i1, i0, c1, c0: False)
    assert np.array_equal(assignment_count_grid(x).view(np.int64), box.view(np.int64))


def test_the_fill_pads_long_runs_in_rows_at_most_a_fifth_wider():
    for counts, padded in [
        ((69, 237, 26, 280), True),  # rows of 264 cells, runs of 238
        ((0, 500, 10, 490), True),
        ((10, 63, 12, 10), True),  # runs of 64, rows of 76 = 1.1875 * 64
        ((10, 62, 12, 10), False),  # runs of 63
        ((69, 237, 48, 258), False),  # rows of 286 > 1.2 * 238
        ((80, 5, 3, 912), False),  # runs of 6, however large the box
        ((300, 6, 280, 26), False),
    ]:
        assert likelihood._padded(*counts) is padded, counts


def test_long_unpadded_runs_fill_under_a_small_buffer_with_the_same_bits(monkeypatch):
    x = ExperimentData(2, 70, 20, 5)  # runs of 71 cells in box rows of 91: not padded
    assert not likelihood._padded(*x.counts())
    sizes, setbufsize, bufsize = [], np.setbufsize, np.getbufsize()
    monkeypatch.setattr(np, "setbufsize", lambda size: sizes.append(size) or setbufsize(size))
    box = assignment_count_grid(x)
    assert sizes == [16, bufsize] and np.getbufsize() == bufsize
    monkeypatch.setattr(likelihood, "_LONG_RUN", 72)  # the default buffer
    assert np.array_equal(assignment_count_grid(x).view(np.int64), box.view(np.int64))
    assert sizes == [16, bufsize]


def test_support_box_size_at_the_guard():
    # The box axes have i1+c1+1, i1+c0+1 and i0+c1+1 cells.  The last two sum
    # to n+2 and the first is at most n+1, so the all-takeup table
    # (n/2, 0, n/2, 0) has the largest box: about n**3/4 cells.
    def cells(i1, i0, c1, c0):
        return (i1 + c1 + 1) * (i1 + c0 + 1) * (i0 + c1 + 1)

    n = 24
    largest = max(
        cells(i1, i0, c1, n - i1 - i0 - c1)
        for i1 in range(n + 1)
        for i0 in range(n - i1 + 1)
        for c1 in range(n - i1 - i0 + 1)
    )
    assert largest == cells(n // 2, 0, n // 2, 0)
    assert assignment_count_grid(ExperimentData(n // 2, 0, n // 2, 0)).size == largest
    # at the cap: 251M cells, 2.01 GB of float64, against 1.34 GB canonical
    n = GRID_MAX_N
    assert cells(n // 2, 0, n // 2, 0) == 251_252_001
    assert 8 * cells(n // 2, 0, n // 2, 0) == 2_010_016_008
    assert 8 * math.comb(n + 3, 3) == 1_341_348_008


def test_grid_total_is_partition_of_assignments():
    # summing counts over all thetas that share nothing still partitions
    # each theta's own assignments; check one theta column against the oracle
    x = ExperimentData(4, 2, 3, 3)
    grid = canonical(assignment_count_grid(x), x.n)
    index = theta_index(x.n)
    rng = np.random.default_rng(5)
    flats = rng.integers(0, index.size, size=50)
    for f, theta in zip(flats, _thetas_from_flat(x.n, flats)):
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


def test_grid_budget_guard():
    with pytest.raises(BudgetExceededError):
        assignment_count_grid(ExperimentData(500, 500, 500, 501))


def test_grid_sum_fits_float64_at_the_guard():
    # every entry counts assignments of one arm size, at most C(n, n//2), so
    # the grid sum (the posterior's normaliser) is at most this bound
    bound = math.comb(GRID_MAX_N + 3, 3) * math.comb(GRID_MAX_N, GRID_MAX_N // 2)
    assert bound < sys.float_info.max


def test_tie_bound_covers_the_fill_error_at_the_guard():
    # a cell's relative error is at most gamma_{n+7}; two cells of equal count
    # differ by at most 2 gamma / (1 - gamma), and forming the cutoff rounds twice
    u = Fraction(1, 2**53)
    k = GRID_MAX_N + 7
    gamma = k * u / (1 - k * u)
    assert Fraction(GRID_TIE_BOUND) >= 2 * gamma / (1 - gamma) + 2 * u
