import math

import numpy as np
import pytest

from defiers.core import (
    MAX_N,
    Bernoulli,
    CompletelyRandomized,
    ExperimentData,
    Theta,
    ThetaIndex,
    enumerate_thetas,
    theta_index,
)
from defiers.likelihood import GRID_MAX_N


def test_theta_validation():
    t = Theta(1, 2, 3, 4)
    assert t.n == 10
    assert t.counts() == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        Theta(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        Theta(0.5, 0, 0, 0)
    with pytest.raises(ValueError):
        Theta(100_001, 0, 0, 0)


def test_numpy_counts_are_stored_as_python_ints():
    # in their own dtype, uint8 200 + 100 wraps to 44 and uint16 60,000 +
    # 50,000 to 44,464, under the cap
    narrow = (np.uint8(200), np.uint8(100), 0, 0)
    for counts in (Theta(*narrow), ExperimentData(*narrow)):
        assert counts.n == 300
        assert all(type(c) is int for c in counts.counts())
    design = CompletelyRandomized(np.uint8(200), np.uint8(250))
    assert (type(design.m), type(design.n)) == (int, int)
    for make in (Theta, ExperimentData):
        with pytest.raises(ValueError, match="total 110000 exceeds the cap"):
            make(np.uint16(60_000), np.uint16(50_000), 0, 0)


def test_design_cap_applies_to_n_not_m_plus_n():
    design = CompletelyRandomized(60_000, 60_000)
    assert (design.m, design.n) == (60_000, 60_000)
    assert CompletelyRandomized(np.int32(MAX_N), np.int32(MAX_N)).n == MAX_N
    with pytest.raises(ValueError, match=f"total {MAX_N + 1} exceeds the cap of {MAX_N}"):
        CompletelyRandomized(0, MAX_N + 1)


def test_types_present_and_relabel():
    assert Theta(1, 0, 2, 0).types_present() == "AD"
    assert Theta(0, 0, 0, 5).types_present() == "N"
    assert Theta(1, 2, 3, 4).relabeled() == Theta(4, 3, 2, 1)
    assert Theta(4, 1, 2, 3).average_effect() == pytest.approx(-0.1)


def test_experiment_data():
    x = ExperimentData(2, 1, 1, 2)
    assert x.n == 6
    assert x.intervention_size == 3
    assert x.control_size == 3
    assert x.average_effect() == pytest.approx(2 / 3 - 1 / 3)
    assert x.relabeled() == ExperimentData(1, 2, 2, 1)
    with pytest.raises(ValueError):
        ExperimentData(-1, 0, 0, 0)


def test_design_validation():
    assert Bernoulli(0.5).p == 0.5
    with pytest.raises(ValueError):
        Bernoulli(0.0)
    with pytest.raises(ValueError):
        Bernoulli(1.0)
    assert CompletelyRandomized(3, 6).m == 3
    with pytest.raises(ValueError):
        CompletelyRandomized(7, 6)


def test_enumerate_thetas_small():
    assert [t.counts() for t in enumerate_thetas(1)] == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]
    assert math.comb(6 + 3, 3) == 84
    assert len(list(enumerate_thetas(6))) == 84
    assert math.comb(50 + 3, 3) == 23426


@pytest.mark.parametrize("n", range(0, 31, 5))
def test_enumerate_thetas_count_and_uniqueness(n):
    thetas = list(enumerate_thetas(n))
    assert len(thetas) == math.comb(n + 3, 3)
    assert len(set(thetas)) == len(thetas)
    assert all(t.n == n for t in thetas)
    keys = [(t.at, t.co, t.de) for t in thetas]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 23, 40])
def test_theta_index_roundtrip_exhaustive(n):
    index = ThetaIndex(n)
    assert index.size == math.comb(n + 3, 3)
    flat = np.arange(index.size)
    at, co, de, nt = index.components(flat)
    expect = list(enumerate_thetas(n))
    assert [Theta(int(a), int(c), int(d), int(t))
            for a, c, d, t in zip(at, co, de, nt)] == expect
    back = index.flatten(at, co, de)
    assert np.array_equal(back, flat)


def test_theta_index_block_ends_roundtrip_at_the_guard():
    # every (at, co) block at the largest grid n: its first vector has de =
    # n - at - co, its last de = 0, and consecutive blocks meet with no gap
    n = GRID_MAX_N
    index = ThetaIndex(n)
    at = np.repeat(np.arange(n, -1, -1), np.arange(1, n + 2))
    co = np.concatenate([np.arange(n - a, -1, -1) for a in range(n, -1, -1)])
    assert at.size == (n + 1) * (n + 2) // 2 == 501_501
    rest = n - at - co
    first, last = index.flatten(at, co, rest), index.flatten(at, co, 0)
    assert first[0] == 0 and last[-1] == index.size - 1 == math.comb(n + 3, 3) - 1
    assert np.array_equal(last - first, rest)
    assert np.array_equal(first[1:], last[:-1] + 1)
    zero = np.zeros_like(at)
    for flat, de, nt in ((first, rest, zero), (last, zero, rest)):
        got = index.components(flat)
        for axis, want in zip(got, (at, co, de, nt)):
            assert np.array_equal(axis, want)
        assert np.array_equal(index.flatten(*got[:3]), flat)


def test_theta_index_flatten_python_ints_match_arrays():
    index = theta_index(612)
    rng = np.random.default_rng(2)
    at, co, de, _ = index.components(rng.integers(0, index.size, size=200))
    flat = index.flatten(at, co, de)
    for a, c, d, f in zip(at.tolist(), co.tolist(), de.tolist(), flat.tolist()):
        assert index.flatten(a, c, d) == f
    # narrow numpy counts are read as Python ints (612 - uint8 would overflow)
    assert index.flat(Theta(np.uint8(5), np.int16(600), np.uint8(7), 0)) == index.flatten(5, 600, 7)


def test_theta_index_spot_large():
    index = theta_index(612)
    rng = np.random.default_rng(1)
    flat = rng.integers(0, index.size, size=5000)
    at, co, de, nt = index.components(flat)
    assert np.all(at >= 0) and np.all(co >= 0) and np.all(de >= 0) and np.all(nt >= 0)
    assert np.array_equal(index.flatten(at, co, de), flat)
    at, co, de, nt = index.components(12345)
    assert index.flat(Theta(int(at), int(co), int(de), int(nt))) == 12345
