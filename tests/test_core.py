import math

import numpy as np
import pytest

from defiers.core import (
    Bernoulli,
    CompletelyRandomized,
    ExperimentData,
    Theta,
    ThetaIndex,
    enumerate_thetas,
    theta_index,
)


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


def test_theta_index_spot_large():
    index = theta_index(612)
    rng = np.random.default_rng(1)
    flat = rng.integers(0, index.size, size=5000)
    at, co, de, nt = index.components(flat)
    assert np.all(at >= 0) and np.all(co >= 0) and np.all(de >= 0) and np.all(nt >= 0)
    assert np.array_equal(index.flatten(at, co, de), flat)
    at, co, de, nt = index.components(12345)
    assert index.flat(Theta(int(at), int(co), int(de), int(nt))) == 12345
