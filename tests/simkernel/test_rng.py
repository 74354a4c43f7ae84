"""Unit tests for deterministic named RNG streams."""

import numpy as np
import pytest

from repro.simkernel import RngStreams


def test_same_seed_same_stream_reproduces():
    a = RngStreams(seed=123).stream("x").random(10)
    b = RngStreams(seed=123).stream("x").random(10)
    assert np.array_equal(a, b)


def test_different_names_independent():
    rng = RngStreams(seed=123)
    a = rng.stream("a").random(10)
    b = rng.stream("b").random(10)
    assert not np.array_equal(a, b)


def test_stream_is_cached():
    rng = RngStreams(seed=1)
    assert rng.stream("s") is rng.stream("s")


def test_new_stream_does_not_perturb_existing():
    rng1 = RngStreams(seed=9)
    _ = rng1.stream("a").random(5)
    first = rng1.stream("a").random()

    rng2 = RngStreams(seed=9)
    _ = rng2.stream("a").random(5)
    _ = rng2.stream("zzz").random(100)  # interleave a new consumer
    second = rng2.stream("a").random()
    assert first == second


def test_spawn_children_independent_and_reproducible():
    c1 = RngStreams(seed=5).spawn("child").stream("s").random(4)
    c2 = RngStreams(seed=5).spawn("child").stream("s").random(4)
    parent = RngStreams(seed=5).stream("s").random(4)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, parent)


def test_exponential_mean_validation():
    with pytest.raises(ValueError):
        RngStreams(0).exponential("x", 0)


def test_exponential_positive():
    rng = RngStreams(0)
    draws = [rng.exponential("e", 10.0) for _ in range(100)]
    assert all(d > 0 for d in draws)
    assert 2.0 < np.mean(draws) < 40.0


def test_normal_clipped_respects_bounds():
    rng = RngStreams(0)
    draws = [rng.normal_clipped("n", 0.0, 100.0, -1.0, 1.0) for _ in range(200)]
    assert all(-1.0 <= d <= 1.0 for d in draws)


def test_lognormal_mean_is_linear_space():
    rng = RngStreams(7)
    draws = np.array([rng.lognormal("ln", 100.0, 0.5) for _ in range(5000)])
    assert abs(draws.mean() - 100.0) / 100.0 < 0.1


def test_lognormal_validation():
    with pytest.raises(ValueError):
        RngStreams(0).lognormal("x", -1.0, 0.5)


def test_choice_with_weights():
    rng = RngStreams(3)
    picks = [rng.choice("c", ["a", "b"], p=[0.0, 1.0]) for _ in range(20)]
    assert picks == ["b"] * 20


def test_bernoulli_bounds():
    rng = RngStreams(0)
    with pytest.raises(ValueError):
        rng.bernoulli("b", 1.5)
    assert rng.bernoulli("b", 1.0) is True
    assert rng.bernoulli("b", 0.0) is False


def test_integers_range():
    rng = RngStreams(0)
    draws = [rng.integers("i", 2, 5) for _ in range(100)]
    assert set(draws) <= {2, 3, 4}
