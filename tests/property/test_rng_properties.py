"""Property tests for the named-substream RNG (repro.simkernel.rng).

Two properties carry the reproduction's determinism story:

* **substream independence** — draws on one named stream are a pure
  function of (root seed, name, draw index); any amount of activity on
  *other* streams, in any order, never perturbs them;
* **restart stability** — seeds derive through SHA-256, not ``hash()``,
  so values survive process restarts (where ``PYTHONHASHSEED`` changes).
"""

import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simkernel.rng import RngStreams, _derive_seed

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.:",
    min_size=1, max_size=24,
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- _derive_seed -------------------------------------------------------------


@given(seed=seeds, name=names)
def test_derived_seed_is_a_stable_64bit_value(seed, name):
    value = _derive_seed(seed, name)
    assert 0 <= value < 2**64
    assert value == _derive_seed(seed, name)


@given(seed=seeds, a=names, b=names)
def test_distinct_names_give_distinct_seeds(seed, a, b):
    if a != b:
        assert _derive_seed(seed, a) != _derive_seed(seed, b)


def test_derive_seed_golden_values():
    """Pinned outputs: a change here silently reshuffles EVERY simulation."""
    assert _derive_seed(0, "arrivals") == 1213280804437773225
    assert _derive_seed(42, "arrivals") == 1442938909952263380
    assert _derive_seed(42, "boot-jitter") == 10195204228135240133


# -- substream independence ---------------------------------------------------


@given(
    seed=seeds,
    watched=names,
    others=st.lists(st.tuples(names, st.integers(min_value=1, max_value=8)),
                    max_size=6),
    prior_draws=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_interleaved_streams_never_perturb_each_other(
        seed, watched, others, prior_draws):
    # reference: the watched stream drawn alone
    ref = RngStreams(seed)
    reference = [ref.stream(watched).random() for _ in range(prior_draws + 1)]

    # same root seed, but with arbitrary traffic on other streams woven in
    noisy = RngStreams(seed)
    for name, count in others:
        if name != watched:
            for _ in range(count):
                noisy.stream(name).random()
    observed = [noisy.stream(watched).random() for _ in range(prior_draws)]
    for name, _ in others:
        if name != watched:
            noisy.stream(name).random()
    observed.append(noisy.stream(watched).random())

    assert observed == reference


@given(seed=seeds, name=names)
def test_spawn_children_are_independent_of_parent_draws(seed, name):
    direct = RngStreams(seed).spawn(name).stream("s").random()
    parent = RngStreams(seed)
    parent.stream("unrelated").random()  # parent traffic before spawning
    assert parent.spawn(name).stream("s").random() == direct


# -- restart stability --------------------------------------------------------


def test_streams_stable_across_process_restart(tmp_path):
    """A fresh interpreter (different hash randomisation) reproduces the
    exact same draws — the property ``hash()``-based seeding would lose."""
    src = Path(__file__).resolve().parents[2] / "src"
    program = (
        "from repro.simkernel.rng import RngStreams, _derive_seed\n"
        "rng = RngStreams(42)\n"
        "print(_derive_seed(42, 'arrivals'))\n"
        "print(repr([rng.stream('arrivals').random() for _ in range(3)]))\n"
        "print(repr(rng.exponential('service', 10.0)))\n"
    )
    outputs = set()
    for hashseed in ("1", "31337"):
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hashseed},
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1  # both interpreters printed identical draws

    # and the child output matches THIS process too
    rng = RngStreams(42)
    expected = (
        f"{_derive_seed(42, 'arrivals')}\n"
        f"{[rng.stream('arrivals').random() for _ in range(3)]!r}\n"
        f"{rng.exponential('service', 10.0)!r}\n"
    )
    assert outputs == {expected}


# -- normal_clipped ------------------------------------------------------------


def seed_normal_clipped(
    self: RngStreams, name: str, mean: float, std: float, low: float, high: float
) -> float:
    """``RngStreams.normal_clipped`` before it clipped with ``min``/``max``,
    kept verbatim as the oracle."""
    return float(np.clip(self.stream(name).normal(mean, std), low, high))


def bits(x: float) -> bytes:
    assert type(x) is float
    return struct.pack("<d", x)


bound = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.integers(min_value=-4, max_value=4),
)


@settings(max_examples=150)
@given(
    seed=seeds, name=names,
    mean=st.floats(min_value=-1e3, max_value=1e3),
    std=st.floats(min_value=0.0, max_value=1e3),
    a=bound, b=bound,
)
def test_normal_clipped_is_bit_identical_to_np_clip(seed, name, mean, std, a, b):
    # bounds in standard deviations around the mean, so that draws clip
    # at either end as often as they pass through
    low = mean + min(a, b) * std
    high = mean + max(a, b) * std
    ours, oracle = RngStreams(seed), RngStreams(seed)
    for _ in range(16):
        assert bits(ours.normal_clipped(name, mean, std, low, high)) == bits(
            seed_normal_clipped(oracle, name, mean, std, low, high)
        )


def test_normal_clipped_hits_both_bounds_like_np_clip():
    ours, oracle = RngStreams(7), RngStreams(7)
    draws = []
    for _ in range(64):
        x = ours.normal_clipped("jitter", 0.0, 1.0, -0.5, 0.5)
        assert bits(x) == bits(seed_normal_clipped(oracle, "jitter", 0.0, 1.0, -0.5, 0.5))
        draws.append(x)
    assert -0.5 in draws and 0.5 in draws
    assert any(-0.5 < x < 0.5 for x in draws)


def test_normal_clipped_integer_bounds_still_give_floats():
    ours, oracle = RngStreams(3), RngStreams(3)
    for _ in range(16):
        x = ours.normal_clipped("boot", 30.0, 20.0, 15, 60)
        assert bits(x) == bits(seed_normal_clipped(oracle, "boot", 30.0, 20.0, 15, 60))
