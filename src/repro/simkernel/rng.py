"""Deterministic named random streams.

Every stochastic element of the simulation (arrival processes, job
durations, boot-time jitter, ...) draws from a *named substream* derived
from one root seed.  Two properties matter:

* **Reproducibility** — the same root seed always produces the same
  simulation, regardless of module import order or Python hash
  randomisation (names are hashed with SHA-256, not ``hash()``).
* **Independence under refactoring** — adding a new consumer stream never
  perturbs existing streams, because each stream is keyed by its own name
  rather than by draw order on a shared generator.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def _derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit child seed from (root seed, stream name)."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """A factory of independent, named :class:`numpy.random.Generator` streams.

    >>> rng = RngStreams(seed=42)
    >>> a1 = rng.stream("arrivals").random()
    >>> rng2 = RngStreams(seed=42)
    >>> a2 = rng2.stream("arrivals").random()
    >>> a1 == a2
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(_derive_seed(self.seed, name))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngStreams":
        """A child factory whose streams are independent of this factory's."""
        return RngStreams(_derive_seed(self.seed, f"spawn:{name}"))

    # -- convenience draws ---------------------------------------------------

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on stream *name*."""
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        return float(self.stream(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        """One draw from U[low, high) on stream *name*."""
        return float(self.stream(name).uniform(low, high))

    def normal_clipped(
        self, name: str, mean: float, std: float, low: float, high: float
    ) -> float:
        """Normal draw clipped into [low, high] (boot-time jitter model)."""
        return float(min(max(self.stream(name).normal(mean, std), low), high))

    def lognormal(self, name: str, mean: float, sigma: float) -> float:
        """Lognormal draw with the given *linear-space* mean.

        Job runtimes in the workload generators are lognormal (heavy right
        tail, as in real batch traces); callers think in terms of the mean
        runtime, so we convert: for ``X = exp(N(mu, sigma))`` with desired
        ``E[X] = mean``, ``mu = ln(mean) - sigma^2 / 2``.
        """
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        mu = np.log(mean) - sigma * sigma / 2.0
        return float(self.stream(name).lognormal(mu, sigma))

    def choice(self, name: str, options: Sequence[T], p: Optional[Sequence[float]] = None) -> T:
        """Pick one element of *options* (optionally weighted by *p*)."""
        idx = int(self.stream(name).choice(len(options), p=p))
        return options[idx]

    def bernoulli(self, name: str, p: float) -> bool:
        """True with probability *p* on stream *name*."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        return bool(self.stream(name).random() < p)

    def integers(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self.stream(name).integers(low, high))
