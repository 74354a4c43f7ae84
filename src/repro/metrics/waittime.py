"""Wait-time and makespan statistics (experiment E3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.metrics.recorder import JobRecord


@dataclass(frozen=True)
class WaitStats:
    """Summary statistics over a set of job waits (seconds)."""

    count: int
    mean: float
    median: float
    p90: float
    maximum: float

    @classmethod
    def empty(cls) -> "WaitStats":
        return cls(count=0, mean=0.0, median=0.0, p90=0.0, maximum=0.0)


def wait_stats(jobs: Iterable[JobRecord]) -> WaitStats:
    """Wait-time stats over started jobs."""
    waits = np.asarray(
        [j.wait_s for j in jobs if j.wait_s is not None], dtype=float
    )
    if waits.size == 0:
        return WaitStats.empty()
    return WaitStats(
        count=int(waits.size),
        mean=float(waits.mean()),
        median=float(np.median(waits)),
        p90=float(np.percentile(waits, 90)),
        maximum=float(waits.max()),
    )


def makespan(jobs: Iterable[JobRecord]) -> Optional[float]:
    """Last completion time among completed jobs (None if nothing ran)."""
    ends = [j.end_time for j in jobs if j.end_time is not None]
    return max(ends) if ends else None
