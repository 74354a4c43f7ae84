"""Drive one workload trace through one system and measure it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compare.base import ComparableSystem
from repro.metrics.recorder import JobRecord
from repro.metrics.utilization import cluster_utilization
from repro.metrics.waittime import WaitStats, makespan, wait_stats
from repro.simkernel import Timeout
from repro.workloads.jobs import WorkloadJob


@dataclass
class ScenarioResult:
    """Everything a comparison table needs about one run."""

    label: str
    horizon_s: float
    total_cores: int
    submitted: int
    completed: int
    rejected: int
    utilization: float          # occupied core-seconds / capacity
    useful_utilization: float   # workload runtime core-seconds / capacity
    wait_all: WaitStats
    wait_linux: WaitStats
    wait_windows: WaitStats
    makespan_s: Optional[float]
    switches: int


def drive(
    system: ComparableSystem,
    jobs: List[WorkloadJob],
    horizon_s: float,
    drain_limit_s: Optional[float],
) -> None:
    """Feed *jobs* (in arrival order) to a deployed *system* at their
    arrival offsets from now, run to the horizon, then drain for at most
    *drain_limit_s* more seconds (``None``: stop at the horizon), and
    finalize the recorder.

    The drain ends early once no workload job is outstanding or no event
    is left before the deadline.
    """
    sim = system.sim
    start = sim.now

    def feeder():
        clock = 0.0
        for job in jobs:
            gap = job.arrival_s - clock
            if gap > 0:
                yield Timeout(gap)
                clock = job.arrival_s
            system.submit(job)

    sim.spawn(feeder(), name="workload-feeder")
    sim.run(until=start + horizon_s)
    if drain_limit_s is not None:
        deadline = start + horizon_s + drain_limit_s
        while sim.now < deadline:
            # O(1) counter on the recorder — this loop runs once per
            # remaining simulation event, so rescanning every job record
            # here made draining quadratic in the workload size.
            if system.recorder.outstanding_workload() == 0:
                break
            next_event = sim.peek()
            if next_event is None or next_event > deadline:
                break
            sim.run(until=min(next_event + 1.0, deadline))
    system.finalize()


def run_scenario(
    system: ComparableSystem,
    jobs: List[WorkloadJob],
    horizon_s: float,
    drain_limit_s: Optional[float] = 24 * 3600.0,
) -> ScenarioResult:
    """Deploy *system*, :func:`drive` *jobs* through it (draining up to
    *drain_limit_s* past the horizon so makespans are comparable), and
    summarise.

    The measurement window for utilisation is ``[deploy-end, deploy-end +
    horizon)``; arrivals are offsets into that window.
    """
    system.deploy()
    start = system.sim.now
    ordered = sorted(jobs, key=lambda j: j.arrival_s)
    drive(system, ordered, horizon_s, drain_limit_s)

    horizon_end = system.sim.now - start
    records = system.recorder.workload_jobs()
    by_name: Dict[str, JobRecord] = {r.name: r for r in records}
    useful = 0.0
    for job in ordered:
        record = by_name.get(job.name)
        if record is not None and record.completed:
            useful += job.runtime_s * job.cores

    # original OS per job name (monostable runs Windows jobs through PBS,
    # so the record's scheduler name is not enough)
    os_of = {job.name: job.os_name for job in ordered}
    linux_records = [
        r for r in records
        if os_of.get(r.name, "linux" if r.scheduler == "pbs" else "windows")
        == "linux"
    ]
    windows_records = [
        r for r in records
        if os_of.get(r.name, "linux" if r.scheduler == "pbs" else "windows")
        == "windows"
    ]
    capacity = system.total_cores * horizon_end
    return ScenarioResult(
        label=system.label,
        horizon_s=horizon_end,
        total_cores=system.total_cores,
        submitted=len(ordered),
        completed=sum(1 for r in records if r.completed),
        rejected=system.rejected,
        utilization=cluster_utilization(
            records, system.total_cores, horizon_end
        ),
        useful_utilization=useful / capacity if capacity > 0 else 0.0,
        wait_all=wait_stats(records),
        wait_linux=wait_stats(linux_records),
        wait_windows=wait_stats(windows_records),
        makespan_s=makespan(records),
        switches=system.recorder.switch_count,
    )
