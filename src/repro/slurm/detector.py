"""The SLURM-side queue-state detector.

It produces the same :class:`~repro.core.detector.DetectorReport` wire
message as the other two detectors, so the communicator daemons are
personality-blind.  Like the PBS side, the check reads live controller
state; :func:`squeue_report` rebuilds the same report from rendered
``squeue`` text (what a shell tool on the head node would see), and the
property tests hold the two equal.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.detector import (
    SWITCH_JOB_NAME,
    DetectorReport,
    _build_report,
    _trace_check,
)
from repro.slurm.commands import SlurmCommands


def parse_squeue(text: str) -> List[dict]:
    """Parse ``squeue`` text into per-job attribute dicts.

    Column-order parsing over the fixed layout
    ``JOBID PARTITION NAME USER ST TIME NODES CPUS NODELIST(REASON)``
    (job names never contain whitespace in this model).
    """
    jobs: List[dict] = []
    lines = text.splitlines()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) < 9:
            continue
        jobs.append({
            "job_id": parts[0],
            "partition": parts[1],
            "name": parts[2],
            "user": parts[3],
            "state": parts[4],
            "time": parts[5],
            "nodes": int(parts[6]),
            "cpus": int(parts[7]),
            "nodelist": parts[8],
        })
    return jobs


def squeue_report(text: str, eager: bool = False) -> DetectorReport:
    """The detector report, rebuilt from ``squeue`` text."""
    jobs = parse_squeue(text)
    workload = [j for j in jobs if j["name"] != SWITCH_JOB_NAME]
    running = [j for j in workload if j["state"] == "R"]
    queued = [j for j in workload if j["state"] == "PD"]
    return _build_report(
        eager=eager,
        running=len(running),
        queued=len(queued),
        first_queued=(
            (queued[0]["job_id"], queued[0]["cpus"]) if queued else None
        ),
        running_detail=lambda: [
            f"{j['job_id']} {j['name']} Running" for j in running
        ],
    )


class SlurmDetector:
    """The ``checkqueue`` run against a SLURM personality.

    ``eager`` as in :class:`~repro.core.detector.PbsDetector`.
    """

    def __init__(
        self,
        commands: SlurmCommands,
        eager: bool = False,
        tracer: Optional[Any] = None,
        node_name: Optional[str] = None,
        side: str = "windows",
    ) -> None:
        self.commands = commands
        self.eager = eager
        self.tracer = tracer
        self.node_name = node_name
        #: which cluster side this detector reports for (the SLURM
        #: personality replaces either side's scheduler)
        self.side = side

    def check(self) -> DetectorReport:
        """One detector run over the live controller state.

        Equal to :func:`squeue_report` over ``squeue``, which lists the
        running jobs, then the pending ones in dispatch order.
        """
        controller = self.commands.controller
        running = [
            j for j in controller.running_jobs() if j.name != SWITCH_JOB_NAME
        ]
        queued = [
            j for j in controller.queued_jobs() if j.name != SWITCH_JOB_NAME
        ]
        report = _build_report(
            eager=self.eager,
            running=len(running),
            queued=len(queued),
            first_queued=(
                (str(queued[0].job_id), queued[0].total_cores)
                if queued
                else None
            ),
            running_detail=lambda: [
                f"{j.job_id} {j.name} Running" for j in running
            ],
        )
        _trace_check(self, self.side, report)
        return report
