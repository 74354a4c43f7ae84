"""The SLURM command-line surface: ``squeue``.

:func:`squeue` renders the listing a text-scraping detector would poll,
like :class:`~repro.pbs.commands.PbsCommands`; the live detector reads
the controller instead, and the property tests hold the two equal.

The ``squeue`` layout is the classic default plus an explicit CPUS
column, so the detector can read the head pending job's core demand
without a second query — the same information ``qstat -f`` exposes via
``Resource_List.nodes``.
"""

from __future__ import annotations

from repro.slurm.controller import SlurmController
from repro.slurm.job import SlurmJob

_SQUEUE_HEADER = (
    f"{'JOBID':>8} {'PARTITION':>9} {'NAME':>14} {'USER':>8} {'ST':>2} "
    f"{'TIME':>10} {'NODES':>5} {'CPUS':>5} NODELIST(REASON)"
)


def render_elapsed(seconds: float) -> str:
    """``squeue``-style elapsed time (``M:SS``, ``H:MM:SS``, ``D-HH:MM:SS``)."""
    total = int(seconds)
    days, rem = divmod(total, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    if days:
        return f"{days}-{hours:02d}:{minutes:02d}:{secs:02d}"
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


def squeue(controller: SlurmController) -> str:
    """The pending+running listing a text-scraping detector reads."""
    lines = [_SQUEUE_HEADER]
    for job in controller.running_jobs():
        lines.append(_squeue_row(
            job, "R",
            render_elapsed(controller.sim.now - (job.start_time or 0.0)),
            ",".join(job.allocation),
        ))
    for position, job in enumerate(controller.queued_jobs()):
        reason = "(Resources)" if position == 0 else "(Priority)"
        lines.append(_squeue_row(job, "PD", "0:00", reason))
    return "\n".join(lines) + "\n"


def _squeue_row(job: SlurmJob, state: str, elapsed: str, nodelist: str) -> str:
    return (
        f"{job.job_id:>8} {'batch':>9} {job.name:>14} "
        f"{job.owner:>8} {state:>2} {elapsed:>10} {job.nodes:>5} "
        f"{job.total_cores:>5} {nodelist}"
    )
