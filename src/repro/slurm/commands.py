"""The SLURM command-line surface: sbatch / squeue / sinfo.

``SlurmCommands`` renders the listings a text-scraping detector polls,
like :class:`~repro.pbs.commands.PbsCommands`.

The ``squeue`` layout is the classic default plus an explicit CPUS
column, so the detector can read the head pending job's core demand
without a second query — the same information ``qstat -f`` exposes via
``Resource_List.nodes``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.slurm.controller import SlurmController
from repro.slurm.job import SlurmJob, SlurmJobSpec

_TIME_RE = re.compile(r"^(?:(\d+)-)?(?:(\d+):)?(\d+)(?::(\d+))?$")

_SQUEUE_HEADER = (
    f"{'JOBID':>8} {'PARTITION':>9} {'NAME':>14} {'USER':>8} {'ST':>2} "
    f"{'TIME':>10} {'NODES':>5} {'CPUS':>5} NODELIST(REASON)"
)

_SINFO_HEADER = (
    f"{'PARTITION':<10} {'AVAIL':<5} {'TIMELIMIT':>9} {'NODES':>5} "
    f"{'STATE':<6} NODELIST"
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


def parse_time_limit(text: str) -> float:
    """``-t`` accepts ``M``, ``M:SS``, ``H:MM:SS`` and ``D-HH:MM:SS``;
    returns seconds."""
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise SchedulerError(f"bad time limit {text!r}")
    days, first, second, third = match.groups()
    if days is not None or first is not None:
        # D-HH:MM:SS or H:MM:SS
        hours = int(first or 0)
        minutes = int(second)
        seconds = int(third or 0)
        return (
            int(days or 0) * 86400 + hours * 3600 + minutes * 60 + seconds
        )
    if third is not None:
        return int(second) * 60 + int(third)  # M:SS
    return int(second) * 60  # plain minutes


def parse_sbatch_script(text: str) -> SlurmJobSpec:
    """Extract a :class:`SlurmJobSpec` from a script's ``#SBATCH`` lines.

    Directive parsing stops at the first non-comment executable line,
    mirroring ``sbatch``.
    """
    spec = SlurmJobSpec(script=text)
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#SBATCH"):
            _apply_directive(spec, line[len("#SBATCH"):].strip())
        elif not line.startswith("#"):
            break
    return spec


def _apply_directive(spec: SlurmJobSpec, directive: str) -> None:
    if not directive.startswith("-"):
        raise SchedulerError(f"malformed #SBATCH directive {directive!r}")
    if "=" in directive and directive.startswith("--"):
        flag, _, value = directive.partition("=")
    else:
        flag, _, value = directive.partition(" ")
    value = value.strip()
    if flag in ("-J", "--job-name"):
        if not value:
            raise SchedulerError("#SBATCH --job-name needs a value")
        spec.name = value
    elif flag in ("-N", "--nodes"):
        spec.nodes = int(value)
    elif flag == "--ntasks-per-node":
        spec.ppn = int(value)
    elif flag in ("-n", "--ntasks"):
        spec.cpus = int(value)
    elif flag in ("-p", "--partition"):
        spec.partition = value or "batch"
    elif flag in ("-t", "--time"):
        spec.time_limit_s = parse_time_limit(value)
    elif flag == "--priority":
        spec.priority = int(value)
    elif flag == "--no-requeue":
        spec.rerunnable = False
    elif flag == "--requeue":
        spec.rerunnable = True
    # unknown directives are ignored, as sbatch ignores unknown comments


class SlurmCommands:
    """CLI-flavoured facade over a :class:`SlurmController`."""

    def __init__(
        self, controller: SlurmController, default_user: str = "slurm"
    ) -> None:
        self.controller = controller
        self.default_user = default_user

    def sbatch(self, script_or_spec: object, user: Optional[str] = None) -> str:
        """Submit a script (text) or a :class:`SlurmJobSpec`.

        Returns sbatch's stdout line ``Submitted batch job <id>``.
        """
        spec = (
            parse_sbatch_script(script_or_spec)
            if isinstance(script_or_spec, str)
            else script_or_spec
        )
        if not isinstance(spec, SlurmJobSpec):
            raise SchedulerError(f"cannot submit {type(spec).__name__}")
        job = self.controller.submit(spec, owner=user or self.default_user)
        return f"Submitted batch job {job.job_id}"

    def scancel(self, job_id: int) -> None:
        self.controller.cancel(job_id)

    def squeue(self) -> str:
        """The pending+running listing a text-scraping detector reads."""
        controller = self.controller
        lines = [_SQUEUE_HEADER]
        for job in controller.running_jobs():
            lines.append(self._squeue_row(
                job, "R",
                render_elapsed(controller.sim.now - (job.start_time or 0.0)),
                ",".join(job.allocation),
            ))
        for position, job in enumerate(controller.queued_jobs()):
            reason = "(Resources)" if position == 0 else "(Priority)"
            lines.append(self._squeue_row(job, "PD", "0:00", reason))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _squeue_row(
        job: SlurmJob, state: str, elapsed: str, nodelist: str
    ) -> str:
        return (
            f"{job.job_id:>8} {job.partition:>9} {job.name:>14} "
            f"{job.owner:>8} {state:>2} {elapsed:>10} {job.nodes:>5} "
            f"{job.total_cores:>5} {nodelist}"
        )

    def sinfo(self) -> str:
        """Partition summary, grouped by (partition, node state)."""
        groups: Dict[Tuple[str, str], List[str]] = {}
        for record in self.controller.nodes.values():
            key = (record.partition, record.sinfo_state())
            groups.setdefault(key, []).append(record.hostname)
        lines = [_SINFO_HEADER]
        for (partition, state), hosts in groups.items():
            lines.append(
                f"{partition:<10} {'up':<5} {'infinite':>9} "
                f"{len(hosts):>5} {state:<6} {','.join(hosts)}"
            )
        return "\n".join(lines) + "\n"
