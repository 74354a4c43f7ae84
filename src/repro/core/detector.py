"""Queue-state detectors ("checkqueue", §III.B.3–4).

Definition from the paper: "we define a scheduler is **stuck** when the
scheduler has no job running and several jobs are queuing.  The detector
reads how many compute nodes the first queuing job needs."

Every detector produces the same :class:`DetectorReport`: the Figure-5
wire message plus the debug lines of Figure 6.  :class:`PbsDetector` and
:class:`WinHpcDetector` (and the SLURM one in :mod:`repro.slurm.detector`)
share one check, :func:`live_report`, over counts the scheduler keeps as
jobs move: a check costs O(active switch jobs) plus the queue prefix up
to the head job, and the Figure-6 running list is built only when
``debug`` is read.

The paper's Perl ``checkqueue.pl`` scrapes ``qstat -f`` text instead,
because "PBS does not provide APIs ... Several Perl programs had been
written for parsing the output of PBS commands".  That text path is kept
as the reproduced artefact: :func:`parse_qstat_full` and
:func:`qstat_report` rebuild the report from the rendered listing, F5–F8
print it, and the property tests in
``tests/property/test_detector_properties.py`` hold
``qstat_report(qstat -f) == PbsDetector.check()`` over random scheduler
histories.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.core.wire import QueueStateMessage
from repro.pbs.commands import PbsCommands
from repro.sched.protocol import SWITCH_JOB_NAME, SWITCH_TAG
from repro.winhpc.job import WinJobUnit
from repro.winhpc.sdk import HpcSchedulerConnection

# The middleware's own switch jobs (SWITCH_JOB_NAME / SWITCH_TAG) must not
# count as demand, or each switch would trigger another switch (positive
# feedback).  The scheduler keeps them apart (``switch_jobs``), so the
# detectors subtract them from its job counts.  The PBS and SLURM
# detectors know them by name, as the qstat/squeue text does; the WinHPC
# one by tag.


def is_named_switch(job: Any) -> bool:
    return job.name == SWITCH_JOB_NAME


def is_tagged_switch(job: Any) -> bool:
    return job.tag == SWITCH_TAG


def tagged_switch_jobs(jobs: Iterable[Any]) -> int:
    """How many of *jobs* carry the switch tag."""
    return sum(1 for job in jobs if job.tag == SWITCH_TAG)


@dataclass
class DetectorReport:
    """Wire message + the Figure-6 style diagnostic text.

    ``debug`` is built on first read: the control loop only needs the
    wire message and the two counts.
    """

    message: QueueStateMessage
    running: int
    queued: int
    _debug_lines: Callable[[], List[str]] = field(repr=False, compare=False)

    @cached_property
    def debug(self) -> List[str]:
        return self._debug_lines()

    @property
    def wire(self) -> str:
        return self.message.encode()

    def text(self) -> str:
        """The full detector stdout (first line is the wire string)."""
        return "\n".join([self.wire] + self.debug)


# -- PBS side -----------------------------------------------------------------

_JOB_SPLIT_RE = re.compile(r"^Job Id: ", re.MULTILINE)
_FIELD_RE = re.compile(r"^\s{4}(\S+) = (.*)$", re.MULTILINE)
_NODES_RE = re.compile(r"(\d+)(?::ppn=(\d+))?")


def parse_qstat_full(text: str) -> List[dict]:
    """Parse ``qstat -f`` text into a list of attribute dicts.

    This is the Perl detector's job, done in Python: nothing here touches
    scheduler objects — only the rendered text.
    """
    jobs = []
    for chunk in _JOB_SPLIT_RE.split(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        attributes = {"Job_Id": chunk.splitlines()[0].strip()}
        for match in _FIELD_RE.finditer(chunk):
            attributes[match.group(1)] = match.group(2).strip()
        jobs.append(attributes)
    return jobs


def _required_cpus(attributes: dict) -> int:
    resource = attributes.get("Resource_List.nodes", "1")
    m = _NODES_RE.match(resource)
    if not m:
        return 1
    nodes = int(m.group(1))
    ppn = int(m.group(2)) if m.group(2) else 1
    return nodes * ppn


def _pbs_running_line(jobid: str, name: str, owner: str) -> str:
    return (
        f"{jobid}\n"
        f"        Job_Name={name}\n"
        f"        Job_Ownner={owner}\n"
        f"        state=R"
    )


def qstat_report(text: str, eager: bool = False) -> DetectorReport:
    """The ``checkqueue.pl`` report, rebuilt from ``qstat -f`` text."""
    jobs = parse_qstat_full(text)
    workload = [j for j in jobs if j.get("Job_Name") != SWITCH_JOB_NAME]
    running = [j for j in workload if j.get("job_state") == "R"]
    queued = [j for j in workload if j.get("job_state") == "Q"]
    return _build_report(
        eager=eager,
        running=len(running),
        queued=len(queued),
        first_queued=(
            (queued[0]["Job_Id"], _required_cpus(queued[0])) if queued else None
        ),
        running_detail=lambda: [
            _pbs_running_line(
                j["Job_Id"], j.get("Job_Name", "?"), j.get("Job_Owner", "?")
            )
            for j in running
        ],
    )


class PbsDetector:
    """The OSCAR-side ``checkqueue.pl``.

    ``eager=True`` is the §V extension: the CPU field (positions 1–4 of
    the wire, "default 0000") is filled with the head queued job's needs
    even while other jobs run, so an :class:`~repro.core.policy.EagerPolicy`
    can react to backlog without waiting for the queue to empty.  The
    wire format itself is unchanged.
    """

    def __init__(
        self,
        commands: PbsCommands,
        eager: bool = False,
        tracer: Optional[Any] = None,
        node_name: Optional[str] = None,
    ) -> None:
        self.commands = commands
        self.eager = eager
        self.tracer = tracer
        self.node_name = node_name

    def check(self) -> DetectorReport:
        """One detector run over the live server state.

        Equal to :func:`qstat_report` over ``qstat -f``: the listing is
        in submission order and the server's FIFO queue is too, so the
        head queued job is the first ``Q`` job of the queue.  Held jobs
        render as ``H`` and do not count.
        """
        return live_report(
            self, self.commands.server, "linux",
            is_switch=is_named_switch,
            head_cores=attrgetter("total_cores"),
            running_line=lambda j: _pbs_running_line(j.jobid, j.name, j.owner),
        )


# -- Windows side (SDK) -------------------------------------------------------


class WinHpcDetector:
    """The Windows-side queue fetcher (via the SDK facade).

    ``eager`` as in :class:`PbsDetector`.
    """

    def __init__(
        self,
        connection: HpcSchedulerConnection,
        eager: bool = False,
        tracer: Optional[Any] = None,
        node_name: Optional[str] = None,
    ) -> None:
        self.connection = connection
        self.eager = eager
        self.tracer = tracer
        self.node_name = node_name

    def check(self) -> DetectorReport:
        """One detector run over the connected scheduler's kept counts.

        Equal to filtering the SDK's ``get_job_list(RUNNING/QUEUED)`` by
        tag: the head is the first untagged job in queue order.
        """
        return live_report(
            self, self.connection.scheduler, "windows",
            is_switch=is_tagged_switch,
            head_cores=self._head_cores,
        )

    def _head_cores(self, head: Any) -> int:
        """A NODE-unit job wants whole nodes of the largest size."""
        if head.unit is WinJobUnit.NODE:
            return head.amount * self.connection.max_node_cores()
        return head.amount


# -- shared report assembly ---------------------------------------------------


def _running_line(job: Any) -> str:
    return f"{job.key} {job.name} Running"


def live_report(
    detector: Any,
    scheduler: Any,
    side: str,
    is_switch: Callable[[Any], bool],
    head_cores: Callable[[Any], int],
    running_line: Callable[[Any], str] = _running_line,
) -> DetectorReport:
    """One detector run over *scheduler*'s kept counts, traced for *side*.

    Switch jobs (*is_switch*) and held jobs are not demand: they come
    off the scheduler's running and queued counts, and the head is the
    first queued job that is neither.  *head_cores* is the CPU figure
    the wire reports for the head; *running_line* renders one Figure-6
    running line, and only when ``debug`` is read.
    """
    switch = scheduler.switch_jobs
    held = scheduler.held_state
    running = scheduler.running_count() - sum(
        1 for j in switch.running.values() if is_switch(j)
    )
    queued = (
        scheduler.queued_count()
        - scheduler.held_count
        - sum(
            1 for j in switch.queued.values()
            if is_switch(j) and j.state is not held
        )
    )
    first: Optional[Tuple[str, int]] = None
    if queued:
        head = next(
            j for j in scheduler.iter_queued()
            if j.state is not held and not is_switch(j)
        )
        first = (head.key, head_cores(head))
    report = _build_report(
        eager=detector.eager,
        running=running,
        queued=queued,
        first_queued=first,
        running_detail=lambda: [
            running_line(j) for j in scheduler.running_jobs()
            if not is_switch(j)
        ],
    )
    _trace_check(detector, side, report)
    return report


def _trace_check(detector: Any, side: str, report: DetectorReport) -> None:
    if detector.tracer is None:
        return
    detector.tracer.emit(
        "detector.check",
        node=detector.node_name,
        side=side,
        wire=report.wire,
        running=report.running,
        queued=report.queued,
        stuck=report.message.stuck,
    )


def _build_report(
    running: int,
    queued: int,
    first_queued: Optional[Tuple[str, int]],
    running_detail: Callable[[], List[str]],
    eager: bool = False,
) -> DetectorReport:
    """Assemble the wire message; *running_detail* yields the Figure-6
    per-running-job lines and is only called when ``debug`` is read."""
    detail: Callable[[], List[str]] = list
    if running == 0 and queued > 0:
        jobid, cpus = first_queued
        message = QueueStateMessage.stuck_queue(cpus, jobid)
        state_line = "Queue stuck"
    elif running > 0:
        if eager and queued > 0:
            # §V extension: advertise the backlog in the CPU field while
            # keeping the stuck flag honest
            jobid, cpus = first_queued
            message = QueueStateMessage(
                stuck=False, needed_cpus=cpus, stuck_jobid=jobid
            )
        else:
            message = QueueStateMessage.idle()
        state_line = (
            "Job running, no queuing." if queued == 0 else "Job running."
        )
        detail = running_detail
    else:
        message = QueueStateMessage.idle()
        state_line = "Other state"
    return DetectorReport(
        message, running, queued,
        lambda: [state_line, f"R={running} nR={queued}"] + detail(),
    )
