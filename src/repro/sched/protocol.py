"""The scheduler-personality protocol.

This module is dependency-free on purpose: it names the *entire* seam
the dual-boot control plane uses against a batch scheduler — the
control plane's view, and nothing more.  The concrete personalities
(:class:`repro.pbs.server.PbsServer`,
:class:`repro.winhpc.scheduler.WinHpcScheduler`,
:class:`repro.slurm.controller.SlurmController`) share one job-lifecycle
core, :class:`repro.sched.lifecycle.BatchScheduler`, which implements
most of the protocol; the control plane never names that class and
checks personalities against this protocol structurally.

Vocabulary
----------
Jobs cross the seam in two shapes:

* a :class:`JobRequest` going *in* through
  :meth:`SchedulerPersonality.submit_request`, and
* an opaque native job object coming *out* of
  :meth:`SchedulerPersonality.get_job`, which every personality
  equips with a small uniform surface (``key``, ``submitted_at``,
  ``start_time``, ``end_time``, ``tag``, ``name``, ``state``,
  ``cores_submitted()``, ``cores_running()``, ``allocation_by_host()``)
  so the recorder and energy meter stay scheduler-agnostic.

Job ids are strings at the seam (PBS ids already are;
WinHPC/SLURM integer ids are rendered with ``str``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

#: The reserved tag marking OS-switch jobs: every personality excludes
#: such jobs from workload accounting and the detectors report them in
#: a dedicated wire field.
SWITCH_TAG = "os-switch"

#: The conventional OS-release job name.  The PBS and SLURM detectors
#: filter switch jobs by this name, as the ``qstat``/``squeue`` text they
#: reproduce carries no tag.
SWITCH_JOB_NAME = "release_1_node"


@dataclass(frozen=True)
class JobRequest:
    """A scheduler-neutral job submission.

    ``nodes``/``ppn`` express an explicit PBS-style shape; when both are
    0 the personality shapes the flat ``cores`` request itself (WinHPC
    core-unit allocation, SLURM node packing).  ``owner`` ``None`` means
    the personality's ``default_owner``; ``priority`` ``None`` means the
    personality's native default.
    """

    name: str
    cores: int = 1
    nodes: int = 0
    ppn: int = 0
    runtime_s: Optional[float] = None
    owner: Optional[str] = None
    tag: str = ""
    priority: Optional[int] = None
    rerunnable: bool = True
    script: Optional[str] = None


@runtime_checkable
class SchedulerPersonality(Protocol):
    """Everything the control plane needs from a batch scheduler.

    Implemented structurally by each scheduler package; constructed via
    :func:`repro.sched.factory.create_scheduler`.
    """

    # -- identity --------------------------------------------------------
    #: short machine name ("pbs", "winhpc", "slurm")
    kind: str
    #: human label used in status reports ("PBS", "WinHPC", "SLURM")
    display_name: str
    #: node-observer event marking a node (re)joining this scheduler
    join_event: str
    #: prefix for recorder/energy job keys ("pbs", "win", "slurm")
    record_key_prefix: str
    #: owner used when a :class:`JobRequest` leaves ``owner=None``
    default_owner: str

    # -- control-plane wiring (set by the middleware after deploy) -------
    tracer: Any
    max_job_restarts: int
    checkpoint_interval_s: Optional[float]
    #: callbacks ``fn(event, job)`` with events
    #: submitted/started/finished/requeued
    observers: List[Callable[[str, Any], None]]
    #: callbacks ``fn(event, hostname)``; the join event is
    #: :attr:`join_event`, hostnames are short names
    node_observers: List[Callable[[str, str], None]]
    #: the active OS-switch jobs, kept as jobs move
    #: (a :class:`repro.sched.counts.SwitchJobs`)
    switch_jobs: Any

    # -- submission and job lookup --------------------------------------
    def submit_request(self, request: JobRequest) -> str:
        """Submit *request*; returns the job id as a string."""
        ...

    def get_job(self, jobid: str) -> Optional[Any]:
        """The native job object for *jobid*, or ``None``."""
        ...

    # -- queue / node introspection --------------------------------------
    def running_jobs(self) -> List[Any]:
        """Running jobs in deterministic (submission) order."""
        ...

    def queued_jobs(self) -> List[Any]:
        """Eligible queued jobs in dispatch order."""
        ...

    def running_count(self) -> int:
        """Number of running jobs, switch jobs included."""
        ...

    def queued_count(self) -> int:
        """Number of queued jobs, switch and held jobs included."""
        ...

    def free_cores(self) -> int:
        """Unallocated cores over this personality's nodes."""
        ...

    def node_idle(self, hostname: str) -> bool:
        """True when *hostname* (short name) is up and fully idle."""
        ...

    def idle_node_count(self) -> int:
        """Number of schedulable nodes with no work placed."""
        ...

    def idle_hosts(self) -> Iterable[str]:
        """Names (as registered) of the nodes :meth:`node_idle` accepts,
        in no particular order; kept as nodes change, not scanned."""
        ...

    def online_node_count(self) -> int:
        """Number of schedulable (up / online) nodes."""
        ...

    # -- node lifecycle ---------------------------------------------------
    def cordon_node(self, hostname: str) -> None:
        """Stop placing new work on *hostname* (keep running work)."""
        ...

    def uncordon_node(self, hostname: str) -> None:
        """Reverse :meth:`cordon_node`; may start queued work."""
        ...

    def drain_node(self, hostname: str) -> List[str]:
        """Cordon *hostname*; returns ids of jobs still running there."""
        ...

    def fence_node(self, hostname: str, cause: str = ...) -> Dict[str, list]:
        """Evict *hostname* permanently: requeue rerunnable work, fail
        the rest.  Returns ``{"requeued": [...], "failed": [...]}``."""
        ...

    def node_crashed(self, hostname: str) -> None:
        """Record an abrupt node loss (no recovery yet — the health
        layer decides between rejoin and :meth:`fence_node`)."""
        ...

    # -- OS-switch orders --------------------------------------------------
    def submit_switch_job(self, script: str, owner: str) -> str:
        """Submit a single-node OS-release job tagged
        :data:`SWITCH_TAG`; returns its job id as a string."""
        ...

    def pending_switch_jobs(self) -> int:
        """Switch jobs currently queued or running."""
        ...

    def cancel_if_queued(self, jobid: str) -> bool:
        """Cancel *jobid* iff it is still queued; True when cancelled."""
        ...
