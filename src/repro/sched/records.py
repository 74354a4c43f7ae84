"""The job and node records every scheduler personality shares.

A personality subclasses :class:`BatchJob` and :class:`NodeRecord` and
adds only its native fields: PBS's ``nodes:ppn`` shape, walltime and
per-core ``exec_host`` slots, SLURM's shape, WinHPC's allocation unit.
Each names its native node states as class attributes (:attr:`NodeRecord.UP`,
:attr:`~NodeRecord.DOWN`, :attr:`~NodeRecord.CORDONED`), the way
:class:`~repro.sched.lifecycle.BatchScheduler` names its job states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional

from repro.errors import SchedulerError


@dataclass(kw_only=True)
class BatchJob:
    """One job as its head node tracks it.

    Besides the fields, this is the uniform surface of
    :mod:`repro.sched.protocol` that the recorder and the energy meter
    read: ``key``, ``submitted_at``, ``wait_time_s``, ``cores_running()``
    and ``allocation_by_host()``.
    """

    #: the native id (PBS ``"1185.server"``, WinHPC/SLURM an integer)
    job_id: Any
    name: str
    owner: str
    state: Any
    submitted_at: float = 0.0
    runtime_s: Optional[float] = None
    #: script text run on the first allocated node's OS (switch jobs)
    script: Optional[str] = None
    priority: int = 0
    #: free-form tag used by the middleware ("os-switch") and workloads
    tag: str = ""
    rerunnable: bool = True
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: short hostname -> cores held there, in placement order.  Once the
    #: job starts, the ``job.started`` trace event and the energy meter
    #: keep this very mapping, so it is rebound, never mutated, after that
    allocation: Dict[str, int] = field(default_factory=dict)
    #: node-failure recovery bookkeeping (see ``repro.sched.lifecycle``)
    restarts: int = 0
    checkpointed_s: float = 0.0
    lost_work_s: float = 0.0
    interrupted_at: Optional[float] = None

    @property
    def key(self) -> str:
        """Scheduler-neutral job id (integer ids render with ``str``)."""
        return str(self.job_id)

    @property
    def wait_time_s(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submitted_at

    def cores_running(self) -> int:
        """Cores actually allocated."""
        return sum(self.allocation.values())

    def allocation_by_host(self) -> Dict[str, int]:
        """Short hostname -> allocated core count, placement order (the
        job's own mapping: read it, do not change it)."""
        return self.allocation


@dataclass
class NodeRecord:
    """One compute node as a head node tracks it.

    A node is :attr:`UP` (placements may land), :attr:`DOWN` (its daemon
    is gone, its allocations with it) or :attr:`CORDONED` (closed to new
    work, running allocations kept).  ``available_cores`` reads 0 unless
    the node is up, which is the contract the free-core buckets of
    :class:`~repro.pbs.scheduler.NodeIndex` rely on.
    """

    #: the personality's native names of the three states
    UP: ClassVar[Any]
    DOWN: ClassVar[Any]
    CORDONED: ClassVar[Any]

    hostname: str
    cores: int
    state: Any = None
    #: job id -> cores it holds here
    allocations: Dict[Any, int] = field(default_factory=dict)
    #: simulated time of the last up, down or cordon transition
    last_state_change: float = 0.0
    #: running total of ``allocations`` values, kept by the mutators below
    #: (placement reads ``available_cores`` for every candidate node)
    cores_in_use: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cores_in_use = sum(self.allocations.values())

    @property
    def online(self) -> bool:
        """Up and not cordoned."""
        return self.state is self.UP

    @property
    def idle(self) -> bool:
        return self.state is self.UP and not self.allocations

    @property
    def available_cores(self) -> int:
        if self.state is not self.UP:
            return 0
        return self.cores - self.cores_in_use

    def allocate(self, job_id: Any, count: int) -> None:
        if count > self.available_cores:
            raise SchedulerError(
                f"{self.hostname}: want {count} cores, "
                f"{self.available_cores} available"
            )
        self.allocations[job_id] = self.allocations.get(job_id, 0) + count
        self.cores_in_use += count

    def release(self, job_id: Any) -> None:
        """Free every core *job_id* holds here (idempotent)."""
        self.cores_in_use -= self.allocations.pop(job_id, 0)

    def jobs_here(self) -> List[Any]:
        """Ids of the jobs holding cores here."""
        return list(self.allocations)

    def mark_up(self, now: float) -> None:
        """The node's daemon reported in: it joins clean."""
        self._reset(self.UP, now)

    def mark_down(self, now: float) -> None:
        self._reset(self.DOWN, now)

    def cordon(self, now: float) -> None:
        """Close an up node to new work; running allocations stay."""
        if self.state is self.UP:
            self.state = self.CORDONED
            self.last_state_change = now

    def uncordon(self, now: float) -> None:
        """Lift a cordon; no-op unless cordoned."""
        if self.state is self.CORDONED:
            self.state = self.UP
            self.last_state_change = now

    def _reset(self, state: Any, now: float) -> None:
        self.state = state
        self.allocations.clear()
        self.cores_in_use = 0
        self.last_state_change = now
