"""FIFO node allocation — the policy half of the PBS server.

The paper states the control daemons assume plain first-come first-serve
(§V: "the daemons for queue monitoring are still following the rule
'first-come first-serve'"), so the scheduler is strict FCFS with
head-of-line blocking and **no backfill**: if the oldest queued job cannot
be placed, nothing behind it runs.  That head-of-line blocking is exactly
what makes a queue look "stuck" to the detector when all nodes sit in the
other operating system.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from repro.pbs.job import PbsJob
from repro.pbs.nodes import PbsNodeRecord, PbsNodeState
from repro.sched.counts import NodeCounts


def allocate_fifo(
    job: PbsJob, nodes: Dict[str, PbsNodeRecord]
) -> Optional[List[Tuple[PbsNodeRecord, int]]]:
    """Try to place *job*: ``job.nodes`` distinct nodes × ``job.ppn`` cores.

    Returns ``[(node_record, ppn), ...]`` or ``None`` when the job does not
    fit.  Candidate nodes are scanned from the **highest** hostname down —
    TORQUE's nodes-file order, visible in Figure 8 where a 1-node job
    lands on ``node16``.

    This is the *reference* implementation: :class:`NodeIndex` below is
    the O(buckets) hot path the server actually uses, and the property
    tests in ``tests/pbs/test_scheduler_index.py`` hold the two equal.
    """
    candidates = [
        record
        for _, record in sorted(nodes.items(), reverse=True)
        if record.state not in (PbsNodeState.DOWN, PbsNodeState.OFFLINE)
        and record.available_cores >= job.ppn
    ]
    if len(candidates) < job.nodes:
        return None
    return [(record, job.ppn) for record in candidates[: job.nodes]]


def schedulable_backlog(
    queued: List[PbsJob], nodes: Dict[str, PbsNodeRecord]
) -> List[PbsJob]:
    """The prefix of the FIFO queue that can start right now.

    Placement is simulated against a scratch copy of core availability so
    the prefix is consistent (job 2 cannot reuse cores job 1 would take).

    Reference implementation — see :meth:`NodeIndex.schedulable_backlog`
    for the indexed hot path.
    """
    free = {
        name: record.available_cores
        for name, record in nodes.items()
        if record.state not in (PbsNodeState.DOWN, PbsNodeState.OFFLINE)
    }
    runnable: List[PbsJob] = []
    for job in queued:
        hosts = [
            name
            for name, cores in sorted(free.items(), reverse=True)
            if cores >= job.ppn
        ]
        if len(hosts) < job.nodes:
            break  # strict FCFS: head-of-line blocking
        for name in hosts[: job.nodes]:
            free[name] -= job.ppn
        runnable.append(job)
    return runnable


class NodeIndex(NodeCounts):
    """Persistent free-core buckets over the node table.

    The reference allocator above re-sorts the whole node table on every
    call; at 1024 nodes that sort dominates the simulation.  The index
    keeps, for each distinct ``available_cores`` value, the hostnames at
    that level in an **ascending** sorted list (walked backwards to get
    TORQUE's highest-hostname-first order).  A node moves buckets only
    when its availability changes (:meth:`reindex`), so an allocation
    touches O(job.nodes × buckets) entries instead of O(nodes log nodes).

    Equivalence with the reference filter: a job needs ``ppn >= 1`` cores
    per node, and DOWN/OFFLINE nodes report ``available_cores == 0``, so
    the explicit state check in the reference is subsumed by the
    ``available_cores >= ppn`` bucket cut — the index never has to look
    at node state at all.

    As a :class:`~repro.sched.counts.NodeCounts` the index also keeps
    the online and idle nodes, so the control loop reads them without
    scanning the table every cycle.
    """

    def __init__(self) -> None:
        super().__init__()
        self._records: Dict[str, PbsNodeRecord] = {}
        #: hostname -> the available_cores value it is bucketed under
        self._avail: Dict[str, int] = {}
        #: available_cores -> ascending hostnames at that level
        self._buckets: Dict[int, List[str]] = {}

    def add(self, record: PbsNodeRecord) -> None:
        """Register a new node (its current availability is indexed)."""
        host = record.hostname
        self._records[host] = record
        super().reindex(record)
        cores = record.available_cores
        self._avail[host] = cores
        insort(self._buckets.setdefault(cores, []), host)

    def reindex(self, record: PbsNodeRecord) -> None:
        """Move *record* to the bucket matching its current availability
        and recount it.

        Must be called after every mutation that can change
        ``available_cores``, ``online`` or ``idle`` (allocate, release,
        mark_up, mark_down, cordon, uncordon).
        """
        super().reindex(record)
        host = record.hostname
        old = self._avail[host]
        new = record.available_cores
        if old == new:
            return
        bucket = self._buckets[old]
        del bucket[bisect_left(bucket, host)]
        if not bucket:
            del self._buckets[old]
        self._avail[host] = new
        insort(self._buckets.setdefault(new, []), host)

    def free_cores(self) -> int:
        """Total available cores (DOWN/OFFLINE nodes sit in bucket 0)."""
        return sum(cores * len(hosts) for cores, hosts in self._buckets.items())

    @staticmethod
    def _select_desc(
        buckets: Dict[int, List[str]], ppn: int, count: int
    ) -> Optional[List[str]]:
        """Top *count* qualifying hostnames in descending order, or None.

        A k-way backwards merge over the (few) buckets whose core level
        satisfies *ppn* — identical order to the reference's
        ``sorted(..., reverse=True)`` scan restricted to qualifying hosts.
        """
        eligible = [hosts for cores, hosts in buckets.items() if cores >= ppn]
        if sum(len(hosts) for hosts in eligible) < count:
            return None
        ptrs = [len(hosts) - 1 for hosts in eligible]
        out: List[str] = []
        while len(out) < count:
            best = -1
            best_host = ""
            for i, hosts in enumerate(eligible):
                p = ptrs[i]
                if p >= 0 and hosts[p] > best_host:
                    best = i
                    best_host = hosts[p]
            ptrs[best] -= 1
            out.append(best_host)
        return out

    def allocate_fifo(
        self, job: PbsJob
    ) -> Optional[List[Tuple[PbsNodeRecord, int]]]:
        """Indexed equivalent of module-level :func:`allocate_fifo`."""
        hosts = self._select_desc(self._buckets, job.ppn, job.nodes)
        if hosts is None:
            return None
        return [(self._records[host], job.ppn) for host in hosts]

    def schedulable_backlog(self, queued: List[PbsJob]) -> List[PbsJob]:
        """Indexed equivalent of module-level :func:`schedulable_backlog`."""
        avail = dict(self._avail)
        buckets = {cores: list(hosts) for cores, hosts in self._buckets.items()}
        runnable: List[PbsJob] = []
        for job in queued:
            hosts = self._select_desc(buckets, job.ppn, job.nodes)
            if hosts is None:
                break  # strict FCFS: head-of-line blocking
            for host in hosts:
                old = avail[host]
                bucket = buckets[old]
                del bucket[bisect_left(bucket, host)]
                if not bucket:
                    del buckets[old]
                avail[host] = old - job.ppn
                insort(buckets.setdefault(avail[host], []), host)
            runnable.append(job)
        return runnable
