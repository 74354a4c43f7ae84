"""State every personality keeps as it changes, for the control loop.

The detectors and the elasticity daemon read node and job counts every
cycle.  Counting them by scanning the node table or the queue costs
O(nodes) or O(queue) per read; the two classes here are updated on each
transition instead, so a read costs O(1) or O(what they hold).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.sched.protocol import SWITCH_JOB_NAME, SWITCH_TAG


class NodeCounts:
    """Online and idle nodes over a personality's node records.

    :meth:`reindex` must be called after every mutation that can change
    a record's ``online`` or ``idle`` predicate.  ``online`` maps the
    online records' hostnames to the records and ``idle_hosts`` is a set
    (a dict) of the idle records' hostnames, both in the order the nodes
    entered them.
    """

    def __init__(self) -> None:
        #: hostname -> its (online, idle) as last counted
        self._flags: Dict[str, Tuple[bool, bool]] = {}
        self.online: Dict[str, Any] = {}
        self.idle_hosts: Dict[str, None] = {}

    def reindex(self, record: Any) -> None:
        host = record.hostname
        flags = (record.online, record.idle)
        old = self._flags.get(host, (False, False))
        if flags == old:
            return
        self._flags[host] = flags
        if flags[0] != old[0]:
            if flags[0]:
                self.online[host] = record
            else:
                del self.online[host]
        if flags[1] != old[1]:
            if flags[1]:
                self.idle_hosts[host] = None
            else:
                del self.idle_hosts[host]


class SwitchJobs:
    """A personality's active OS-switch jobs, split into queued and running.

    A job is kept here from submission to its end while it carries
    :data:`SWITCH_TAG` *or* the conventional :data:`SWITCH_JOB_NAME`.
    The PBS and SLURM detectors filter switch jobs by name (as the
    ``qstat``/``squeue`` text they reproduce does), the WinHPC detector
    and the elasticity daemon by tag; a user job that only borrows the
    name is one filter's switch job and the other's workload, so both
    kinds are kept and each reader applies its own filter.  Counting
    costs O(active switch jobs), never O(queue).
    """

    def __init__(self) -> None:
        self.queued: Dict[Any, Any] = {}
        self.running: Dict[Any, Any] = {}

    def submitted(self, key: Any, job: Any) -> None:
        if job.tag == SWITCH_TAG or job.name == SWITCH_JOB_NAME:
            self.queued[key] = job

    def started(self, key: Any) -> None:
        job = self.queued.pop(key, None)
        if job is not None:
            self.running[key] = job

    def requeued(self, key: Any) -> None:
        job = self.running.pop(key, None)
        if job is not None:
            self.queued[key] = job

    def ended(self, key: Any) -> None:
        self.queued.pop(key, None)
        self.running.pop(key, None)
