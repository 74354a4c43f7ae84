"""Power-aware elasticity: suspend idle capacity, wake it under pressure.

The paper's control loop only moves nodes *between* OSes; this daemon
adds the third option the tri-stable hardware makes possible — parking
idle donors in suspend-to-RAM and waking (or cold-provisioning burst
nodes) when a queue backs up.  It reuses the control plane's hard-won
defences:

* **hysteresis** — a side must look surplus for ``hysteresis_cycles``
  consecutive evaluations before anything is suspended, so a gap between
  two job arrivals doesn't flap nodes;
* **staleness caps** — decisions about the Windows side are based on
  state the Linux head only knows through reports (PR 1's lesson), so
  when the last Windows report is older than the communicator's
  staleness cap the manager *holds* instead of acting;
* **rejoin expectations** — every resume/provision registers an
  ``expect_rejoin`` with the switch-order ledger, so a woken node's
  scheduler join is never mistaken for a switch order landing;
* **cordon before suspend** — the scheduler stops placing work on a
  victim before its services stop, and the orderly service shutdown
  keeps the heartbeat monitor's fence-immunity (``agent_down``) path —
  a suspended node is planned downtime, never a fenced one.

Every action (and every hold) is an ``elastic.decision`` trace event.

An evaluation reads state kept as it changes, never a scan of the
cluster: the manager keeps each side's UP and SUSPENDED nodes plus the
DEPROVISIONED pool through one power-state observer in the cluster's
hook table; idle nodes come from the scheduler's kept idle hosts, the
health filter from the monitor's unhealthy names, and the queued
workload from the scheduler's queue length and switch jobs.
Suspend victims are the highest-named idle nodes; wakes take the
lowest-named candidates first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.detector import tagged_switch_jobs
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.hardware.node import ComputeNode, NodeState
from repro.simkernel import Simulator, Timeout

#: the two scheduler sides, in deterministic evaluation order
SIDES = ("linux", "windows")

#: a kept node pool: (resting power state, OS side or None)
Pool = Tuple[NodeState, Optional[str]]


_NAME = attrgetter("name")


def _by_name(members: Dict[str, ComputeNode]) -> List[ComputeNode]:
    return [members[name] for name in sorted(members)]


def _pool_of(node: ComputeNode) -> Optional[Pool]:
    """The pool *node* belongs in now, or ``None`` when in none."""
    state = node.state
    if state is NodeState.UP:
        return state, node.os_name
    if state is NodeState.SUSPENDED:
        return state, node.suspended_os_name
    if state is NodeState.DEPROVISIONED:
        return state, None
    return None


@dataclass(frozen=True)
class ElasticityPolicy:
    """Knobs of the power-aware loop; these defaults are the deployment's."""

    #: never suspend below this many UP nodes per side
    min_online: int = 1
    #: consecutive surplus evaluations before the first suspend
    hysteresis_cycles: int = 2
    #: idle nodes kept warm beyond the floor (absorb small arrivals
    #: without paying a resume)
    idle_surplus: int = 1
    #: per-side, per-evaluation action budget
    max_actions_per_cycle: int = 2

    def __post_init__(self) -> None:
        if self.min_online < 0:
            raise ConfigurationError("min_online must be >= 0")
        if self.hysteresis_cycles < 1:
            raise ConfigurationError("hysteresis_cycles must be >= 1")
        if self.idle_surplus < 0:
            raise ConfigurationError("idle_surplus must be >= 0")
        if self.max_actions_per_cycle < 1:
            raise ConfigurationError("max_actions_per_cycle must be >= 1")


class ElasticityManager:
    """Periodic suspend/resume/provision decisions over both node pools."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        pbs: Any,
        winhpc: Any,
        *,
        orders: Any,
        health: Any,
        linux_comm: Any,
        controller: Any,
        policy: Optional[ElasticityPolicy] = None,
        cycle_s: float = 300.0,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.pbs = pbs
        self.winhpc = winhpc
        self.policy = policy if policy is not None else ElasticityPolicy()
        self.cycle_s = cycle_s
        self.orders = orders
        self.health = health
        self.linux_comm = linux_comm
        self.controller = controller
        self.tracer = sim.tracer
        self.suspends = 0
        self.resumes = 0
        self.provisions = 0
        self.stale_holds = 0
        self._surplus_streak: Dict[str, int] = {side: 0 for side in SIDES}
        #: pool -> {node name: node} (dicts as ordered sets), and each
        #: pooled node's pool; seeded now, then kept by _on_power_state
        self._pools: Dict[Pool, Dict[str, ComputeNode]] = {}
        self._pool: Dict[str, Pool] = {}
        for node in cluster.compute_nodes:
            self._on_power_state(node, node.state, node.state)
        cluster.hooks.register("power_state", self._on_power_state)

    def _on_power_state(
        self, node: ComputeNode, old: NodeState, new: NodeState
    ) -> None:
        name = node.name
        pool = self._pool.pop(name, None)
        if pool is not None:
            del self._pools[pool][name]
        pool = _pool_of(node)
        if pool is not None:
            self._pool[name] = pool
            self._pools.setdefault(pool, {})[name] = node

    def _members(
        self, state: NodeState, side: Optional[str]
    ) -> Dict[str, ComputeNode]:
        return self._pools.get((state, side), {})

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the evaluation loop."""
        self.sim.spawn(self._loop(), name="daemon:elastic")

    def _loop(self) -> Any:
        while True:
            yield Timeout(self.cycle_s)
            self.evaluate()

    # -- evaluation ----------------------------------------------------------

    def evaluate(self) -> None:
        """One decision round over both sides (deterministic order)."""
        for side in SIDES:
            self._evaluate_side(side)

    def _evaluate_side(self, side: str) -> None:
        if side == "windows" and self._windows_state_stale():
            self._surplus_streak[side] = 0
            self.stale_holds += 1
            self._decide(side, "hold", cause="stale windows report")
            return
        queued = self._queued_workload(side)
        if queued > 0:
            self._surplus_streak[side] = 0
            self._wake(side, queued)
            return
        idle = self._idle_nodes(side)
        online = self._online_count(side)
        headroom = min(
            len(idle) - self.policy.idle_surplus,
            online - self.policy.min_online,
        )
        if headroom <= 0:
            self._surplus_streak[side] = 0
            return
        self._surplus_streak[side] += 1
        if self._surplus_streak[side] < self.policy.hysteresis_cycles:
            return
        self._surplus_streak[side] = 0
        # park the highest-named idle nodes (mirrors the switch policy's
        # donor order, so both mechanisms shrink the same end of the pool)
        count = min(headroom, self.policy.max_actions_per_cycle)
        for node in heapq.nlargest(count, idle, key=_NAME):
            self._cordon(side, node.name)
            node.suspend()
            self.suspends += 1
            self._decide(side, "suspend", node=node.name, cause="idle surplus")

    def _wake(self, side: str, queued: int) -> None:
        budget = self.policy.max_actions_per_cycle
        for node in self._resumable(side)[:budget]:
            self.orders.expect_rejoin(node.name)
            node.resume()
            self.resumes += 1
            budget -= 1
            self._decide(
                side, "resume", node=node.name, cause=f"{queued} queued"
            )
        if budget <= 0 or not self._boots_land_on(side):
            return
        for node in self._burst()[:budget]:
            self.orders.expect_rejoin(node.name)
            node.provision()
            self.provisions += 1
            self._decide(
                side, "provision", node=node.name, cause=f"{queued} queued"
            )

    # -- side inspection -----------------------------------------------------

    def _windows_state_stale(self) -> bool:
        """The Linux head's view of the Windows queue is only as fresh as
        the last report; past the staleness cap, acting on it repeats the
        bug the communicator's staleness guard fixes."""
        last = self.linux_comm.last_report_at
        if last is None:
            return True
        return self.sim.now - last > self.linux_comm.staleness_cap_s

    def _queued_workload(self, side: str) -> int:
        """Queued jobs on *side* not tagged as OS-switch jobs."""
        scheduler = self.pbs if side == "linux" else self.winhpc
        return scheduler.queued_count() - tagged_switch_jobs(
            scheduler.switch_jobs.queued.values()
        )

    def _online_count(self, side: str) -> int:
        return len(self._members(NodeState.UP, side))

    def _resumable(self, side: str) -> List[ComputeNode]:
        """SUSPENDED nodes holding *side*'s OS image, lowest name first."""
        return _by_name(self._members(NodeState.SUSPENDED, side))

    def _burst(self) -> List[ComputeNode]:
        """DEPROVISIONED burst nodes, lowest name first."""
        return _by_name(self._members(NodeState.DEPROVISIONED, None))

    def _idle_nodes(self, side: str) -> List[ComputeNode]:
        """Healthy, schedulable, zero-allocation UP nodes of *side*, in
        no particular order: the scheduler's idle hosts that are UP in
        *side* and not unhealthy."""
        scheduler = self.pbs if side == "linux" else self.winhpc
        up = self._members(NodeState.UP, side)
        unhealthy = self.health.unhealthy
        return [
            up[host]
            for host in scheduler.idle_hosts()
            if host in up and host not in unhealthy
        ]

    def _boots_land_on(self, side: str) -> bool:
        """Whether a cold boot right now comes up on *side* — provisioning
        is only useful when the boot flag points at the pressured OS."""
        return bool(
            self.controller.has_cluster_flag
            and self.controller.current_target() == side
        )

    def _cordon(self, side: str, hostname: str) -> None:
        """Stop new placements before the orderly shutdown.  No uncordon
        bookkeeping is needed: the schedulers' rejoin paths clear the
        offline/draining mark unconditionally."""
        scheduler = self.pbs if side == "linux" else self.winhpc
        scheduler.cordon_node(hostname)

    def _decide(
        self,
        side: str,
        action: str,
        node: Optional[str] = None,
        cause: Optional[str] = None,
    ) -> None:
        self.tracer.emit(
            "elastic.decision", node=node, cause=cause, side=side, action=action
        )
