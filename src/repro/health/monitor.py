"""The heartbeat health monitor.

Model
-----
Every watched node gets a ``health_agent`` service attached to each OS
instance it boots (dual-boot: the agent rides both Linux and Windows, so
an OS *switch* never looks like a death).  While the agent's service is
running, the monitor *expects* beats; a poll loop on the DES kernel then
checks every ``beat_s`` seconds whether the node is actually up:

- agent registered and node ``UP``: beat received, miss counter reset;
- agent registered but node dark: a missed beat — ``suspect_misses``
  consecutive misses mark the node ``SUSPECT``, ``fence_misses`` mark it
  ``FENCED`` and fire the fencing callbacks (the middleware wires these
  to both schedulers' recovery paths);
- agent *deregistered* (orderly service stop — reboot, OS switch,
  drain): beats are not expected, so planned downtime is never fenced.

Fencing latency is therefore ``fence_misses * beat_s`` worst-case —
5 minutes at the defaults, matching the paper's own switch-scale
tolerance.  A fenced node that boots again re-registers its agent and is
immediately recovered.

Everything is deterministic: no wall clock, no randomness — the poll
loop is an ordinary simulation process, and nodes are scanned in
registration order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.hardware.node import ComputeNode, NodeState
from repro.oslayer.base import OSInstance, ServiceDef
from repro.simkernel import Simulator, Timeout


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    FENCED = "fenced"


@dataclass
class NodeHealth:
    """Monitor-side view of one node."""

    name: str
    state: HealthState = HealthState.HEALTHY
    #: whether an agent is registered, i.e. beats are currently expected
    expected: bool = False
    misses: int = 0
    fence_count: int = 0
    #: sim time of the last *processed* beat.  The poll loop is
    #: incremental: quiescent healthy nodes are skipped, so this is not
    #: re-stamped every beat while a node stays quietly up.
    last_beat_at: Optional[float] = None
    fenced_at: Optional[float] = None
    recovered_at: Optional[float] = None


class HeartbeatMonitor:
    """Counts missed heartbeats and escalates HEALTHY -> SUSPECT -> FENCED."""

    def __init__(
        self,
        sim: Simulator,
        beat_s: float = 60.0,
        suspect_misses: int = 2,
        fence_misses: int = 5,
    ) -> None:
        if beat_s <= 0:
            raise ConfigurationError(f"health: beat_s must be > 0, got {beat_s}")
        if not 1 <= suspect_misses < fence_misses:
            raise ConfigurationError(
                "health: need 1 <= suspect_misses < fence_misses, got "
                f"{suspect_misses}/{fence_misses}"
            )
        self.sim = sim
        self.beat_s = float(beat_s)
        self.suspect_misses = suspect_misses
        self.fence_misses = fence_misses
        self.tracer = sim.tracer
        self._nodes: Dict[str, ComputeNode] = {}
        self._order: List[str] = []
        self._index: Dict[str, int] = {}
        self._health: Dict[str, NodeHealth] = {}
        #: names of the SUSPECT and FENCED nodes (a dict used as an
        #: ordered set), kept by :meth:`_set_state` so readers that skip
        #: unhealthy nodes pay O(unhealthy), not O(watched)
        self.unhealthy: Dict[str, None] = {}
        #: nodes that might need poll attention (dict used as an ordered
        #: set; iteration is re-sorted into registration order anyway).
        #: Fed by the power-state observers and the agent hooks so the
        #: poll loop never scans the quiescent majority of the cluster.
        self._attention: Dict[str, None] = {}
        self.on_fence: List[Callable[[str], None]] = []
        self.fences = 0
        self.recoveries = 0
        self.suspects = 0
        self._started = False
        #: the agent service every watched OS instance runs
        self._agent = ServiceDef(
            "health_agent",
            on_start=lambda osi: self.agent_up(osi.hostname),
            on_stop=lambda osi: self.agent_down(osi.hostname),
        )

    # -- registration --------------------------------------------------------

    def watch(self, node: ComputeNode) -> None:
        """Put ``node`` under observation (idempotent)."""
        if node.name in self._nodes:
            return
        self._nodes[node.name] = node
        self._index[node.name] = len(self._order)
        self._order.append(node.name)
        self._health[node.name] = NodeHealth(name=node.name)
        node.hooks.register("power_state", self._on_power_state)

    def _on_power_state(self, node: ComputeNode, old: NodeState,
                        new: NodeState) -> None:
        """Power transitions flag a watched node for the next poll."""
        if node.name in self._health:
            self._attention[node.name] = None

    def attach_agent(self, node: ComputeNode, os_instance: OSInstance) -> None:
        """Install the heartbeat agent service on a fresh OS instance.

        Called from the middleware's provisioner for every boot, so the
        agent exists on both OSes and survives every switch.
        """
        self.watch(node)
        os_instance.add_service(self._agent)

    # -- agent lifecycle (driven by OS service hooks) ------------------------

    def agent_up(self, name: str) -> None:
        health = self._health[name]
        health.expected = True
        health.misses = 0
        health.last_beat_at = self.sim.now
        self._attention[name] = None
        if health.state is HealthState.FENCED:
            self._set_state(health, HealthState.HEALTHY)
            health.recovered_at = self.sim.now
            self.recoveries += 1
            downtime = (
                self.sim.now - health.fenced_at
                if health.fenced_at is not None else None
            )
            self.tracer.emit("health.recovered", node=name, downtime_s=downtime)
        elif health.state is HealthState.SUSPECT:
            # a suspect that beats again was never dead
            self._set_state(health, HealthState.HEALTHY)

    def agent_down(self, name: str) -> None:
        """Orderly service stop: planned downtime, beats no longer expected."""
        health = self._health[name]
        health.expected = False
        health.misses = 0
        if health.state is not HealthState.FENCED:
            self._set_state(health, HealthState.HEALTHY)
        self._attention[name] = None
        self.tracer.emit("health.expected_down", node=name)

    # -- the poll loop -------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ConfigurationError("health monitor already started")
        self._started = True
        self.tracer.emit(
            "health.armed",
            beat_s=self.beat_s,
            suspect_misses=self.suspect_misses,
            fence_misses=self.fence_misses,
            watched=len(self._order),
        )
        self.sim.spawn(self._loop(), name="health-monitor")

    def _loop(self):
        while True:
            yield Timeout(self.beat_s)
            self._poll()

    def _poll(self) -> None:
        """One beat: process only the nodes flagged for attention.

        Observationally identical to scanning every watched node — a
        node not under attention is quiescent (not expected with
        ``misses == 0``, or expected and ``UP`` with ``misses == 0`` and
        a non-suspect state), for which the full scan was a no-op.  The
        snapshot is re-sorted into registration order so escalation
        events fire in exactly the order the full scan produced, and
        nodes flagged mid-poll (by fencing callbacks) wait for the next
        beat, just as a freshly-darkened node waits for its first miss.
        """
        if not self._attention:
            return
        for name in sorted(self._attention, key=self._index.__getitem__):
            health = self._health[name]
            if not health.expected:
                health.misses = 0
                del self._attention[name]
                continue
            node = self._nodes[name]
            if node.state is NodeState.UP:
                health.misses = 0
                health.last_beat_at = self.sim.now
                if health.state is HealthState.SUSPECT:
                    # a suspect that beats again was never dead
                    self._set_state(health, HealthState.HEALTHY)
                del self._attention[name]
                continue
            health.misses += 1
            if (
                health.misses == self.suspect_misses
                and health.state is HealthState.HEALTHY
            ):
                self._set_state(health, HealthState.SUSPECT)
                self.suspects += 1
                self.tracer.emit("health.suspect", node=name, misses=health.misses)
            elif (
                health.misses >= self.fence_misses
                and health.state is not HealthState.FENCED
            ):
                self._set_state(health, HealthState.FENCED)
                health.fence_count += 1
                health.fenced_at = self.sim.now
                self.fences += 1
                self.tracer.emit(
                    "health.fenced", node=name,
                    cause=f"missed {health.misses} heartbeats",
                )
                for callback in self.on_fence:
                    callback(name)

    def _set_state(self, health: NodeHealth, state: HealthState) -> None:
        health.state = state
        if state is HealthState.HEALTHY:
            self.unhealthy.pop(health.name, None)
        else:
            self.unhealthy[health.name] = None

    # -- inspection ----------------------------------------------------------

    def health(self, name: str) -> NodeHealth:
        return self._health[name]
