"""The deterministic fault injector.

``FaultInjector`` executes a :class:`~repro.faults.plan.FaultPlan` against
a live simulation: it installs a delivery tap on the network (loss,
jitter, partition, corruption), schedules timed events (head crashes,
service flaps) and arms the boot-hang hook.

Determinism contract
--------------------
Every random draw goes through a *named* :class:`~repro.simkernel.rng.RngStreams`
substream keyed by fault type and link (``fault:loss:a->b``,
``fault:corrupt:5800``, ...).  Two runs with the same ``(seed, plan)``
make identical draws; adding a new fault consumer — a new link, a new
corruption port — never perturbs the draws of existing streams.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.faults.plan import BootHang, FaultPlan
from repro.hardware.node import NodeState
from repro.netsvc.network import DeliveryVerdict, Message, Network
from repro.simkernel import Simulator
from repro.simkernel.rng import RngStreams
from repro.trace import Tracer


def corrupt_wire(wire: str, mode: str) -> str:
    """Damage a Figure-5 wire string so that decode rejects it.

    Each mode reproduces one of the corruptions the hardened communicator
    must survive: a flipped queue-state flag, a non-digit CPU field, a
    truncated string, or plain line noise.
    """
    if mode == "bad-flag":
        return "X" + wire[1:]
    if mode == "bad-cpu":
        return wire[:1] + "?" + wire[2:]
    if mode == "truncate":
        # keep at most flag + CPU field: always below decode's minimum length
        return wire[:5]
    if mode == "garbage":
        return "##" + wire[::-1]
    raise ConfigurationError(f"unknown corruption mode {mode!r}")


class _ArmedHang:
    """Mutable countdown for one :class:`BootHang` entry."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec: BootHang) -> None:
        self.spec = spec
        self.remaining = spec.times


class FaultInjector:
    """Executes a fault plan; keeps per-fault counters for the chaos report.

    Parameters
    ----------
    sim, network, rng, plan:
        The simulation, the segment to tap, the *root* RNG factory (the
        injector derives its own named substreams) and the plan.
    control:
        Anything with ``crash(side)`` / ``restart(side)`` — in practice
        :class:`repro.core.daemon.DualBootDaemons`.  Required only when the
        plan contains head crashes.
    dhcp, tftp:
        The services flaps toggle (``.enabled``).  Required only when the
        plan contains flaps for them.
    node_macs:
        ``node name -> MAC`` map for targeted boot hangs; hangs on ``"*"``
        need no map.
    nodes:
        ``node name -> ComputeNode`` map for node crashes/flaps.  Required
        only when the plan contains node faults.
    env:
        The shared :class:`~repro.boot.chain.BootEnvironment` whose
        ``hang_hook`` the injector owns while armed.
    tracer:
        Where the ``fault.*`` events are recorded.  It must be
        ``sim.tracer``: a fault recorded in another simulation's trace
        would vanish from this one's.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        rng: RngStreams,
        plan: FaultPlan,
        *,
        control: Any = None,
        dhcp: Any = None,
        tftp: Any = None,
        node_macs: Optional[Dict[str, str]] = None,
        nodes: Optional[Dict[str, Any]] = None,
        env: Any = None,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.network = network
        self.rng = rng.spawn(f"faults:{plan.name}")
        self.plan = plan
        self.tracer = tracer
        self.control = control
        self.dhcp = dhcp
        self.tftp = tftp
        self.node_macs = dict(node_macs or {})
        self.nodes = dict(nodes or {})
        self.env = env
        self.counters: Dict[str, int] = {}
        self._armed = False
        self._hangs: List[_ArmedHang] = []
        self._validate_handles()

    def _validate_handles(self) -> None:
        if self.tracer is not self.sim.tracer:
            raise ConfigurationError(
                "tracer must be the simulation's own sim.tracer"
            )
        if self.plan.head_crashes and self.control is None:
            raise ConfigurationError(
                "plan has head crashes but no control handle was given"
            )
        for flap in self.plan.service_flaps:
            service = getattr(self, flap.service)
            if service is None:
                raise ConfigurationError(
                    f"plan flaps {flap.service} but no {flap.service} "
                    "handle was given"
                )
        if self.plan.boot_hangs and self.env is None:
            raise ConfigurationError(
                "plan has boot hangs but no boot environment was given"
            )
        for hang in self.plan.boot_hangs:
            if hang.node != "*" and hang.node not in self.node_macs:
                raise ConfigurationError(
                    f"boot hang targets unknown node {hang.node!r}"
                )
        node_faults = [nc.node for nc in self.plan.node_crashes]
        node_faults += [nf.node for nf in self.plan.node_flaps]
        if node_faults and not self.nodes:
            raise ConfigurationError(
                "plan has node faults but no node handles were given"
            )
        for target in node_faults:
            if target not in self.nodes:
                raise ConfigurationError(
                    f"node fault targets unknown node {target!r}"
                )

    # -- lifecycle -----------------------------------------------------------

    def arm(self) -> None:
        """Install the tap, schedule timed faults, arm the hang hook."""
        if self._armed:
            raise ConfigurationError("injector already armed")
        self._armed = True
        self._trace("fault.armed")
        if (
            self.plan.link_faults
            or self.plan.partitions
            or self.plan.corruptions
        ):
            self.network.add_tap(self._delivery_tap)
        for crash in self.plan.head_crashes:
            self.sim.schedule_at(crash.at_s, self._crash, crash)
            self.sim.schedule_at(crash.at_s + crash.down_s, self._restart, crash)
        for flap in self.plan.service_flaps:
            for i in range(flap.count):
                down_at = flap.first_down_at_s + i * flap.period_s
                self.sim.schedule_at(down_at, self._set_service, flap.service, False)
                self.sim.schedule_at(
                    down_at + flap.down_s, self._set_service, flap.service, True
                )
        for node_crash in self.plan.node_crashes:
            self.sim.schedule_at(
                node_crash.at_s, self._node_crash, node_crash.node
            )
            if node_crash.restart_after_s is not None:
                self.sim.schedule_at(
                    node_crash.at_s + node_crash.restart_after_s,
                    self._node_restart, node_crash.node,
                )
        for node_flap in self.plan.node_flaps:
            for i in range(node_flap.count):
                down_at = node_flap.first_at_s + i * node_flap.period_s
                self.sim.schedule_at(down_at, self._node_crash, node_flap.node)
                self.sim.schedule_at(
                    down_at + node_flap.down_s,
                    self._node_restart, node_flap.node,
                )
        if self.plan.boot_hangs:
            self._hangs = [_ArmedHang(h) for h in self.plan.boot_hangs]
            self.env.hang_hook = self._hang_hook

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def _trace(self, kind: str, *, node: Optional[str] = None,
               cause: Optional[str] = None, **fields: Any) -> None:
        self.tracer.emit(
            kind, node=node, cause=cause, plan=self.plan.name, **fields
        )

    # -- the delivery tap ----------------------------------------------------

    def _delivery_tap(self, message: Message) -> Optional[DeliveryVerdict]:
        now = self.sim.now
        for part in self.plan.partitions:
            if part.start_s <= now < part.end_s and part.severs(
                message.src, message.dst
            ):
                self._count("partition")
                self._trace(
                    "fault.partition", src=message.src, dst=message.dst
                )
                return DeliveryVerdict(drop=True, reason="injected")

        extra_delay = 0.0
        for link in self.plan.link_faults:
            if not (link.start_s <= now < link.end_s):
                continue
            if not link.matches(message.src, message.dst):
                continue
            pair = f"{link.src}->{link.dst}"
            if link.loss_prob > 0 and self.rng.bernoulli(
                f"loss:{pair}", link.loss_prob
            ):
                self._count(f"loss:{pair}")
                self._trace("fault.loss", link=pair)
                return DeliveryVerdict(drop=True, reason="injected")
            if link.jitter_s > 0:
                jitter = self.rng.uniform(f"jitter:{pair}", 0.0, link.jitter_s)
                extra_delay += jitter
                self._trace("fault.jitter", link=pair, delay_s=jitter)

        rewrite = False
        payload = message.payload
        if isinstance(payload, str):
            for corr in self.plan.corruptions:
                if message.port != corr.port:
                    continue
                if not (corr.start_s <= now < corr.end_s):
                    continue
                if self.rng.bernoulli(f"corrupt:{corr.port}", corr.prob):
                    mode = corr.modes[
                        self.rng.integers(
                            f"corrupt-mode:{corr.port}", 0, len(corr.modes)
                        )
                    ]
                    payload = corrupt_wire(payload, mode)
                    rewrite = True
                    self._count(f"corrupted:{mode}")
                    self._trace("fault.corrupt", mode=mode, port=corr.port)

        if rewrite or extra_delay > 0:
            return DeliveryVerdict(
                drop=False,
                extra_delay_s=extra_delay,
                payload=payload,
                rewrite=rewrite,
            )
        return None

    # -- timed faults --------------------------------------------------------

    def _crash(self, crash) -> None:
        self._count(f"crash:{crash.side}")
        self._trace("fault.crash", side=crash.side)
        self.control.crash(crash.side)

    def _restart(self, crash) -> None:
        self._count(f"restart:{crash.side}")
        self._trace("fault.restart", side=crash.side)
        self.control.restart(crash.side)

    def _node_crash(self, name: str) -> None:
        node = self.nodes[name]
        if node.crash(cause=f"injected ({self.plan.name})"):
            self._count(f"node-crash:{name}")
            self._trace("fault.node_crash", node=name)

    def _node_restart(self, name: str) -> None:
        node = self.nodes[name]
        if node.state in (NodeState.OFF, NodeState.FAILED):
            self._count(f"node-restart:{name}")
            self._trace("fault.node_restart", node=name)
            node.power_on()

    def _set_service(self, name: str, enabled: bool) -> None:
        service = getattr(self, name)
        if not enabled:
            self._count(f"flap:{name}")
            self._trace("fault.flap", service=name)
        service.enabled = enabled

    # -- boot hangs ----------------------------------------------------------

    def _hang_hook(self, mac: str) -> Optional[str]:
        now = self.sim.now
        for armed in self._hangs:
            spec = armed.spec
            if armed.remaining <= 0 or now < spec.start_s:
                continue
            if spec.node != "*" and self.node_macs.get(spec.node) != mac:
                continue
            armed.remaining -= 1
            self._count("boot-hang")
            self._trace("fault.boot_hang", target=spec.node, mac=mac)
            return f"injected ({self.plan.name}) on {spec.node}"
        return None
