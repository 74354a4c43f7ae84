"""Compute-node power/boot state machine.

A node owns its disk, NIC and firmware.  ``power_on`` / ``reboot`` run the
boot chain (:func:`repro.boot.chain.resolve_boot`) and then wait out the
:mod:`~repro.hardware.power` phases, so every OS switch pays the realistic
3–5 minutes the paper reports.  When the OS comes up, its services start —
that is the moment a scheduler sees the node join its pool.

Whatever watches a node (provisioners, meters, monitors) sits in the
:class:`NodeHooks` table it shares with its cluster, once per component.

Boot failures leave the node in ``FAILED`` with a recorded reason: this is
the "bricked until an admin intervenes" state that the v1 deployment flow
can produce (GRUB destroyed by a Windows reinstall) and experiment E4
counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import BootError, MiddlewareError
from repro.boot.chain import BootEnvironment, resolve_boot
from repro.boot.firmware import Firmware
from repro.hardware.nic import Nic
from repro.hardware.power import RebootTimingModel
from repro.hardware.specs import HardwareSpec
from repro.oslayer.base import OSInstance
from repro.oslayer.linux import LinuxOS
from repro.oslayer.windows import WindowsOS
from repro.simkernel import Simulator, Timeout
from repro.simkernel.rng import RngStreams
from repro.storage.disk import Disk


class NodeState(enum.Enum):
    """Power states of a compute node.

    The paper's machines are bi-stable (Linux/Windows, always powered);
    the tri-stable extension adds two more resting states: SUSPENDED
    (suspend-to-RAM — the OS image survives, services stop in an orderly
    way, and resume costs seconds instead of a boot) and DEPROVISIONED
    (the machine does not exist — the cloud-burst pool; provisioning
    pays an allocation lead time plus a full cold boot).
    """

    OFF = "off"
    BOOTING = "booting"
    UP = "up"
    SHUTTING_DOWN = "shutting_down"
    SUSPENDED = "suspended"
    DEPROVISIONED = "deprovisioned"
    FAILED = "failed"


@dataclass
class BootRecord:
    """One (attempted) boot, for metrics and post-mortems."""

    started_at: float
    finished_at: Optional[float] = None
    os_name: Optional[str] = None
    via: Optional[str] = None
    error: Optional[str] = None
    cold: bool = False

    @property
    def duration_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


#: The runtime a successful boot brings up, by OS kind:
#: ``factory(hostname, disk, root_partition)``.
OS_FACTORIES: Dict[str, Callable[..., OSInstance]] = {
    "linux": LinuxOS.from_disk,
    "windows": WindowsOS.from_disk,
}


class NodeHooks:
    """The observers every compute node of a cluster shares (a node built
    alone gets its own); each callback takes the node it fires for first."""

    __slots__ = ("provisioners", "os_up", "os_down", "crash", "power_state")

    def __init__(self) -> None:
        #: (node, os) before the fresh OS starts its services, e.g. pbs_mom
        self.provisioners: List[Callable[["ComputeNode", OSInstance], None]] = []
        self.os_up: List[Callable[["ComputeNode", OSInstance], None]] = []
        self.os_down: List[Callable[["ComputeNode", OSInstance], None]] = []
        self.crash: List[Callable[["ComputeNode"], None]] = []
        #: (node, old, new) on every power-state transition
        self.power_state: List[Callable[["ComputeNode", NodeState, NodeState], None]] = []

    def register(self, kind: str, callback: Callable[..., None]) -> None:
        """Append *callback* to the *kind* list, unless an equal one (the
        same component's bound method) is already there."""
        hooks = getattr(self, kind)
        if callback not in hooks:
            hooks.append(callback)


class ComputeNode:
    """One dual-boot cluster machine."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        spec: HardwareSpec,
        nic: Nic,
        rng: RngStreams,
        env: Optional[BootEnvironment] = None,
        timing: Optional[RebootTimingModel] = None,
        hooks: Optional[NodeHooks] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.spec = spec
        self.nic = nic
        self.rng = rng
        self.env = env if env is not None else BootEnvironment()
        self.timing = timing if timing is not None else RebootTimingModel()
        self.disk = Disk(spec.disk_mb, name=f"{name}:sda")
        self.firmware = Firmware.disk_first()

        self.state = NodeState.OFF
        self.current_os: Optional[OSInstance] = None
        #: the RAM-resident OS image while SUSPENDED (lost on power cut)
        self._suspended_os: Optional[OSInstance] = None
        self.boot_records: List[BootRecord] = []
        #: the observers this node shares with the rest of its cluster
        self.hooks = hooks if hooks is not None else NodeHooks()
        self._reboot_requested = False
        self._power_process = None
        #: the simulator's trace, which power and boot events go to
        self.tracer = sim.tracer

    # -- inspection ---------------------------------------------------------

    @property
    def mac(self) -> str:
        return self.nic.mac

    @property
    def cores(self) -> int:
        return self.spec.cores

    @property
    def os_name(self) -> Optional[str]:
        """Kind of the currently-running OS, or ``None``."""
        return self.current_os.kind if self.current_os is not None else None

    @property
    def last_boot(self) -> Optional[BootRecord]:
        return self.boot_records[-1] if self.boot_records else None

    @property
    def failed(self) -> bool:
        return self.state is NodeState.FAILED

    @property
    def suspended_os_name(self) -> Optional[str]:
        """Kind of the RAM-resident OS while SUSPENDED, or ``None``."""
        return (
            self._suspended_os.kind if self._suspended_os is not None else None
        )

    # -- power control -----------------------------------------------------

    def power_on(self):
        """Cold start; returns the boot :class:`~repro.simkernel.Process`."""
        if self.state is not NodeState.OFF and self.state is not NodeState.FAILED:
            raise MiddlewareError(
                f"{self.name}: power_on in state {self.state.value}"
            )
        self._power_process = self.sim.spawn(
            self._boot(cold=True), name=f"boot:{self.name}"
        )
        return self._power_process

    def reboot(self):
        """Graceful reboot; returns the reboot process."""
        if self.state is not NodeState.UP:
            raise MiddlewareError(f"{self.name}: reboot in state {self.state.value}")
        self._power_process = self.sim.spawn(
            self._reboot(), name=f"reboot:{self.name}"
        )
        return self._power_process

    def power_off(self) -> None:
        """Hard power cut (admin action, e.g. before a bare-metal reimage).

        Only valid when the node is UP, SUSPENDED, OFF or FAILED —
        cutting power mid boot would leave a dangling boot process, and a
        DEPROVISIONED machine has no power to cut.  Cutting power while
        SUSPENDED discards the RAM-resident OS image.
        """
        if self.state in (
            NodeState.BOOTING, NodeState.SHUTTING_DOWN, NodeState.DEPROVISIONED
        ):
            raise MiddlewareError(
                f"{self.name}: power_off while {self.state.value}"
            )
        self._shutdown_os()
        self._suspended_os = None
        self._set_state(NodeState.OFF)

    def suspend(self):
        """Suspend-to-RAM; returns the suspend :class:`~repro.simkernel.Process`.

        The OS services stop in an *orderly* way first (agents deregister,
        scheduler membership exits), so the heartbeat monitor treats the
        downtime as planned — a suspended node is never fenced.  The OS
        image stays resident in RAM: :meth:`resume` restarts it in
        seconds, without a boot chain.
        """
        if self.state is not NodeState.UP:
            raise MiddlewareError(
                f"{self.name}: suspend in state {self.state.value}"
            )
        self._power_process = self.sim.spawn(
            self._suspend(), name=f"suspend:{self.name}"
        )
        return self._power_process

    def resume(self):
        """Wake from suspend-to-RAM; returns the resume process."""
        if self.state is not NodeState.SUSPENDED:
            raise MiddlewareError(
                f"{self.name}: resume in state {self.state.value}"
            )
        self._power_process = self.sim.spawn(
            self._resume(), name=f"resume:{self.name}"
        )
        return self._power_process

    def deprovision(self) -> None:
        """Release the machine entirely (the cloud instance is deleted).

        Legal from any resting state: UP (orderly shutdown first),
        SUSPENDED (the RAM image is discarded), OFF or FAILED.  The
        transition itself is an instant control-plane action; getting the
        capacity *back* costs :meth:`provision`'s allocation lead time
        plus a full cold boot.
        """
        if self.state in (NodeState.BOOTING, NodeState.SHUTTING_DOWN):
            raise MiddlewareError(
                f"{self.name}: deprovision while {self.state.value}"
            )
        if self.state is NodeState.DEPROVISIONED:
            raise MiddlewareError(f"{self.name}: already deprovisioned")
        self._shutdown_os()
        self._suspended_os = None
        self._set_state(NodeState.DEPROVISIONED)
        self._trace("power.deprovisioned")

    def provision(self):
        """Allocate a deprovisioned machine and cold-boot it.

        Returns the provisioning process; the node pays a deterministic
        per-node allocation delay (``power:{node}:provision`` stream) and
        then runs the ordinary boot chain.
        """
        if self.state is not NodeState.DEPROVISIONED:
            raise MiddlewareError(
                f"{self.name}: provision in state {self.state.value}"
            )
        self._power_process = self.sim.spawn(
            self._provision(), name=f"provision:{self.name}"
        )
        return self._power_process

    def crash(self, cause: str = "power lost") -> bool:
        """Instant, unclean death: power is gone *now*, mid-whatever.

        Unlike :meth:`power_off` this is legal in any powered state and
        performs no orderly shutdown — OS services never run their stop
        hooks, so the schedulers are *not* told the node left (that is
        the health monitor's job).  A SUSPENDED victim loses its RAM
        image.  Returns ``False`` when the node was already dark (OFF,
        FAILED) or does not exist (DEPROVISIONED).
        """
        if self.state in (
            NodeState.OFF, NodeState.FAILED, NodeState.DEPROVISIONED
        ):
            return False
        if self._power_process is not None and self._power_process.alive:
            self._power_process.kill()
            self._power_process = None
        if self.state is NodeState.BOOTING and self.boot_records:
            record = self.boot_records[-1]
            if record.finished_at is None:
                record.finished_at = self.sim.now
                record.error = cause
        self._shutdown_os(cause)
        self._suspended_os = None  # RAM does not survive a power cut
        self._set_state(NodeState.OFF)
        self._reboot_requested = False
        self._trace("node.crash", cause=cause)
        for crash_callback in self.hooks.crash:
            crash_callback(self)
        return True

    def request_reboot(self, delay_s: float = 3.0) -> None:
        """Asynchronous ``sudo reboot``: the actual reboot starts shortly.

        Idempotent while one request is pending — a second ``reboot`` call
        on a Unix box does not reboot twice.
        """
        if self._reboot_requested or self.state is not NodeState.UP:
            return
        self._reboot_requested = True

        def fire() -> None:
            self._reboot_requested = False
            if self.state is NodeState.UP:
                self.reboot()

        self.sim.schedule(delay_s, fire)

    # -- internals -----------------------------------------------------------

    def _trace(self, kind: str, *, cause: Optional[str] = None, **fields) -> None:
        self.tracer.emit(kind, node=self.name, cause=cause, **fields)

    def _set_state(self, new_state: NodeState) -> None:
        """Every power-state transition funnels through here so observers
        (the energy meter, tests) see a complete, ordered history."""
        old_state = self.state
        if old_state is new_state:
            return
        self.state = new_state
        for callback in self.hooks.power_state:
            callback(self, old_state, new_state)

    def _suspend(self):
        self._set_state(NodeState.SHUTTING_DOWN)
        os_instance = self.current_os
        self._shutdown_os()  # orderly: stop hooks fire, agents deregister
        self._suspended_os = os_instance
        duration_s = self.timing.draw_suspend(self.rng, self.name)
        yield Timeout(duration_s)
        self._set_state(NodeState.SUSPENDED)
        self._trace(
            "power.suspended",
            os=os_instance.kind if os_instance is not None else None,
            duration_s=duration_s,
        )

    def _resume(self):
        os_instance = self._suspended_os
        self._set_state(NodeState.BOOTING)
        duration_s = self.timing.draw_resume(self.rng, self.name)
        yield Timeout(duration_s)
        self._suspended_os = None
        self.current_os = os_instance
        self._set_state(NodeState.UP)
        if os_instance is not None:
            os_instance.start()
            self._trace(
                "power.resumed", os=os_instance.kind, duration_s=duration_s
            )
            for callback in self.hooks.os_up:
                callback(self, os_instance)

    def _provision(self):
        duration_s = self.timing.draw_provision(self.rng, self.name)
        self._set_state(NodeState.BOOTING)
        self._trace("power.provisioning", duration_s=duration_s)
        yield Timeout(duration_s)
        yield from self._boot(cold=True)

    def _shutdown_os(self, crash_cause: Optional[str] = None) -> None:
        """Take the OS down: an orderly stop, or with *crash_cause* a power
        loss, in which the OS dies without firing its service stop hooks."""
        if self.current_os is not None:
            os_instance = self.current_os
            if crash_cause is None:
                os_instance.stop()
            else:
                os_instance.running = False
            self._trace("node.os_down", cause=crash_cause, os=os_instance.kind)
            for callback in self.hooks.os_down:
                callback(self, os_instance)
            self.current_os = None

    def _reboot(self):
        self._set_state(NodeState.SHUTTING_DOWN)
        self._shutdown_os()
        yield from self._boot(cold=False)

    def _boot_failed(self, record: BootRecord, error: str) -> BootRecord:
        self._set_state(NodeState.FAILED)
        record.finished_at = self.sim.now
        record.error = error
        self._trace("boot.failed", cause=error)
        return record

    def _boot(self, cold: bool):
        record = BootRecord(started_at=self.sim.now, cold=cold)
        self.boot_records.append(record)
        self._set_state(NodeState.BOOTING)
        self._trace(
            "boot.start", cold=cold, boot_index=len(self.boot_records) - 1
        )
        try:
            outcome = resolve_boot(self.disk, self.firmware, self.mac, self.env)
        except BootError as exc:
            # the hang happens after POST; charge that much wall clock
            phases = self.timing.draw(self.rng, self.name, "linux", cold=cold)
            yield Timeout(phases.shutdown_s + phases.post_s)
            return self._boot_failed(record, str(exc))

        record.via = outcome.via
        record.os_name = outcome.os_name

        if outcome.os_name == "installer":
            # no deployment here installs over the network
            return self._boot_failed(
                record, "installer boot with no deployment in progress"
            )

        phases = self.timing.draw(
            self.rng,
            self.name,
            outcome.os_name,
            via_pxe=outcome.via.startswith("pxe"),
            cold=cold,
        )
        yield Timeout(phases.total_s)

        try:
            os_instance = OS_FACTORIES[outcome.os_name](
                self.name, self.disk, outcome.root_partition
            )
        except BootError as exc:
            return self._boot_failed(record, str(exc))
        os_instance.context["node"] = self
        for provision in self.hooks.provisioners:
            provision(self, os_instance)
        self.current_os = os_instance
        os_instance.start()
        self._set_state(NodeState.UP)
        record.finished_at = self.sim.now
        self._trace("node.os_up", os=outcome.os_name)
        self._trace(
            "boot.complete",
            os=outcome.os_name,
            via=outcome.via,
            duration_s=record.duration_s,
        )
        for callback in self.hooks.os_up:
            callback(self, os_instance)
        return record
