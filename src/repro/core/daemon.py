"""Daemon wiring: start the two communicators on a cluster.

"The key to make the dual-boot cluster switch idle resources
automatically, are the daemon (background) programs.  Two daemon programs
are running at each head node" (§III.B.3).

Beyond the paper's two processes, the hardened control plane runs two
more on the Linux head:

* a **staleness ticker** that re-evaluates (or refuses to act on) the
  last Windows report between receipts, so a silent Windows side cannot
  freeze or mislead the control loop;
* a **switch-order watchdog** that periodically expires orders whose
  node never rejoined the target scheduler.

:meth:`DualBootDaemons.crash` / :meth:`~DualBootDaemons.restart` model a
head-node daemon dying and coming back — the communicators keep their
state across a restart, which is exactly why the staleness guard exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Set

from repro.core.communicator import (
    DEFAULT_ORDER_TIMEOUT_S,
    LinuxCommunicator,
    SwitchOrders,
    WindowsCommunicator,
)
from repro.core.config import COMMUNICATOR_PORT
from repro.core.controller import BootController
from repro.core.policy import SwitchPolicy
from repro.errors import MiddlewareError
from repro.hardware.cluster import Cluster
from repro.netsvc.network import Host
from repro.sched import create_detector
from repro.simkernel import MINUTE, Process, Simulator, Timeout


def _ticker_loop(linux: LinuxCommunicator, cycle_s: float):
    """Heartbeat offset half a cycle from the report cadence, so each tick
    sees either a fresh report (no-op) or a genuinely missing one."""
    yield Timeout(cycle_s / 2)
    while True:
        linux.tick()
        yield Timeout(cycle_s)


def _watchdog_loop(sim: Simulator, orders: SwitchOrders):
    """Expire overdue switch orders once a simulated minute."""
    while True:
        yield Timeout(MINUTE)
        orders.expire(sim.now)


@dataclass
class DualBootDaemons:
    """Handles to the running control plane."""

    linux: LinuxCommunicator
    windows: WindowsCommunicator
    linux_process: Process
    windows_process: Process
    orders: SwitchOrders
    sim: Simulator
    linux_host: Host
    windows_host: Host
    ticker_process: Process
    watchdog_process: Process
    cycle_s: float
    _crashed: Set[str] = field(default_factory=set)

    # -- crash / restart (fault injection entry points) ----------------------

    def crash(self, side: str) -> None:
        """Kill one head node's daemon(s) and take its host off the network."""
        self._check_side(side)
        if side in self._crashed:
            return
        self._crashed.add(side)
        host = self.linux_host if side == "linux" else self.windows_host
        self.sim.tracer.emit("daemon.crash", node=host.name, side=side)
        if side == "linux":
            self.linux_process.kill()
            self.ticker_process.kill()
        else:
            self.windows_process.kill()
        host.online = False

    def restart(self, side: str) -> None:
        """Bring a crashed daemon back (communicator state persists — the
        staleness guard covers whatever it slept through)."""
        self._check_side(side)
        if side not in self._crashed:
            return
        self._crashed.discard(side)
        host = self.linux_host if side == "linux" else self.windows_host
        self.sim.tracer.emit("daemon.restart", node=host.name, side=side)
        host.online = True
        if side == "linux":
            self.linux_process = self.sim.spawn(
                self.linux.run(), name="daemon:linux"
            )
            self.ticker_process = self.sim.spawn(
                _ticker_loop(self.linux, self.cycle_s), name="daemon:ticker"
            )
        else:
            self.windows_process = self.sim.spawn(
                self.windows.run(), name="daemon:windows"
            )

    @staticmethod
    def _check_side(side: str) -> None:
        if side not in ("linux", "windows"):
            raise MiddlewareError(f"unknown head side {side!r}")


def start_daemons(
    cluster: Cluster,
    pbs: Any,
    winhpc: Any,
    controller: BootController,
    policy: SwitchPolicy,
    cycle_s: float,
    eager_detectors: bool = False,
    order_timeout_s: float = DEFAULT_ORDER_TIMEOUT_S,
) -> DualBootDaemons:
    """Stand up the control plane and return its handles.

    Reports go to :data:`~repro.core.config.COMMUNICATOR_PORT` on the
    Linux head and acks come back on the next port up; the cores per node
    come from the cluster's first compute node and the retry jitter from
    the cluster's seeded streams.
    """
    sim = cluster.sim
    linux_host = cluster.linux_head.host
    windows_host = cluster.windows_head.host
    orders = SwitchOrders(
        pbs, winhpc, controller, order_timeout_s=order_timeout_s
    )

    linux_daemon = LinuxCommunicator(
        sim=sim,
        listener=linux_host.listen(COMMUNICATOR_PORT),
        detector=create_detector(pbs, eager=eager_detectors),
        policy=policy,
        orders=orders,
        cores_per_node=cluster.compute_nodes[0].cores,
        host=linux_host,
        ack_port=COMMUNICATOR_PORT + 1,
        cycle_s=cycle_s,
    )

    windows_daemon = WindowsCommunicator(
        sim=sim,
        host=windows_host,
        detector=create_detector(winhpc, eager=eager_detectors),
        linux_head=cluster.linux_head.name,
        port=COMMUNICATOR_PORT,
        cycle_s=cycle_s,
        ack_listener=windows_host.listen(COMMUNICATOR_PORT + 1),
        rng=cluster.rng.spawn("communicator"),
    )

    return DualBootDaemons(
        linux=linux_daemon,
        windows=windows_daemon,
        linux_process=sim.spawn(linux_daemon.run(), name="daemon:linux"),
        windows_process=sim.spawn(windows_daemon.run(), name="daemon:windows"),
        orders=orders,
        sim=sim,
        linux_host=linux_host,
        windows_host=windows_host,
        ticker_process=sim.spawn(
            _ticker_loop(linux_daemon, cycle_s), name="daemon:ticker"
        ),
        watchdog_process=sim.spawn(
            _watchdog_loop(sim, orders), name="daemon:watchdog"
        ),
        cycle_s=cycle_s,
    )
