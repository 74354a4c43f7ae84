"""The cluster energy meter: watt histories integrated into joules.

One :class:`EnergyMeter` watches every metered node's power-state
transitions (one callback in its cluster's hook table) and both schedulers'
job observers (for busy-core counts), maintaining a per-node account of
instantaneous watts.  Between changes the draw is constant, so the
integral is an exact sum of ``watts × span`` rectangles — no sampling,
no drift, byte-identical across same-seed runs.

The meter traces what its draw follows from, not the draw itself: one
``energy.model`` event with its :class:`PowerModel` when it is built,
and one ``energy.state`` event when it attaches a node and on every
power transition of that node — never on a busy-core change, whose cores
the schedulers' ``job.started`` events already carry.  ``finalize()``
emits per-node plus cluster ``energy.report`` events.  The
``energy-conserved`` trace invariant replays the meter from those events
and cross-checks every state and report, so a meter bug (see the leaky
and short-core fixtures in ``tests/energy``) is caught by the oracle,
not by eyeball.

Busy-core accounting keeps its own allocation snapshot per job, taken at
``started`` — the schedulers clear ``exec_slots``/``allocation`` before
the ``requeued`` observers fire, so reading them at release time would
leak cores forever.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.energy.model import PowerModel
from repro.hardware.node import ComputeNode, NodeState
from repro.simkernel import Simulator


@dataclass
class NodeEnergyAccount:
    """Running energy tally for one node."""

    name: str
    state: NodeState
    busy_cores: int = 0
    watts: float = 0.0
    last_change_t: float = 0.0
    joules: float = 0.0
    #: joules split by the state they were burned in (state.value keys)
    joules_by_state: Dict[str, float] = field(default_factory=dict)


class EnergyMeter:
    """Integrates every node's watt draw over simulation time."""

    def __init__(
        self,
        sim: Simulator,
        model: Optional[PowerModel] = None,
    ) -> None:
        self.sim = sim
        self.model = model if model is not None else PowerModel()
        self.tracer = sim.tracer
        self.accounts: Dict[str, NodeEnergyAccount] = {}
        #: per-job {hostname: cores} snapshots, keyed by the personality's
        #: record prefix (``pbs:<id>``/``win:<id>``/``slurm:<id>``)
        self._job_cores: Dict[str, Dict[str, int]] = {}
        self._finalized = False
        self.tracer.emit("energy.model", **asdict(self.model))

    # -- attachment ----------------------------------------------------------

    def attach_node(self, node: ComputeNode) -> None:
        """Start metering *node* from its current state (others are ignored)."""
        account = NodeEnergyAccount(
            name=node.name,
            state=node.state,
            watts=self.model.node_watts(node.state),
            last_change_t=self.sim.now,
        )
        self.accounts[node.name] = account
        node.hooks.register("power_state", self._on_power_state)
        self._emit_state(account)

    def attach_scheduler(self, personality: Any) -> None:
        """Meter busy-core deltas from any scheduler personality.

        Relies only on the uniform job surface (``key``,
        ``allocation_by_host()``) every personality's job objects expose.
        """
        prefix = personality.record_key_prefix
        personality.observers.append(
            lambda event, job: self._job_event(prefix, event, job)
        )

    # -- observers -----------------------------------------------------------

    def _on_power_state(
        self, node: ComputeNode, old_state: NodeState, new_state: NodeState
    ) -> None:
        account = self.accounts.get(node.name)
        if account is None:
            return
        self._integrate(account, self.sim.now)
        account.state = new_state
        self._refresh(account)
        self._emit_state(account)

    def _job_event(self, prefix: str, event: str, job: Any) -> None:
        key = f"{prefix}:{job.key}"
        if event == "started":
            self._job_started(key, job.allocation_by_host())
        elif event in ("finished", "requeued"):
            self._job_released(key)

    def _job_started(self, key: str, cores: Dict[str, int]) -> None:
        self._job_cores[key] = cores
        for host, count in cores.items():
            self._adjust_busy(host, count)

    def _job_released(self, key: str) -> None:
        cores = self._job_cores.pop(key, None)
        if cores is None:
            return
        for host, count in cores.items():
            self._adjust_busy(host, -count)

    def _adjust_busy(self, host: str, delta: int) -> None:
        account = self.accounts.get(host)
        if account is None:
            return
        self._integrate(account, self.sim.now)
        account.busy_cores = max(0, account.busy_cores + delta)
        self._refresh(account)

    # -- integration ---------------------------------------------------------

    def _integrate(self, account: NodeEnergyAccount, now: float) -> None:
        """Accumulate the constant-watt rectangle up to *now*.

        The single seam every joule passes through — the leaky-meter test
        fixture overrides this to prove the ``energy-conserved`` invariant
        catches accounting bugs.
        """
        span = now - account.last_change_t
        if span > 0.0:
            delta = account.watts * span
            account.joules += delta
            state_key = account.state.value
            account.joules_by_state[state_key] = (
                account.joules_by_state.get(state_key, 0.0) + delta
            )
        account.last_change_t = now

    def _refresh(self, account: NodeEnergyAccount) -> None:
        """Set the account's draw from its power state and busy cores."""
        account.watts = self.model.node_watts(account.state, account.busy_cores)

    def _emit_state(self, account: NodeEnergyAccount) -> None:
        self.tracer.emit(
            "energy.state",
            node=account.name,
            watts=account.watts,
            state=account.state.value,
            busy_cores=account.busy_cores,
        )

    # -- totals --------------------------------------------------------------

    def node_joules(self, name: str) -> float:
        """Joules burned by *name* so far (integrated to now)."""
        account = self.accounts[name]
        self._integrate(account, self.sim.now)
        return account.joules

    def total_joules(self) -> float:
        """Cluster-wide joules so far (integrated to now)."""
        return sum(self.node_joules(name) for name in self.accounts)

    def joules_by_state(self) -> Dict[str, float]:
        """Cluster joules split by the power state they were burned in."""
        totals: Dict[str, float] = {}
        for name in self.accounts:
            self._integrate(self.accounts[name], self.sim.now)
            for state_key, joules in self.accounts[name].joules_by_state.items():
                totals[state_key] = totals.get(state_key, 0.0) + joules
        return totals

    def finalize(self) -> None:
        """Close the integrals and emit ``energy.report`` events.

        Idempotent — calling twice reports once (the middleware and the
        comparison harness both finalize defensively).
        """
        if self._finalized:
            return
        self._finalized = True
        now = self.sim.now
        total = 0.0
        for account in self.accounts.values():
            self._integrate(account, now)
            total += account.joules
            self.tracer.emit(
                "energy.report", node=account.name, joules=account.joules
            )
        self.tracer.emit("energy.report", total_joules=total)
