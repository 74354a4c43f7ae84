"""The two head-node communicator daemons (Figure 11), hardened.

Protocol, exactly as numbered in the paper's flowchart:

1. the **Windows communicator** fetches its queue state on a fixed cycle
   (e.g. 10 minutes);
2. it sends the state (a Figure-5 wire string) to the Linux communicator
   over TCP;
3. the **Linux communicator** fetches the PBS queue state;
4. it decides (policy) and sets the target-OS flag;
5. it sends reboot orders — switch batch jobs — to whichever scheduler
   owns the donor nodes; the jobs book free machines and reboot them.

The paper's implementation assumes a perfect LAN.  This module survives
an imperfect one:

* **acked reports with retry** — the Linux side acks every valid report;
  the Windows side retries unacked sends with exponential backoff plus
  seeded jitter before giving up until the next cycle;
* **tolerant decode** — a corrupt wire string is counted and discarded
  instead of killing the daemon;
* **staleness guard** — the deciding side timestamps the last valid
  Windows report and refuses to base a switch decision on one older than
  ``staleness_cycles`` communicator cycles;
* **switch-order watchdog** — every issued switch order is tracked until
  a node actually rejoins the target scheduler; orders whose node never
  returns (hung at boot, lost to a partition) are marked failed after a
  timeout so the in-flight count cannot leak and the switch is re-issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.controller import BootController
from repro.core.policy import ClusterView, SwitchDecision, SwitchPolicy
from repro.core.switchjob import PBS_USER, OrderState, SwitchOrderRecord
from repro.core.wire import QueueStateMessage
from repro.errors import MiddlewareError
from repro.netsvc.network import Host, Message, PortListener
from repro.simkernel import MINUTE, Simulator, Timeout
from repro.simkernel.rng import RngStreams
from repro.trace import Tracer

#: Default watchdog deadline for one switch order: a reboot costs 3-5
#: minutes (E1), so three times that is unambiguous failure.
DEFAULT_ORDER_TIMEOUT_S = 15 * MINUTE


@dataclass
class DecisionRecord:
    """One control-loop evaluation, kept for analysis."""

    time: float
    windows_wire: str
    linux_wire: str
    decision: SwitchDecision


def _trace_check(tracer: Tracer, host: Host, side: str, report: Any) -> None:
    """Record one detector run; each communicator calls this right after
    its detector's ``check()`` returns."""
    tracer.emit(
        "detector.check",
        node=host.name,
        side=side,
        wire=report.wire,
        running=report.running,
        queued=report.queued,
        stuck=report.message.stuck,
    )


class SwitchOrders:
    """Step 5: issuing reboot batch jobs and tracking what is in flight.

    Every order is a :class:`SwitchOrderRecord` that stays ``PENDING``
    until a node joins the target scheduler (confirmation, matched oldest
    first) or the watchdog deadline passes (:meth:`expire` marks it
    ``FAILED`` and cancels its batch job if the job is still queued).
    The policy's in-flight counts come from this ledger, so a node that
    hangs at boot cannot absorb switch capacity forever.

    ``orders`` is the append-only history of every order ever issued,
    kept for analysis; nothing on the control loop reads it.  The hot
    paths (confirmation, abort, the once-a-minute watchdog and the
    per-cycle in-flight counts) walk only ``_pending``, an
    insertion-ordered index that holds the unresolved orders and drops
    each one as it resolves, so their cost and the index's size stay
    O(orders in flight) however many switches a long run has already
    done.  Insertion order is issue order, which keeps the oldest-first
    confirmation and the order of ``order.failed`` events unchanged.
    """

    def __init__(
        self,
        pbs: Any,
        winhpc: Any,
        controller: BootController,
        order_timeout_s: float = DEFAULT_ORDER_TIMEOUT_S,
    ) -> None:
        if order_timeout_s <= 0:
            raise MiddlewareError("order timeout must be positive")
        self.pbs = pbs
        self.winhpc = winhpc
        self.controller = controller
        self.order_timeout_s = order_timeout_s
        self.tracer = pbs.sim.tracer
        self.orders_issued = 0
        self.orders_confirmed = 0
        self.orders_failed = 0
        self.orders: List[SwitchOrderRecord] = []
        #: order_id -> record for every still-PENDING order, in issue order
        self._pending: Dict[int, SwitchOrderRecord] = {}
        self._next_order_id = 1
        #: nodes whose next scheduler join is a crash recovery, not a
        #: switch landing — their join must not confirm a pending order
        self._expected_rejoins: set = set()
        pbs.node_observers.append(self._on_pbs_node_event)
        winhpc.node_observers.append(self._on_win_node_event)

    # -- in-flight accounting ------------------------------------------------

    def in_flight(self, target_os: str) -> int:
        """Unresolved orders toward *target_os* — the watchdog-backed count.

        Unlike a scan of the switch jobs' states, this stays high through
        the node's reboot window (the batch job is already dead then) and
        drops when the watchdog declares the order failed.
        """
        return sum(1 for o in self._pending.values() if o.target_os == target_os)

    # -- issuing -------------------------------------------------------------

    def issue(self, decision: SwitchDecision) -> None:
        """Set the flag (v2) and submit one switch job per node to move."""
        if not decision.is_switch:
            return
        target = decision.target_os
        if self.controller.has_cluster_flag:
            # v2 single-flag: set the head-side flag before any reboot
            # lands; otherwise the switch job itself carries the target
            # (v1 controlmenu edits, v2 per-MAC Figure-12 flow)
            self.controller.set_target_os(target)
            self.tracer.emit("control.flag_set", target=target)
        if target == "windows":
            donor, script = self.pbs, self.controller.linux_switch_script("windows")
            owner = PBS_USER
        else:
            donor, script = self.winhpc, self.controller.windows_switch_script("linux")
            owner = "dualboot-oscar"
        for _ in range(decision.num_nodes):
            jobid = donor.submit_switch_job(script, owner=owner)
            self._record(target, jobid)

    def _record(self, target_os: str, jobid: str) -> None:
        now = self.pbs.sim.now
        order = SwitchOrderRecord(
            order_id=self._next_order_id,
            target_os=target_os,
            issued_at=now,
            deadline=now + self.order_timeout_s,
            jobid=jobid,
        )
        self.orders.append(order)
        self._pending[order.order_id] = order
        self.tracer.emit(
            "order.issued",
            order_id=self._next_order_id,
            target_os=target_os,
            jobid=jobid,
            deadline_s=self.order_timeout_s,
        )
        self._next_order_id += 1
        self.orders_issued += 1

    # -- confirmation (node joined the target scheduler) ---------------------

    def _on_pbs_node_event(self, event: str, hostname: str) -> None:
        if event == self.pbs.join_event:
            self._confirm("linux", hostname)

    def _on_win_node_event(self, event: str, hostname: str) -> None:
        if event == self.winhpc.join_event:
            self._confirm("windows", hostname)

    def _confirm(self, target_os: str, hostname: str) -> None:
        if hostname in self._expected_rejoins:
            # a fenced node rebooting back is not a switch landing
            self._expected_rejoins.discard(hostname)
            return
        order = next(
            (o for o in self._pending.values() if o.target_os == target_os), None
        )
        if order is None:
            return
        del self._pending[order.order_id]
        order.state = OrderState.CONFIRMED
        order.resolved_at = self.pbs.sim.now
        order.node = hostname
        self.orders_confirmed += 1
        self.tracer.emit(
            "order.confirmed",
            node=hostname,
            order_id=order.order_id,
            target_os=target_os,
            latency_s=order.resolved_at - order.issued_at,
        )

    # -- node-failure hooks --------------------------------------------------

    def expect_rejoin(self, hostname: str) -> None:
        """Mark a fenced node: its next scheduler join confirms no order."""
        self._expected_rejoins.add(hostname)

    def abort_jobs(self, jobids, cause: str) -> int:
        """Fail every pending order whose batch job is in *jobids*.

        Called when a node fence terminally kills switch jobs (they are
        not rerunnable): the order can never be confirmed, so failing it
        now frees in-flight capacity immediately instead of waiting out
        the watchdog.  Returns the number of orders aborted.
        """
        targets = {str(jobid) for jobid in jobids}
        aborted = [o for o in self._pending.values() if str(o.jobid) in targets]
        for order in aborted:
            del self._pending[order.order_id]
            order.state = OrderState.FAILED
            order.resolved_at = self.pbs.sim.now
            self.orders_failed += 1
            self.tracer.emit(
                "order.failed",
                cause=cause,
                order_id=order.order_id,
                target_os=order.target_os,
            )
        return len(aborted)

    # -- watchdog ------------------------------------------------------------

    def expire(self, now: float) -> List[SwitchOrderRecord]:
        """Fail every pending order past its deadline; cancel its batch job
        if the job is still queued (it never even found a donor node)."""
        expired = [o for o in self._pending.values() if now >= o.deadline]
        for order in expired:
            del self._pending[order.order_id]
            order.state = OrderState.FAILED
            order.resolved_at = now
            self.orders_failed += 1
            self.tracer.emit(
                "order.failed",
                cause="watchdog deadline passed",
                order_id=order.order_id,
                target_os=order.target_os,
            )
            self._cancel_stale_job(order)
        return expired

    def _cancel_stale_job(self, order: SwitchOrderRecord) -> None:
        donor = self.pbs if order.target_os == "windows" else self.winhpc
        donor.cancel_if_queued(order.jobid)


class LinuxCommunicator:
    """The deciding daemon on the OSCAR head node (steps 3-5)."""

    def __init__(
        self,
        sim: Simulator,
        listener: PortListener,
        detector: Any,
        policy: SwitchPolicy,
        orders: SwitchOrders,
        cores_per_node: int,
        host: Host,
        ack_port: int,
        cycle_s: float,
        staleness_cycles: int = 3,
    ) -> None:
        if staleness_cycles < 1:
            raise MiddlewareError("staleness cap must be >= 1 cycle")
        self.sim = sim
        self.tracer = sim.tracer
        self.listener = listener
        self.detector = detector
        self.policy = policy
        self.orders = orders
        self.cores_per_node = cores_per_node
        self.host = host
        self.ack_port = ack_port
        self.cycle_s = cycle_s
        self.staleness_cycles = staleness_cycles
        self.decisions: List[DecisionRecord] = []
        # hardened-path state: the timestamped last valid Windows report
        self.last_windows_state: Optional[QueueStateMessage] = None
        self.last_windows_wire: str = ""
        self.last_report_at: Optional[float] = None
        self._epoch = sim.now
        self.reports_received = 0
        self.corrupt_reports = 0
        self.stale_skips = 0
        self.acks_sent = 0

    # -- views & decisions ---------------------------------------------------

    @property
    def staleness_cap_s(self) -> float:
        """Oldest acceptable report age."""
        return self.staleness_cycles * self.cycle_s

    def views(self, windows_state: QueueStateMessage):
        """Assemble both sides' ClusterViews from live scheduler state."""
        linux_report = self.detector.check()
        _trace_check(self.tracer, self.host, "linux", linux_report)
        pbs = self.orders.pbs
        win = self.orders.winhpc
        linux_view = ClusterView(
            state=linux_report.message,
            idle_nodes=pbs.idle_node_count(),
            total_nodes=pbs.online_node_count(),
            pending_switches=self.orders.in_flight("linux"),
        )
        windows_view = ClusterView(
            state=windows_state,
            idle_nodes=win.idle_node_count(),
            total_nodes=win.online_node_count(),
            pending_switches=self.orders.in_flight("windows"),
        )
        return linux_report, linux_view, windows_view

    def _evaluate(
        self, windows_state: QueueStateMessage, windows_wire: str
    ) -> SwitchDecision:
        linux_report, linux_view, windows_view = self.views(windows_state)
        decision = self.policy.decide(
            linux_view, windows_view, self.cores_per_node
        )
        self.decisions.append(
            DecisionRecord(
                time=self.sim.now,
                windows_wire=windows_wire,
                linux_wire=linux_report.wire,
                decision=decision,
            )
        )
        fields = {
            "action": "switch" if decision.is_switch else "hold",
            "num_nodes": decision.num_nodes,
            "reason": decision.reason,
            "windows_wire": windows_wire,
            "linux_wire": linux_report.wire,
        }
        if decision.target_os is not None:
            fields["target_os"] = decision.target_os
        if self.last_report_at is not None:
            fields["report_age_s"] = self.sim.now - self.last_report_at
        fields["staleness_cap_s"] = self.staleness_cap_s
        self.tracer.emit("control.decision", **fields)
        self.orders.issue(decision)
        return decision

    # -- hardened receive path -----------------------------------------------

    def _on_message(self, message: Message) -> Optional[SwitchDecision]:
        """Tolerant ingest: decode, ack, decide — never raises on bad wire."""
        wire = message.payload
        try:
            windows_state = QueueStateMessage.decode(wire)
        except (MiddlewareError, TypeError, AttributeError) as exc:
            self.corrupt_reports += 1
            self.tracer.emit(
                "comm.report_corrupt",
                cause=type(exc).__name__,
                wire=str(wire)[:80],
            )
            return None
        self.reports_received += 1
        self.last_windows_state = windows_state
        self.last_windows_wire = wire
        self.last_report_at = self.sim.now
        self.tracer.emit(
            "comm.report_received",
            wire=wire,
            via="network",
            src=message.src,
        )
        self.host.send(message.src, self.ack_port, ("ack", wire))
        self.acks_sent += 1
        self.tracer.emit("comm.ack_sent", wire=wire, dst=message.src)
        return self._evaluate(windows_state, wire)

    def tick(self) -> None:
        """Heartbeat evaluation between reports (driven by the daemon).

        * report fresher than one cycle: receipt-time evaluation already
          covered it — do nothing;
        * older than a cycle but within the staleness cap: re-evaluate with
          the last state (a lost report must not freeze the control loop);
        * older than the cap: record an explicit no-switch decision — the
          guard that keeps stale data from triggering reboots.
        """
        cap = self.staleness_cap_s
        age = self.sim.now - (
            self.last_report_at if self.last_report_at is not None else self._epoch
        )
        if age <= self.cycle_s:
            return
        if age <= cap and self.last_windows_state is not None:
            self._evaluate(self.last_windows_state, self.last_windows_wire)
            return
        self.stale_skips += 1
        self.tracer.emit("comm.stale_skip", age_s=age, cap_s=cap)
        self.decisions.append(
            DecisionRecord(
                time=self.sim.now,
                windows_wire=self.last_windows_wire,
                linux_wire="",
                decision=SwitchDecision.nothing(
                    f"windows report stale (age {age:.0f}s > cap {cap:.0f}s)"
                ),
            )
        )

    def run(self):
        """Daemon process: react to every incoming queue-state message."""
        while True:
            message = yield self.listener.get()
            self._on_message(message)


class WindowsCommunicator:
    """The reporting daemon on the Windows head node (steps 1-2)."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        detector: Any,
        linux_head: str,
        port: int,
        cycle_s: float,
        ack_listener: PortListener,
        rng: RngStreams,
        max_retries: int = 2,
        retry_base_s: float = 5.0,
        ack_timeout_s: float = 10.0,
    ) -> None:
        if cycle_s <= 0:
            raise MiddlewareError("communicator cycle must be positive")
        if max_retries < 0:
            raise MiddlewareError("max_retries must be >= 0")
        if retry_base_s <= 0 or ack_timeout_s <= 0:
            raise MiddlewareError("retry/ack timings must be positive")
        self.sim = sim
        self.host = host
        self.detector = detector
        self.linux_head = linux_head
        self.port = port
        self.cycle_s = cycle_s
        self.ack_listener = ack_listener
        self.max_retries = max_retries
        self.retry_base_s = retry_base_s
        self.ack_timeout_s = ack_timeout_s
        self.rng = rng
        self.tracer = sim.tracer
        self.reports_sent = 0      # network sends, including retries
        self.reports_acked = 0
        self.reports_failed = 0    # gave up after every retry
        self.retries = 0
        self._cycle_index = 0      # current cycle, for trace context

    def _trace(self, kind: str, **fields) -> None:
        self.tracer.emit(
            kind, node=self.host.name, cycle=self._cycle_index, **fields
        )

    def _send_report(self, wire: str):
        """Send one report and wait for its ack; retry unacked sends with
        exponential backoff plus seeded jitter."""
        for attempt in range(self.max_retries + 1):
            while self.ack_listener.try_get() is not None:
                pass  # drain acks from earlier cycles
            self.host.send(self.linux_head, self.port, wire)
            self.reports_sent += 1
            self._trace("comm.report_sent", wire=wire, attempt=attempt)
            yield Timeout(self.ack_timeout_s)
            ack = self.ack_listener.try_get()
            while ack is not None and ack.payload != ("ack", wire):
                ack = self.ack_listener.try_get()
            if ack is not None:
                self.reports_acked += 1
                self._trace("comm.report_acked", wire=wire, attempt=attempt)
                return
            if attempt < self.max_retries:
                self.retries += 1
                backoff = self.retry_base_s * (2 ** attempt) + self.rng.uniform(
                    "commswin:retry-jitter", 0.0, self.retry_base_s
                )
                self._trace("comm.retry", attempt=attempt, backoff_s=backoff)
                yield Timeout(backoff)
        self.reports_failed += 1
        self._trace(
            "comm.report_lost", cause="no ack after retries", wire=wire
        )

    def run(self):
        """Daemon process: report the Windows queue state every cycle.

        Cycle boundaries stay anchored to the start epoch, so retries never
        skew the long-run reporting cadence.
        """
        epoch = self.sim.now
        cycle_index = 0
        while True:
            self._cycle_index = cycle_index
            report = self.detector.check()
            _trace_check(self.tracer, self.host, "windows", report)
            yield from self._send_report(report.wire)
            cycle_index += 1
            next_at = epoch + cycle_index * self.cycle_s
            if next_at > self.sim.now:
                yield Timeout(next_at - self.sim.now)
