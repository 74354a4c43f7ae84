"""Trace-driven invariant checks: the post-hoc correctness oracle.

Each invariant is a function ``events -> list[Violation]`` registered in
:data:`INVARIANTS`.  They encode end-to-end properties of the paper's
control loop that aggregate counters cannot see — e.g. that a CONFIRMED
switch order really was preceded by a matching reboot of that node, or
that no decision ever consumed a Windows report older than the staleness
cap.  ``check_events``/``check_jsonl`` run the whole battery over any
experiment's trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from itertools import count
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.trace import events as ev
from repro.trace.events import TraceEvent

#: Two events at the "same" simulation instant may differ by float noise.
_TIME_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the offending event."""

    invariant: str
    message: str
    seq: Optional[int] = None
    time: Optional[float] = None

    def __str__(self) -> str:
        where = "" if self.seq is None else f" (event #{self.seq} @ t={self.time})"
        return f"[{self.invariant}] {self.message}{where}"


InvariantFn = Callable[[Sequence[TraceEvent]], List[Violation]]

INVARIANTS: Dict[str, InvariantFn] = {}


def invariant(name: str) -> Callable[[InvariantFn], InvariantFn]:
    def register(fn: InvariantFn) -> InvariantFn:
        INVARIANTS[name] = fn
        return fn
    return register


def _violate(name: str, message: str,
             event: Optional[TraceEvent] = None) -> Violation:
    if event is None:
        return Violation(invariant=name, message=message)
    return Violation(invariant=name, message=message,
                     seq=event.seq, time=event.time)


# ---------------------------------------------------------------------------
# 1. Simulation time never runs backwards.
# ---------------------------------------------------------------------------

@invariant("monotonic-time")
def check_monotonic_time(events: Sequence[TraceEvent]) -> List[Violation]:
    """Event times are non-decreasing in emission order."""
    out: List[Violation] = []
    last = None
    for e in events:
        if last is not None and e.time < last - _TIME_EPS:
            out.append(_violate(
                "monotonic-time",
                f"time went backwards: {last} -> {e.time} at {e.kind}", e))
        last = e.time
    return out


# ---------------------------------------------------------------------------
# 2. Every CONFIRMED switch order has a matching reboot span.
# ---------------------------------------------------------------------------

@invariant("confirmed-order-has-boot")
def check_confirmed_order_has_boot(
        events: Sequence[TraceEvent]) -> List[Violation]:
    """An ``order.confirmed`` implies the node completed a boot into the
    ordered OS between the order being issued and being confirmed.

    Confirmation happens when the node rejoins the target scheduler,
    which fires while the OS is starting — i.e. possibly *before* the
    ``boot.complete`` record at the same simulation instant — so the
    window comparison is by time with epsilon, not by sequence number.
    """
    out: List[Violation] = []
    issued_at: Dict[str, float] = {}
    boots: Dict[Optional[str], List[Tuple[float, Any]]] = {}  # node -> (t, os)
    for e in events:
        if e.kind == ev.ORDER_ISSUED:
            order_id = e.fields.get("order_id")
            if order_id is not None:
                issued_at[str(order_id)] = e.time
        elif e.kind == ev.BOOT_COMPLETE:
            boots.setdefault(e.node, []).append((e.time, e.fields.get("os")))
    for e in events:
        if e.kind != ev.ORDER_CONFIRMED:
            continue
        order_id = str(e.fields.get("order_id"))
        target_os = e.fields.get("target_os")
        if order_id not in issued_at:
            out.append(_violate(
                "confirmed-order-has-boot",
                f"order {order_id} confirmed but never issued", e))
            continue
        t_issue = issued_at[order_id]
        matched = any(
            os_name == target_os
            and t_issue - _TIME_EPS <= t_boot <= e.time + _TIME_EPS
            for t_boot, os_name in boots.get(e.node, ()))
        if not matched:
            out.append(_violate(
                "confirmed-order-has-boot",
                f"order {order_id} confirmed on {e.node} for "
                f"{target_os!r} without a matching boot.complete in "
                f"[{t_issue}, {e.time}]", e))
    return out


# ---------------------------------------------------------------------------
# 3. No decision consumes a report older than the staleness cap.
# ---------------------------------------------------------------------------

@invariant("decision-freshness")
def check_decision_freshness(events: Sequence[TraceEvent]) -> List[Violation]:
    """Every ``control.decision`` that records a report age must have
    ``report_age_s <= staleness_cap_s``.  A correctly-hardened
    communicator skips the evaluation entirely (emitting
    ``comm.stale_skip``) instead of deciding on stale data.
    """
    out: List[Violation] = []
    for e in events:
        if e.kind != ev.CONTROL_DECISION:
            continue
        age = e.fields.get("report_age_s")
        cap = e.fields.get("staleness_cap_s")
        if age is None or cap is None:
            continue
        if float(age) > float(cap) + _TIME_EPS:
            out.append(_violate(
                "decision-freshness",
                f"decision consumed a report {float(age):.1f}s old "
                f"(cap {float(cap):.1f}s)", e))
    return out


# ---------------------------------------------------------------------------
# 4. Node OS state never changes without a boot-chain span.
# ---------------------------------------------------------------------------

@invariant("os-change-has-boot-chain")
def check_os_change_has_boot_chain(
        events: Sequence[TraceEvent]) -> List[Violation]:
    """``node.os_up`` may only happen inside an open boot span
    (``boot.start`` .. ``boot.complete``/``boot.failed``) on that node.
    """
    out: List[Violation] = []
    boot_open: Dict[str, bool] = {}
    for e in events:
        if e.node is None:
            continue
        if e.kind == ev.BOOT_START:
            boot_open[e.node] = True
        elif e.kind == ev.NODE_OS_UP:
            if not boot_open.get(e.node):
                out.append(_violate(
                    "os-change-has-boot-chain",
                    f"{e.node} came up as {e.fields.get('os')!r} with no "
                    f"open boot span", e))
        elif e.kind == ev.BOOT_COMPLETE or e.kind == ev.BOOT_FAILED:
            boot_open[e.node] = False
    return out


# ---------------------------------------------------------------------------
# 5. Every report the Linux side decoded was verbatim one the Windows
#    side sent (corruptions must fail decode, not smuggle wrong data in).
# ---------------------------------------------------------------------------

@invariant("received-was-sent")
def check_received_was_sent(events: Sequence[TraceEvent]) -> List[Violation]:
    """Each ``comm.report_received`` wire string must have appeared in
    an earlier-or-simultaneous ``comm.report_sent``."""
    out: List[Violation] = []
    sent_at: Dict[str, float] = {}
    for e in events:
        if e.kind == ev.COMM_REPORT_SENT:
            wire = e.fields.get("wire")
            if wire is not None and wire not in sent_at:
                sent_at[str(wire)] = e.time
        elif e.kind == ev.COMM_REPORT_RECEIVED:
            wire = str(e.fields.get("wire"))
            if wire not in sent_at or sent_at[wire] > e.time + _TIME_EPS:
                out.append(_violate(
                    "received-was-sent",
                    f"decoded wire {wire!r} was never sent (or was sent "
                    f"later)", e))
    return out


# ---------------------------------------------------------------------------
# 6. Switch-order ledger bookkeeping is sane.
# ---------------------------------------------------------------------------

@invariant("order-lifecycle")
def check_order_lifecycle(events: Sequence[TraceEvent]) -> List[Violation]:
    """Each order id is issued exactly once and resolved at most once
    (confirmed xor failed), with resolution not before issue.
    """
    out: List[Violation] = []
    issued: Dict[str, TraceEvent] = {}
    resolved: Dict[str, TraceEvent] = {}
    for e in events:
        if e.kind not in (ev.ORDER_ISSUED, ev.ORDER_CONFIRMED, ev.ORDER_FAILED):
            continue
        order_id = str(e.fields.get("order_id"))
        if e.kind == ev.ORDER_ISSUED:
            if order_id in issued:
                out.append(_violate(
                    "order-lifecycle",
                    f"order {order_id} issued twice", e))
            issued[order_id] = e
        else:
            if order_id not in issued:
                out.append(_violate(
                    "order-lifecycle",
                    f"order {order_id} resolved ({e.kind}) without being "
                    f"issued", e))
                continue
            if order_id in resolved:
                out.append(_violate(
                    "order-lifecycle",
                    f"order {order_id} resolved twice "
                    f"({resolved[order_id].kind} then {e.kind})", e))
                continue
            resolved[order_id] = e
            if e.time < issued[order_id].time - _TIME_EPS:
                out.append(_violate(
                    "order-lifecycle",
                    f"order {order_id} resolved before it was issued", e))
    return out


# ---------------------------------------------------------------------------
# 7. Faults only fire once the injector is armed.
# ---------------------------------------------------------------------------

@invariant("fault-after-arm")
def check_fault_after_arm(events: Sequence[TraceEvent]) -> List[Violation]:
    """Every ``fault.*`` event (other than ``fault.armed`` itself) must
    occur at or after an arming event — injected chaos never predates the
    injector being switched on.
    """
    out: List[Violation] = []
    armed_at: Optional[float] = None
    for e in events:
        if e.kind == ev.FAULT_ARMED:
            if armed_at is None or e.time < armed_at:
                armed_at = e.time
        elif e.kind.startswith(ev.FAULT_PREFIX):
            if armed_at is None or e.time < armed_at - _TIME_EPS:
                out.append(_violate(
                    "fault-after-arm",
                    f"{e.kind} fired before the injector was armed", e))
    return out


# ---------------------------------------------------------------------------
# 8. No job is ever lost: every submission ends completed, failed, or
#    still queued — and a node fence always resolves the jobs it evicted.
# ---------------------------------------------------------------------------

@invariant("no-job-lost")
def check_no_job_lost(events: Sequence[TraceEvent]) -> List[Violation]:
    """The job-lifecycle state machine holds for every traced job.

    Per ``(scheduler, jobid)``: ``submitted`` happens first and once;
    ``started`` only from queued; ``requeued`` only from running;
    ``finished``/``failed`` are terminal (from queued or running); no
    event follows a terminal one.  Additionally, every job attempt that
    was running on a node when ``health.fenced`` hit it must be resolved
    (requeued, failed, or finished) at-or-after the fence — a fenced
    node's jobs cannot simply vanish.

    Attempts are indexed by short host name, so a fence costs the jobs
    on the fenced node, not every running job.  A fence that hits
    several jobs takes them in the order their attempts started (an
    attempt restarted without an intervening requeue keeps its place),
    and the trailing reports follow the order the fences took them.
    """
    name = "no-job-lost"
    out: List[Violation] = []
    JOB_KINDS = (ev.JOB_SUBMITTED, ev.JOB_STARTED, ev.JOB_FINISHED,
                 ev.JOB_REQUEUED, ev.JOB_FAILED)
    state: Dict[tuple, str] = {}          # key -> queued|running|done
    # key -> (start order, current attempt's short host names)
    attempt: Dict[tuple, Tuple[int, List[str]]] = {}
    on_host: Dict[str, Dict[tuple, int]] = {}  # host -> {key: start order}
    starts = count()
    pending_fence: Dict[tuple, TraceEvent] = {}  # key -> the fence event

    def end_attempt(key: tuple) -> None:
        ended = attempt.pop(key, None)
        if ended is not None:
            for host in ended[1]:
                on_host[host].pop(key, None)

    for e in events:
        if e.kind == ev.HEALTH_FENCED:
            if e.node is None:
                continue
            hit = on_host.get(e.node)
            if hit:
                for key in sorted(hit, key=hit.__getitem__):
                    if state.get(key) == "running":
                        pending_fence.setdefault(key, e)
            continue
        if e.kind not in JOB_KINDS:
            continue
        key = (e.fields.get("scheduler"), str(e.fields.get("jobid")))
        current = state.get(key)
        if e.kind == ev.JOB_SUBMITTED:
            if current is not None:
                out.append(_violate(
                    name, f"job {key} submitted twice", e))
            state[key] = "queued"
            continue
        if current is None:
            out.append(_violate(
                name, f"job {key} saw {e.kind} before job.submitted", e))
            continue
        if current == "done":
            out.append(_violate(
                name, f"job {key} saw {e.kind} after a terminal event", e))
            continue
        if e.kind == ev.JOB_STARTED:
            if current != "queued":
                out.append(_violate(
                    name, f"job {key} started while {current}", e))
            state[key] = "running"
            previous = attempt.get(key)
            order = next(starts) if previous is None else previous[0]
            end_attempt(key)
            started_on = [
                str(h).split(".")[0] for h in e.fields.get("hosts", ())
            ]
            attempt[key] = (order, started_on)
            for host in started_on:
                on_host.setdefault(host, {})[key] = order
        elif e.kind == ev.JOB_REQUEUED:
            if current != "running":
                out.append(_violate(
                    name, f"job {key} requeued while {current}", e))
            state[key] = "queued"
            end_attempt(key)
            pending_fence.pop(key, None)
        else:  # finished / failed: terminal
            state[key] = "done"
            end_attempt(key)
            pending_fence.pop(key, None)
    for key, fence in pending_fence.items():
        out.append(_violate(
            name,
            f"job {key} was running on fenced node {fence.node} and was "
            f"never requeued, failed, or finished", fence))
    return out


# ---------------------------------------------------------------------------
# 9. The meter's states and joules follow from the power transitions, the
#    jobs' cores and the power model.
# ---------------------------------------------------------------------------

#: Job events after which the meter releases a job's cores.
_JOB_RELEASES = frozenset((ev.JOB_FINISHED, ev.JOB_FAILED, ev.JOB_REQUEUED))


@invariant("energy-conserved")
def check_energy_conserved(events: Sequence[TraceEvent]) -> List[Violation]:
    """Replay the energy meter from the trace and hold it to its output.

    ``energy.model`` gives the watt curve; each node's ``energy.state``
    events give its power state from attach on; busy cores are the
    ``cores`` of each ``job.started`` minus those of the same job's
    ``job.finished``/``job.failed``/``job.requeued``, counted only on
    metered nodes and clamped at zero, as the meter counts them.  Between
    events the draw is constant, so each node's joules are an exact sum
    of rectangles.  Every ``energy.state`` must carry the replayed
    ``busy_cores`` and ``watts``, every per-node ``energy.report`` the
    replayed joules, and the cluster report (no ``node``) the sum of the
    per-node reports.  A meter that drops spans, scales them (the leaky
    fixture) or charges the wrong watts (the short-core fixture) fails
    here.  Fields are read by name, so a renamed field fails the check
    instead of passing it vacuously.
    """
    # Imported here: the hardware layer imports the simulator, which
    # imports this package.
    from repro.energy.model import PowerModel
    from repro.hardware.node import NodeState

    name = "energy-conserved"
    out: List[Violation] = []
    model_fields = [f.name for f in dataclass_fields(PowerModel)]
    model: Optional[PowerModel] = None
    #: node -> [power state, busy cores, watts, last change t, joules]
    nodes: Dict[str, List[Any]] = {}
    jobs: Dict[Tuple[Any, str], Mapping[str, int]] = {}
    node_reported: Dict[str, float] = {}

    def integrate_to(account: List[Any], t: float) -> None:
        span = t - account[3]
        if span > 0.0:
            account[4] += account[2] * span
        account[3] = t

    for e in events:
        kind = e.kind
        try:
            if kind == ev.JOB_STARTED or kind in _JOB_RELEASES:
                if model is None:  # no meter yet, so none heard the job
                    continue
                key = (e.fields["scheduler"], str(e.fields["jobid"]))
                if kind == ev.JOB_STARTED:
                    cores = jobs[key] = e.fields["cores"]
                    sign = 1
                else:
                    cores = jobs.pop(key, None)
                    if cores is None:
                        continue
                    sign = -1
                t = e.time
                for host, held in cores.items():
                    account = nodes.get(host)
                    if account is not None:
                        integrate_to(account, t)
                        busy = max(0, account[1] + sign * held)
                        account[1] = busy
                        account[2] = model.node_watts(account[0], busy)
            elif kind == ev.ENERGY_STATE:
                if model is None or e.node is None:
                    out.append(_violate(
                        name, "energy.state without a node or before "
                        "energy.model", e))
                    continue
                state = NodeState(e.fields["state"])
                account = nodes.get(e.node)
                if account is None:  # the meter attaches the node
                    account = nodes[e.node] = [state, 0, 0.0, e.time, 0.0]
                integrate_to(account, e.time)
                account[0] = state
                account[2] = model.node_watts(state, account[1])
                busy, watts = e.fields["busy_cores"], e.fields["watts"]
                if busy != account[1] or watts != account[2]:
                    out.append(_violate(
                        name,
                        f"{e.node} {state.value} drew {watts} W with "
                        f"{busy} busy cores, but the replay gives "
                        f"{account[2]} W with {account[1]}", e))
            elif kind == ev.ENERGY_REPORT and e.node is not None:
                account = nodes.get(e.node)
                expected = 0.0
                if account is not None:
                    integrate_to(account, e.time)
                    expected = account[4]
                reported = float(e.fields["joules"])
                node_reported[e.node] = reported
                tolerance = max(1e-6, 1e-9 * abs(expected))
                if abs(reported - expected) > tolerance:
                    out.append(_violate(
                        name,
                        f"{e.node} reported {reported:.6f} J but its "
                        f"watt history integrates to {expected:.6f} J", e))
            elif kind == ev.ENERGY_REPORT:
                reported_total = float(e.fields["total_joules"])
                expected_total = sum(node_reported.values())
                tolerance = max(1e-6, 1e-9 * abs(expected_total))
                if abs(reported_total - expected_total) > tolerance:
                    out.append(_violate(
                        name,
                        f"cluster reported {reported_total:.6f} J but the "
                        f"per-node reports sum to {expected_total:.6f} J", e))
            elif kind == ev.ENERGY_MODEL:
                model = PowerModel(**{f: e.fields[f] for f in model_fields})
        except KeyError as missing:
            out.append(_violate(name, f"{kind} lacks field {missing}", e))
    return out


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def check_events(events: Sequence[TraceEvent],
                 names: Optional[Iterable[str]] = None) -> List[Violation]:
    """Run the selected invariants (default: all) over a trace."""
    selected = list(INVARIANTS) if names is None else list(names)
    out: List[Violation] = []
    for name in selected:
        out.extend(INVARIANTS[name](events))
    return out


def check_jsonl(text: str,
                names: Optional[Iterable[str]] = None) -> List[Violation]:
    """Run invariants over a JSONL export (see ``Tracer.export_jsonl``)."""
    from repro.trace.tracer import Tracer
    return check_events(Tracer.load_jsonl(text), names)
