"""The indexed switch-order ledger equals a linear scan of its history.

``SwitchOrders`` confirms, aborts, expires and counts orders through an
index of the pending ones instead of walking every order ever issued.
A reference ledger below does the walk over the full ``orders`` list,
exactly as the unindexed code did.  Both are driven through the same
random histories (issues toward either OS, node joins and leaves on both
schedulers, fenced nodes that rejoin, fence aborts, watchdog passes at
advancing times), and after every step they must agree on the in-flight
count per target, the state of every order (which join confirmed which
order), what each abort and expire pass resolved, the batch jobs the
watchdog cancelled, and every ``order.*`` event emitted.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.communicator import SwitchOrders
from repro.core.policy import SwitchDecision
from repro.core.switchjob import OrderState, SwitchOrderRecord

TIMEOUT_S = 900.0
HOSTS = ("enode01", "enode02", "enode03")


class RecordingTracer:
    def __init__(self):
        self.events = []

    def emit(self, kind, **fields):
        self.events.append((kind, fields))


class FakeScheduler:
    """The slice of a scheduler personality the ledger talks to."""

    join_event = "join"

    def __init__(self, clock, prefix, cancelled):
        self.sim = clock
        self.prefix = prefix
        self.node_observers = []
        self.cancelled = cancelled
        self._next = 1

    def submit_switch_job(self, script, owner):
        jobid = f"{self._next}.{self.prefix}"
        self._next += 1
        return jobid

    def cancel_if_queued(self, jobid):
        self.cancelled.append(jobid)

    def node_event(self, event, hostname):
        for observer in list(self.node_observers):
            observer(event, hostname)


class FakeController:
    has_cluster_flag = False

    def linux_switch_script(self, target):
        return f"reboot to {target}"

    windows_switch_script = linux_switch_script


class ReferenceOrders:
    """The unindexed ledger: every operation scans the whole history."""

    def __init__(self, clock, tracer, cancelled):
        self.clock = clock
        self.tracer = tracer
        self.cancelled = cancelled
        self.orders = []
        self.expected_rejoins = set()
        self.jobs = {"windows": 0, "linux": 0}

    def in_flight(self, target_os):
        return sum(
            1 for o in self.orders
            if o.state is OrderState.PENDING and o.target_os == target_os
        )

    def issue(self, target_os, count):
        prefix = "pbs" if target_os == "windows" else "win"
        for _ in range(count):
            self.jobs[target_os] += 1
            order_id = len(self.orders) + 1
            jobid = f"{self.jobs[target_os]}.{prefix}"
            self.orders.append(SwitchOrderRecord(
                order_id=order_id, target_os=target_os,
                issued_at=self.clock.now, deadline=self.clock.now + TIMEOUT_S,
                jobid=jobid,
            ))
            self.tracer.emit("order.issued", order_id=order_id,
                             target_os=target_os, jobid=jobid,
                             deadline_s=TIMEOUT_S)

    def join(self, target_os, hostname):
        if hostname in self.expected_rejoins:
            self.expected_rejoins.discard(hostname)
            return
        for order in self.orders:
            if order.state is OrderState.PENDING and order.target_os == target_os:
                order.state = OrderState.CONFIRMED
                order.resolved_at = self.clock.now
                order.node = hostname
                self.tracer.emit("order.confirmed", node=hostname,
                                 order_id=order.order_id, target_os=target_os,
                                 latency_s=order.resolved_at - order.issued_at)
                return

    def abort_jobs(self, jobids, cause):
        targets = {str(jobid) for jobid in jobids}
        aborted = 0
        for order in self.orders:
            if order.state is OrderState.PENDING and order.jobid in targets:
                order.state = OrderState.FAILED
                order.resolved_at = self.clock.now
                aborted += 1
                self.tracer.emit("order.failed", cause=cause,
                                 order_id=order.order_id,
                                 target_os=order.target_os)
        return aborted

    def expire(self, now):
        expired = []
        for order in self.orders:
            if order.state is OrderState.PENDING and now >= order.deadline:
                order.state = OrderState.FAILED
                order.resolved_at = now
                self.tracer.emit("order.failed",
                                 cause="watchdog deadline passed",
                                 order_id=order.order_id,
                                 target_os=order.target_os)
                self.cancelled.append(order.jobid)
                expired.append(order)
        return expired


targets = st.sampled_from(["windows", "linux"])
hosts = st.sampled_from(HOSTS)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("issue"), targets, st.integers(1, 3)),
        st.tuples(st.just("join"), targets, hosts),
        st.tuples(st.just("join"), targets, hosts),
        st.tuples(st.just("leave"), targets, hosts),
        st.tuples(st.just("expect_rejoin"), hosts),
        st.tuples(st.just("abort"), st.lists(st.integers(0, 12), max_size=3)),
        st.tuples(st.just("expire"), st.sampled_from([0.0, 60.0, 300.0, 900.0])),
    ),
    max_size=50,
)


def snapshot(records):
    return [(o.order_id, o.target_os, o.state, o.resolved_at, o.node)
            for o in records]


@settings(max_examples=300, deadline=None)
@given(program=ops)
def test_indexed_ledger_matches_a_scan_of_the_history(program):
    tracer, ref_tracer = RecordingTracer(), RecordingTracer()
    clock = SimpleNamespace(now=0.0, tracer=tracer)
    cancelled, ref_cancelled = [], []
    pbs = FakeScheduler(clock, "pbs", cancelled)
    winhpc = FakeScheduler(clock, "win", cancelled)
    ledger = SwitchOrders(pbs, winhpc, FakeController(),
                          order_timeout_s=TIMEOUT_S)
    reference = ReferenceOrders(clock, ref_tracer, ref_cancelled)

    for op in program:
        kind = op[0]
        if kind == "issue":
            ledger.issue(SwitchDecision(target_os=op[1], num_nodes=op[2]))
            reference.issue(op[1], op[2])
        elif kind in ("join", "leave"):
            side = pbs if op[1] == "linux" else winhpc
            side.node_event(kind, op[2])
            if kind == "join":
                reference.join(op[1], op[2])
        elif kind == "expect_rejoin":
            ledger.expect_rejoin(op[1])
            reference.expected_rejoins.add(op[1])
        elif kind == "abort":
            # indices past the issued orders name jobs no order owns
            jobids = [
                ledger.orders[i].jobid if i < len(ledger.orders) else f"{i}.gone"
                for i in op[1]
            ]
            assert (ledger.abort_jobs(jobids, cause="fenced")
                    == reference.abort_jobs(jobids, cause="fenced"))
        else:
            clock.now += op[1]
            assert (snapshot(ledger.expire(clock.now))
                    == snapshot(reference.expire(clock.now)))

        for target in ("windows", "linux"):
            assert ledger.in_flight(target) == reference.in_flight(target)
        assert snapshot(ledger.orders) == snapshot(reference.orders)
        assert tracer.events == ref_tracer.events
        assert cancelled == ref_cancelled

    states = [o.state for o in reference.orders]
    assert ledger.orders_issued == len(states)
    assert ledger.orders_confirmed == states.count(OrderState.CONFIRMED)
    assert ledger.orders_failed == states.count(OrderState.FAILED)
