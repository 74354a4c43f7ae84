"""Property tests for the indexed trace invariants.

``confirmed-order-has-boot`` indexes the boots by node and
``no-job-lost`` indexes running attempts by short host name.  The
oracle is the plain scan each replaced, kept below verbatim: over random
forged traces (legal or not, time order or not) both must report the
same violations, with the same messages, in the same order.
"""

from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.trace import INVARIANTS, TraceEvent
from repro.trace import events as ev
from repro.trace.invariants import _TIME_EPS, Violation, _violate


def _reference_confirmed_order_has_boot(events) -> List[Violation]:
    out: List[Violation] = []
    issued_at: Dict[str, float] = {}
    for e in events:
        if e.kind == ev.ORDER_ISSUED:
            order_id = e.fields.get("order_id")
            if order_id is not None:
                issued_at[str(order_id)] = e.time
    boots = [e for e in events if e.kind == ev.BOOT_COMPLETE]
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
            b.node == e.node
            and b.fields.get("os") == target_os
            and t_issue - _TIME_EPS <= b.time <= e.time + _TIME_EPS
            for b in boots)
        if not matched:
            out.append(_violate(
                "confirmed-order-has-boot",
                f"order {order_id} confirmed on {e.node} for "
                f"{target_os!r} without a matching boot.complete in "
                f"[{t_issue}, {e.time}]", e))
    return out


def _reference_no_job_lost(events) -> List[Violation]:
    name = "no-job-lost"
    out: List[Violation] = []
    JOB_KINDS = (ev.JOB_SUBMITTED, ev.JOB_STARTED, ev.JOB_FINISHED,
                 ev.JOB_REQUEUED, ev.JOB_FAILED)
    state: Dict[tuple, str] = {}
    hosts: Dict[tuple, List[str]] = {}
    pending_fence: Dict[tuple, TraceEvent] = {}
    for e in events:
        if e.kind == ev.HEALTH_FENCED:
            if e.node is None:
                continue
            for key, running_hosts in hosts.items():
                if state.get(key) == "running" and e.node in running_hosts:
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
            hosts[key] = [
                str(h).split(".")[0] for h in e.fields.get("hosts", ())
            ]
        elif e.kind == ev.JOB_REQUEUED:
            if current != "running":
                out.append(_violate(
                    name, f"job {key} requeued while {current}", e))
            state[key] = "queued"
            hosts.pop(key, None)
            pending_fence.pop(key, None)
        else:
            state[key] = "done"
            hosts.pop(key, None)
            pending_fence.pop(key, None)
    for key, fence in pending_fence.items():
        out.append(_violate(
            name,
            f"job {key} was running on fenced node {fence.node} and was "
            f"never requeued, failed, or finished", fence))
    return out


# Few jobs over few hosts, most of them submitted up front, so fences
# often hit several running jobs.
JOBS = [(s, j) for s in ("pbs", "slurm") for j in ("1", "2", "3")]
HOSTS = ["enode01", "enode02", "enode02.cluster", "enode03"]
times = st.sampled_from([0.0, 1.0, 2.0, 2.0 + 1e-10, 3.0, 5.0])
nodes = st.one_of(st.none(),
                  st.sampled_from(["enode01", "enode02", "enode01.cluster"]))
oses = st.sampled_from([None, "linux", "windows"])


def _job(kind, key, hosts=()):
    return (kind, None, {"scheduler": key[0], "jobid": key[1],
                         "hosts": list(hosts)})


submits = st.lists(st.sampled_from(JOBS), min_size=2, unique=True).map(
    lambda keys: [_job(ev.JOB_SUBMITTED, key) for key in keys])
job_events = st.builds(
    _job,
    st.sampled_from([ev.JOB_SUBMITTED, ev.JOB_STARTED, ev.JOB_STARTED,
                     ev.JOB_STARTED, ev.JOB_REQUEUED, ev.JOB_FINISHED,
                     ev.JOB_FAILED]),
    st.sampled_from(JOBS),
    st.lists(st.sampled_from(HOSTS), min_size=1, max_size=3),
)
fence_events = st.tuples(st.just(ev.HEALTH_FENCED), nodes, st.just({}))
order_events = st.tuples(
    st.sampled_from([ev.ORDER_ISSUED, ev.ORDER_CONFIRMED]),
    nodes,
    st.fixed_dictionaries({
        "order_id": st.sampled_from([None, 1, 2, 3]),
        "target_os": oses,
    }),
)
boot_events = st.tuples(st.just(ev.BOOT_COMPLETE), nodes,
                        st.fixed_dictionaries({"os": oses}))
body = st.lists(st.sampled_from(
    [job_events] * 4 + [fence_events] * 2 + [order_events, boot_events],
).flatmap(lambda events: events), min_size=10, max_size=50)
traces = st.builds(
    lambda head, tail, clock: [
        TraceEvent(seq=i, time=clock[i % len(clock)], kind=kind, node=node,
                   fields=fields)
        for i, (kind, node, fields) in enumerate(head + tail)
    ],
    submits, body, st.lists(times, min_size=1, max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(events=traces)
def test_indexed_invariants_match_the_plain_scans(events):
    assert INVARIANTS["confirmed-order-has-boot"](events) == \
        _reference_confirmed_order_has_boot(events)
    assert INVARIANTS["no-job-lost"](events) == _reference_no_job_lost(events)
