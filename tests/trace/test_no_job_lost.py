"""Synthetic traces for the ``no-job-lost`` invariant.

These exercise the job-lifecycle state machine directly: legal lives
(including eviction-and-rerun after a fence) stay clean, and every
class of bookkeeping lie — resurrection after a terminal event, a start
from thin air, a fence whose evictions are never discharged — is
flagged.
"""

from repro.trace import INVARIANTS


def make_events(*specs):
    """Synthetic trace: each spec is (time, kind, node, fields)."""
    from repro.trace import TraceEvent

    return [
        TraceEvent(seq=i, time=t, kind=kind, node=node, fields=fields)
        for i, (t, kind, node, fields) in enumerate(specs)
    ]


def violations_of(events):
    return INVARIANTS["no-job-lost"](events)


def job(jobid, scheduler="pbs", **extra):
    return {"scheduler": scheduler, "jobid": jobid, **extra}


# -- clean lives --------------------------------------------------------------


def test_plain_life_is_clean():
    events = make_events(
        (0.0, "job.submitted", None, job("1.master")),
        (1.0, "job.started", None, job("1.master", hosts=["enode01"])),
        (100.0, "job.finished", None, job("1.master", exit_status=0)),
    )
    assert violations_of(events) == []


def test_eviction_and_rerun_is_clean():
    """The canonical resilience story: fence -> requeue -> rerun."""
    events = make_events(
        (0.0, "job.submitted", None, job("1.master")),
        (1.0, "job.started", None, job("1.master", hosts=["enode01"])),
        (50.0, "health.fenced", "enode01", {"misses": 5}),
        (50.0, "job.requeued", None, job("1.master", restarts=1)),
        (51.0, "job.started", None, job("1.master", hosts=["enode02"])),
        (151.0, "job.finished", None, job("1.master", exit_status=0)),
    )
    assert violations_of(events) == []


def test_terminal_failure_after_fence_is_clean():
    """A non-rerunnable job may die with the node — failed, not lost."""
    events = make_events(
        (0.0, "job.submitted", None, job("7")),
        (1.0, "job.started", None, job("7", hosts=["enode03"])),
        (40.0, "health.fenced", "enode03", {"misses": 5}),
        (40.0, "job.failed", None, job("7", exit_status=271)),
    )
    assert violations_of(events) == []


def test_still_queued_at_end_of_trace_is_clean():
    events = make_events(
        (0.0, "job.submitted", None, job("9")),
    )
    assert violations_of(events) == []


def test_same_jobid_on_both_schedulers_is_tracked_separately():
    events = make_events(
        (0.0, "job.submitted", None, job("3", scheduler="pbs")),
        (0.0, "job.submitted", None, job("3", scheduler="winhpc")),
        (1.0, "job.started", None, job("3", scheduler="pbs",
                                       hosts=["enode01"])),
        (2.0, "job.started", None, job("3", scheduler="winhpc",
                                       hosts=["enode02"])),
        (90.0, "job.finished", None, job("3", scheduler="pbs")),
        (95.0, "job.finished", None, job("3", scheduler="winhpc")),
    )
    assert violations_of(events) == []


def test_fence_resolved_by_finish_is_clean():
    """A fenced node's job that still manages to finish (e.g. it was
    reconciled on fast rejoin) discharges the fence obligation."""
    events = make_events(
        (0.0, "job.submitted", None, job("2")),
        (1.0, "job.started", None, job("2", hosts=["enode01.cluster"])),
        (30.0, "health.fenced", "enode01", {"misses": 5}),
        (130.0, "job.finished", None, job("2", exit_status=0)),
    )
    assert violations_of(events) == []


# -- violations ---------------------------------------------------------------


def test_event_after_terminal_is_flagged():
    events = make_events(
        (0.0, "job.submitted", None, job("1")),
        (1.0, "job.started", None, job("1", hosts=["enode01"])),
        (50.0, "job.failed", None, job("1", exit_status=271)),
        (60.0, "job.started", None, job("1", hosts=["enode02"])),
    )
    out = violations_of(events)
    assert len(out) == 1
    assert "after a terminal event" in out[0].message


def test_started_while_not_queued_is_flagged():
    events = make_events(
        (0.0, "job.submitted", None, job("1")),
        (1.0, "job.started", None, job("1", hosts=["enode01"])),
        (2.0, "job.started", None, job("1", hosts=["enode02"])),
    )
    out = violations_of(events)
    assert len(out) == 1
    assert "started while running" in out[0].message


def test_requeued_while_not_running_is_flagged():
    events = make_events(
        (0.0, "job.submitted", None, job("1")),
        (1.0, "job.requeued", None, job("1", restarts=1)),
    )
    out = violations_of(events)
    assert len(out) == 1
    assert "requeued while queued" in out[0].message


def test_submitted_twice_is_flagged():
    events = make_events(
        (0.0, "job.submitted", None, job("1")),
        (1.0, "job.submitted", None, job("1")),
    )
    out = violations_of(events)
    assert len(out) == 1
    assert "submitted twice" in out[0].message


def test_started_without_submit_is_flagged():
    events = make_events(
        (1.0, "job.started", None, job("1", hosts=["enode01"])),
        (90.0, "job.finished", None, job("1")),
    )
    out = violations_of(events)
    assert "before job.submitted" in out[0].message


def test_job_lost_on_fenced_node_is_flagged():
    """The headline case: a fence hits a running job and the scheduler
    never requeues, fails, or finishes it — the job simply vanishes."""
    events = make_events(
        (0.0, "job.submitted", None, job("1")),
        (1.0, "job.started", None, job("1", hosts=["enode01"])),
        (50.0, "health.fenced", "enode01", {"misses": 5}),
    )
    out = violations_of(events)
    assert len(out) == 1
    assert "never requeued, failed, or finished" in out[0].message
    assert "enode01" in out[0].message


def test_fence_of_idle_node_imposes_no_obligation():
    events = make_events(
        (0.0, "job.submitted", None, job("1")),
        (1.0, "job.started", None, job("1", hosts=["enode01"])),
        (50.0, "health.fenced", "enode02", {"misses": 5}),
    )
    assert violations_of(events) == []


def test_registered_in_battery():
    assert "no-job-lost" in INVARIANTS


def test_fence_hitting_several_jobs_reports_them_in_start_order():
    """One fence hits several running jobs over several hosts.  The
    trailing reports follow the order the fences took the jobs, and a
    fence takes its jobs in the order their attempts started: a job
    requeued and restarted goes to the back, a job restarted without a
    requeue keeps its place."""
    events = make_events(
        *[(0.0, "job.submitted", None, job(j)) for j in "ABCDE"],
        (1.0, "job.started", None, job("C", hosts=["enode02", "enode01"])),
        (2.0, "job.started", None, job("A", hosts=["enode01.cluster",
                                                   "enode03"])),
        (3.0, "job.started", None, job("B", hosts=["enode03"])),
        (4.0, "job.started", None, job("D", hosts=["enode01"])),
        (5.0, "job.started", None, job("E", hosts=["enode04"])),
        (6.0, "job.requeued", None, job("D", restarts=1)),
        (7.0, "job.started", None, job("D", hosts=["enode01"])),
        (8.0, "job.started", None, job("C", hosts=["enode01"])),
        (50.0, "health.fenced", "enode03", {"misses": 5}),
        (60.0, "health.fenced", "enode01", {"misses": 5}),
        (70.0, "job.finished", None, job("B", exit_status=0)),
        (80.0, "health.fenced", "enode04", {"misses": 5}),
        (90.0, "health.fenced", "enode02", {"misses": 5}),
    )
    lost = ("job ('pbs', '{}') was running on fenced node {} and was "
            "never requeued, failed, or finished")
    assert [(v.seq, v.message) for v in violations_of(events)] == [
        (12, "job ('pbs', 'C') started while running"),
        (13, lost.format("A", "enode03")),
        (14, lost.format("C", "enode01")),
        (14, lost.format("D", "enode01")),
        (16, lost.format("E", "enode04")),
    ]
