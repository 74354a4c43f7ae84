"""The live detectors equal their text oracles over random scheduler histories.

``PbsDetector.check()`` reads the server's job lists directly; the
paper's ``checkqueue.pl`` scraped ``qstat -f`` instead.  After every
operation of a random history (submissions, cancels, node churn, time
passing) the report rebuilt from the rendered text must equal the live
one, field for field, with and without the eager CPU field.  The same
holds for SLURM and ``squeue``.  WinHPC has no text path: its live check
must equal a report built from a scan of every job the scheduler ever
took, filtered by state and ordered by the dispatch rule.  The kept
idle/online node counts must equal a scan of the node table.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.detector import (
    PbsDetector,
    WinHpcDetector,
    _build_report,
    qstat_report,
)
from repro.pbs import JobSpec, PbsCommands, PbsServer
from repro.sched.protocol import SWITCH_TAG, JobRequest
from repro.simkernel import Simulator
from repro.slurm.commands import squeue
from repro.slurm.controller import SlurmController
from repro.slurm.detector import SlurmDetector, squeue_report
from repro.winhpc.job import WinJobState, WinJobUnit
from repro.winhpc.scheduler import WinHpcScheduler
from repro.winhpc.nodestate import WinNodeState

NUM_NODES = 3
CORES = 4

#: workload names plus the switch-job name both detectors must filter out
names = st.sampled_from(["md", "sleep", "render", "release_1_node"])
node_ops = st.tuples(
    st.sampled_from(["up", "down", "cordon", "uncordon", "fence", "crash"]),
    st.integers(min_value=1, max_value=NUM_NODES),
)
run_op = st.tuples(st.just("run"), st.sampled_from([30.0, 200.0, 1000.0]))

pbs_submit = st.tuples(
    st.just("submit"), names,
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=CORES),
    st.sampled_from([60.0, 400.0, 2000.0]),
)
slurm_submit = st.tuples(
    st.just("submit"), names,
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=CORES),
    st.sampled_from([60.0, 400.0, 2000.0]),
    st.sampled_from([50, 100, 200]),
)

# a job tagged as a switch job whatever its name: workload to the PBS
# detector unless it is also named like one
pbs_tagged = st.tuples(
    st.just("tagged"), names, st.integers(min_value=1, max_value=CORES)
)

# submissions are listed twice so that queues actually build up
pbs_ops = st.lists(
    st.one_of(
        pbs_submit,
        pbs_submit,
        pbs_tagged,
        st.tuples(st.just("cancel"), st.integers(0, 20)),
        node_ops,
        run_op,
    ),
    min_size=4,
    max_size=30,
)

slurm_ops = st.lists(
    st.one_of(
        slurm_submit,
        slurm_submit,
        st.tuples(st.just("cancel"), st.integers(0, 20)),
        node_ops,
        run_op,
    ),
    min_size=4,
    max_size=30,
)


win_submit = st.tuples(
    st.just("submit"), names,
    st.sampled_from(["", SWITCH_TAG]),
    st.sampled_from([WinJobUnit.CORE, WinJobUnit.NODE]),
    st.integers(min_value=1, max_value=2),
    st.sampled_from([60.0, 400.0, 2000.0]),
    st.sampled_from([1000, 2000, 3000]),
)

win_ops = st.lists(
    st.one_of(
        win_submit,
        win_submit,
        st.tuples(st.just("cancel"), st.integers(0, 20)),
        node_ops,
        run_op,
    ),
    min_size=4,
    max_size=30,
)


def _apply_node_op(scheduler, op, host, up, down, cordon, uncordon):
    {
        "up": up,
        "down": down,
        "cordon": cordon,
        "uncordon": uncordon,
        "fence": scheduler.fence_node,
        "crash": scheduler.node_crashed,
    }[op](host)


def _same(live, text):
    assert live.wire == text.wire
    assert (live.running, live.queued) == (text.running, text.queued)
    assert live.debug == text.debug


def _assert_pbs_matches(server, commands):
    for eager in (False, True):
        live = PbsDetector(server, eager=eager).check()
        _same(live, qstat_report(commands.qstat_f(), eager=eager))
    up = server.up_nodes()
    assert server.online_node_count() == len(up)
    assert server.idle_node_count() == sum(1 for r in up if not r.core_jobs)


def _assert_slurm_matches(controller):
    for eager in (False, True):
        live = SlurmDetector(controller, eager=eager).check()
        _same(live, squeue_report(squeue(controller), eager=eager))
    up = controller.up_nodes()
    assert controller.online_node_count() == len(up)
    assert controller.idle_node_count() == sum(1 for r in up if r.idle)


def winhpc_reference(scheduler, eager):
    """The WinHPC check rebuilt from every job the scheduler ever took:
    untagged jobs by state, running ones in submission order, queued
    ones in dispatch order (higher priority band first, then submission
    order)."""
    workload = sorted(
        (j for j in scheduler.jobs.values() if j.tag != SWITCH_TAG),
        key=lambda j: j.job_id,
    )
    running = [j for j in workload if j.state is WinJobState.RUNNING]
    queued = sorted(
        (j for j in workload if j.state is WinJobState.QUEUED),
        key=lambda j: (-j.priority, j.job_id),
    )
    first = None
    if queued:
        head = queued[0]
        cores = head.amount
        if head.unit is WinJobUnit.NODE:
            largest = max((r.cores for r in scheduler.nodes.values()), default=1)
            cores = head.amount * largest
        first = (str(head.job_id), cores)
    return _build_report(
        running=len(running),
        queued=len(queued),
        first_queued=first,
        running_detail=lambda: [
            f"{j.job_id} {j.name} Running" for j in running
        ],
        eager=eager,
    )


def _assert_winhpc_matches(scheduler):
    for eager in (False, True):
        live = WinHpcDetector(scheduler, eager=eager).check()
        _same(live, winhpc_reference(scheduler, eager))
    online = [
        r for r in scheduler.nodes.values() if r.state is WinNodeState.ONLINE
    ]
    assert scheduler.online_node_count() == len(online)
    assert scheduler.idle_node_count() == sum(1 for r in online if r.idle)


@settings(max_examples=60, deadline=None)
@given(ops=pbs_ops)
# a queued and a running switch job, then the head finishes
@example(ops=[
    ("submit", "md", 2, 4, 2000.0), ("submit", "md", 2, 4, 400.0),
    ("submit", "release_1_node", 1, 4, 60.0),
    ("submit", "sleep", 1, 2, 60.0), ("run", 1000.0),
    ("fence", 3), ("run", 1000.0),
])
# a running switch job requeued by a fence, and a queued job cancelled
@example(ops=[
    ("submit", "release_1_node", 1, 4, 2000.0),
    ("submit", "md", 3, 4, 60.0), ("fence", 3),
    ("cancel", 1), ("run", 30.0),
])
def test_pbs_check_equals_qstat_text_report(ops):
    sim = Simulator()
    server = PbsServer(sim)
    hosts = [f"enode{i:02d}" for i in range(1, NUM_NODES + 1)]
    for host in hosts:
        server.create_node(host, np=CORES)
        server.node_up(host)
    commands = PbsCommands(server)
    _assert_pbs_matches(server, commands)
    for op in ops:
        kind = op[0]
        if kind == "submit":
            _, name, nodes, ppn, runtime = op
            server.qsub(JobSpec(name=name, nodes=nodes, ppn=ppn, runtime_s=runtime))
        elif kind == "tagged":
            server.qsub(JobSpec(
                name=op[1], ppn=op[2], runtime_s=400.0, tag=SWITCH_TAG
            ))
        elif kind == "cancel":
            jobs = [j.job_id for j in server.queued_jobs()]
            if jobs:
                server.cancel(jobs[op[1] % len(jobs)])
        elif kind == "run":
            sim.run(until=sim.now + op[1])
        else:
            _apply_node_op(
                server, kind, hosts[op[1] - 1],
                server.node_up, server.node_down,
                server.cordon_node, server.uncordon_node,
            )
        _assert_pbs_matches(server, commands)


@settings(max_examples=60, deadline=None)
@given(ops=slurm_ops)
# a full cluster with a queued switch job, then node loss and a cancel
@example(ops=[
    ("submit", "md", 2, 4, 2000.0, 100),
    ("submit", "md", 1, 4, 400.0, 100),
    ("submit", "release_1_node", 1, 4, 60.0, 200),
    ("submit", "sleep", 1, 2, 60.0, 100),
    ("down", 1), ("cancel", 1), ("run", 1000.0),
])
def test_slurm_check_equals_squeue_text_report(ops):
    sim = Simulator()
    controller = SlurmController(sim)
    hosts = [f"snode{i:02d}" for i in range(1, NUM_NODES + 1)]
    for host in hosts:
        controller.add_node(host, cores=CORES)
        controller.node_online(host)
    _assert_slurm_matches(controller)
    for op in ops:
        kind = op[0]
        if kind == "submit":
            _, name, nodes, ppn, runtime, priority = op
            controller.submit_request(JobRequest(
                name=name, nodes=nodes, ppn=ppn, runtime_s=runtime,
                priority=priority,
            ))
        elif kind == "cancel":
            jobs = controller.queued_jobs() + controller.running_jobs()
            if jobs:
                controller.cancel(jobs[op[1] % len(jobs)].job_id)
        elif kind == "run":
            sim.run(until=sim.now + op[1])
        else:
            _apply_node_op(
                controller, kind, hosts[op[1] - 1],
                controller.node_online, controller.node_unreachable,
                controller.cordon_node, controller.uncordon_node,
            )
        _assert_slurm_matches(controller)


@settings(max_examples=60, deadline=None)
@given(ops=win_ops)
# a tagged job at the head of a full cluster's queue, then a NODE-unit
# head behind it, then the queue drains empty
@example(ops=[
    ("submit", "md", "", WinJobUnit.NODE, 2, 2000.0, 2000),
    ("submit", "sleep", "", WinJobUnit.CORE, 2, 400.0, 2000),
    ("submit", "release_1_node", SWITCH_TAG, WinJobUnit.NODE, 1, 60.0, 3000),
    ("submit", "render", "", WinJobUnit.NODE, 2, 60.0, 2000),
    ("run", 1000.0), ("crash", 1), ("fence", 1), ("run", 2000.0),
    ("run", 2000.0),
])
# a switch-named job without the tag is workload on this side
@example(ops=[
    ("submit", "release_1_node", "", WinJobUnit.NODE, 2, 400.0, 2000),
    ("submit", "md", "", WinJobUnit.CORE, 2, 60.0, 1000),
    ("down", 2), ("cancel", 0), ("run", 200.0),
])
def test_winhpc_check_equals_sdk_job_list_report(ops):
    sim = Simulator()
    scheduler = WinHpcScheduler(sim)
    hosts = [f"wnode{i:02d}" for i in range(1, NUM_NODES + 1)]
    for host in hosts:
        scheduler.add_node(host, cores=CORES)
        scheduler.node_online(host)
    _assert_winhpc_matches(scheduler)
    for op in ops:
        kind = op[0]
        if kind == "submit":
            _, name, tag, unit, amount, runtime, priority = op
            scheduler.submit_request(JobRequest(
                name=name, cores=amount,
                nodes=amount if unit is WinJobUnit.NODE else 0,
                runtime_s=runtime, tag=tag, priority=priority,
            ))
        elif kind == "cancel":
            jobs = scheduler.queued_jobs() + scheduler.running_jobs()
            if jobs:
                scheduler.cancel(jobs[op[1] % len(jobs)].job_id)
        elif kind == "run":
            sim.run(until=sim.now + op[1])
        else:
            _apply_node_op(
                scheduler, kind, hosts[op[1] - 1],
                scheduler.node_online, scheduler.node_unreachable,
                scheduler.cordon_node, scheduler.uncordon_node,
            )
        _assert_winhpc_matches(scheduler)
