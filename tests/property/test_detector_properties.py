"""The live detectors equal their text oracles over random scheduler histories.

``PbsDetector.check()`` reads the server's job lists directly; the
paper's ``checkqueue.pl`` scraped ``qstat -f`` instead.  After every
operation of a random history (submissions, holds, node churn, time
passing) the report rebuilt from the rendered text must equal the live
one, field for field, with and without the eager CPU field.  The same
holds for SLURM and ``squeue``.  The indexed idle/online node counts must
equal a scan of the node table.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.detector import PbsDetector, qstat_report
from repro.pbs import JobSpec, PbsCommands, PbsServer
from repro.pbs.job import JobState
from repro.simkernel import Simulator
from repro.slurm.commands import SlurmCommands
from repro.slurm.controller import SlurmController
from repro.slurm.detector import SlurmDetector, squeue_report
from repro.slurm.job import SlurmJobSpec

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
    st.sampled_from([None, 500.0, 3000.0]),
)

# submissions are listed twice so that queues actually build up
pbs_ops = st.lists(
    st.one_of(
        pbs_submit,
        pbs_submit,
        st.tuples(st.sampled_from(["qhold", "qrls"]), st.integers(0, 20)),
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
        live = PbsDetector(commands, eager=eager).check()
        _same(live, qstat_report(commands.qstat_f(), eager=eager))
    up = server.up_nodes()
    assert server.online_node_count() == len(up)
    assert server.idle_node_count() == sum(1 for r in up if not r.busy)


def _assert_slurm_matches(controller, commands):
    for eager in (False, True):
        live = SlurmDetector(commands, eager=eager).check()
        _same(live, squeue_report(commands.squeue(), eager=eager))
    up = controller.up_nodes()
    assert controller.online_node_count() == len(up)
    assert controller.idle_node_count() == sum(1 for r in up if r.idle)


@settings(max_examples=60, deadline=None)
@given(ops=pbs_ops)
# a held job, a queued and a running switch job, then the head finishes
@example(ops=[
    ("submit", "md", 2, 4, 2000.0), ("submit", "md", 2, 4, 400.0),
    ("submit", "release_1_node", 1, 4, 60.0), ("qhold", 0),
    ("submit", "sleep", 1, 2, 60.0), ("run", 1000.0), ("qrls", 0),
    ("fence", 3), ("run", 1000.0),
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
        elif kind in ("qhold", "qrls"):
            wanted = JobState.QUEUED if kind == "qhold" else JobState.HELD
            jobs = [j.jobid for j in server.queued_jobs() if j.state is wanted]
            if jobs:
                getattr(server, kind)(jobs[op[1] % len(jobs)])
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
    ("submit", "md", 2, 4, 2000.0, 100, None),
    ("submit", "md", 1, 4, 400.0, 100, 500.0),
    ("submit", "release_1_node", 1, 4, 60.0, 200, None),
    ("submit", "sleep", 1, 2, 60.0, 100, None),
    ("down", 1), ("cancel", 1), ("run", 1000.0),
])
def test_slurm_check_equals_squeue_text_report(ops):
    sim = Simulator()
    controller = SlurmController(sim)
    hosts = [f"snode{i:02d}" for i in range(1, NUM_NODES + 1)]
    for host in hosts:
        controller.add_node(host, cores=CORES)
        controller.node_online(host)
    commands = SlurmCommands(controller)
    _assert_slurm_matches(controller, commands)
    for op in ops:
        kind = op[0]
        if kind == "submit":
            _, name, nodes, ppn, runtime, priority, limit = op
            controller.submit(SlurmJobSpec(
                name=name, nodes=nodes, ppn=ppn, runtime_s=runtime,
                priority=priority, time_limit_s=limit,
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
        _assert_slurm_matches(controller, commands)
