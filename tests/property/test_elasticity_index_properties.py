"""The elasticity manager's kept node pools equal a scan of the cluster.

``ElasticityManager`` keeps each side's UP nodes and the wake candidates
(SUSPENDED per side, DEPROVISIONED) through the nodes' power-state
observers, and reads idle nodes from the schedulers' kept idle hosts,
health from the monitor's unhealthy names and queued work from the
schedulers' kept switch jobs.  The reference functions below do what
the unindexed manager did: walk every compute node (or every queued
job) on each call.

Both pairings (PBS/WinHPC and PBS/SLURM) are driven through random
histories of power on/off, suspend/resume, deprovision/provision,
crashes (which the real heartbeat monitor turns into SUSPECT and FENCED
verdicts as time passes, and recovers on reboot), direct fences,
cordons, cancels, job submissions (plain, named like a switch
job, tagged as one) and time passing, plus the manager's own decision
rounds.  After every step the manager's reads must equal the scans, and
each personality's kept node and switch-job counts must equal scans of
its node table and job lists.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.core.elasticity import SIDES, ElasticityManager, ElasticityPolicy
from repro.hardware.node import NodeState
from repro.health import HealthState
from repro.sched import JobRequest
from repro.sched.protocol import SWITCH_JOB_NAME, SWITCH_TAG
from repro.simkernel import MINUTE

NUM_NODES = 5


# -- the linear scans the manager used to run ---------------------------------


def ref_online_count(cluster, side):
    return sum(
        1
        for n in cluster.compute_nodes
        if n.state is NodeState.UP and n.os_name == side
    )


def ref_healthy(health, name):
    if health is None:
        return True
    try:
        return health.health(name).state is HealthState.HEALTHY
    except KeyError:
        return True


def ref_idle_nodes(cluster, scheduler, health, side):
    return [
        n.name
        for n in cluster.compute_nodes
        if n.state is NodeState.UP
        and n.os_name == side
        and ref_healthy(health, n.name)
        and scheduler.node_idle(n.name)
    ]


def ref_resumable(cluster, side):
    return sorted(
        n.name
        for n in cluster.compute_nodes
        if n.state is NodeState.SUSPENDED and n.suspended_os_name == side
    )


def ref_burst(cluster):
    return sorted(
        n.name
        for n in cluster.compute_nodes
        if n.state is NodeState.DEPROVISIONED
    )


def ref_queued_workload(scheduler):
    return sum(1 for job in scheduler.queued_jobs() if job.tag != SWITCH_TAG)


def is_switch(job):
    return job.tag == SWITCH_TAG or job.name == SWITCH_JOB_NAME


def native_id(job):
    return job.jobid if hasattr(job, "jobid") else job.job_id


def assert_scheduler_matches(cluster, scheduler):
    records = list(scheduler.nodes.values())
    assert scheduler.online_node_count() == sum(1 for r in records if r.online)
    assert scheduler.idle_node_count() == sum(1 for r in records if r.idle)
    assert sorted(scheduler.idle_hosts()) == sorted(
        n.name for n in cluster.compute_nodes if scheduler.node_idle(n.name)
    )
    queued, running = scheduler.queued_jobs(), scheduler.running_jobs()
    assert scheduler.queued_count() == len(queued)
    assert scheduler.running_count() == len(running)
    switch = scheduler.switch_jobs
    assert sorted(switch.queued) == sorted(
        native_id(j) for j in queued if is_switch(j)
    )
    assert sorted(switch.running) == sorted(
        native_id(j) for j in running if is_switch(j)
    )


def assert_manager_matches(hybrid, manager):
    cluster = hybrid.cluster
    for side in SIDES:
        scheduler = hybrid.scheduler(side)
        assert manager._online_count(side) == ref_online_count(cluster, side)
        assert sorted(n.name for n in manager._idle_nodes(side)) == sorted(
            ref_idle_nodes(cluster, scheduler, hybrid.health, side)
        )
        assert [n.name for n in manager._resumable(side)] == ref_resumable(
            cluster, side
        )
        assert manager._queued_workload(side) == ref_queued_workload(scheduler)
        assert_scheduler_matches(cluster, scheduler)
    assert [n.name for n in manager._burst()] == ref_burst(cluster)


# -- the operations -------------------------------------------------------------

node_index = st.integers(min_value=1, max_value=NUM_NODES)
sides = st.sampled_from(SIDES)
power_ops = st.tuples(
    st.sampled_from([
        "power_on", "power_off", "suspend", "resume", "deprovision",
        "provision", "crash", "fence",
    ]),
    node_index,
)
cordon_ops = st.tuples(st.sampled_from(["cordon", "uncordon"]), sides, node_index)
submit_ops = st.tuples(
    st.just("submit"),
    sides,
    st.sampled_from(["plain", "named", "tagged"]),
    st.integers(min_value=0, max_value=2),   # nodes (0: a flat core count)
    st.sampled_from([1, 4]),                  # cores / ppn
    st.sampled_from([60.0, 900.0, 5400.0]),
)
queue_ops = st.tuples(st.just("cancel"), sides, st.integers(0, 20))
time_ops = st.tuples(
    st.just("run"), st.sampled_from([30.0, 200.0, 1000.0, 3600.0])
)
ops = st.lists(
    st.one_of(
        power_ops, power_ops, cordon_ops, submit_ops, submit_ops, queue_ops,
        time_ops, time_ops, st.tuples(st.just("evaluate")),
    ),
    max_size=35,
)


def build(windows_scheduler):
    hybrid = build_hybrid_cluster(
        num_nodes=NUM_NODES, seed=3, version=2,
        config=MiddlewareConfig(
            version=2, check_cycle_s=10 * MINUTE,
            windows_scheduler=windows_scheduler,
            initial_windows_nodes=2, burst_nodes=1,
        ),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    manager = ElasticityManager(
        hybrid.sim, hybrid.cluster, hybrid.pbs, hybrid.winhpc,
        policy=ElasticityPolicy(
            hysteresis_cycles=1, idle_surplus=0, min_online=1,
            max_actions_per_cycle=2,
        ),
        orders=hybrid.daemons.orders,
        health=hybrid.health,
        linux_comm=hybrid.daemons.linux,
        controller=hybrid.controller,
    )
    return hybrid, manager


POWER_FROM = {
    "power_on": (NodeState.OFF, NodeState.FAILED),
    "power_off": (
        NodeState.UP, NodeState.SUSPENDED, NodeState.OFF, NodeState.FAILED,
    ),
    "suspend": (NodeState.UP,),
    "resume": (NodeState.SUSPENDED,),
    "deprovision": (
        NodeState.UP, NodeState.SUSPENDED, NodeState.OFF, NodeState.FAILED,
    ),
    "provision": (NodeState.DEPROVISIONED,),
}


def apply(hybrid, manager, op):
    kind = op[0]
    if kind in POWER_FROM:
        node = hybrid.cluster.compute_nodes[op[1] - 1]
        if node.state in POWER_FROM[kind]:
            getattr(node, kind)()
    elif kind == "crash":
        hybrid.cluster.compute_nodes[op[1] - 1].crash()
    elif kind == "fence":
        # what the monitor's fence callback does, without waiting for it
        hybrid._on_node_fenced(hybrid.cluster.compute_nodes[op[1] - 1].name)
    elif kind in ("cordon", "uncordon"):
        scheduler = hybrid.scheduler(op[1])
        getattr(scheduler, f"{kind}_node")(f"enode{op[2]:02d}")
    elif kind == "submit":
        _, side, flavour, nodes, cores, runtime = op
        hybrid.submit(side, JobRequest(
            name=SWITCH_JOB_NAME if flavour == "named" else "md",
            tag=SWITCH_TAG if flavour == "tagged" else "",
            nodes=nodes, ppn=cores if nodes else 0, cores=cores,
            runtime_s=runtime,
        ))
    elif kind == "cancel":
        scheduler = hybrid.scheduler(op[1])
        jobs = scheduler.queued_jobs()
        if jobs:
            scheduler.cancel_if_queued(str(native_id(jobs[op[2] % len(jobs)])))
    elif kind == "run":
        hybrid.sim.run(until=hybrid.sim.now + op[1])
    else:
        manager.evaluate()


def check_history(windows_scheduler, program):
    hybrid, manager = build(windows_scheduler)
    assert_manager_matches(hybrid, manager)
    for op in program:
        apply(hybrid, manager, op)
        assert_manager_matches(hybrid, manager)


# a crash the monitor first suspects and then fences, a named and a
# tagged switch-like job queued behind a full side, a suspend and a
# resume, and the burst node provisioned
HISTORY = [
    ("submit", "linux", "plain", 1, 4, 5400.0),
    ("submit", "linux", "named", 1, 4, 60.0),
    ("submit", "linux", "tagged", 0, 1, 60.0),
    ("submit", "windows", "tagged", 1, 4, 60.0),
    ("submit", "windows", "plain", 0, 4, 900.0),
    ("crash", 2),
    ("run", 200.0),
    ("evaluate",),
    ("suspend", 1),
    ("run", 200.0),
    ("provision", 5),
    ("run", 1000.0),
    ("resume", 1),
    ("cordon", "windows", 3),
    ("run", 3600.0),
    ("evaluate",),
]


@settings(max_examples=60, deadline=None)
@given(program=ops)
@example(program=HISTORY)
def test_pbs_winhpc_pools_equal_cluster_scan(program):
    check_history("winhpc", program)


@settings(max_examples=60, deadline=None)
@given(program=ops)
@example(program=HISTORY)
def test_pbs_slurm_pools_equal_cluster_scan(program):
    check_history("slurm", program)
