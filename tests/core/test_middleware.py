"""Integration tests: full deploy + control loop for v1 and v2.

These exercise the complete stack — deployment, boot chains, schedulers,
detectors, communicators, policies, switch jobs — on a 4-node cluster.
"""

import pytest

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.errors import MiddlewareError
from repro.hardware.node import NodeState
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE
from repro.winhpc.job import WinJobState

CYCLE = 5 * MINUTE


def deployed(version, num_nodes=4, seed=7, **config_kw):
    config = MiddlewareConfig(
        version=version, check_cycle_s=CYCLE, **config_kw
    )
    hybrid = build_hybrid_cluster(
        num_nodes=num_nodes, seed=seed, version=version, config=config
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    return hybrid


@pytest.fixture(scope="module")
def v2():
    return deployed(2)


def test_deploy_boots_everything_linux():
    hybrid = deployed(2)
    assert len(hybrid.nodes_by_os()["linux"]) == 4
    assert hybrid.pbs.free_cores() == 16
    assert hybrid.winhpc.online_node_count() == 0


def test_double_deploy_rejected(v2):
    with pytest.raises(MiddlewareError):
        v2.deploy()


def test_initial_windows_split_v2():
    hybrid = deployed(2, initial_windows_nodes=2)
    by_os = hybrid.nodes_by_os()
    assert len(by_os["windows"]) == 2
    assert len(by_os["linux"]) == 2
    assert hybrid.winhpc.idle_node_count() == 2


def test_initial_windows_split_v1():
    hybrid = deployed(1, initial_windows_nodes=1)
    assert len(hybrid.nodes_by_os()["windows"]) == 1


@pytest.mark.parametrize("windows, burst", [(9, 0), (2, 3)],
                         ids=["windows", "windows-plus-burst"])
def test_oversized_split_rejected(windows, burst):
    config = MiddlewareConfig(
        version=2, initial_windows_nodes=windows, burst_nodes=burst
    )
    hybrid = build_hybrid_cluster(num_nodes=4, version=2, config=config)
    with pytest.raises(MiddlewareError, match="exceeds the cluster size"):
        hybrid.deploy()


@pytest.mark.parametrize("version, config_version", [(1, 2), (2, 1)])
def test_version_contradicting_the_config_rejected(version, config_version):
    with pytest.raises(MiddlewareError, match="contradicts"):
        build_hybrid_cluster(
            num_nodes=2, version=version,
            config=MiddlewareConfig(version=config_version),
        )


@pytest.mark.parametrize("version", [1, 2])
def test_version_defaults_to_the_configs(version):
    config = MiddlewareConfig(version=version)
    assert build_hybrid_cluster(num_nodes=2, config=config).version == version
    assert build_hybrid_cluster(
        num_nodes=2, version=version, config=config
    ).version == version
    assert build_hybrid_cluster(num_nodes=2, version=version).version == version
    assert build_hybrid_cluster(num_nodes=2).version == 2


@pytest.mark.parametrize("version", [1, 2])
def test_windows_demand_triggers_switch(version):
    hybrid = deployed(version)
    jobid = hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=10 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    job = hybrid.scheduler("windows").get_job(jobid)
    assert job.state is WinJobState.FINISHED
    assert len(hybrid.nodes_by_os()["windows"]) == 1
    assert hybrid.recorder.switch_count >= 1


@pytest.mark.parametrize("version", [1, 2])
def test_linux_demand_triggers_switch_back(version):
    hybrid = deployed(version, initial_windows_nodes=4)
    assert hybrid.nodes_by_os()["linux"] == []
    jobid = hybrid.submit("linux", JobRequest(
        name="md", nodes=1, ppn=4, runtime_s=10 * MINUTE))
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    job = hybrid.pbs.jobs[jobid]
    assert job.state.value == "C"
    assert job.exit_status == 0
    assert len(hybrid.nodes_by_os()["linux"]) >= 1


def test_multi_node_demand_switches_enough_nodes():
    hybrid = deployed(2)
    jobid = hybrid.submit("windows", JobRequest(
        name="big-render", cores=12, runtime_s=10 * MINUTE))
    hybrid.sim.run(until=hybrid.sim.now + 90 * MINUTE)
    job = hybrid.scheduler("windows").get_job(jobid)
    assert job.state is WinJobState.FINISHED
    assert job.cores_running() == 12
    assert len(hybrid.nodes_by_os()["windows"]) >= 3


def test_busy_nodes_protected_from_switching():
    """'all the running jobs can be protected' (§III.B.2): switch jobs book
    idle nodes only."""
    hybrid = deployed(2)
    linux_ids = [
        hybrid.submit("linux", JobRequest(
            name=f"md{i}", nodes=1, ppn=4, runtime_s=2 * HOUR))
        for i in range(3)
    ]
    win_id = hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=10 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    win_job = hybrid.scheduler("windows").get_job(win_id)
    # exactly the one idle node switched; the three busy ones kept working
    assert len(hybrid.nodes_by_os()["windows"]) == 1
    for jobid in linux_ids:
        assert hybrid.pbs.jobs[jobid].state.value == "R"
    assert win_job.state is WinJobState.FINISHED


def test_no_demand_no_switch():
    hybrid = deployed(2)
    hybrid.sim.run(until=hybrid.sim.now + 2 * HOUR)
    assert hybrid.recorder.switch_count == 0
    assert hybrid.daemons.windows.reports_sent >= 20
    assert all(
        not record.decision.is_switch
        for record in hybrid.daemons.linux.decisions
    )


def test_detection_latency_bounded_by_cycle():
    hybrid = deployed(2)
    submit_at = hybrid.sim.now
    hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    switch_decisions = [
        r for r in hybrid.daemons.linux.decisions if r.decision.is_switch
    ]
    assert switch_decisions
    assert switch_decisions[0].time - submit_at <= CYCLE + 1.0


def test_switch_latency_under_five_minutes():
    """§III.C: booting from one OS to another takes no more than 5 min.
    Measured from the reboot starting (node leaves Linux) to Windows up."""
    hybrid = deployed(2)
    hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    switched = [
        n for n in hybrid.cluster.compute_nodes if len(n.boot_records) > 1
    ]
    assert switched
    record = switched[0].boot_records[-1]
    assert record.os_name == "windows"
    assert record.duration_s <= 5 * MINUTE


def test_effort_ledger_v1_vs_v2():
    v1_effort = deployed(1).effort.by_category()
    v2_effort = deployed(2).effort.by_category()
    # v1: diskpart + ide.disk + 3 master-script edits = 5 hand edits
    assert v1_effort["edit-script"] == 5
    # v2: diskpart (Figure 10) + reimage swap (Figure 15) only
    assert v2_effort["edit-script"] == 2
    assert "reinstall-other-os" not in v1_effort  # windows deployed first


def test_reimage_windows_v1_destroys_linux_and_charges_ledger():
    hybrid = deployed(1)
    before = hybrid.effort.count("reinstall-other-os")
    node = hybrid.cluster.compute_nodes[0]
    hybrid.reimage_windows(node)
    hybrid.sim.run(until=hybrid.sim.now + 15 * MINUTE)
    assert hybrid.effort.count("reinstall-other-os") == before + 1
    assert node.state is NodeState.UP
    assert node.os_name == "linux"  # middleware restored Linux + controlmenu


def test_reimage_windows_v2_preserves_linux():
    hybrid = deployed(2)
    node = hybrid.cluster.compute_nodes[0]
    node_fs = node.disk.filesystem(6)
    node_fs.write("/home/user/precious", "data")
    before = hybrid.effort.count()
    hybrid.reimage_windows(node)
    hybrid.sim.run(until=hybrid.sim.now + 15 * MINUTE)
    assert hybrid.effort.count() == before  # zero human intervention
    assert node.disk.filesystem(6).read("/home/user/precious") == "data"
    assert node.state is NodeState.UP


def test_reimage_linux_preserves_windows_both_versions():
    for version in (1, 2):
        hybrid = deployed(version)
        node = hybrid.cluster.compute_nodes[0]
        node.disk.filesystem(1).write("/Users/Public/keep.txt", "windows data")
        hybrid.reimage_linux(node)
        hybrid.sim.run(until=hybrid.sim.now + 15 * MINUTE)
        assert node.disk.filesystem(1).read("/Users/Public/keep.txt") == (
            "windows data"
        )
        assert node.state is NodeState.UP


def test_rebuild_image_costs_v1_three_edits_v2_zero():
    v1 = deployed(1)
    base = v1.effort.count("edit-script")
    v1.rebuild_image()
    assert v1.effort.count("edit-script") == base + 3
    v2 = deployed(2)
    base = v2.effort.count("edit-script")
    v2.rebuild_image()
    assert v2.effort.count("edit-script") == base
