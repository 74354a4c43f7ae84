"""ClusterRecorder integration: intervals and job records from live runs."""

import pytest

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.metrics.utilization import usable_core_seconds
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE


@pytest.fixture(scope="module")
def run():
    hybrid = build_hybrid_cluster(
        num_nodes=4, seed=21, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=5 * MINUTE),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    hybrid.submit("linux", JobRequest(
        name="md", nodes=1, ppn=4, runtime_s=20 * MINUTE))
    hybrid.submit("windows", JobRequest(
        name="render", cores=4, runtime_s=15 * MINUTE))
    hybrid.sim.run(until=hybrid.sim.now + 2 * HOUR)
    hybrid.finalize()
    return hybrid


def test_intervals_cover_every_node(run):
    nodes = {iv.node for iv in run.recorder.intervals}
    assert nodes == {n.name for n in run.cluster.compute_nodes}


def test_switched_node_has_two_intervals(run):
    switched = [
        n.name for n in run.cluster.compute_nodes if len(n.boot_records) > 1
    ]
    assert len(switched) == 1
    intervals = [
        iv for iv in run.recorder.intervals if iv.node == switched[0]
    ]
    assert [iv.os_name for iv in intervals] == ["linux", "windows"]
    first, second = intervals
    assert first.end is not None
    # the reboot gap between the intervals is the switch cost
    assert second.start - first.end > 2 * MINUTE


def test_finalize_closes_open_intervals(run):
    assert all(iv.end is not None for iv in run.recorder.intervals)


def test_switch_count_matches_os_changes(run):
    assert run.recorder.switch_count == 1


def test_job_records_complete(run):
    records = {r.name: r for r in run.recorder.workload_jobs()}
    assert records["md"].scheduler == "pbs"
    assert records["md"].cores == 4
    assert records["md"].completed
    assert records["render"].scheduler == "winhpc"
    assert records["render"].completed
    assert records["render"].wait_s > 0  # had to wait for the switch


def test_switch_jobs_excluded_from_workload_selection(run):
    names = [r.name for r in run.recorder.workload_jobs()]
    assert "release_1_node" not in names
    all_names = [r.name for r in run.recorder.jobs]
    assert "release_1_node" in all_names


def test_records_carry_their_scheduler(run):
    by_scheduler = {r.name: r.scheduler for r in run.recorder.workload_jobs()}
    assert by_scheduler == {"md": "pbs", "render": "winhpc"}


def test_usable_core_seconds_split_by_os(run):
    horizon = run.sim.now
    linux_cs = usable_core_seconds(
        run.recorder.intervals, 4, horizon, os_name="linux"
    )
    windows_cs = usable_core_seconds(
        run.recorder.intervals, 4, horizon, os_name="windows"
    )
    assert linux_cs > windows_cs > 0
    total = usable_core_seconds(run.recorder.intervals, 4, horizon)
    assert abs(total - (linux_cs + windows_cs)) < 1e-6
    # reboot windows mean the cluster is never 100% available
    assert total < 4 * 4 * horizon
