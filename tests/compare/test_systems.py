"""Comparison systems + scenario runner."""

import pytest

from repro.compare import (
    HybridSystem,
    MonostableSystem,
    StaticSplitSystem,
    VirtualizedSystem,
    run_scenario,
)
from repro.compare.base import cores_to_pbs_shape
from repro.core.config import MiddlewareConfig
from repro.errors import ConfigurationError, DeploymentError
from repro.hardware.specs import INTEL_Q8200
from repro.simkernel import HOUR, MINUTE
from repro.workloads import WorkloadJob


def quick_config():
    return MiddlewareConfig(version=2, check_cycle_s=5 * MINUTE)


def small_jobs():
    return [
        WorkloadJob("lin-a", "linux", 4, 600.0, 0.0),
        WorkloadJob("lin-b", "linux", 4, 600.0, 60.0),
        WorkloadJob("win-a", "windows", 4, 600.0, 120.0),
    ]


def test_cores_to_pbs_shape():
    assert cores_to_pbs_shape(1) == (1, 1)
    assert cores_to_pbs_shape(4) == (1, 4)
    assert cores_to_pbs_shape(8) == (2, 4)
    assert cores_to_pbs_shape(6) == (2, 4)
    assert cores_to_pbs_shape(6, cores_per_node=8) == (1, 6)


def test_hybrid_system_runs_everything():
    system = HybridSystem(num_nodes=4, seed=1, config=quick_config())
    result = run_scenario(system, small_jobs(), horizon_s=3 * HOUR)
    assert result.label == "hybrid-v2"
    assert result.completed == 3
    assert result.rejected == 0
    assert result.switches >= 1  # the windows job forced a switch
    assert 0 < result.useful_utilization < 1
    assert result.wait_windows.count == 1
    assert result.wait_windows.mean > result.wait_linux.mean


def test_static_split_runs_both_sides_without_switching():
    system = StaticSplitSystem(num_nodes=4, windows_nodes=1, seed=1)
    result = run_scenario(system, small_jobs(), horizon_s=2 * HOUR)
    assert result.completed == 3
    assert result.switches == 0
    # windows job starts immediately on the permanent windows node
    assert result.wait_windows.mean < 5.0


def test_static_split_rejects_oversized_windows_jobs():
    system = StaticSplitSystem(num_nodes=4, windows_nodes=1, seed=1)
    jobs = small_jobs() + [WorkloadJob("big-win", "windows", 8, 60.0, 30.0)]
    result = run_scenario(system, jobs, horizon_s=2 * HOUR)
    assert result.rejected == 1
    assert result.completed == 3


def test_static_split_zero_windows_nodes_rejects_all_windows():
    system = StaticSplitSystem(num_nodes=2, windows_nodes=0, seed=1)
    result = run_scenario(system, small_jobs(), horizon_s=2 * HOUR)
    assert result.rejected == 1


def test_static_split_validation():
    with pytest.raises(ConfigurationError):
        StaticSplitSystem(num_nodes=4, windows_nodes=5)


def test_monostable_charges_round_trip_to_windows_jobs():
    system = MonostableSystem(num_nodes=4, seed=1)
    result = run_scenario(system, small_jobs(), horizon_s=3 * HOUR)
    assert result.completed == 3
    assert result.switches == 0  # nodes never actually leave Linux here
    # occupancy exceeds useful work: the double reboot is dead time
    assert result.utilization > result.useful_utilization


def test_virtualized_runs_both_sides_concurrently():
    system = VirtualizedSystem(num_nodes=4, seed=1)
    result = run_scenario(system, small_jobs(), horizon_s=2 * HOUR)
    assert result.completed == 3
    assert result.wait_windows.mean < 5.0  # no reboots ever
    # overhead: occupied core-seconds exceed the raw runtimes
    assert result.utilization > result.useful_utilization


def test_virtualized_refuses_non_vt_hardware():
    system = VirtualizedSystem(num_nodes=2, seed=1, spec=INTEL_Q8200)
    with pytest.raises(DeploymentError, match="virtualisation"):
        system.deploy()


def test_runner_drains_after_horizon():
    # the last job arrives at the very end and runs past the horizon
    jobs = [WorkloadJob("late", "linux", 4, 1800.0, 3590.0)]
    system = StaticSplitSystem(num_nodes=2, windows_nodes=0, seed=1)
    result = run_scenario(system, jobs, horizon_s=3600.0)
    assert result.completed == 1
    assert result.makespan_s is not None


def test_runner_no_drain_leaves_job_running():
    jobs = [WorkloadJob("late", "linux", 4, 7200.0, 3590.0)]
    system = StaticSplitSystem(num_nodes=2, windows_nodes=0, seed=1)
    result = run_scenario(system, jobs, horizon_s=3600.0, drain_limit_s=None)
    assert result.completed == 0


def test_same_trace_same_results():
    results = []
    for _ in range(2):
        system = StaticSplitSystem(num_nodes=4, windows_nodes=1, seed=9)
        results.append(run_scenario(system, small_jobs(), horizon_s=2 * HOUR))
    assert results[0].utilization == results[1].utilization
    assert results[0].wait_all.mean == results[1].wait_all.mean
