"""Operator status report."""

import pytest

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.errors import MiddlewareError
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE


def test_status_report_before_deploy_rejected():
    hybrid = build_hybrid_cluster(num_nodes=2, seed=1, version=2)
    with pytest.raises(MiddlewareError):
        hybrid.status_report()


def test_status_report_contents():
    hybrid = build_hybrid_cluster(
        num_nodes=2, seed=1, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=5 * MINUTE),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=10 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    report = hybrid.status_report()
    assert "dualboot-oscar v2 on 2 nodes" in report
    assert "PXE/GRUB4DOS" in report
    assert "target-OS flag:" in report
    assert "enode01" in report and "enode02" in report
    assert "pxe-grub4dos" in report
    assert "switches so far: 1" in report
    assert "PBS:" in report and "WinHPC:" in report


def test_status_report_v1_has_no_cluster_flag_line():
    hybrid = build_hybrid_cluster(num_nodes=2, seed=1, version=1)
    hybrid.deploy()
    hybrid.wait_for_nodes()
    report = hybrid.status_report()
    assert "FAT controlmenu" in report
    assert "target-OS flag:" not in report  # per-node control in v1
