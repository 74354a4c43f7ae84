"""Failure injection against the running middleware.

The control plane must degrade gracefully: a dead daemon pair, a downed
head-node link, or a bricked node must never corrupt scheduling state or
strand running jobs.
"""


from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.hardware.node import NodeState
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE
from repro.winhpc.job import WinJobState

CYCLE = 5 * MINUTE


def deployed(**kw):
    hybrid = build_hybrid_cluster(
        num_nodes=4, seed=13, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=CYCLE, **kw),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    return hybrid


def test_daemons_stopped_jobs_still_run_but_no_switching():
    hybrid = deployed(initial_windows_nodes=1)
    hybrid.daemons.crash("linux")
    hybrid.daemons.crash("windows")
    linux_id = hybrid.submit("linux", JobRequest(
        name="md", nodes=1, ppn=4, runtime_s=10 * MINUTE))
    win_small = hybrid.submit("windows", JobRequest(
        name="ok", cores=4, runtime_s=10 * MINUTE))
    win_big = hybrid.submit("windows", JobRequest(
        name="needs-switch", cores=8, runtime_s=10 * MINUTE))
    hybrid.sim.run(until=hybrid.sim.now + 2 * HOUR)
    windows = hybrid.scheduler("windows")
    assert hybrid.pbs.jobs[linux_id].exit_status == 0
    # fits the existing node
    assert windows.get_job(win_small).state is WinJobState.FINISHED
    # nobody switches for it
    assert windows.get_job(win_big).state is WinJobState.QUEUED
    assert hybrid.recorder.switch_count == 0


def test_windows_head_offline_messages_dropped_silently():
    hybrid = deployed()
    dropped_before = hybrid.cluster.network.messages_dropped
    hybrid.cluster.linux_head.host.online = False  # linux head unreachable
    hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=10 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    # wire messages were sent and dropped at the dead host
    assert hybrid.cluster.network.messages_dropped > dropped_before
    assert hybrid.cluster.network.drops_by_reason["offline"] > 0
    # the hardened loop keeps ticking on the last-known state, but it never
    # issues a switch from data older than the staleness cap
    assert hybrid.daemons.linux.stale_skips > 0
    assert not any(r.decision.is_switch for r in hybrid.daemons.linux.decisions)
    assert hybrid.recorder.switch_count == 0
    # recovery: bring the head back, the next cycle resumes control
    hybrid.cluster.linux_head.host.online = True
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    assert any(r.decision.is_switch for r in hybrid.daemons.linux.decisions)


def test_bricked_node_does_not_stall_the_cluster():
    hybrid = deployed()
    victim = hybrid.cluster.compute_nodes[0]
    victim.power_off()
    victim.disk.clean()  # catastrophic disk loss
    victim.disk.mbr.wipe()
    hybrid.wizard.installation.tftp.enabled = False  # and no PXE rescue
    victim.power_on()
    hybrid.sim.run(until=hybrid.sim.now + 10 * MINUTE)
    assert victim.state is NodeState.FAILED
    hybrid.wizard.installation.tftp.enabled = True

    # the rest of the cluster keeps serving both OSes
    linux_id = hybrid.submit("linux", JobRequest(
        name="md", nodes=1, ppn=4, runtime_s=5 * MINUTE))
    win_id = hybrid.submit("windows", JobRequest(
        name="render", cores=4, runtime_s=5 * MINUTE))
    hybrid.sim.run(until=hybrid.sim.now + 90 * MINUTE)
    assert hybrid.pbs.jobs[linux_id].exit_status == 0
    win_job = hybrid.scheduler("windows").get_job(win_id)
    assert win_job.state is WinJobState.FINISHED
    assert hybrid.cluster.failed_nodes() == [victim]


def test_switch_job_killed_if_target_flag_menu_corrupted():
    """A corrupted flag menu must fail the boot visibly, not silently boot
    the wrong OS."""
    hybrid = deployed()
    tftp = hybrid.wizard.installation.tftp
    from repro.boot.grub4dos import default_menu_path

    tftp.put(default_menu_path(), "default=0\n")  # menu with no entries
    node = hybrid.cluster.compute_nodes[0]
    node.reboot()
    hybrid.sim.run(until=hybrid.sim.now + 10 * MINUTE)
    assert node.state is NodeState.FAILED
    assert "no menu entries" in node.last_boot.error


def test_node_lost_mid_switch_job_is_counted_killed():
    hybrid = deployed()
    win_id = hybrid.submit("windows", JobRequest(
        name="render", cores=4, runtime_s=10 * MINUTE))
    hybrid.sim.run(until=hybrid.sim.now + 2 * HOUR)
    win_job = hybrid.scheduler("windows").get_job(win_id)
    switch_jobs = [
        j for j in hybrid.pbs.jobs.values() if j.tag == "os-switch"
    ]
    assert switch_jobs
    # the reboot killed the switch job (exit 271) — by design
    assert switch_jobs[0].exit_status == 271
    assert win_job.state is WinJobState.FINISHED
