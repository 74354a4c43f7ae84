"""Middleware variant integrations: per-MAC v2 mode, eager detectors,
threshold policy, bootcontrol switch method."""


from repro.boot.grub4dos import menu_path_for
from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.core.policy import EagerPolicy, ThresholdPolicy
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE
from repro.winhpc.job import WinJobState

CYCLE = 5 * MINUTE


def deploy(version=2, policy=None, **config_kw):
    config = MiddlewareConfig(version=version, check_cycle_s=CYCLE, **config_kw)
    hybrid = build_hybrid_cluster(
        num_nodes=4, seed=3, version=version, config=config, policy=policy
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    return hybrid


def test_v2_per_mac_mode_full_loop():
    """The Figure-12 initial v2 design: one menu file per MAC address."""
    hybrid = deploy(v2_per_mac_menus=True, initial_windows_nodes=1)
    tftp = hybrid.wizard.installation.tftp
    for node in hybrid.cluster.compute_nodes:
        assert tftp.exists(menu_path_for(node.mac))
    by_os = hybrid.nodes_by_os()
    assert len(by_os["windows"]) == 1 and len(by_os["linux"]) == 3

    jobid = hybrid.submit(
        "windows", JobRequest(name="render", cores=8, runtime_s=10 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    job = hybrid.scheduler("windows").get_job(jobid)
    assert job.state is WinJobState.FINISHED
    assert len(hybrid.nodes_by_os()["windows"]) >= 2


def test_per_mac_initial_split_does_not_need_staging():
    """Unlike single-flag mode, per-MAC menus can express a mixed initial
    state directly."""
    hybrid = deploy(v2_per_mac_menus=True, initial_windows_nodes=2)
    assert len(hybrid.nodes_by_os()["windows"]) == 2


def test_eager_detectors_with_eager_policy_grow_pool_under_backlog():
    hybrid = deploy(policy=EagerPolicy(), eager_detectors=True)
    jobids = [
        hybrid.submit("windows", JobRequest(
            name=f"render{i}", cores=4, runtime_s=20 * MINUTE))
        for i in range(3)
    ]
    hybrid.sim.run(until=hybrid.sim.now + 90 * MINUTE)
    windows = hybrid.scheduler("windows")
    assert all(
        windows.get_job(j).state is WinJobState.FINISHED for j in jobids
    )
    # backlog reaction: more than one node switched even though jobs ran
    assert hybrid.recorder.switch_count >= 2


def test_fcfs_paper_rule_grows_pool_by_one():
    hybrid = deploy()
    jobids = [
        hybrid.submit("windows", JobRequest(
            name=f"render{i}", cores=4, runtime_s=20 * MINUTE))
        for i in range(3)
    ]
    hybrid.sim.run(until=hybrid.sim.now + 3 * HOUR)
    windows = hybrid.scheduler("windows")
    assert all(
        windows.get_job(j).state is WinJobState.FINISHED for j in jobids
    )
    # strict stuck rule: one switch, jobs drained serially on one node
    assert hybrid.recorder.switch_count == 1


def test_threshold_policy_delays_switch_by_cycles():
    hybrid = deploy(policy=ThresholdPolicy(threshold=3))
    submit_at = hybrid.sim.now
    jobid = hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=5 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 2 * HOUR)
    job = hybrid.scheduler("windows").get_job(jobid)
    assert job.state is WinJobState.FINISHED
    switch_time = next(
        r.time for r in hybrid.daemons.linux.decisions if r.decision.is_switch
    )
    # needs three consecutive stuck cycles before acting
    assert switch_time - submit_at >= 2 * CYCLE


def test_v1_bootcontrol_switch_method_end_to_end():
    hybrid = deploy(version=1, v1_switch_method="bootcontrol")
    jobid = hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=10 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 1 * HOUR)
    job = hybrid.scheduler("windows").get_job(jobid)
    assert job.state is WinJobState.FINISHED
    switched = hybrid.nodes_by_os()["windows"]
    assert len(switched) == 1
    # the controlmenu on the switched node's FAT partition points at windows
    node = hybrid.cluster.node(switched[0])
    assert hybrid.controller.current_target(node) == "windows"


def test_v1_repeated_round_trips_stay_consistent():
    """The two-step rename keeps the staged menus alive across cycles."""
    hybrid = deploy(version=1)
    for round_index in range(2):
        win_id = hybrid.submit("windows", JobRequest(
            name=f"w{round_index}", cores=4, runtime_s=5 * MINUTE
        ))
        hybrid.sim.run(until=hybrid.sim.now + 45 * MINUTE)
        win_job = hybrid.scheduler("windows").get_job(win_id)
        assert win_job.state is WinJobState.FINISHED
        # pull the node back with linux pressure: occupy all linux nodes,
        # then queue one more
        for i in range(len(hybrid.nodes_by_os()["linux"])):
            hybrid.submit("linux", JobRequest(
                name=f"fill{round_index}-{i}", nodes=1, ppn=4,
                runtime_s=30 * MINUTE,
            ))
        hybrid.submit("linux", JobRequest(
            name=f"extra{round_index}", nodes=1, ppn=4, runtime_s=5 * MINUTE
        ))
        hybrid.sim.run(until=hybrid.sim.now + 80 * MINUTE)
    fat = hybrid.cluster.compute_nodes[0].disk.filesystem(6)
    present = {
        name for name in
        ("controlmenu.lst", "controlmenu_to_linux.lst",
         "controlmenu_to_windows.lst")
        if fat.isfile("/" + name)
    }
    # live menu always present, plus the staged menu for the other OS
    assert "controlmenu.lst" in present
    assert len(present) >= 2
