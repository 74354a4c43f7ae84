"""Quick-mode smoke of every experiment: claims hold at CI size too."""

import importlib

import pytest

from repro.experiments import ALL_EXPERIMENTS


def run_quick(experiment_id):
    module = importlib.import_module(ALL_EXPERIMENTS[experiment_id])
    return module.run(seed=0, quick=True)


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_experiment_runs_and_renders(experiment_id):
    output = run_quick(experiment_id)
    assert output.experiment_id
    text = output.render()
    assert output.title in text
    assert output.tables or output.notes
    assert output.headline


def test_t1_headline():
    h = run_quick("t1").headline
    assert h["hybrid_runs"] == 15 > h["windows_only_cluster_runs"]


def test_f2f3f4_switch_executes():
    h = run_quick("f2f3f4").headline
    assert h["script_ok"] and h["os_after_reboot"] == "windows"


def test_f5_wire_strings():
    h = run_quick("f5f6f7f8").headline
    assert h["wire_other"] == "00000none"
    assert h["wire_stuck"] == h["stuck_wire_expected"]
    assert h["qstat_roundtrip_matches"]


def test_disks_only_fig15_preserves_linux():
    h = run_quick("f9f10f14f15").headline
    assert (h["fig9_linux_survives"], h["fig10_linux_survives"],
            h["fig15_linux_survives"]) == (False, False, True)


def test_e1_claim_holds_quick():
    h = run_quick("e1").headline
    assert h["claim_under_5min"]
    assert h["max_switch_minutes"] < 5.0


def test_e2_shapes_quick():
    h = run_quick("e2").headline
    assert h["hybrid_at_least_matches_every_static_split"]
    assert h["eager_hybrid_beats_every_static_split"]


def test_e3_shapes_quick():
    h = run_quick("e3").headline
    assert h["bistable_warms_up"]
    assert h["monostable_wastes_more_core_hours"]


def test_e4_shapes_quick():
    h = run_quick("e4").headline
    assert h["v2_total_less_than_v1"]
    assert h["v2_has_zero_collateral"]


def test_e5_shapes_quick():
    h = run_quick("e5").headline
    assert h["wait_grows_with_cycle"]


def test_e6_seamless_quick():
    h = run_quick("e6").headline
    assert h["seamless"]
    assert h["switches"] >= 2


def test_e7_shapes_quick():
    h = run_quick("e7").headline
    assert h["eager_cuts_windows_wait_vs_fcfs"]


def test_e9_nodefail_quick():
    h = run_quick("e9").headline
    assert h["node_failures_recovered"]
    assert h["nodefail:v2"]["node_fences"] >= 1
    assert h["nodefail:v2"]["node_recoveries"] >= 1
    assert h["nodefail:v2"]["jobs_done"] == 3


def test_e10_shapes_quick():
    h = run_quick("e10").headline
    assert h["sizes"] == [32, 64]
    assert h["every_size_completed_jobs"]
    assert h["trace_invariants_ok"]
    # workload scales with the cluster: the larger run submits more jobs
    assert h["per_size"]["64"]["jobs"] > h["per_size"]["32"]["jobs"]


def test_e11_energy_quick():
    h = run_quick("e11").headline
    assert h["sizes"] == [8, 16]
    # the energy layer's acceptance criteria, at CI size
    assert h["power_aware_saves_energy"]
    assert h["equal_utilisation"]
    assert h["elastic_engaged"]
    assert h["burst_pool_engaged"]
    assert h["no_spurious_fences"]
    assert h["deterministic"] and h["trace_deterministic"]
    assert h["trace_invariants_ok"]
    for size in h["savings_pct_by_size"]:
        assert h["savings_pct_by_size"][size] > 5.0


def test_e14_survival_quick():
    h = run_quick("e14").headline
    assert h["sizes"] == [32, 64]
    # the resilience layer's acceptance criteria, at CI size
    assert h["storm_hit_running_jobs"]
    assert h["rerunnable_survival_is_100pct"]
    assert h["fenced_nodes_rejoined"]
    assert h["every_size_fenced_and_recovered"]
    assert h["checkpointing_reduces_lost_work"]
    assert h["deterministic"] and h["trace_deterministic"]
    assert h["trace_invariants_ok"]


def test_experiments_deterministic():
    a = run_quick("e5").headline["cycle_10m"]["wait_min"]
    b = run_quick("e5").headline["cycle_10m"]["wait_min"]
    assert a == b


def test_different_seeds_change_stochastic_results():
    module = importlib.import_module(ALL_EXPERIMENTS["e1"])
    a = module.run(seed=0, quick=True).headline["max_switch_minutes"]
    b = module.run(seed=1, quick=True).headline["max_switch_minutes"]
    assert a != b
