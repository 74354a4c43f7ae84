"""F5–F8 — detector wire strings over live pbsnodes/qstat -f text."""

from repro.experiments.figures_detector import run


def test_bench_figures_detector(run_once, publish):
    output = run_once(run, seed=0)
    publish(output)
    h = output.headline
    assert h["wire_other"] == "00000none"
    assert h["wire_running"] == "00000none"
    assert h["wire_stuck"] == h["stuck_wire_expected"]
    assert h["wire_stuck"].startswith("10004")
    assert h["qstat_has_exec_host"]
    assert h["pbsnodes_has_status"]
    assert h["qstat_roundtrip_matches"]
