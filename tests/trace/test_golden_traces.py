"""Golden-trace snapshot tests.

One tiny v1 and one tiny v2 scenario each drive a full switch cycle
(Windows job stuck -> switch order -> reboot -> confirm) on a 2-node
cluster; a third, v2 with SLURM on the Windows side and checkpointing
on, adds one hard node crash per side mid-job (crash -> fence ->
requeue with checkpoint credit).  Their canonical JSONL exports are
checked in under ``tests/fixtures/``.  Any change to event kinds, field names, emission
points, or control-plane timing shows up here as a readable diff.

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/trace/test_golden_traces.py
"""

import difflib
import os

import pytest

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.sched import JobRequest
from repro.simkernel import MINUTE
from repro.trace import check_events

from tests.fixtures import golden_trace_path, load_golden_trace

REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: The golden scenarios: middleware v1 and v2 (PBS/WinHPC, fault-free)
#: and v2 PBS/SLURM with one node crash per side.
GOLDEN = [1, 2, "2-slurm"]


def golden_scenario(version):
    """The checked-in scenario: one stuck Windows job forces one switch."""
    if version == "2-slurm":
        return crash_scenario()
    hybrid = build_hybrid_cluster(
        num_nodes=2, seed=7, version=version,
        config=MiddlewareConfig(version=version, check_cycle_s=5 * MINUTE),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    hybrid.submit(
        "windows", JobRequest(name="mdcs", cores=4, runtime_s=5 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 40 * MINUTE)
    return hybrid


def crash_scenario():
    """PBS/SLURM with 10-minute checkpoints on 4 nodes: a Windows job
    forces a switch, then the nodes under the Linux job and the Windows
    job each crash mid-run; both jobs are fenced, requeued with
    checkpoint credit and finish (the Windows one after a second
    switch)."""
    hybrid = build_hybrid_cluster(
        num_nodes=4, seed=7, version=2,
        config=MiddlewareConfig(
            version=2, check_cycle_s=5 * MINUTE, windows_scheduler="slurm",
            checkpoint_interval_s=10 * MINUTE,
        ),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    sim = hybrid.sim
    t0 = sim.now
    nodes = {node.name: node for node in hybrid.cluster.compute_nodes}
    victims = [
        (hybrid.pbs, hybrid.submit("linux", JobRequest(
            name="lin", nodes=1, ppn=4, runtime_s=40 * MINUTE))),
        (hybrid.winhpc, hybrid.submit("windows", JobRequest(
            name="win", cores=4, runtime_s=40 * MINUTE))),
    ]
    for (scheduler, jobid), crash_at in zip(victims, (25, 40)):
        sim.run(until=t0 + crash_at * MINUTE)
        host = next(iter(scheduler.get_job(jobid).allocation_by_host()))
        nodes[host].crash()
    sim.run(until=t0 + 75 * MINUTE)
    return hybrid


@pytest.mark.parametrize("version", GOLDEN)
def test_golden_trace_matches_fixture(version):
    hybrid = golden_scenario(version)
    export = hybrid.tracer.export_jsonl()
    path = golden_trace_path(version)

    if REGEN:
        path.write_text(export, encoding="ascii")
        pytest.skip(f"regenerated {path.name} ({len(export.splitlines())} events)")

    assert path.exists(), (
        f"{path.name} missing — run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    golden = load_golden_trace(version)
    if export != golden:
        diff = "\n".join(difflib.unified_diff(
            golden.splitlines(), export.splitlines(),
            fromfile=path.name, tofile="fresh run",
            lineterm="", n=2,
        ))
        pytest.fail(
            f"v{version} trace diverged from the golden fixture "
            f"(REPRO_REGEN_GOLDEN=1 to accept):\n{diff}"
        )


@pytest.mark.parametrize("version", GOLDEN)
def test_golden_scenario_is_clean_and_complete(version):
    """The golden runs themselves satisfy every invariant and actually
    exercise the full switch cycle (so the fixtures are worth keeping)."""
    hybrid = golden_scenario(version)
    events = hybrid.tracer.events
    assert check_events(events) == []
    kinds = {e.kind for e in events}
    assert "order.issued" in kinds
    assert "order.confirmed" in kinds
    assert "boot.start" in kinds and "boot.complete" in kinds
    assert "control.decision" in kinds


def test_crash_scenario_recovers_on_both_sides():
    """The PBS/SLURM golden run fences one node per side and requeues
    each victim with checkpoint credit."""
    events = golden_scenario("2-slurm").tracer.events
    assert [e.node for e in events if e.kind == "health.fenced"] == [
        e.node for e in events if e.kind == "node.crash"
    ]
    requeued = [e for e in events if e.kind == "job.requeued"]
    assert [e.fields["scheduler"] for e in requeued] == ["pbs", "slurm"]
    assert all(e.fields["checkpointed_s"] > 0 for e in requeued)
    finished = {
        e.fields["jobid"] for e in events
        if e.kind == "job.finished" and e.fields.get("exit_status", 0) == 0
        and e.fields.get("state", "CD") == "CD"
    }
    assert {e.fields["jobid"] for e in requeued} <= finished


@pytest.mark.parametrize("version", GOLDEN)
def test_golden_fixture_passes_invariants(version):
    """The checked-in JSONL itself round-trips and is invariant-clean."""
    if not golden_trace_path(version).exists():
        pytest.skip("fixture not generated yet")
    from repro.trace import Tracer, check_jsonl

    text = load_golden_trace(version)
    assert check_jsonl(text) == []
    events = Tracer.load_jsonl(text)
    assert events, "golden trace must not be empty"
    # the export is canonical: re-serialising reproduces it byte-for-byte
    assert "".join(e.to_json() + "\n" for e in events) == text
