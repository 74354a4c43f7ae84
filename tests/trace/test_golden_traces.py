"""Golden-trace snapshot tests.

One tiny v1 and one tiny v2 scenario each drive a full switch cycle
(Windows job stuck -> switch order -> reboot -> confirm) on a 2-node
cluster; their canonical JSONL exports are checked in under
``tests/fixtures/``.  Any change to event kinds, field names, emission
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


def golden_scenario(version: int):
    """The checked-in scenario: one stuck Windows job forces one switch."""
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


@pytest.mark.parametrize("version", [1, 2])
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
            fromfile=f"golden_trace_v{version}.jsonl", tofile="fresh run",
            lineterm="", n=2,
        ))
        pytest.fail(
            f"v{version} trace diverged from the golden fixture "
            f"(REPRO_REGEN_GOLDEN=1 to accept):\n{diff}"
        )


@pytest.mark.parametrize("version", [1, 2])
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


@pytest.mark.parametrize("version", [1, 2])
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
