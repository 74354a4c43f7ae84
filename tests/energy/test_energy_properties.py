"""Properties of the energy accounting chain.

Two layers are pinned here.  First, the ``energy-conserved`` oracle
itself.  It replays the meter from the trace: one ``energy.model``, each
node's power transitions (``energy.state``) and the cores of the jobs
that start and end on it (``job.started``/``job.finished``/
``job.requeued``).  Over arbitrary synthetic histories exact reports
always pass, the verdict survives a JSONL round trip and any
order-preserving interleave of the per-node streams, and a tampered
total always fails.  Second, the system end to end: the smallest
power-aware E11 configuration run twice with one seed yields
byte-identical traces and joule totals.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy import PowerModel
from repro.hardware.node import NodeState
from repro.trace import Tracer, check_events, check_jsonl
from repro.trace.events import (
    ENERGY_MODEL, ENERGY_REPORT, ENERGY_STATE, JOB_FINISHED, JOB_REQUEUED,
    JOB_STARTED, TraceEvent,
)

INVARIANT = ["energy-conserved"]

watts = st.floats(
    min_value=0.0, max_value=500.0, allow_nan=False, allow_infinity=False,
)
models = st.builds(
    PowerModel, off_w=watts, suspended_w=watts, booting_w=watts,
    idle_w=watts, core_w=watts, deprovisioned_w=watts,
)
gaps = st.floats(
    min_value=0.01, max_value=1000.0, allow_nan=False, allow_infinity=False,
)
#: one step of a node's life: a power transition, a job starting with
#: some cores (some of them on a host no meter watches), or the oldest
#: running job ending (finished or requeued)
steps = st.one_of(
    st.tuples(st.just("power"), st.sampled_from(list(NodeState))),
    st.tuples(st.just("start"), st.integers(1, 8), st.integers(0, 2)),
    st.tuples(st.just("end"), st.sampled_from([JOB_FINISHED, JOB_REQUEUED])),
)
#: per node: the state it is attached in, then (gap, step) pairs
histories = st.lists(
    st.tuples(st.sampled_from(list(NodeState)),
              st.lists(st.tuples(gaps, steps), max_size=10)),
    min_size=1, max_size=3,
)


def _build_trace(model, node_histories):
    """Synthesize per-node histories plus *exact* reports.

    Rows are ``(t, node, kind, fields)``; job rows carry the node they
    belong to so the per-node streams can be interleaved.  The draw is
    replayed with the same arithmetic the meter uses (one ``watts ×
    span`` product per change, summed in time order), so a correct meter
    matches to the last bit -- the invariant's tolerance only has to
    absorb genuine accounting bugs.
    """
    rows = [(0.0, None, ENERGY_MODEL, asdict(model))]
    joules = {}
    ends = []
    draws = []
    for index, (initial, node_steps) in enumerate(node_histories):
        node = f"enode{index + 1:02d}"
        t, state, busy, total = 0.0, initial, 0, 0.0
        draw = model.node_watts(state, busy)
        running = []

        def power_row():
            return (t, node, ENERGY_STATE, {
                "state": state.value, "watts": draw, "busy_cores": busy,
            })

        rows.append(power_row())
        for number, (gap, step) in enumerate(node_steps):
            total += draw * gap
            t += gap
            if step[0] == "power":
                state = step[1]
                draw = model.node_watts(state, busy)
                rows.append(power_row())
                continue
            if step[0] == "start":
                jobid = f"{number}.{node}"
                cores = {node: step[1]}
                if step[2]:
                    cores["ghost"] = step[2]
                running.append((jobid, cores))
                busy += step[1]
                rows.append((t, node, JOB_STARTED, {
                    "scheduler": "pbs", "jobid": jobid, "hosts": sorted(cores),
                    "cores": cores,
                }))
            else:
                # with no job running, end one the meter never saw start
                jobid, cores = running.pop(0) if running else ("0.gone", {})
                busy = max(0, busy - cores.get(node, 0))
                rows.append((t, node, step[1],
                             {"scheduler": "pbs", "jobid": jobid}))
            draw = model.node_watts(state, busy)
        joules[node] = total
        ends.append(t)
        draws.append((node, t, draw))
    end = max(ends)
    for node, last_t, draw in draws:
        # integrate the final draw out to the common report time
        joules[node] += draw * (end - last_t)
        rows.append((end, node, ENERGY_REPORT, {"joules": joules[node]}))
    rows.append(
        (end, None, ENERGY_REPORT, {"total_joules": sum(joules.values())})
    )
    return rows


def _materialize(rows, order=None):
    ordered = sorted(rows, key=order) if order is not None else rows
    return [
        TraceEvent(seq=i, time=t, kind=kind,
                   node=None if kind.startswith("job.") else node,
                   fields=fields)
        for i, (t, node, kind, fields) in enumerate(ordered)
    ]


@settings(max_examples=60, deadline=None)
@given(models, histories)
def test_exact_reports_always_pass(model, node_histories):
    events = _materialize(_build_trace(model, node_histories))
    assert check_events(events, names=INVARIANT) == []


@settings(max_examples=40, deadline=None)
@given(models, histories)
def test_verdict_survives_jsonl_round_trip(model, node_histories):
    events = _materialize(_build_trace(model, node_histories))
    jsonl = "".join(e.to_json() + "\n" for e in events)
    assert check_jsonl(jsonl, names=INVARIANT) == []
    replayed = Tracer.load_jsonl(jsonl)
    assert [e.to_json() for e in replayed] == [e.to_json() for e in events]


@settings(max_examples=40, deadline=None)
@given(models, histories)
def test_totals_invariant_under_order_preserving_interleave(
        model, node_histories):
    rows = _build_trace(model, node_histories)
    # two different merges of the per-node streams; each keeps the model
    # first, every node's own events in order and the cluster total last,
    # which is all the meter guarantees
    def rank(row):
        t, node, kind, _ = row
        return 0 if kind == ENERGY_MODEL else (2 if node is None else 1)

    by_time = _materialize(rows, order=lambda r: (rank(r), r[0]))
    by_node = _materialize(rows, order=lambda r: (rank(r), r[1] or "", r[0]))
    assert check_events(by_time, names=INVARIANT) == []
    assert check_events(by_node, names=INVARIANT) == []


@settings(max_examples=40, deadline=None)
@given(models, histories, st.floats(min_value=1.0, max_value=1e6),
       st.booleans())
def test_tampered_report_always_fails(model, node_histories, delta, cluster):
    rows = _build_trace(model, node_histories)
    tampered = []
    for t, node, kind, fields in rows:
        if kind == ENERGY_REPORT and (node is None) == cluster:
            key = "total_joules" if cluster else "joules"
            fields = {key: fields[key] + delta}
        tampered.append((t, node, kind, fields))
    violations = check_events(_materialize(tampered), names=INVARIANT)
    assert violations, f"a {delta} J overstatement passed energy-conserved"


#: one node that boots, runs a two-core job and is reported
_FIXED = [(NodeState.OFF, [
    (10.0, ("power", NodeState.BOOTING)),
    (90.0, ("power", NodeState.UP)),
    (5.0, ("start", 2, 0)),
    (60.0, ("end", JOB_FINISHED)),
])]


@pytest.mark.parametrize("field", [
    "watts", "state", "busy_cores", "cores", "joules", "total_joules",
])
def test_renamed_field_fails_instead_of_passing(field):
    rows = _build_trace(PowerModel(), _FIXED)
    assert check_events(_materialize(rows), names=INVARIANT) == []
    # rename the field on the first event that carries it
    first = next(i for i, row in enumerate(rows) if field in row[3])
    t, node, kind, fields = rows[first]
    fields = dict(fields)
    fields[field + "_v2"] = fields.pop(field)
    renamed = rows[:first] + [(t, node, kind, fields)] + rows[first + 1:]
    violations = check_events(_materialize(renamed), names=INVARIANT)
    assert any(f"lacks field '{field}'" in v.message for v in violations)


def test_e11_same_seed_twice_is_byte_identical():
    """The determinism sweep at E11's own scale: one power-aware run of
    the smallest configuration, twice, must agree to the byte."""
    from repro.experiments.e11_energy import _energy_run
    from repro.simkernel import HOUR

    first_metrics, first_tracer = _energy_run(8, 0, 2 * HOUR, True)
    second_metrics, second_tracer = _energy_run(8, 0, 2 * HOUR, True)
    assert first_metrics == second_metrics
    assert first_tracer.export_jsonl() == second_tracer.export_jsonl()
    assert first_metrics["suspends"] >= 1
    assert check_events(first_tracer.events, names=INVARIANT) == []
