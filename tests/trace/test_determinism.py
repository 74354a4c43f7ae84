"""Determinism regression battery: every experiment, run twice.

The whole reproduction rests on the claim that a (seed, scenario) pair
pins the simulation completely.  Aggregate-metric equality (what E9's
own ``deterministic`` headline checks) can mask compensating
differences; byte-identical *event traces* cannot.  Each experiment is
run twice with the same seed and every attached trace's canonical JSONL
export must match byte for byte — and be invariant-clean both times.
"""

import importlib
import re

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.trace import Tracer, check_events

SEED = 3

# the simulation experiments (e1..e11, e14, e15); the figure/table
# reproductions in the registry are pure artefact generators and attach
# no traces
SIMULATION_EXPERIMENTS = sorted(
    k for k in ALL_EXPERIMENTS if re.fullmatch(r"e\d+", k)
)


def _run(experiment_id):
    module = importlib.import_module(ALL_EXPERIMENTS[experiment_id])
    return module.run(seed=SEED, quick=True)


def test_battery_covers_all_simulation_experiments():
    assert SIMULATION_EXPERIMENTS == sorted(
        [f"e{i}" for i in range(1, 12)] + ["e14", "e15"]
    )


# -- observer purity -----------------------------------------------------------
#
# Every simulation records into its one tracer, and recording must be a
# pure observer: stubbing ``Tracer.emit`` out cannot perturb the
# simulation.  Proof: the identical (seed, scenario) pair is driven
# through the full middleware stack with recording on and with ``emit``
# a no-op, and every scheduler-visible outcome (the whole ScenarioResult)
# must be equal — and a normal run *after* the silent one must export
# byte-for-byte what the first one did.


def _observed_run():
    from repro.compare import HybridSystem, run_scenario
    from repro.core.config import MiddlewareConfig
    from repro.simkernel import HOUR, MINUTE
    from repro.workloads import MixedWorkload

    horizon = 4 * HOUR
    system = HybridSystem(
        num_nodes=8, seed=SEED, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=10 * MINUTE),
    )
    jobs = MixedWorkload(
        seed=SEED, rate_per_hour=6.0, windows_fraction=0.5,
        horizon_s=horizon, max_cores=16, runtime_scale=0.25,
    ).generate()
    result = run_scenario(system, jobs, horizon)
    return system.middleware.tracer, result


def test_recording_does_not_perturb_the_simulation(monkeypatch):
    tracer, result = _observed_run()
    with monkeypatch.context() as patch:
        patch.setattr(Tracer, "emit", lambda self, kind, **fields: None)
        silent_tracer, silent_result = _observed_run()

    # the stub was in place: nothing was recorded
    assert silent_tracer.events == []
    assert dict(silent_tracer.counts) == {}
    # identical scheduler-visible outcomes with and without recording
    assert silent_result == result

    # and a recording re-run after the silent one replays byte-identically
    replay_tracer, replay_result = _observed_run()
    assert replay_result == result
    assert replay_tracer.export_jsonl() == tracer.export_jsonl()
    assert tracer.export_jsonl()  # non-empty: the proof has teeth


@pytest.mark.parametrize("experiment_id", SIMULATION_EXPERIMENTS)
def test_same_seed_twice_gives_byte_identical_traces(experiment_id):
    first = _run(experiment_id)
    second = _run(experiment_id)

    assert first.traces, f"{experiment_id} attached no traces"
    assert first.trace_exports().keys() == second.trace_exports().keys()
    for label, export in first.trace_exports().items():
        assert export, f"{experiment_id} trace {label!r} is empty"
        assert export == second.trace_exports()[label], (
            f"{experiment_id} trace {label!r} differs between same-seed runs"
        )

    for label, tracer in first.traces.items():
        violations = check_events(tracer.events)
        assert violations == [], (
            f"{experiment_id} trace {label!r} violates invariants: "
            + "; ".join(str(v) for v in violations)
        )
