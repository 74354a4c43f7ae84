"""Seeded defects of the lint rules whose job a runtime check does.

Each test plants one defect class in a small power-aware run (8 nodes,
two of them a deprovisioned burst pool, elasticity on, 3 simulated
hours) and shows what the runtime checks make of it:

* **a silent mutator** (once lint rule TRC002): ``cordon_node`` with its
  ``node.cordoned`` emit removed.  The invariants stay clean, but the
  export moves, which is what the pinned quick-run digests
  (``test_quick_exports.py``) and the golden traces compare.
* **a foreign RNG draw** (once lint rule DET006): a component that is
  not the elasticity manager draws from the cluster's and every node's
  ``RngStreams`` on each elasticity cycle, under its own stream name,
  and throws the values away.  Named streams are independent, so the
  export stays byte-identical: the hazard the rule named cannot occur.
* **a wall-clock value in a trace field** (lint rule DET007): a
  host-side stamp from ``time.perf_counter()`` emitted at finalize.  Two
  same-seed runs then export different bytes, which is what
  ``test_determinism.py`` compares.
"""

import time

from repro.compare import HybridSystem, drive
from repro.core.config import ElasticConfig, MiddlewareConfig
from repro.core.elasticity import ElasticityManager
from repro.sched.lifecycle import BatchScheduler
from repro.simkernel import HOUR, MINUTE
from repro.trace import check_events
from repro.trace.events import CONTROL_DECISION, NODE_CORDONED
from repro.workloads import MixedWorkload


def _power_aware_run():
    """One small elastic run; returns its tracer."""
    system = HybridSystem(
        num_nodes=8, seed=0, version=2,
        config=MiddlewareConfig(
            version=2, check_cycle_s=10 * MINUTE,
            elastic=ElasticConfig(enabled=True), burst_nodes=2,
        ),
    )
    system.deploy()
    jobs = MixedWorkload(
        seed=8, rate_per_hour=3.0, windows_fraction=0.2,
        horizon_s=3 * HOUR, max_cores=8, runtime_scale=0.25,
    ).generate()
    drive(system, jobs, 3 * HOUR, drain_limit_s=2 * HOUR)
    return system.middleware.tracer


def test_a_silent_cordon_moves_the_export(monkeypatch):
    tracer = _power_aware_run()
    assert tracer.counts[NODE_CORDONED] > 0  # the path runs in this scenario

    def silent_cordon(self, hostname):
        record = self.node(hostname)
        record.cordon(self.sim.now)
        self._index.reindex(record)

    monkeypatch.setattr(BatchScheduler, "cordon_node", silent_cordon)
    silent = _power_aware_run()

    assert NODE_CORDONED not in silent.counts
    # the invariants cannot see a transition that was never emitted ...
    assert check_events(silent.events) == []
    # ... the byte comparison of the export can
    assert silent.export_jsonl() != tracer.export_jsonl()


def test_foreign_draws_on_named_streams_leave_the_export_unchanged(monkeypatch):
    tracer = _power_aware_run()
    baseline = tracer.export_jsonl()
    assert "power.suspended" in tracer.counts  # nodes draw suspend timings

    draws = []
    evaluate = ElasticityManager.evaluate

    def evaluate_beside_a_foreign_draw(self):
        handles = [self.cluster.rng] + [n.rng for n in self.cluster.compute_nodes]
        for rng in handles:
            rng.uniform("foreign-probe", 0.0, 1.0)
            rng.exponential("foreign-probe:gap", 60.0)
        draws.append(len(handles))
        evaluate(self)

    monkeypatch.setattr(ElasticityManager, "evaluate", evaluate_beside_a_foreign_draw)
    probed = _power_aware_run()

    assert len(draws) > 10  # one foreign draw round per elasticity cycle
    assert probed.export_jsonl() == baseline


def test_a_wall_clock_trace_field_breaks_same_seed_replay(monkeypatch):
    finalize = HybridSystem.finalize

    def finalize_with_a_wall_stamp(self):
        finalize(self)
        self.middleware.tracer.emit(
            CONTROL_DECISION, action="finalize", host_wall_s=time.perf_counter()
        )

    monkeypatch.setattr(HybridSystem, "finalize", finalize_with_a_wall_stamp)
    first = _power_aware_run()
    second = _power_aware_run()

    # everything the simulation decided is the same ...
    assert first.events[:-1] == second.events[:-1]
    # ... but the exports differ, so the same-seed battery fails
    assert first.export_jsonl() != second.export_jsonl()
