"""The reproduction experiments (see DESIGN.md §4 for the index).

Each module exposes ``run(seed=0, quick=False) -> ExperimentOutput``; the
benchmark harness (``benchmarks/``) and the CLI both call these, so the
numbers in ``bench_output.txt`` and ``repro-experiments`` always agree.

``quick=True`` shrinks cluster sizes / horizons for CI-speed runs; the
shapes of the results (who wins, by what factor) are stable across the
two settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.metrics.report import Table

__all__ = ["ALL_EXPERIMENTS", "ExperimentOutput", "attach_system_trace"]


def attach_system_trace(output: "ExperimentOutput", label: str,
                        system: Any) -> None:
    """Attach a hybrid system's trace; skip a baseline's.

    Every system records into its simulator's tracer, the baselines
    (static split, mono-stable, virtualised) included, but only a
    :class:`~repro.compare.hybrid.HybridSystem` (the one with a
    ``middleware``) is attached: the quick-run exports of every attached
    trace are pinned in ``tests/fixtures/quick_trace_digests.json``.
    """
    middleware = getattr(system, "middleware", None)
    if middleware is not None:
        output.attach_trace(label, middleware.tracer)


@dataclass
class ExperimentOutput:
    """What one experiment produces."""

    experiment_id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: machine-readable headline values, asserted by tests and quoted in
    #: EXPERIMENTS.md
    headline: Dict[str, Any] = field(default_factory=dict)
    #: label -> :class:`repro.trace.Tracer` for every simulation this
    #: experiment ran (see docs/OBSERVABILITY.md)
    traces: Dict[str, Any] = field(default_factory=dict)

    def attach_trace(self, label: str, tracer: Any) -> None:
        """Register one simulation's tracer under a stable label."""
        self.traces[label] = tracer

    def trace_exports(self) -> Dict[str, str]:
        """label -> canonical JSONL export, for determinism comparisons."""
        return {
            label: tracer.export_jsonl()
            for label, tracer in self.traces.items()
        }

    def trace_violations(self) -> Dict[str, list]:
        """label -> invariant violations (empty lists when all hold)."""
        from repro.trace import check_events

        return {
            label: check_events(tracer.events)
            for label, tracer in self.traces.items()
        }

    def trace_invariants_ok(self) -> bool:
        """True when every attached trace passes every invariant."""
        return all(not v for v in self.trace_violations().values())

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for table in self.tables:
            parts.append(table.render())
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


#: experiment id -> module path (used by the CLI)
ALL_EXPERIMENTS = {
    "t1": "repro.experiments.table1",
    "f2f3f4": "repro.experiments.figures_grub",
    "f5f6f7f8": "repro.experiments.figures_detector",
    "f9f10f14f15": "repro.experiments.figures_disks",
    "e1": "repro.experiments.e1_switch_latency",
    "e2": "repro.experiments.e2_utilization",
    "e3": "repro.experiments.e3_bistable",
    "e4": "repro.experiments.e4_admin_effort",
    "e5": "repro.experiments.e5_control_cycle",
    "e6": "repro.experiments.e6_mdcs",
    "e7": "repro.experiments.e7_policy",
    "e8": "repro.experiments.e8_resilience",
    "e9": "repro.experiments.e9_chaos",
    "e10": "repro.experiments.e10_scale",
    "e11": "repro.experiments.e11_energy",
    "e14": "repro.experiments.e14_survival",
    "e15": "repro.experiments.e15_pairing",
}
