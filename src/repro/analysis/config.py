"""Per-package severity configuration for the lint pass.

Scoping is data, not code: a :class:`LintConfig` maps rule ids to a
default severity plus per-package overrides, where a "package" is a
dotted module prefix (``repro.simkernel`` covers ``repro.simkernel.rng``).
The longest matching prefix wins, so a rule can be an error for the
simulated substrate, a warning for the analysis layer, and off for a
single legacy module — without touching any rule code.

The shipped :data:`DEFAULT_CONFIG` encodes this repo's contract:

* the *substrate* (everything that runs inside the simulation and must
  be bit-for-bit reproducible) gets the determinism rules at ``error``;
* host-side layers (CLI, experiments driver, metrics, comparison
  harness) keep the hygiene rules but relax the substrate-only ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.analysis.findings import Severity

#: Packages that execute *inside* the simulated cluster: their behaviour
#: feeds trace exports and must be reproducible bit-for-bit.  The list is
#: a module-prefix set, so subpackages are covered automatically.
SUBSTRATE_PACKAGES = (
    "repro.simkernel",
    "repro.core",
    "repro.boot",
    "repro.netsvc",
    "repro.faults",
    "repro.trace",
    "repro.hardware",
    "repro.oslayer",
    "repro.storage",
    "repro.pbs",
    "repro.winhpc",
    "repro.slurm",
    "repro.sched",
    "repro.oscar",
    "repro.windeploy",
    "repro.apps",
    "repro.workloads",
)

#: Host-side packages: they orchestrate simulations from outside and may
#: e.g. touch the real filesystem, but still must not perturb results.
HOST_PACKAGES = (
    "repro.cli",
    "repro.experiments",
    "repro.metrics",
    "repro.compare",
    "repro.analysis",
)


@dataclass(frozen=True)
class RulePolicy:
    """Severity policy for one rule: a default plus package overrides."""

    default: Severity
    overrides: Mapping[str, Severity] = field(default_factory=dict)

    def severity_for(self, module: Optional[str]) -> Severity:
        """Resolve the severity for *module* (longest prefix wins)."""
        if module is None:
            return self.default
        best_len = -1
        best = self.default
        for prefix, severity in self.overrides.items():
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best_len = len(prefix)
                    best = severity
        return best


@dataclass(frozen=True)
class LintConfig:
    """The full severity table: rule id -> :class:`RulePolicy`.

    Rules absent from the table run at their own ``default_severity``.
    """

    policies: Mapping[str, RulePolicy] = field(default_factory=dict)

    def severity_for(self, rule_id: str, default: Severity,
                     module: Optional[str]) -> Severity:
        policy = self.policies.get(rule_id)
        if policy is None:
            return default
        return policy.severity_for(module)


def _for_packages(packages: tuple, severity: Severity,
                  default: Severity = Severity.OFF) -> RulePolicy:
    return RulePolicy(
        default=default,
        overrides={pkg: severity for pkg in packages},
    )


def default_config() -> LintConfig:
    """The shipped policy table (see module docstring)."""
    error = Severity.ERROR
    policies: Dict[str, RulePolicy] = {
        # Wall-clock reads: hard error inside the substrate, error on the
        # host side too — experiment results and metrics exports must not
        # embed real timestamps either (golden-trace tests diff raw bytes).
        "DET001": _for_packages(
            SUBSTRATE_PACKAGES + HOST_PACKAGES, error, default=Severity.WARNING
        ),
        # Global RNG state is banned everywhere in the package: every
        # random draw must come from a named substream (simkernel.rng).
        "DET002": RulePolicy(default=error),
        # Unordered set iteration feeding ordered work: error everywhere.
        "DET003": RulePolicy(default=error),
        # Locale-dependent timestamp rendering: error everywhere — any
        # rendered output may end up in a byte-compared export.
        "DET005": RulePolicy(default=error),
        # Real concurrency/process primitives: error inside the
        # substrate; host-side layers may legitimately shell out.
        "DET004": _for_packages(SUBSTRATE_PACKAGES, error),
        # Unregistered trace kinds: error for production emitters.  Off
        # outside the package — tracer unit tests emit synthetic kinds
        # ("a.one", "x") on purpose to exercise the Tracer machinery.
        "TRC001": RulePolicy(
            default=Severity.OFF, overrides={"repro": error}
        ),
        # API hygiene (mutable defaults, bare except): error everywhere.
        "API001": RulePolicy(default=error),
        # Scheduler-personality layering: the control plane speaks only
        # repro.sched — direct personality imports are an error inside
        # the audited modules and harmless elsewhere (the personality
        # packages obviously import themselves).
        "API002": RulePolicy(
            default=Severity.OFF,
            overrides={
                "repro.core.middleware": error,
                "repro.core.communicator": error,
                "repro.core.daemon": error,
                "repro.core.elasticity": error,
                "repro.health": error,
                "repro.energy": error,
            },
        ),
        # Suppression-comment hygiene is not scopeable: always an error.
        "SUP001": RulePolicy(default=error),
        "SUP002": RulePolicy(default=error),
        # RNG-stream ownership (flow): error everywhere — a leaked handle
        # couples draw sequences no matter which layer leaked it.
        "DET006": RulePolicy(default=error),
        # Interprocedural wall-clock taint (flow): error everywhere; the
        # engine only reports *definite* source-to-sink flows.
        "DET007": RulePolicy(default=error),
        # Trace coverage (flow): scoped to the audited control-plane
        # classes; host-side and bookkeeping classes mutate counters
        # without trace obligations.
        "TRC002": RulePolicy(
            default=Severity.OFF,
            overrides={
                "repro.pbs.server": error,
                "repro.winhpc.scheduler": error,
                "repro.slurm.controller": error,
                "repro.health": error,
                "repro.core.elasticity": error,
            },
        ),
        # Hot-path sorted() scans: error only in the modules the scale
        # path indexed (docs/PERFORMANCE.md); elsewhere a sort is not
        # per-cycle work and stays unguarded.
        "PERF001": RulePolicy(
            default=Severity.OFF,
            overrides={
                "repro.pbs.scheduler": error,
                "repro.core.detector": error,
            },
        ),
        # Eager TraceEvent construction: error everywhere except inside
        # repro.trace itself — the tracer's lazy materialiser (and the
        # JSONL importer) are the only legitimate record builders.
        "PERF003": RulePolicy(
            default=error,
            overrides={"repro.trace": Severity.OFF},
        ),
    }
    return LintConfig(policies=policies)


DEFAULT_CONFIG = default_config()
