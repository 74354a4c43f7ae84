"""reprolint — determinism-aware static analysis for this codebase.

PR 2 made behavioural determinism the repo's correctness contract
(byte-identical trace exports checked by a runtime oracle); this package
is the *static* half of that contract.  It walks source ASTs looking for
the constructs that historically break same-seed reproducibility — wall
clock reads, global RNG state, hash-order-dependent set iteration, real
concurrency inside the simulated substrate, unregistered trace kinds —
plus general API hygiene, and fails the build before the determinism
battery ever has to catch the regression at runtime.

Entry points:

* CLI: ``repro-lint`` (or ``python -m repro.analysis``),
* tests: :func:`lint_paths` / :func:`lint_source` return a
  :class:`LintReport` of :class:`Finding` records,
* extension: subclass :class:`Rule` and decorate with :func:`register`
  (see docs/STATIC_ANALYSIS.md).
"""

from repro.analysis.config import (
    DEFAULT_CONFIG,
    LintConfig,
    RulePolicy,
    SUBSTRATE_PACKAGES,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import (
    FlowRule,
    Rule,
    RuleContext,
    all_rules,
    flow_rules,
    register,
)
from repro.analysis.runner import (
    LintReport,
    build_project,
    flow_rule_ids,
    lint_paths,
    lint_source,
    module_name_for,
)

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "FlowRule",
    "LintConfig",
    "LintReport",
    "Rule",
    "RuleContext",
    "RulePolicy",
    "SUBSTRATE_PACKAGES",
    "Severity",
    "all_rules",
    "build_project",
    "flow_rule_ids",
    "flow_rules",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register",
]
