"""Performance rules: keep known hot paths free of re-introduced scans.

The scale path (docs/PERFORMANCE.md) replaced per-cycle ``sorted(...)``
scans over the node/job tables with persistent indexes; PERF001 guards
against those scans creeping back.  A ``sorted(`` call in a guarded
module must carry an explicit ``# perf: cold-path`` justification — on
the call line or the line above — stating why it is off the per-cycle
path (reference implementations, O(active) result ordering, one-shot
setup).

PERF003 guards the tracer's zero-cost fast path the same way:
``Tracer.emit()`` appends a lightweight pending tuple and materialises
:class:`~repro.trace.events.TraceEvent` records lazily, so constructing
``TraceEvent(...)`` eagerly anywhere outside :mod:`repro.trace` would
re-introduce the per-event dataclass cost and bypass the tracer's
``mode``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, RuleContext, register
from repro.analysis.rules._ast_util import ImportMap, is_name_call, walk_calls

#: The comment marker that justifies a sort in a guarded module.
COLD_PATH_MARKER = "# perf: cold-path"


def _justified(ctx: RuleContext, node: ast.Call) -> bool:
    """True when the call line or the line above carries the marker."""
    for lineno in (node.lineno, node.lineno - 1):
        if 1 <= lineno <= len(ctx.lines):
            if COLD_PATH_MARKER in ctx.lines[lineno - 1]:
                return True
    return False


@register
class HotPathSortRule(Rule):
    """PERF001: unjustified ``sorted()`` in an indexed hot-path module."""

    id = "PERF001"
    summary = (
        "sorted() in a hot-path module without a '# perf: cold-path' "
        "justification"
    )
    rationale = (
        "repro.pbs.scheduler and repro.core.detector sit on the "
        "per-control-cycle path at every cluster size; the 1024-node "
        "scale work (E10) replaced their sorted()-scans with persistent "
        "indexes and live-state reads.  Any sort added back must either move "
        "off the hot path or carry a '# perf: cold-path' comment saying "
        "why a scan is acceptable there (e.g. the reference "
        "implementations the property tests compare against)."
    )
    default_severity = Severity.OFF

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in walk_calls(ctx.tree):
            if not is_name_call(node, "sorted"):
                continue
            if _justified(ctx, node):
                continue
            yield self.finding(
                ctx, node,
                "sorted() on a guarded hot path — use the persistent "
                "index, or justify with a '# perf: cold-path' comment "
                "on this line or the line above",
            )


@register
class EagerTraceEventRule(Rule):
    """PERF003: eager ``TraceEvent(...)`` construction outside repro.trace."""

    id = "PERF003"
    summary = "eager TraceEvent(...) construction outside repro.trace"
    rationale = (
        "Tracer.emit() is pay-as-you-go: it appends a small pending "
        "tuple (nothing at all in 'counts'/'off' trace modes) and "
        "materialises TraceEvent records lazily on first read.  "
        "Building a TraceEvent at the emit site pays the dataclass + "
        "float-boxing cost on every event of every run, sidesteps the "
        "tracer's mode, and forges seq numbers the tracer did not "
        "assign.  Emit through a Tracer; only repro.trace itself "
        "(the materialiser and the JSONL importer) constructs records."
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in walk_calls(ctx.tree):
            resolved = imports.resolve(node.func)
            if resolved is not None:
                if resolved.rsplit(".", 1)[-1] != "TraceEvent":
                    continue
            elif not is_name_call(node, "TraceEvent"):
                continue
            yield self.finding(
                ctx, node,
                "TraceEvent constructed eagerly — call tracer.emit(...) "
                "and let repro.trace materialise records lazily",
            )
