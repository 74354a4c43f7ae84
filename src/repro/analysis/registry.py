"""The rule registry and the base class every lint rule extends.

Rules self-register at import time via the :func:`register` decorator;
:mod:`repro.analysis.rules` imports every rule module so that loading the
package populates the registry.  The registry is the single source of
truth the runner, the CLI ``--rules`` listing, and the documentation
self-test (``tests/analysis/test_docs.py``) all read from.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Type

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.flow.project import Project


class RuleContext:
    """Per-file information handed to every rule's :meth:`Rule.check`.

    ``module`` is the dotted module name derived from the path
    (``repro.core.wire``) or ``None`` when the file is outside the
    ``repro`` package; rules and the severity config use it for scoping.
    """

    def __init__(self, path: str, source: str, tree: ast.Module,
                 module: str | None) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings via :meth:`finding`.  A rule never decides whether
    it applies to a file — scoping is the severity config's job — but it
    may consult ``ctx.module`` to sharpen a message.
    """

    #: Short unique id, e.g. ``DET001``.  Uppercase letters + digits.
    id: str = ""
    #: One-line summary shown in ``--rules`` and the docs.
    summary: str = ""
    #: Longer rationale (docstring style) for the rule catalogue.
    rationale: str = ""
    #: Severity used when the config has no override for the package.
    default_severity: Severity = Severity.ERROR
    #: True for project-wide (graph-aware) rules; see :class:`FlowRule`.
    is_flow: bool = False

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: RuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.default_severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class FlowRule(Rule):
    """Base class for project-wide rules built on ``repro.analysis.flow``.

    A flow rule sees the whole :class:`~repro.analysis.flow.project.Project`
    (import graph, symbol table, call graph) instead of one file, so it
    only runs in :func:`~repro.analysis.runner.lint_paths` — per-file
    :meth:`check` is a no-op.  Findings still carry a real path/line, so
    the per-file suppression machinery applies to them unchanged.
    """

    is_flow: bool = True

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.default_severity,
            path=path,
            line=line,
            col=col,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a :class:`Rule` subclass to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    import repro.analysis.rules  # noqa: F401  (side effect: registration)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def flow_rules() -> List[FlowRule]:
    """Fresh instances of every registered flow rule, sorted by id."""
    return [rule for rule in all_rules() if isinstance(rule, FlowRule)]

