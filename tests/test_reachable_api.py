"""Every function, method and class in ``src/repro`` is reached by something
that ships.

A name counts as reached when any Python file under ``src/``, ``benchmarks/``
or ``examples/`` uses it: as a bare name, as an attribute, or inside a string
(``getattr`` targets, span entry points).  A method is reached only through
an attribute (``obj.name``), a ``getattr``/``hasattr``/``attrgetter``
target, or a bare name in a class body (an alias such as
``_node_key = fqdn``): a local ``def`` of the same name, a builtin or a
word inside a string cannot call it.  Neither its own definition, nor a
use inside a definition of the same name (a forwarder such as
``def f(self): return self.inner.f()``, or a recursive call), nor a
docstring, nor a re-export from an ``__init__.py`` counts.  The scan works
on names alone, so it can only find dead code, never prove code live; a
name that only tests reach is dead code with a test attached, and belongs
under ``tests/`` or nowhere.

Lint rules are reached through the rule registry, so a class decorated
``@register`` counts as dispatched.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SHIPPED = [ROOT / "src", ROOT / "benchmarks", ROOT / "examples"]

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Names reached by dispatch on a name pattern, not by a reference.
DISPATCHED = re.compile(r"^(__\w+__|check_\w+|_cmd_\w+)$")

# Unreached on purpose, each with the reason it stays.
KEPT: Dict[str, str] = {
    # reference oracles that equivalence tests hold the fast paths to
    "node_idle": "per-node oracle for the kept idle counts",
    "squeue": "SLURM text listing, the oracle of the detector property tests",
    "squeue_report": "parser of that listing, the same oracle",
    # inspection helpers that several tests read
    "has_host": "DHCP/DNS inspection helper read by tests",
    "file_count": "filesystem inspection helper read by tests",
    "overlaps": "partition-table inspection helper read by tests",
    "entry_for": "GRUB menu inspection helper read by tests",
    "is_stock": "bootloader inspection helper read by tests",
    "uncordon_node": "inverse of cordon_node, exercised by the contract battery",
    "pending_issues": "order-queue inspection helper read by tests",
    "active_leases": "DHCP inspection helper read by tests",
    "app_by_name": "Table I lookup read by the catalog and MDCS tests",
    "trace_exports": "label -> export map the determinism and equivalence "
                     "tests compare",
    "usable_core_seconds": "per-OS capacity integral the recorder tests read",
    "delete": "file removal the boot-chain tests use to break a disk",
    "copy_tree_from": "whole-tree copy the filesystem tests read",
    "step": "single-event kernel step the interleaving and property tests "
            "drive",
    "lint_source": "single-file lint entry point the rule fixture, config "
                   "and suppression tests drive every per-file rule through",
    # what later roadmap items build on
    "events_of": "trace query API the trace CLI builds on",
    "events_with_prefix": "trace query API the trace CLI builds on",
    "read_jsonl": "trace query API the trace CLI builds on",
    "status_report": "cluster status view the trace CLI builds on",
    "save_trace": "workload trace persistence scenario specs build on",
    "load_trace": "workload trace persistence scenario specs build on",
    "VirtualizedSystem": "baseline that docs/PAPER_MAP.md maps to a paper claim",
}


def _python_files(roots: List[Path]) -> Iterator[Path]:
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path


def _registered(node: ast.AST) -> bool:
    """A ``@register``ed lint rule class, reached through the registry."""
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Name) and d.id == "register"
        for d in node.decorator_list
    )


def _docstrings(tree: ast.AST) -> Set[int]:
    """ids of the string constants that are docstrings."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _reexports(tree: ast.Module) -> Set[int]:
    """ids of the ``__all__`` strings of an ``__init__.py``."""
    found: Set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.update(id(n) for n in ast.walk(node.value))
    return found


class _References(ast.NodeVisitor):
    """Collect the names a module uses, and apart from them the uses that
    can reach a method (``attributes``).  A use inside a definition of the
    same name does not count: a forwarder would keep its target alive, and
    a string that names its definition (a ``__repr__``, an error message)
    would make every class that prints its own name reached."""

    def __init__(self, skip: Set[int]) -> None:
        self.skip = skip
        self.enclosing: List[str] = []
        self.in_class_body: List[bool] = [False]
        self.names: Set[str] = set()
        self.attributes: Set[str] = set()

    def _definition(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    ) -> None:
        self.enclosing.append(node.name)
        self.in_class_body.append(isinstance(node, ast.ClassDef))
        self.generic_visit(node)
        self.in_class_body.pop()
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str, attribute: bool = False) -> None:
        if name not in self.enclosing:
            self.names.add(name)
            if attribute:
                self.attributes.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id, attribute=self.in_class_body[-1])

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr, attribute=True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name):
            targets = {
                "getattr": node.args[1:2], "hasattr": node.args[1:2],
                "attrgetter": node.args,
            }.get(node.func.id, [])
            for arg in targets:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    for name in arg.value.split("."):
                        self._use(name, attribute=True)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and id(node) not in self.skip:
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                self._use(word)


def referenced_names() -> Tuple[Set[str], Set[str]]:
    """Every name the shipped code uses, and the uses that reach methods."""
    names: Set[str] = set()
    attributes: Set[str] = set()
    for path in _python_files(SHIPPED):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = _docstrings(tree)
        if path.name == "__init__.py":
            skip |= _reexports(tree)
        visitor = _References(skip)
        visitor.visit(tree)
        names |= visitor.names
        attributes |= visitor.attributes
    return names, attributes


def defined_names() -> List[Tuple[str, str, bool]]:
    """(name, ``file:line``, is a method) of every def and class in the
    package."""
    found: List[Tuple[str, str, bool]] = []
    for path in _python_files([PACKAGE]):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {
            id(child)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not _registered(node):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.append((node.name, where, id(node) in methods))
    return found


def test_every_definition_is_reached_by_shipped_code():
    names, attributes = referenced_names()
    unreached = sorted(
        f"{where} {name}"
        for name, where, method in defined_names()
        if name not in (attributes if method else names)
        and name not in KEPT
        and not DISPATCHED.match(name)
    )
    assert not unreached, (
        "defined in src/repro but used by nothing in src/, benchmarks/ or "
        "examples/ (delete it, or add it to KEPT with a reason):\n  "
        + "\n  ".join(unreached)
    )


def test_every_kept_name_is_still_defined_and_still_unreached():
    defined = defined_names()
    names, attributes = referenced_names()
    reached = {
        name for name, _, method in defined
        if name in (attributes if method else names)
    }
    stale = sorted(name for name in KEPT
                   if name not in {name for name, _, _ in defined}
                   or name in reached)
    assert not stale, f"KEPT entries no longer needed: {stale}"
