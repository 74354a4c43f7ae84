"""The project call graph, including the observer/daemon seams.

Edge kinds, from strongest to weakest evidence:

``direct``
    the callee was resolved through the symbol table — a module-level
    function, a constructor, or a method on a receiver whose static type
    is known (annotations, constructor assignments, property returns).
``self``
    a ``self.method()`` call resolved through the enclosing class (and
    its project base classes).
``observer``
    dynamic dispatch through a callback list: a ``for cb in
    x.observers: cb(...)`` loop gets edges to every callable the project
    registers on an attribute of that name (``.append`` sites).  This is
    how ``PbsServer._notify`` reaches the energy meter and the metrics
    recorder without any static type linking them.  A node hook table is
    the same seam, keyed ``hooks.<kind>`` (``hooks.register(kind, cb)``).
``cha``
    class-hierarchy-analysis fallback: an attribute call on an untyped
    receiver links to every project function of that name.  Weak edges,
    but the taint engine follows them.

Unresolvable calls (builtins, stdlib, dict methods) produce no edge;
the graph under-approximates by design and each rule chooses how to be
conservative on top of it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow.project import Project
from repro.analysis.flow.symbols import (
    FunctionInfo,
    SymbolTable,
    TypeEnv,
    _expr_to_dotted,
)

#: attribute names treated as observer/callback registries when iterated
#: and called: ``observers``, ``node_observers``, ``on_fence``, ...
def _is_observer_attr(attr: str) -> bool:
    return attr == "observers" or attr.endswith("_observers") or attr.startswith("on_")


def _is_hook_table(expr: ast.expr) -> bool:
    """``x.hooks`` or a local ``hooks``: a node hook table."""
    return getattr(expr, "attr", getattr(expr, "id", None)) == "hooks"


#: builtin/stdlib method names the CHA fallback never links — linking
#: every ``.get()`` to every project ``get`` would drown the graph.
_CHA_SKIP = frozenset({
    "append", "add", "clear", "copy", "count", "decode", "discard", "encode",
    "endswith", "extend", "format", "get", "index", "insert", "items", "join",
    "keys", "lower", "pop", "popitem", "read", "remove", "replace", "reverse",
    "rstrip", "setdefault", "sort", "split", "splitlines", "startswith",
    "strip", "title", "update", "upper", "values", "write",
})


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: *caller* may invoke *callee*."""

    caller: str
    callee: str
    kind: str  # "direct" | "self" | "observer" | "cha"
    lineno: int

    def sort_key(self) -> Tuple[str, str, str, int]:
        return (self.caller, self.callee, self.kind, self.lineno)


class CallGraph:
    """Sorted, deterministic call edges over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.symbols: SymbolTable = project.symbols
        self.observers = self._scan_observer_registrations()
        seen: Set[CallEdge] = set()
        for qualname in sorted(self.symbols.functions):
            fn = self.symbols.functions[qualname]
            seen.update(self._edges_of(fn))
        self.edges: List[CallEdge] = sorted(seen, key=CallEdge.sort_key)
        self._in: Dict[str, List[CallEdge]] = {}
        for edge in self.edges:
            self._in.setdefault(edge.callee, []).append(edge)

    # -- queries -------------------------------------------------------------

    def callers_of(self, qualname: str) -> List[CallEdge]:
        return self._in.get(qualname, [])

    # -- observer registration scan ------------------------------------------

    def _scan_observer_registrations(self) -> Dict[str, List[str]]:
        """Every ``<expr>.<observer-attr>.append(cb)`` (key: the attr) and
        ``<expr>.hooks.register("<kind>", cb)`` site, project-wide.

        Returns key → sorted callable qualnames.  The receiver is
        intentionally ignored: observer lists are a pub/sub seam and the
        graph over-approximates by fanning a dispatch loop out to every
        callback registered *anywhere* under that attribute name.
        """
        registered: Dict[str, Set[str]] = {}
        for qualname in sorted(self.symbols.functions):
            fn = self.symbols.functions[qualname]
            env = TypeEnv(self.symbols, fn)
            for node in ast.walk(fn.node):  # type: ignore[arg-type]
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                func, args = node.func, node.args
                if (
                    func.attr == "append"
                    and isinstance(func.value, ast.Attribute)
                    and _is_observer_attr(func.value.attr)
                    and len(args) == 1
                ):
                    key = func.value.attr
                elif (
                    func.attr == "register"
                    and _is_hook_table(func.value)
                    and len(args) == 2
                    and isinstance(args[0], ast.Constant)
                ):
                    key = f"hooks.{args[0].value}"
                else:
                    continue
                callback = self.resolve_callable(fn, env, args[-1])
                if callback is not None:
                    registered.setdefault(key, set()).add(callback)
        return {attr: sorted(names) for attr, names in sorted(registered.items())}

    def resolve_callable(
        self, fn: FunctionInfo, env: TypeEnv, expr: ast.expr
    ) -> Optional[str]:
        """A callback expression → function qualname, if resolvable."""
        if isinstance(expr, ast.Attribute):
            base_type = env.type_of(expr.value)
            if base_type is not None:
                method = self.symbols.find_method(base_type, expr.attr)
                if method is not None:
                    return method.qualname
            return None
        if isinstance(expr, ast.Name):
            target = self.symbols.resolve_call_target(fn.module, expr)
            if target is not None and target[0] == "func":
                return target[1]
        return None

    # -- per-function edges --------------------------------------------------

    def _edges_of(self, fn: FunctionInfo) -> List[CallEdge]:
        env = TypeEnv(self.symbols, fn)
        edges: List[CallEdge] = []
        loop_vars = self._observer_loop_vars(fn)
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in loop_vars:
                for target in self.observers.get(loop_vars[func.id], []):
                    edges.append(CallEdge(fn.qualname, target, "observer", node.lineno))
                continue
            edges.extend(self.resolve_call(fn, env, func, node.lineno))
        return edges

    def _observer_loop_vars(self, fn: FunctionInfo) -> Dict[str, str]:
        """Loop variables iterating an observer attribute → attr name."""
        out: Dict[str, str] = {}
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if (
                isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Attribute)
            ):
                if _is_hook_table(node.iter.value):
                    out[node.target.id] = f"hooks.{node.iter.attr}"
                elif _is_observer_attr(node.iter.attr):
                    out[node.target.id] = node.iter.attr
        return out

    def resolve_call(
        self, fn: FunctionInfo, env: TypeEnv, func: ast.expr, lineno: int
    ) -> List[CallEdge]:
        if isinstance(func, ast.Name):
            target = self.symbols.resolve_call_target(fn.module, func)
            if target is None:
                return []
            kind, qualname = target
            if kind == "class":
                init = self.symbols.find_method(qualname, "__init__")
                if init is not None:
                    return [CallEdge(fn.qualname, init.qualname, "direct", lineno)]
                return []
            if kind == "func":
                return [CallEdge(fn.qualname, qualname, "direct", lineno)]
            return []
        if not isinstance(func, ast.Attribute):
            return []
        # self.method()
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and fn.class_qualname is not None
        ):
            method = self.symbols.find_method(fn.class_qualname, func.attr)
            if method is not None:
                return [CallEdge(fn.qualname, method.qualname, "self", lineno)]
        # typed receiver
        receiver_type = env.type_of(func.value)
        if receiver_type is not None:
            method = self.symbols.find_method(receiver_type, func.attr)
            if method is not None:
                return [CallEdge(fn.qualname, method.qualname, "direct", lineno)]
            return []
        # module-qualified call (mod.func, pkg.mod.Class)
        dotted = _expr_to_dotted(func)
        if dotted is not None:
            target = self.symbols.resolve_call_target(fn.module, func)
            if target is not None:
                kind, qualname = target
                if kind == "class":
                    init = self.symbols.find_method(qualname, "__init__")
                    if init is not None:
                        return [CallEdge(fn.qualname, init.qualname, "direct", lineno)]
                    return []
                if kind == "func":
                    return [CallEdge(fn.qualname, qualname, "direct", lineno)]
        # CHA fallback on method name
        if func.attr in _CHA_SKIP:
            return []
        out: List[CallEdge] = []
        for qualname in self.symbols.by_name.get(func.attr, []):
            candidate = self.symbols.functions[qualname]
            # only methods make sense as attribute-call targets
            if candidate.class_qualname is not None:
                out.append(CallEdge(fn.qualname, qualname, "cha", lineno))
        return out
