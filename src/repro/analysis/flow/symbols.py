"""The project symbol table: who defines what, and what type things are.

This is the resolution layer every graph shares.  It records, per
module, the import aliases and top-level definitions; per class, the
methods, base classes and the *types of attributes* as far as they can
be inferred without executing anything (constructor-parameter
annotations, dataclass field annotations, assignments of constructor
calls); per function, the parameter/return annotations.

Resolution is name-based and conservative: a name that cannot be
resolved stays unresolved (``None``) rather than guessed at — the flow
rules must under-report, never invent.  Re-exports are chased through
package ``__init__`` modules with a bounded depth so
``repro.pbs.PbsServer`` and ``repro.pbs.server.PbsServer`` canonicalise
to the same symbol.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.flow.project import Project, SourceFile

#: Method names treated as in-place container mutations when called on a
#: ``self.<attr>`` receiver (the writer side of TRC002).
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "sort", "reverse", "appendleft", "setdefault",
})

#: Re-export / alias chase depth bound (``repro.pbs`` -> ``repro.pbs.server``).
_CHASE_DEPTH = 6


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_qualname: Optional[str] = None
    params: List[str] = field(default_factory=list)
    param_annotations: Dict[str, str] = field(default_factory=dict)
    return_annotation: Optional[str] = None
    is_property: bool = False

    @property
    def body(self) -> List[ast.stmt]:
        return list(getattr(self.node, "body", []))


@dataclass
class ClassInfo:
    """One class definition with its resolved attribute knowledge."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> resolved type qualname (project class or dotted)
    attr_types: Dict[str, str] = field(default_factory=dict)


def _ann_to_dotted(node: Optional[ast.AST]) -> Optional[str]:
    """Annotation AST → dotted name, unwrapping Optional/union-with-None.

    Container annotations (``List[X]``, ``Dict[...]``) resolve to
    ``None``: the element type is not the expression's type.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        if all(part.isidentifier() for part in text.split(".")) and text:
            return text
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _ann_to_dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    if isinstance(node, ast.Subscript):
        head = _ann_to_dotted(node.value)
        if head is not None and head.split(".")[-1] == "Optional":
            return _ann_to_dotted(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = node.left, node.right
        if isinstance(right, ast.Constant) and right.value is None:
            return _ann_to_dotted(left)
        if isinstance(left, ast.Constant) and left.value is None:
            return _ann_to_dotted(right)
        return None
    return None


@dataclass
class ModuleScope:
    """Name bindings at one module's top level."""

    module: str
    #: local name -> absolute dotted origin (relative imports resolved)
    aliases: Dict[str, str] = field(default_factory=dict)
    #: top-level def name -> "class" | "func"
    defs: Dict[str, str] = field(default_factory=dict)


def _resolve_relative(sf: SourceFile, level: int, target: Optional[str]) -> Optional[str]:
    """Absolute module for a ``from ...x import y`` inside *sf*."""
    parts = sf.module.split(".")
    # a package __init__ is the package itself; a plain module's package
    # is its parent — both lose (level - 1) / level further components
    drop = level - 1 if sf.is_package else level
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop] if drop else parts
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


class SymbolTable:
    """Classes, functions and name resolution over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.scopes: Dict[str, ModuleScope] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: method/function name -> sorted qualnames (the CHA fallback index)
        self.by_name: Dict[str, List[str]] = {}
        for sf in project.files:
            self._collect_module(sf)
        for sf in project.files:
            self._collect_attr_types(sf)
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            self.by_name.setdefault(info.name, []).append(qualname)

    # -- collection ----------------------------------------------------------

    def _collect_module(self, sf: SourceFile) -> None:
        scope = ModuleScope(module=sf.module)
        self.scopes[sf.module] = scope
        for node in sf.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    scope.aliases[local] = origin
            elif isinstance(node, ast.ImportFrom):
                base = (
                    _resolve_relative(sf, node.level, node.module)
                    if node.level
                    else node.module
                )
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    scope.aliases[local] = f"{base}.{alias.name}"
            elif isinstance(node, ast.ClassDef):
                scope.defs[node.name] = "class"
                self._collect_class(sf, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.defs[node.name] = "func"
                self._collect_function(sf, node, class_qualname=None)
        # conditional defs (if TYPE_CHECKING etc.) register names only
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name != "*":
                        local = alias.asname or alias.name
                        scope.aliases.setdefault(local, f"{node.module}.{alias.name}")

    def _collect_class(self, sf: SourceFile, node: ast.ClassDef) -> None:
        qualname = f"{sf.module}.{node.name}"
        info = ClassInfo(qualname=qualname, module=sf.module, name=node.name, node=node)
        self.classes[qualname] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._collect_function(sf, item, class_qualname=qualname)
                info.methods[item.name] = fn

    def _collect_function(
        self,
        sf: SourceFile,
        node: ast.AST,
        class_qualname: Optional[str],
    ) -> FunctionInfo:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        prefix = class_qualname if class_qualname else sf.module
        qualname = f"{prefix}.{node.name}"
        params: List[str] = []
        annotations: Dict[str, str] = {}
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            params.append(arg.arg)
            ann = _ann_to_dotted(arg.annotation)
            if ann is not None:
                annotations[arg.arg] = ann
        is_property = any(
            isinstance(dec, ast.Name) and dec.id == "property"
            for dec in node.decorator_list
        )
        info = FunctionInfo(
            qualname=qualname,
            module=sf.module,
            name=node.name,
            node=node,
            class_qualname=class_qualname,
            params=params,
            param_annotations=annotations,
            return_annotation=_ann_to_dotted(node.returns),
            is_property=is_property,
        )
        self.functions[qualname] = info
        return info

    def _collect_attr_types(self, sf: SourceFile) -> None:
        """Second pass: base classes and attribute types."""
        for node in sf.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            info = self.classes[f"{sf.module}.{node.name}"]
            for base in node.bases:
                dotted = _ann_to_dotted(base)
                if dotted is not None:
                    resolved = self.resolve_type(sf.module, dotted)
                    info.bases.append(resolved or dotted)
            # dataclass-style field annotations at class level
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    dotted = _ann_to_dotted(item.annotation)
                    if dotted is not None:
                        resolved = self.resolve_type(sf.module, dotted)
                        if resolved is not None:
                            info.attr_types[item.target.id] = resolved
            for method in info.methods.values():
                self._collect_method_attr_types(sf, info, method)

    def _collect_method_attr_types(
        self, sf: SourceFile, info: ClassInfo, method: FunctionInfo
    ) -> None:
        for node in ast.walk(method.node):  # type: ignore[arg-type]
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._record_attr_type(info, method, target, node.value, sf)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._record_attr_type(info, method, node.target, node.value, sf)

    def _record_attr_type(
        self,
        info: ClassInfo,
        method: FunctionInfo,
        target: ast.AST,
        value: ast.expr,
        sf: SourceFile,
    ) -> None:
        """Type ``self.x = <param> / <Class(...)> / <call with ann>``."""
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._record_attr_type(info, method, element, value, sf)
            return
        name = _self_attr(target)
        if name is None or name in info.attr_types:
            return
        inferred = self._infer_attr_type(sf, info, method, value)
        if inferred is not None:
            info.attr_types[name] = inferred

    def _infer_attr_type(
        self,
        sf: SourceFile,
        info: ClassInfo,
        method: FunctionInfo,
        value: ast.expr,
    ) -> Optional[str]:
        if isinstance(value, ast.Name) and value.id in method.param_annotations:
            return self.resolve_type(sf.module, method.param_annotations[value.id])
        if isinstance(value, ast.Call):
            callee = self.resolve_call_target(sf.module, value.func)
            if callee is None:
                return None
            kind, qualname = callee
            if kind == "class":
                return qualname
            if kind == "func":
                fn = self.functions.get(qualname)
                if fn is not None and fn.return_annotation is not None:
                    return self.resolve_type(fn.module, fn.return_annotation)
        return None

    # -- resolution ----------------------------------------------------------

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> Optional[Tuple[str, str]]:
        """Canonical ``(kind, qualname)`` for an absolute dotted name.

        Chases re-exports: ``repro.pbs.PbsServer`` resolves through the
        package ``__init__``'s ``from repro.pbs.server import PbsServer``
        to ``("class", "repro.pbs.server.PbsServer")``.
        """
        if _depth > _CHASE_DEPTH:
            return None
        split = self.project.longest_module_prefix(dotted)
        if split is None:
            return None
        module, rest = split
        if not rest:
            return ("module", module)
        scope = self.scopes[module]
        head, _, tail = rest.partition(".")
        if head in scope.defs:
            qualname = f"{module}.{head}"
            kind = scope.defs[head]
            if not tail:
                return (kind, qualname)
            if kind == "class":
                method = self.find_method(qualname, tail)
                if method is not None:
                    return ("func", method.qualname)
            return None
        if head in scope.aliases:
            target = scope.aliases[head] + (f".{tail}" if tail else "")
            return self.resolve_dotted(target, _depth + 1)
        return None

    def resolve_type(self, module: str, dotted: str) -> Optional[str]:
        """Type annotation text → canonical class qualname (or dotted).

        Returns the project class qualname when resolvable, the absolute
        dotted origin when the name is imported from outside the
        project, or ``None`` for unresolvable local names.
        """
        scope = self.scopes.get(module)
        if scope is None:
            return None
        head, _, tail = dotted.partition(".")
        if head in scope.defs:
            full = f"{module}.{dotted}"
        elif head in scope.aliases:
            full = scope.aliases[head] + (f".{tail}" if tail else "")
        else:
            return None
        resolved = self.resolve_dotted(full)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        if resolved is None:
            return full
        return None

    def resolve_call_target(
        self, module: str, func: ast.expr
    ) -> Optional[Tuple[str, str]]:
        """Resolve a ``Call.func`` expression to a project symbol."""
        dotted = _expr_to_dotted(func)
        if dotted is None:
            return None
        scope = self.scopes.get(module)
        if scope is None:
            return None
        head, _, tail = dotted.partition(".")
        if head in scope.defs:
            return self.resolve_dotted(f"{module}.{dotted}")
        if head in scope.aliases:
            full = scope.aliases[head] + (f".{tail}" if tail else "")
            return self.resolve_dotted(full)
        return None

    def find_method(
        self, class_qualname: str, name: str, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Look *name* up on a class, walking project base classes."""
        if _depth > _CHASE_DEPTH:
            return None
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.bases:
            found = self.find_method(base, name, _depth + 1)
            if found is not None:
                return found
        return None

    def class_of_function(self, qualname: str) -> Optional[ClassInfo]:
        fn = self.functions.get(qualname)
        if fn is None or fn.class_qualname is None:
            return None
        return self.classes.get(fn.class_qualname)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` → attr name, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _expr_to_dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class TypeEnv:
    """Static types of names visible inside one function body.

    Flow-insensitive: two passes over the assignments so a chain like
    ``scheduler = self._require(); nodes = scheduler.nodes`` types both
    locals.  ``self`` is typed as the enclosing class.
    """

    def __init__(self, symbols: SymbolTable, fn: FunctionInfo) -> None:
        self.symbols = symbols
        self.fn = fn
        self.types: Dict[str, str] = {}
        if fn.class_qualname is not None and fn.params and fn.params[0] == "self":
            self.types["self"] = fn.class_qualname
        for param, ann in fn.param_annotations.items():
            resolved = symbols.resolve_type(fn.module, ann)
            if resolved is not None:
                self.types[param] = resolved
        for _ in range(2):
            for node in ast.walk(fn.node):  # type: ignore[arg-type]
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                inferred = self.type_of(node.value)
                if inferred is not None:
                    self.types[target.id] = inferred

    def type_of(self, expr: ast.AST) -> Optional[str]:
        """Canonical class qualname of *expr*, or ``None``."""
        if isinstance(expr, ast.Name):
            return self.types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is None:
                return None
            # attribute on a typed object: declared attr type, else a
            # property's return annotation
            info = self.symbols.classes.get(base)
            if info is None:
                return None
            if expr.attr in info.attr_types:
                return info.attr_types[expr.attr]
            method = self.symbols.find_method(base, expr.attr)
            if method is not None and method.is_property and method.return_annotation:
                return self.symbols.resolve_type(method.module, method.return_annotation)
            return None
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Attribute):
                base = self.type_of(expr.func.value)
                if base is not None:
                    method = self.symbols.find_method(base, expr.func.attr)
                    if method is not None and method.return_annotation:
                        return self.symbols.resolve_type(
                            method.module, method.return_annotation
                        )
                    return None
            target = self.symbols.resolve_call_target(self.fn.module, expr.func)
            if target is None:
                return None
            kind, qualname = target
            if kind == "class":
                return qualname
            if kind == "func":
                fn = self.symbols.functions.get(qualname)
                if fn is not None and fn.return_annotation:
                    return self.symbols.resolve_type(fn.module, fn.return_annotation)
        return None
