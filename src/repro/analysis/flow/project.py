"""The unit of project-wide analysis: every parsed file, as one object.

A :class:`Project` owns the parsed :class:`SourceFile` records for one
lint invocation and lazily builds the derived structures the flow rules
share — the symbol table and the call graph.  Files are stored sorted
by module name so every derived structure is deterministic regardless
of how the runner discovered them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.flow.callgraph import CallGraph
    from repro.analysis.flow.symbols import SymbolTable


@dataclass
class SourceFile:
    """One parsed source file with its dotted module name.

    ``module`` is never ``None`` at this layer: files outside the
    ``repro`` package get a fallback name derived from their scan root
    (``benchmarks.bench_e10_scale``, ``det007_bad.meter``) so the
    graphs can still resolve intra-package references in fixture
    packages and host-side trees.
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    is_package: bool = False


class Project:
    """Every scanned file plus the lazily-built shared analyses."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files: List[SourceFile] = sorted(files, key=lambda f: f.module)
        self.modules: Dict[str, SourceFile] = {}
        self._path_module: Dict[str, str] = {}
        for sf in self.files:
            # first definition wins on (pathological) duplicate modules;
            # sorted order keeps the winner stable
            self.modules.setdefault(sf.module, sf)
            self._path_module.setdefault(sf.path, sf.module)
        self._symbols: Optional["SymbolTable"] = None
        self._callgraph: Optional["CallGraph"] = None

    # -- derived structures (built once, shared by every flow rule) ----------

    @property
    def symbols(self) -> "SymbolTable":
        if self._symbols is None:
            from repro.analysis.flow.symbols import SymbolTable

            self._symbols = SymbolTable(self)
        return self._symbols

    @property
    def callgraph(self) -> "CallGraph":
        if self._callgraph is None:
            from repro.analysis.flow.callgraph import CallGraph

            self._callgraph = CallGraph(self)
        return self._callgraph

    # -- lookups -------------------------------------------------------------

    def module_of_path(self, path: str) -> Optional[str]:
        return self._path_module.get(path)

    def longest_module_prefix(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Split *dotted* into (project module, remainder), longest first.

        ``repro.pbs.server.PbsServer.qsub`` → ``("repro.pbs.server",
        "PbsServer.qsub")`` when that module is in the project.
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                return module, ".".join(parts[cut:])
        return None
