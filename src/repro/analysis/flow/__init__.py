"""Project-wide dataflow analysis under the reprolint registry.

The per-file rules (DET001–DET005, TRC001, …) see one module at a time;
everything in this package sees the *project*: an import graph and a
call graph over every scanned file, a symbol table that resolves
methods through the observer/daemon seams, and a small forward taint
engine on top.  The graph-aware rules (DET006, DET007, TRC002 in
:mod:`repro.analysis.rules`) are built on these pieces, and the
graphs themselves are exportable artifacts (``repro-lint --graph-out``).

Layering::

    project.py    SourceFile + Project: parsed files, module table
    modgraph.py   import graph (absolute + relative imports, re-exports)
    symbols.py    classes/functions/attr types; dotted-name resolution
    callgraph.py  call edges: direct, self, CHA fallback, observer hooks
    engine.py     forward taint with per-function summaries (fixpoint)
    graphio.py    deterministic JSON / DOT export of the graphs
    baseline.py   the committed findings baseline (the ratchet)

Everything here is deterministic by construction: files are visited in
sorted order, every edge list and every export is sorted, and the JSON
export is asserted byte-identical across runs by the test battery.
"""

from repro.analysis.flow.baseline import (
    BaselineEntry,
    load_baseline,
    match_baseline,
    normalize_path,
    render_baseline,
)
from repro.analysis.flow.callgraph import CallEdge, CallGraph
from repro.analysis.flow.graphio import graph_from_json, graph_payload, graph_to_dot, graph_to_json
from repro.analysis.flow.modgraph import ImportGraph
from repro.analysis.flow.project import Project, SourceFile
from repro.analysis.flow.symbols import ClassInfo, FunctionInfo, SymbolTable, TypeEnv

__all__ = [
    "BaselineEntry",
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ImportGraph",
    "Project",
    "SourceFile",
    "SymbolTable",
    "TypeEnv",
    "graph_from_json",
    "graph_payload",
    "graph_to_dot",
    "graph_to_json",
    "load_baseline",
    "match_baseline",
    "normalize_path",
    "render_baseline",
]
