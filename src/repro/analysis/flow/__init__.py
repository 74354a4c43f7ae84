"""Project-wide dataflow analysis under the reprolint registry.

The per-file rules (DET001–DET005, TRC001, …) see one module at a time;
everything in this package sees the *project*: a call graph over every
scanned file, a symbol table that resolves methods through the
observer/daemon seams, and a small forward taint engine on top.  One
rule is built on these pieces: DET007, the wall-clock taint rule in
:mod:`repro.analysis.rules.clock_taint`.  The package has no other
user, so it goes when that rule does.

Layering::

    project.py    SourceFile + Project: parsed files, module table
    symbols.py    classes/functions/attr types; dotted-name resolution
    callgraph.py  call edges: direct, self, CHA fallback, observer hooks
    engine.py     forward taint with per-function summaries (fixpoint)

Everything here is deterministic by construction: files are visited in
sorted order and every edge list is sorted, so findings come out in the
same order on every run.
"""
