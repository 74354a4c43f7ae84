"""reprolint flow-analysis benchmarks.

The graph-aware pass (import graph + call graph + symbol table + taint
fixpoint over the whole of ``src/repro``) runs in CI on every push, so
its cost is part of every contributor's feedback loop.  These benches
keep it honest:

* one full flow lint of ``src/repro`` (the CI invocation) must finish
  well under the 30 s budget;
* the project/call-graph build is timed separately, so a slowdown can
  be attributed to graph construction vs rule checking.

Baselines land in ``benchmarks/reports/BENCH_*.json`` via the autouse
fixture in ``conftest.py`` (never committed — see tests/test_reports_audit).
"""

import pathlib

from repro.analysis import build_project, lint_paths

REPO_ROOT = pathlib.Path(__file__).parents[1]
SRC = str(REPO_ROOT / "src" / "repro")

#: hard wall for the whole-repo flow pass (acceptance gate)
FLOW_BUDGET_S = 30.0


def test_bench_full_flow_lint(benchmark):
    def run():
        return lint_paths([SRC])

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.files_checked > 100
    assert report.findings == [], [f.render() for f in report.findings]
    assert benchmark.stats.stats.mean < FLOW_BUDGET_S


def test_bench_callgraph_build(benchmark):
    def build():
        project = build_project([SRC])
        return len(project.callgraph.edges)

    edges = benchmark.pedantic(build, rounds=1, iterations=1)
    assert edges > 1000
    assert benchmark.stats.stats.mean < FLOW_BUDGET_S
