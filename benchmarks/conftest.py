"""Benchmark-harness plumbing.

Every bench runs its experiment exactly once under pytest-benchmark
(``pedantic(rounds=1)``: the timing of interest is the one full
reproduction run, not a micro-benchmark average) and *publishes* the
rendered tables — to the terminal (so ``bench_output.txt`` carries the
reproduced rows) and to ``benchmarks/reports/<id>.txt``.

Each bench additionally drops a machine-readable timing baseline at
``benchmarks/reports/BENCH_<name>.json`` so successive runs can be
diffed for regressions without parsing pytest-benchmark's terminal
table.  The baseline is the *median* round: on a shared host a few
slow rounds drag a micro-bench's mean far from its typical time, and
the median stays put.  A ``run_once`` bench has one round, so its
median is its only time.
"""

import json
import pathlib
import platform

import pytest

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture()
def publish(capsys):
    """Print an ExperimentOutput past pytest's capture and archive it."""

    def _publish(output) -> None:
        text = output.render()
        REPORTS_DIR.mkdir(exist_ok=True)
        safe_id = output.experiment_id.lower().replace("/", "_").replace("-", "_")
        (REPORTS_DIR / f"{safe_id}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)
            print()

    return _publish


@pytest.fixture(autouse=True)
def _bench_baseline(request):
    """Emit a ``BENCH_*.json`` baseline for every benchmark-using test.

    Historically only the ``run_once`` experiment benches wrote baselines;
    the substrate micro-benches timed the kernel/detector/scheduler hot
    paths without leaving a machine-readable record, so optimisations
    there were invisible in the perf trajectory.  This autouse fixture
    covers both: any test that requested the ``benchmark`` fixture gets a
    baseline, named after the test.
    """
    uses_benchmark = "benchmark" in request.fixturenames
    # Resolve during setup: teardown-time getfixturevalue is unreliable.
    benchmark = request.getfixturevalue("benchmark") if uses_benchmark else None

    yield

    if benchmark is None:
        return
    stats = getattr(benchmark, "stats", None)
    if stats is None:  # the bench errored before the timed call
        return
    name = request.node.name.replace("[", "_").replace("]", "").strip("_")
    REPORTS_DIR.mkdir(exist_ok=True)
    baseline = {
        "bench": request.node.name,
        "module": request.node.parent.name,
        "seconds": stats.stats.median,
        "rounds": stats.stats.rounds,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    path = REPORTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


@pytest.fixture()
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer (the
    timing of interest is the one full reproduction run); the baseline
    JSON is emitted by ``_bench_baseline``."""

    def _run(fn, **kwargs):
        return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)

    return _run
