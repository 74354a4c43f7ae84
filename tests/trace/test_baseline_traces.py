"""The invariant oracle judges the comparison baselines too.

Every system records into its simulator's tracer, so the three
baselines the hybrid is compared against (a static split, the
mono-stable cluster of ref [5], virtualisation) are traced like the
hybrid.  Their traces are not attached to experiment outputs (the
pinned quick-run exports cover hybrid traces only), so this test runs
each baseline on a small mixed workload and holds its trace to every
invariant, and to the scenario result: one ``job.submitted`` per
submitted job and one ``job.finished`` per completed one.
"""

import pytest

from repro.compare import (
    MonostableSystem,
    StaticSplitSystem,
    VirtualizedSystem,
    run_scenario,
)
from repro.simkernel import HOUR
from repro.trace import check_events
from repro.workloads import MixedWorkload

SEED = 3
NODES = 8
HORIZON_S = 4 * HOUR

BASELINES = {
    "static-split": lambda: StaticSplitSystem(
        num_nodes=NODES, windows_nodes=NODES // 2, seed=SEED
    ),
    "monostable": lambda: MonostableSystem(num_nodes=NODES, seed=SEED),
    "virtualized": lambda: VirtualizedSystem(num_nodes=NODES, seed=SEED),
}


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_trace_is_invariant_clean_and_accounts_for_every_job(name):
    system = BASELINES[name]()
    jobs = MixedWorkload(
        seed=SEED, rate_per_hour=6.0, windows_fraction=0.5,
        horizon_s=HORIZON_S, max_cores=16, runtime_scale=0.25,
    ).generate()
    result = run_scenario(system, jobs, HORIZON_S)
    tracer = system.sim.tracer

    violations = check_events(tracer.events)
    assert violations == [], "; ".join(str(v) for v in violations)
    assert result.submitted > 0
    assert tracer.counts["job.submitted"] == result.submitted
    assert tracer.counts["job.finished"] == result.completed
