"""E10 — scale sweep: the control plane at 64→1024 nodes.

The paper's Eridani cluster has 16 nodes; related clusters (Fermilab's
lattice-QCD farms, the OpenMosix scalable-farm work — see PAPERS.md) run
one to two orders of magnitude larger.  This experiment sweeps the
hybrid-v2 system under the E2 mixed workload generator with the arrival
rate scaled to the cluster size, and reports **wall time per simulated
hour** — the number the indexed scheduler, the live-state detectors
and the kernel heap hygiene are accountable to (docs/PERFORMANCE.md).

Wall-clock readings here are the *measurand*: they are reported in the
headline but never fed back into the simulation, so traces stay
byte-identical across repeats (the determinism battery runs this
experiment twice and compares trace exports, not headlines).
"""

from __future__ import annotations

import time

from repro.compare import HybridSystem, run_scenario
from repro.core.config import MiddlewareConfig
from repro.experiments import ExperimentOutput, attach_system_trace
from repro.metrics.report import Table
from repro.simkernel import HOUR, MINUTE
from repro.workloads import MixedWorkload

SIZES = (64, 128, 256, 512, 1024)
QUICK_SIZES = (32, 64)

#: Mixed-workload arrivals per hour per node (0.5/h/node gives the
#: 1024-node run its 10k+ jobs over 24 simulated hours).
RATE_PER_NODE_PER_HOUR = 0.5


def _workload(num_nodes: int, seed: int, horizon_s: float):
    """The E2 generator, with the rate following the cluster size."""
    return MixedWorkload(
        seed=seed + num_nodes,
        rate_per_hour=num_nodes * RATE_PER_NODE_PER_HOUR,
        windows_fraction=0.25,
        horizon_s=horizon_s,
        max_cores=16,
        runtime_scale=0.25,
    ).generate()


def _scale_run(num_nodes: int, seed: int, horizon_s: float) -> dict:
    jobs = _workload(num_nodes, seed, horizon_s)
    system = HybridSystem(
        num_nodes=num_nodes, seed=seed, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=10 * MINUTE),
    )
    start = time.perf_counter()  # reprolint: disable=DET001 -- wall time is the measurand; it is reported, never fed into the simulation
    result = run_scenario(system, jobs, horizon_s)
    wall_s = time.perf_counter() - start  # reprolint: disable=DET001 -- wall time is the measurand; it is reported, never fed into the simulation
    sim_hours = result.horizon_s / HOUR
    return {
        "system": system,
        "result": result,
        "wall_s": wall_s,
        "sim_hours": sim_hours,
        "wall_ms_per_sim_hour": 1000.0 * wall_s / sim_hours,
        "events": system.sim.events_executed,
        "compactions": system.sim.compactions,
    }


def run(seed: int = 0, quick: bool = False) -> ExperimentOutput:
    sizes = QUICK_SIZES if quick else SIZES
    horizon_s = (2 if quick else 24) * HOUR

    output = ExperimentOutput(
        experiment_id="E10",
        title="Scale sweep: hybrid v2 under a size-proportional mixed "
        "workload (wall time per simulated hour)",
    )
    table = Table(
        ["nodes", "jobs", "completed", "switches", "sim h", "events",
         "queue compactions"],
        title=f"Poisson {RATE_PER_NODE_PER_HOUR}/h per node, 25% Windows, "
        f"{horizon_s / HOUR:.0f}h horizon + drain, 10-min control cycle",
    )

    per_size: dict = {}
    for num_nodes in sizes:
        r = _scale_run(num_nodes, seed, horizon_s)
        result = r["result"]
        attach_system_trace(output, f"n{num_nodes}", r["system"])
        table.add_row([
            num_nodes,
            result.submitted,
            result.completed,
            result.switches,
            round(r["sim_hours"], 1),
            r["events"],
            r["compactions"],
        ])
        per_size[str(num_nodes)] = {
            "jobs": result.submitted,
            "completed": result.completed,
            "switches": result.switches,
            "wall_s": r["wall_s"],
            "wall_ms_per_sim_hour": r["wall_ms_per_sim_hour"],
            "events": r["events"],
        }
    output.tables.append(table)

    largest = per_size[str(sizes[-1])]
    output.headline = {
        "sizes": list(sizes),
        "max_nodes": sizes[-1],
        "per_size": per_size,
        "largest_run_jobs": largest["jobs"],
        "largest_run_wall_s": largest["wall_s"],
        # the acceptance bound this PR is accountable to (trivially met in
        # quick mode, asserted at full scale by bench_e10_scale)
        "largest_run_under_60s": largest["wall_s"] < 60.0,
        "every_size_completed_jobs": all(
            entry["completed"] > 0 for entry in per_size.values()
        ),
        "trace_invariants_ok": output.trace_invariants_ok(),
    }
    output.notes.append(
        "wall time measures the host, not the simulation, so it is kept "
        "out of this table: the headline's per-size wall_s and "
        "wall_ms_per_sim_hour carry it, and bench_e10_scale.py asserts "
        "the largest leg's bound"
    )
    return output
