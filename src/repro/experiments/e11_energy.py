"""E11 — energy accounting under power-aware elasticity.

The paper's hybrid cluster keeps every node powered around the clock;
the tri-stable extension (suspend-to-RAM + a deprovisioned cloud-burst
pool) lets the control plane shrink the powered fleet when queues are
empty and grow it back under pressure.  This experiment quantifies the
trade on the same workload twice per size:

* **always-on** — the paper's configuration: every node up for the
  whole run, elasticity off;
* **power-aware** — a quarter of the fleet starts DEPROVISIONED (the
  burst pool) and the elasticity manager suspends idle donors under low
  pressure, resuming/provisioning when the queue backs up.

The workload is a deliberately bursty day: a low-rate mixed stream
(long idle troughs for the suspend path) plus one deterministic
mid-run arrival spike big enough to force resumes *and* cold burst
provisions.  Both policies must complete every job — the comparison is
at **equal utilisation** (same completed core-hours over the same fleet
and horizon), so the headline is pure energy: total joules and
**joules per completed job-hour**, with the per-state split showing
where the always-on configuration burns its surplus (idle watts).

Every run's trace carries the meter's ``energy.model``, one
``energy.state`` per power transition, the ``job.started`` cores and the
``energy.report`` totals, and is checked against the ``energy-conserved``
invariant, which replays the meter from them; determinism
is asserted by running the smallest power-aware configuration twice and
comparing the canonical JSONL byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.compare import HybridSystem, drive
from repro.core.config import ElasticConfig, MiddlewareConfig
from repro.experiments import ExperimentOutput
from repro.metrics.report import Table
from repro.simkernel import HOUR, MINUTE
from repro.workloads import MixedWorkload, WorkloadJob

SIZES = (16, 32, 64)
QUICK_SIZES = (8, 16)

#: low background rate — the troughs are what elasticity harvests
RATE_PER_NODE_PER_HOUR = 0.35

#: the deterministic mid-run spike (fraction of horizon, jobs per node)
SPIKE_AT_FRACTION = 0.45
SPIKE_JOBS_PER_NODE = 1.0
SPIKE_RUNTIME_S = 40 * MINUTE
SPIKE_CORES = 4


def _workload(num_nodes: int, seed: int, horizon_s: float) -> List[WorkloadJob]:
    """Low-rate mixed background + one synchronized Linux arrival spike."""
    background = MixedWorkload(
        seed=seed + num_nodes,
        rate_per_hour=num_nodes * RATE_PER_NODE_PER_HOUR,
        windows_fraction=0.2,
        horizon_s=horizon_s,
        max_cores=8,
        runtime_scale=0.25,
    ).generate()
    spike_at = SPIKE_AT_FRACTION * horizon_s
    spike = [
        WorkloadJob(
            name=f"spike-{index:03d}",
            os_name="linux",
            cores=SPIKE_CORES,
            runtime_s=SPIKE_RUNTIME_S,
            arrival_s=spike_at,
        )
        for index in range(int(num_nodes * SPIKE_JOBS_PER_NODE))
    ]
    return sorted(background + spike, key=lambda j: (j.arrival_s, j.name))


def _energy_run(
    num_nodes: int, seed: int, horizon_s: float, power_aware: bool,
) -> Tuple[dict, object]:
    """One policy run; returns (metrics, tracer)."""
    burst = num_nodes // 4 if power_aware else 0
    system = HybridSystem(
        num_nodes=num_nodes, seed=seed, version=2,
        config=MiddlewareConfig(
            version=2,
            check_cycle_s=10 * MINUTE,
            elastic=ElasticConfig(enabled=power_aware),
            burst_nodes=burst,
        ),
    )
    system.deploy()
    middleware = system.middleware
    jobs = _workload(num_nodes, seed, horizon_s)
    # drain: woken capacity may still be finishing the spike's tail
    drive(system, jobs, horizon_s, drain_limit_s=12 * HOUR)

    meter = middleware.energy
    records = {r.name: r for r in system.recorder.workload_jobs()}
    completed_jobs = [
        job for job in jobs
        if (record := records.get(job.name)) is not None and record.completed
    ]
    useful_core_s = sum(j.runtime_s * j.cores for j in completed_jobs)
    job_hours = sum(j.runtime_s for j in completed_jobs) / HOUR
    joules = meter.total_joules()
    capacity_core_s = middleware.cluster.total_cores * horizon_s
    elasticity = middleware.elasticity
    metrics = {
        "submitted": len(jobs),
        "completed": len(completed_jobs),
        "joules": round(joules, 3),
        "kwh": round(joules / 3_600_000.0, 6),
        "job_hours": round(job_hours, 6),
        "joules_per_job_hour": round(joules / job_hours, 3) if job_hours else 0.0,
        "utilisation": round(useful_core_s / capacity_core_s, 6),
        "joules_by_state": {
            state: round(value, 3)
            for state, value in sorted(meter.joules_by_state().items())
        },
        "suspends": elasticity.suspends if elasticity is not None else 0,
        "resumes": elasticity.resumes if elasticity is not None else 0,
        "provisions": elasticity.provisions if elasticity is not None else 0,
        "stale_holds": elasticity.stale_holds if elasticity is not None else 0,
        "fences": middleware.health.fences,
    }
    return metrics, middleware.tracer


def run(seed: int = 0, quick: bool = False) -> ExperimentOutput:
    sizes = QUICK_SIZES if quick else SIZES
    horizon_s = (3 if quick else 6) * HOUR

    output = ExperimentOutput(
        experiment_id="E11",
        title="Energy accounting: always-on vs power-aware elasticity at "
        "equal utilisation",
    )

    table = Table(
        ["nodes", "policy", "jobs", "kWh", "J/job-h", "util %",
         "suspends", "resumes", "provisions"],
        title=f"bursty mixed day over {horizon_s / HOUR:.0f}h "
        f"(background {RATE_PER_NODE_PER_HOUR}/h/node + a "
        f"{SPIKE_JOBS_PER_NODE:.0g}-job/node spike at "
        f"{SPIKE_AT_FRACTION:.0%} of the horizon; power-aware parks a "
        f"quarter of the fleet as a burst pool)",
    )
    split_table = Table(
        ["nodes", "policy", "up kWh", "booting kWh", "suspended kWh",
         "off kWh"],
        title="where the joules went (per power state)",
    )
    per_size: Dict[str, Dict[str, dict]] = {}
    for num_nodes in sizes:
        row: Dict[str, dict] = {}
        for policy, power_aware in (("always-on", False), ("power-aware", True)):
            metrics, tracer = _energy_run(
                num_nodes, seed, horizon_s, power_aware
            )
            output.attach_trace(f"n{num_nodes}-{policy}", tracer)
            row[policy] = metrics
            table.add_row([
                num_nodes, policy, metrics["completed"], metrics["kwh"],
                metrics["joules_per_job_hour"],
                round(100.0 * metrics["utilisation"], 2),
                metrics["suspends"], metrics["resumes"],
                metrics["provisions"],
            ])
            split = metrics["joules_by_state"]
            split_table.add_row([
                num_nodes, policy,
                round(split.get("up", 0.0) / 3_600_000.0, 4),
                round(
                    (split.get("booting", 0.0) + split.get("shutting_down", 0.0))
                    / 3_600_000.0, 4,
                ),
                round(split.get("suspended", 0.0) / 3_600_000.0, 4),
                round(
                    (split.get("off", 0.0) + split.get("deprovisioned", 0.0))
                    / 3_600_000.0, 4,
                ),
            ])
        per_size[str(num_nodes)] = row
    output.tables.append(table)
    output.tables.append(split_table)

    repeat, repeat_tracer = _energy_run(sizes[0], seed, horizon_s, True)
    smallest = per_size[str(sizes[0])]
    output.headline = {
        "sizes": list(sizes),
        "per_size": per_size,
        "power_aware_saves_energy": all(
            row["power-aware"]["joules"] < row["always-on"]["joules"]
            for row in per_size.values()
        ),
        "savings_pct_by_size": {
            size: round(
                100.0
                * (row["always-on"]["joules"] - row["power-aware"]["joules"])
                / row["always-on"]["joules"],
                2,
            )
            for size, row in per_size.items()
        },
        # same workload completed over the same fleet and horizon — the
        # energy comparison is not bought with dropped or delayed work
        "equal_utilisation": all(
            row["power-aware"]["completed"] == row["always-on"]["completed"]
            == row["always-on"]["submitted"]
            and row["power-aware"]["utilisation"]
            == row["always-on"]["utilisation"]
            for row in per_size.values()
        ),
        "elastic_engaged": all(
            row["power-aware"]["suspends"] >= 1
            and row["power-aware"]["resumes"] >= 1
            for row in per_size.values()
        ),
        "burst_pool_engaged": any(
            row["power-aware"]["provisions"] >= 1
            for row in per_size.values()
        ),
        # orderly suspension is fence-immune: planned downtime must never
        # look like a node death to the heartbeat monitor
        "no_spurious_fences": all(
            metrics["fences"] == 0
            for row in per_size.values()
            for metrics in row.values()
        ),
        "deterministic": repeat == smallest["power-aware"],
        "trace_deterministic": (
            repeat_tracer.export_jsonl()
            == output.traces[f"n{sizes[0]}-power-aware"].export_jsonl()
        ),
        "trace_invariants_ok": output.trace_invariants_ok(),
    }
    output.notes.append(
        "both policies run the identical job list and must finish all of "
        "it, so utilisation (completed core-hours over fleet capacity x "
        "horizon) is equal by construction — the joules-per-job-hour gap "
        "is therefore pure overhead: always-on pays idle watts through "
        "every trough, power-aware pays suspend/resume transients plus "
        "single-digit suspended watts; a suspended node parks via an "
        "orderly service stop, so the heartbeat monitor sees planned "
        "downtime (agent_down) and the fence count stays zero"
    )
    return output
