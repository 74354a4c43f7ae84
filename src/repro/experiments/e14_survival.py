"""E14 — survival under a node-failure storm.

The paper's middleware assumes compute nodes stay up; real clusters the
size of the related farms (Fermilab's lattice-QCD clusters, the
OpenMosix farm work — see PAPERS.md) lose nodes routinely.  This
experiment drives the hybrid-v2 system with the E10 size-proportional
mixed workload while a seeded *node-failure storm* kills nodes hard
mid-run: power lost instantly, no orderly shutdown, the schedulers'
agents die silently.  The heartbeat monitor (``repro.health``) must
fence every victim, both schedulers must requeue the evicted rerunnable
jobs, and nodes that come back must rejoin the schedulable pool.

Three questions, one table each:

1. **Survival** — across 64→1024 nodes, does every rerunnable job that
   was evicted by a crash still complete?  (The headline asserts 100%.)
2. **Rejoin** — does every fenced node that restarts end the run
   healthy *and* schedulable again (pbsnodes free / HPC node Online)?
3. **Checkpointing** — sweeping ``checkpoint_interval_s`` at one size,
   does the lost-work fraction fall monotonically-ish as the interval
   shrinks?  (Work in whole multiples of the interval survives an
   eviction and is charged against the remaining walltime on restart.)

The storm is drawn from named RNG substreams of the cluster's root
seed, so every run — crash times, down times, victim order — is exactly
reproducible; the ``deterministic`` / ``trace_deterministic`` headlines
assert this by running the smallest configuration twice.  One victim
never restarts, so the run also covers permanent capacity loss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compare import HybridSystem, drive
from repro.core.config import MiddlewareConfig
from repro.experiments import ExperimentOutput
from repro.faults import FaultInjector, FaultPlan, NodeCrash, NodeFlap
from repro.hardware.node import NodeState
from repro.health import HealthState
from repro.metrics.report import Table
from repro.pbs.job import JobState
from repro.simkernel import HOUR, MINUTE
from repro.winhpc.job import WinJobState
from repro.workloads import MixedWorkload

SIZES = (64, 256, 1024)
QUICK_SIZES = (32, 64)

#: checkpoint intervals swept at the smallest size (None = no checkpoints)
SWEEP_INTERVALS = (None, 5 * MINUTE, 15 * MINUTE, HOUR)
QUICK_SWEEP_INTERVALS = (None, 5 * MINUTE)

#: the interval used for the size sweep (the recommended default)
DEFAULT_INTERVAL_S = 15 * MINUTE

#: E10's arrival rate: mixed-workload arrivals per hour per node
RATE_PER_NODE_PER_HOUR = 0.5


def _workload(num_nodes: int, seed: int, horizon_s: float):
    """The E2/E10 generator, rate following the cluster size."""
    return MixedWorkload(
        seed=seed + num_nodes,
        rate_per_hour=num_nodes * RATE_PER_NODE_PER_HOUR,
        windows_fraction=0.25,
        horizon_s=horizon_s,
        max_cores=16,
        runtime_scale=0.25,
    ).generate()


def _storm(cluster, t0: float, horizon_s: float) -> FaultPlan:
    """A seeded node-failure storm anchored at deployment-done time.

    ``max(2, n/10)`` low-index victims (the busiest nodes under FCFS
    placement) crash hard at uniformly drawn times in the first 60% of
    the horizon; all but the last are repowered 8–20 minutes later —
    past the 5-minute fencing latency, so every crash is *seen*.  The
    last victim stays dark for the rest of the run (permanent loss), and
    one extra node crash/recover-flaps twice.
    """
    rng = cluster.rng.spawn("e14-storm")
    names = [n.name for n in cluster.compute_nodes]
    crash_count = max(2, len(names) // 10)
    crashes: List[NodeCrash] = []
    for index, name in enumerate(names[:crash_count]):
        at_s = t0 + rng.uniform(f"crash-at:{name}", 0.1, 0.6) * horizon_s
        if index == crash_count - 1:
            restart_after: Optional[float] = None  # permanent loss
        else:
            restart_after = rng.uniform(f"down:{name}", 8 * MINUTE, 20 * MINUTE)
        crashes.append(NodeCrash(node=name, at_s=at_s,
                                 restart_after_s=restart_after))
    flap_node = names[crash_count]
    flap_at = t0 + rng.uniform("flap-at", 0.2, 0.45) * horizon_s
    return FaultPlan(
        name="e14-storm",
        node_crashes=tuple(crashes),
        node_flaps=(
            NodeFlap(node=flap_node, first_at_s=flap_at,
                     down_s=12 * MINUTE, period_s=35 * MINUTE, count=2),
        ),
    )


def _rejoin_ok(middleware) -> bool:
    """Every fenced node that is powered up again is healthy and
    schedulable on whichever OS it rebooted into."""
    health = middleware.health
    pbs_by_short = {
        record.hostname.split(".")[0]: record
        for record in middleware.pbs.nodes.values()
    }
    for node in middleware.cluster.compute_nodes:
        record = health.health(node.name)
        if record.fence_count == 0 or node.state is not NodeState.UP:
            continue  # never fenced, or still dark (the permanent victim)
        if record.state is not HealthState.HEALTHY:
            return False
        if node.os_name == "linux":
            pbs_record = pbs_by_short.get(node.name)
            if pbs_record is None or not pbs_record.online:
                return False
        else:
            win_record = middleware.winhpc.nodes.get(node.name)
            if win_record is None or not win_record.online:
                return False
    return True


def _survival_run(
    num_nodes: int, seed: int, horizon_s: float,
    checkpoint_interval_s: Optional[float],
) -> Tuple[dict, object]:
    system = HybridSystem(
        num_nodes=num_nodes, seed=seed, version=2,
        config=MiddlewareConfig(
            version=2,
            check_cycle_s=10 * MINUTE,
            checkpoint_interval_s=checkpoint_interval_s,
        ),
    )
    system.deploy()
    middleware = system.middleware
    sim = system.sim
    cluster = middleware.cluster
    t0 = sim.now

    plan = _storm(cluster, t0, horizon_s)
    injector = FaultInjector(
        sim, cluster.network, cluster.rng, plan,
        control=middleware.daemons,
        nodes={n.name: n for n in cluster.compute_nodes},
        env=cluster.env,
        tracer=middleware.tracer,
    )
    injector.arm()

    jobs = sorted(_workload(num_nodes, seed, horizon_s),
                  key=lambda j: j.arrival_s)
    # drain: requeued work may finish well after the horizon
    drive(system, jobs, horizon_s, drain_limit_s=24 * HOUR)

    pbs, win = middleware.pbs, middleware.winhpc
    records = {r.name: r for r in system.recorder.workload_jobs()}
    completed = sum(1 for r in records.values() if r.completed)
    useful_core_s = sum(
        job.runtime_s * job.cores
        for job in jobs
        if (record := records.get(job.name)) is not None and record.completed
    )
    lost_core_s = (
        sum(j.lost_work_s * j.total_cores for j in pbs.jobs.values())
        # workload Windows jobs are CORE-unit, so amount == cores
        + sum(j.lost_work_s * j.amount for j in win.jobs.values())
    )
    evicted_pbs = [j for j in pbs.jobs.values() if j.restarts > 0]
    evicted_win = [j for j in win.jobs.values() if j.restarts > 0]
    survived = (
        sum(1 for j in evicted_pbs
            if j.state is JobState.COMPLETED and j.exit_status == 0)
        + sum(1 for j in evicted_win if j.state is WinJobState.FINISHED)
    )
    evicted = len(evicted_pbs) + len(evicted_win)
    health = middleware.health
    metrics = {
        "submitted": len(jobs),
        "completed": completed,
        "requeues": pbs.requeues + win.requeues,
        "failed_on_fence": pbs.jobs_failed_on_fence + win.jobs_failed_on_fence,
        "evicted_jobs": evicted,
        "evicted_survived": survived,
        "survival_rate": survived / evicted if evicted else 1.0,
        "fences": health.fences,
        "recoveries": health.recoveries,
        "lost_core_s": round(lost_core_s, 3),
        "lost_work_fraction": round(
            lost_core_s / (lost_core_s + useful_core_s), 6
        ) if lost_core_s + useful_core_s > 0 else 0.0,
        "goodput_core_s": round(useful_core_s, 3),
        "fenced_nodes_rejoined": _rejoin_ok(middleware),
        "fault_counters": dict(sorted(injector.counters.items())),
    }
    return metrics, middleware.tracer


def run(seed: int = 0, quick: bool = False) -> ExperimentOutput:
    sizes = QUICK_SIZES if quick else SIZES
    sweep = QUICK_SWEEP_INTERVALS if quick else SWEEP_INTERVALS
    horizon_s = (2 if quick else 8) * HOUR

    output = ExperimentOutput(
        experiment_id="E14",
        title="Node-failure storm: heartbeat fencing, job requeue and "
        "checkpointed recovery",
    )

    size_table = Table(
        ["nodes", "jobs", "completed", "requeues", "evicted", "survived",
         "fences", "recoveries", "lost-work %"],
        title=f"storm = max(2, n/10) hard crashes + 1 flapping node over a "
        f"{horizon_s / HOUR:.0f}h mixed workload "
        f"(checkpoint every {DEFAULT_INTERVAL_S / MINUTE:.0f} min)",
    )
    per_size: Dict[str, dict] = {}
    for num_nodes in sizes:
        metrics, tracer = _survival_run(
            num_nodes, seed, horizon_s, DEFAULT_INTERVAL_S
        )
        output.attach_trace(f"n{num_nodes}", tracer)
        size_table.add_row([
            num_nodes, metrics["submitted"], metrics["completed"],
            metrics["requeues"], metrics["evicted_jobs"],
            metrics["evicted_survived"], metrics["fences"],
            metrics["recoveries"],
            round(100.0 * metrics["lost_work_fraction"], 2),
        ])
        per_size[str(num_nodes)] = metrics
    output.tables.append(size_table)

    sweep_size = sizes[0]
    sweep_table = Table(
        ["checkpoint", "requeues", "lost core-h", "lost-work %", "completed"],
        title=f"checkpoint-interval sweep at {sweep_size} nodes "
        "(same storm, same workload)",
    )
    per_interval: Dict[str, dict] = {}
    for interval in sweep:
        label = "none" if interval is None else f"{interval / MINUTE:.0f}min"
        metrics, tracer = _survival_run(sweep_size, seed, horizon_s, interval)
        output.attach_trace(f"ckpt-{label}", tracer)
        sweep_table.add_row([
            label, metrics["requeues"],
            round(metrics["lost_core_s"] / HOUR, 2),
            round(100.0 * metrics["lost_work_fraction"], 2),
            metrics["completed"],
        ])
        per_interval[label] = metrics
    output.tables.append(sweep_table)

    repeat, repeat_tracer = _survival_run(
        sizes[0], seed, horizon_s, DEFAULT_INTERVAL_S
    )
    smallest_label = f"n{sizes[0]}"
    no_ckpt = per_interval["none"]
    finest = per_interval[
        "none" if len(sweep) == 1 else
        f"{min(i for i in sweep if i is not None) / MINUTE:.0f}min"
    ]
    output.headline = {
        "sizes": list(sizes),
        "per_size": per_size,
        "per_interval": {
            label: {
                "requeues": m["requeues"],
                "lost_core_s": m["lost_core_s"],
                "lost_work_fraction": m["lost_work_fraction"],
                "completed": m["completed"],
            }
            for label, m in per_interval.items()
        },
        # the acceptance criteria of the resilience layer
        "storm_hit_running_jobs": all(
            m["requeues"] >= 1 for m in per_size.values()
        ),
        "rerunnable_survival_is_100pct": all(
            m["survival_rate"] == 1.0 and m["failed_on_fence"] == 0
            for m in per_size.values()
        ),
        "fenced_nodes_rejoined": all(
            m["fenced_nodes_rejoined"] for m in per_size.values()
        ),
        "every_size_fenced_and_recovered": all(
            m["fences"] >= 1 and m["recoveries"] >= 1
            for m in per_size.values()
        ),
        "checkpointing_reduces_lost_work": (
            finest["lost_core_s"] <= no_ckpt["lost_core_s"]
        ),
        "deterministic": repeat == per_size[str(sizes[0])],
        "trace_deterministic": (
            repeat_tracer.export_jsonl()
            == output.traces[smallest_label].export_jsonl()
        ),
        "trace_invariants_ok": output.trace_invariants_ok(),
    }
    output.notes.append(
        "a crash is silent — no orderly shutdown, the victim's scheduler "
        "agents just stop answering — so every eviction rides the "
        "heartbeat monitor's fence path (worst-case latency "
        "fence_misses x beat_s = 5 min); 'evicted' counts jobs with at "
        "least one requeue, and the survival headline asserts every one "
        "of them still completed; the last crash victim is never "
        "repowered, so each row also absorbs permanent capacity loss"
    )
    return output
