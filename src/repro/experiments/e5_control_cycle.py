"""E5 — control-loop reaction time vs communicator cycle length.

§IV.A.3: "Windows communicator fetches queue state in fixed cycles
(intervals), e.g. 10mins."  The cycle bounds the detection latency of a
demand step: a Windows job arriving into an all-Linux cluster waits (up
to one cycle) + (switch-job scheduling) + (reboot) before it can start.

We place a single Windows job at a deterministic offset after the cycle
boundary and sweep the cycle length, decomposing the measured wait into
detection vs boot time.
"""

from __future__ import annotations

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.experiments import ExperimentOutput
from repro.metrics.report import Table
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE
from repro.winhpc.job import WinJobState

CYCLES_MIN = (2, 5, 10, 20)


def _reaction(cycle_min: float, seed: int, num_nodes: int) -> dict:
    hybrid = build_hybrid_cluster(
        num_nodes=num_nodes, seed=seed, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=cycle_min * MINUTE),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    # align to just-after a cycle boundary, then submit mid-cycle: the
    # expected detection latency is half a cycle, worst case one cycle
    now = hybrid.sim.now
    cycle_s = cycle_min * MINUTE
    next_boundary = (int(now / cycle_s) + 1) * cycle_s
    hybrid.sim.run(until=next_boundary + 0.5 * cycle_s)
    submit_time = hybrid.sim.now
    jobid = hybrid.submit(
        "windows", JobRequest(name="probe", cores=4, runtime_s=5 * MINUTE)
    )
    hybrid.sim.run(until=submit_time + 3 * HOUR)
    job = hybrid.scheduler("windows").get_job(jobid)
    assert job.state is WinJobState.FINISHED, job
    decision_time = next(
        r.time for r in hybrid.daemons.linux.decisions if r.decision.is_switch
    )
    return {
        "wait_min": job.wait_time_s / 60.0,
        "detect_min": (decision_time - submit_time) / 60.0,
        "boot_min": (job.start_time - decision_time) / 60.0,
    }, hybrid.tracer


def run(seed: int = 0, quick: bool = False) -> ExperimentOutput:
    num_nodes = 4
    cycles = (5, 10) if quick else CYCLES_MIN
    output = ExperimentOutput(
        experiment_id="E5",
        title="Demand-to-running latency vs communicator cycle length",
    )
    table = Table(
        ["cycle (min)", "detection (min)", "switch+boot (min)",
         "total wait (min)"],
        title="One Windows job arriving mid-cycle into an all-Linux cluster",
    )
    headline = {}
    for cycle in cycles:
        r, tracer = _reaction(cycle, seed, num_nodes)
        output.attach_trace(f"cycle_{cycle}m", tracer)
        table.add_row(
            [cycle, r["detect_min"], r["boot_min"], r["wait_min"]]
        )
        headline[f"cycle_{cycle}m"] = r
    output.tables.append(table)

    cycle_list = list(cycles)
    waits = [headline[f"cycle_{c}m"]["wait_min"] for c in cycle_list]
    boots = [headline[f"cycle_{c}m"]["boot_min"] for c in cycle_list]
    output.headline = {
        **headline,
        "wait_grows_with_cycle": waits == sorted(waits),
        "boot_component_cycle_independent": max(boots) - min(boots) < 2.0,
        "trace_invariants_ok": output.trace_invariants_ok(),
    }
    output.notes.append(
        "detection latency tracks the cycle (~half of it for a mid-cycle "
        "arrival); the boot component is the cycle-independent 3-5 minute "
        "physical cost from E1 — at the paper's 10-minute default the "
        "detector, not the reboot, dominates reaction time"
    )
    return output
