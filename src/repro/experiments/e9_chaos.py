"""E9 — chaos sweep: the hardened control plane under injected faults.

The paper assumes a perfect LAN between the two head nodes; this
extension measures what each middleware version does when the LAN (and
the heads themselves) misbehave.  A deterministic
:class:`~repro.faults.plan.FaultPlan` is swept against v1 and v2 while a
small workload forces OS switches in both directions:

* **baseline** — no faults (the control row);
* **lossy** — 25% report loss + up-to-2s jitter between the heads;
* **corrupt** — 30% of wire strings damaged in flight;
* **partition** — a 15-minute head-to-head partition;
* **crash** — the Windows head daemon dies for 15 minutes, then the
  Linux head daemon for 10;
* **chaos** — all of the above at once, plus one hang-at-boot and a
  DHCP flap;
* **nodefail** — a compute node dies hard mid-run (repowered 12 minutes
  later) and a second one crash/recover flaps twice: the heartbeat
  monitor must fence them and both schedulers must requeue or re-place
  the victim jobs without losing one.

Every run is exactly reproducible from ``(seed, plan)``: the injector
draws from named RNG substreams, so the table below is byte-identical
across repeats — which the ``deterministic`` headline asserts by running
the lossy scenario twice.
"""

from __future__ import annotations

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.core.config import COMMUNICATOR_PORT
from repro.experiments import ExperimentOutput
from repro.faults import (
    BootHang,
    FaultInjector,
    FaultPlan,
    HeadCrash,
    LinkFault,
    NodeCrash,
    NodeFlap,
    Partition,
    ServiceFlap,
    WireCorruption,
)
from repro.metrics.report import Table
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE
from repro.winhpc.job import WinJobState

SCENARIOS = (
    "baseline", "lossy", "corrupt", "partition", "crash", "chaos", "nodefail",
)
QUICK_SCENARIOS = ("baseline", "lossy", "chaos", "nodefail")


def _plan(scenario: str, t0: float, linux_head: str, windows_head: str,
          port: int) -> FaultPlan:
    """Build the scenario's fault plan anchored at deployment-done time."""
    lossy = LinkFault(src=windows_head, dst=linux_head,
                      loss_prob=0.25, jitter_s=2.0, start_s=t0)
    corrupt = WireCorruption(port=port, prob=0.3, start_s=t0)
    partition = Partition(
        side_a=(linux_head,), side_b=(windows_head,),
        start_s=t0 + 10 * MINUTE, end_s=t0 + 25 * MINUTE,
    )
    crashes = (
        HeadCrash(side="windows", at_s=t0 + 10 * MINUTE, down_s=15 * MINUTE),
        HeadCrash(side="linux", at_s=t0 + 40 * MINUTE, down_s=10 * MINUTE),
    )
    if scenario == "baseline":
        return FaultPlan(name=scenario)
    if scenario == "lossy":
        return FaultPlan(name=scenario, link_faults=(lossy,))
    if scenario == "corrupt":
        return FaultPlan(name=scenario, corruptions=(corrupt,))
    if scenario == "partition":
        return FaultPlan(name=scenario, partitions=(partition,))
    if scenario == "crash":
        return FaultPlan(name=scenario, head_crashes=crashes)
    if scenario == "chaos":
        return FaultPlan(
            name=scenario,
            link_faults=(lossy,),
            corruptions=(corrupt,),
            partitions=(partition,),
            head_crashes=crashes,
            service_flaps=(
                ServiceFlap(service="dhcp", first_down_at_s=t0 + 30 * MINUTE,
                            down_s=2 * MINUTE),
            ),
            boot_hangs=(BootHang(times=1, start_s=t0),),
        )
    if scenario == "nodefail":
        return FaultPlan(
            name=scenario,
            node_crashes=(
                NodeCrash(node="enode01", at_s=t0 + 3 * MINUTE,
                          restart_after_s=12 * MINUTE),
            ),
            node_flaps=(
                NodeFlap(node="enode02", first_at_s=t0 + 50 * MINUTE,
                         down_s=8 * MINUTE, period_s=25 * MINUTE, count=2),
            ),
        )
    raise ValueError(f"unknown scenario {scenario!r}")


def _chaos_run(version: int, scenario: str, seed: int,
               horizon_s: float) -> dict:
    hybrid = build_hybrid_cluster(
        num_nodes=4, seed=seed, version=version,
        config=MiddlewareConfig(
            version=version,
            check_cycle_s=5 * MINUTE,
            order_timeout_s=12 * MINUTE,
        ),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    sim = hybrid.sim
    cluster = hybrid.cluster
    installation = hybrid.wizard.installation
    plan = _plan(
        scenario, sim.now, cluster.linux_head.name,
        cluster.windows_head.name, COMMUNICATOR_PORT,
    )
    injector = FaultInjector(
        sim, cluster.network, cluster.rng, plan,
        control=hybrid.daemons,
        dhcp=installation.dhcp,
        tftp=installation.tftp,
        nodes={n.name: n for n in cluster.compute_nodes},
        env=cluster.env,
        tracer=hybrid.tracer,
    )
    injector.arm()

    t0 = sim.now
    jobs = {}
    sim.schedule_at(t0 + 1 * MINUTE, lambda: jobs.__setitem__(
        "win_a", hybrid.submit("windows", JobRequest(
            name="winA", cores=4, runtime_s=10 * MINUTE))))
    sim.schedule_at(t0 + 45 * MINUTE, lambda: jobs.__setitem__(
        "win_b", hybrid.submit("windows", JobRequest(
            name="winB", cores=8, runtime_s=10 * MINUTE))))
    sim.schedule_at(t0 + 90 * MINUTE, lambda: jobs.__setitem__(
        "lin_c", hybrid.submit("linux", JobRequest(
            name="linC", nodes=3, ppn=4, runtime_s=10 * MINUTE))))
    sim.run(until=t0 + horizon_s)
    hybrid.finalize()

    daemons = hybrid.daemons
    network = cluster.network
    windows = hybrid.scheduler("windows")
    win_done = sum(
        1 for k in ("win_a", "win_b")
        if k in jobs and windows.get_job(jobs[k]).state is WinJobState.FINISHED
    )
    lin_done = (
        "lin_c" in jobs
        and hybrid.pbs.jobs[jobs["lin_c"]].exit_status == 0
    )
    daemon_processes = [
        daemons.linux_process, daemons.windows_process,
        daemons.ticker_process, daemons.watchdog_process,
    ]
    # NOTE: the tracer is returned separately — the metrics dict is
    # compared for equality by the ``deterministic`` headline.
    return {
        "reports_acked": daemons.windows.reports_acked,
        "reports_failed": daemons.windows.reports_failed,
        "retries": daemons.windows.retries,
        "corrupt_discarded": daemons.linux.corrupt_reports,
        "stale_skips": daemons.linux.stale_skips,
        "injected_drops": network.drops_by_reason["injected"],
        "orders_issued": daemons.orders.orders_issued,
        "orders_confirmed": daemons.orders.orders_confirmed,
        "orders_failed": daemons.orders.orders_failed,
        "switches": hybrid.recorder.switch_count,
        "node_fences": hybrid.health.fences,
        "node_recoveries": hybrid.health.recoveries,
        "requeued_jobs": hybrid.pbs.requeues + hybrid.winhpc.requeues,
        "jobs_done": win_done + (1 if lin_done else 0),
        "daemons_alive": all(p.alive for p in daemon_processes),
        "fault_counters": dict(sorted(injector.counters.items())),
    }, hybrid.tracer


def run(seed: int = 0, quick: bool = False) -> ExperimentOutput:
    scenarios = QUICK_SCENARIOS if quick else SCENARIOS
    horizon_s = 2.5 * HOUR if quick else 3 * HOUR
    output = ExperimentOutput(
        experiment_id="E9",
        title="Control-plane chaos sweep (deterministic fault injection)",
    )
    table = Table(
        ["scenario", "ver", "acked", "retries", "lost", "corrupt",
         "stale-skips", "orders i/c/f", "switches", "jobs 3/3", "daemons"],
        title="3-job workload forcing switches while faults are live "
              "(5-min cycle, 4 nodes)",
    )
    headline = {}
    for scenario in scenarios:
        for version in (1, 2):
            r, tracer = _chaos_run(version, scenario, seed, horizon_s)
            output.attach_trace(f"{scenario}:v{version}", tracer)
            table.add_row([
                scenario, f"v{version}", r["reports_acked"], r["retries"],
                r["reports_failed"], r["corrupt_discarded"], r["stale_skips"],
                f"{r['orders_issued']}/{r['orders_confirmed']}"
                f"/{r['orders_failed']}",
                r["switches"], r["jobs_done"],
                "alive" if r["daemons_alive"] else "DEAD",
            ])
            headline[f"{scenario}:v{version}"] = r
    output.tables.append(table)

    repeat, repeat_tracer = _chaos_run(2, "lossy", seed, horizon_s)
    output.attach_trace("repeat:lossy:v2", repeat_tracer)
    lossy_key = "lossy:v2" if "lossy" in scenarios else None
    output.headline = {
        **headline,
        "all_daemons_survive_every_scenario": all(
            entry["daemons_alive"] for entry in headline.values()
        ),
        "every_scenario_finishes_the_workload": all(
            entry["jobs_done"] == 3 for entry in headline.values()
        ),
        "retries_recover_lost_reports": (
            headline["lossy:v2"]["retries"] > 0
            and headline["lossy:v2"]["reports_acked"]
            > headline["lossy:v2"]["reports_failed"]
        ),
        "deterministic": (
            lossy_key is not None and repeat == headline[lossy_key]
        ),
        # stronger than the metrics comparison: the full event-by-event
        # trace of the repeat run is byte-identical to the first run's
        "trace_deterministic": (
            lossy_key is not None
            and repeat_tracer.export_jsonl()
            == output.traces[lossy_key].export_jsonl()
        ),
        "trace_invariants_ok": output.trace_invariants_ok(),
    }
    if "chaos" in scenarios:
        chaos_v2 = headline["chaos:v2"]
        output.headline["watchdog_reissued_after_boot_hang"] = (
            chaos_v2["fault_counters"].get("boot-hang", 0) >= 1
            and chaos_v2["orders_failed"] >= 1
            and chaos_v2["orders_confirmed"] >= 1
        )
    if "nodefail" in scenarios:
        nodefail_v2 = headline["nodefail:v2"]
        output.headline["node_failures_recovered"] = (
            nodefail_v2["fault_counters"].get("node-crash:enode01", 0) >= 1
            and nodefail_v2["fault_counters"].get("node-crash:enode02", 0) >= 1
            and nodefail_v2["node_fences"] >= 1
            and nodefail_v2["node_recoveries"] >= 1
            and nodefail_v2["jobs_done"] == 3
        )
    output.notes.append(
        "acked/retries/lost count the Windows communicator's reports; "
        "'corrupt' are wire strings the Linux side discarded instead of "
        "dying on; 'stale-skips' are heartbeat evaluations refused because "
        "the last Windows report exceeded the 3-cycle staleness cap; "
        "orders i/c/f = switch orders issued/confirmed/failed by the "
        "watchdog; the nodefail row additionally exercises the heartbeat "
        "monitor's fence/recover path on hard node deaths; every row is "
        "byte-identical across repeats of the same (seed, plan)"
    )
    return output
