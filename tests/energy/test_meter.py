"""Energy meter vs hand-computed closed forms.

With every timing distribution pinned to zero variance, each phase of
the node's life has an exact duration, so the watt integral is a short
sum of rectangles computable on paper.  The meter must reproduce those
numbers exactly — any drift here means the E11 kWh tables are fiction.
"""

import pytest

from repro.energy import EnergyMeter, PowerModel
from repro.hardware import ComputeNode, INTEL_Q8200, NodeState
from repro.hardware.nic import Nic, mac_for_index
from repro.hardware.power import RebootTimingModel
from repro.sched import SCHEDULER_KINDS, JobRequest, create_scheduler
from repro.simkernel import Simulator
from repro.simkernel.rng import RngStreams
from repro.trace.events import ENERGY_MODEL, ENERGY_REPORT, ENERGY_STATE
from tests.conftest import make_v1_disk

#: every draw collapses to its mean: cold boot = 30 + 5 + 60 = 95 s,
#: suspend entry = 10 s, resume = 20 s, provisioning lead = 100 s
EXACT_TIMING = RebootTimingModel(
    shutdown=(30.0, 0.0, 30.0, 30.0),
    post=(30.0, 0.0, 30.0, 30.0),
    loader=(5.0, 0.0, 5.0, 5.0),
    linux_boot=(60.0, 0.0, 60.0, 60.0),
    windows_boot=(80.0, 0.0, 80.0, 80.0),
    pxe_overhead=(5.0, 0.0, 5.0, 5.0),
    suspend=(10.0, 0.0, 10.0, 10.0),
    resume=(20.0, 0.0, 20.0, 20.0),
    provision=(100.0, 0.0, 100.0, 100.0),
)

COLD_BOOT_S = 95.0


def make_rig(seed=1):
    sim = Simulator()
    node = ComputeNode(
        sim=sim,
        name="enode01",
        spec=INTEL_Q8200,
        nic=Nic(mac_for_index(1)),
        rng=RngStreams(seed),
        timing=EXACT_TIMING,
    )
    node.disk = make_v1_disk()
    meter = EnergyMeter(sim)
    meter.attach_node(node)
    return sim, node, meter, sim.tracer


class _PbsJob:
    def __init__(self, jobid, exec_slots):
        self.jobid = jobid
        self.exec_slots = exec_slots

    @property
    def key(self):
        return self.jobid

    def allocation_by_host(self):
        cores = {}
        for fqdn, _core in self.exec_slots:
            host = fqdn.split(".")[0]
            cores[host] = cores.get(host, 0) + 1
        return cores


def test_boot_idle_suspend_resume_closed_form():
    sim, node, meter, _ = make_rig()
    model = meter.model

    node.power_on()
    sim.run(until=COLD_BOOT_S)
    assert node.state is NodeState.UP
    # 95 s of boot transient, zero seconds OFF (power_on at t=0)
    assert meter.total_joules() == pytest.approx(95.0 * model.booting_w)

    sim.run(until=COLD_BOOT_S + 100.0)          # 100 s idle at 70 W
    node.suspend()
    sim.run(until=COLD_BOOT_S + 110.0)          # 10 s suspend entry at 120 W
    assert node.state is NodeState.SUSPENDED
    sim.run(until=COLD_BOOT_S + 210.0)          # 100 s parked at 6 W
    node.resume()
    sim.run(until=COLD_BOOT_S + 230.0)          # 20 s resume at 120 W
    assert node.state is NodeState.UP
    sim.run(until=COLD_BOOT_S + 330.0)          # 100 s idle again

    expected_by_state = {
        "booting": (95.0 + 20.0) * model.booting_w,
        "shutting_down": 10.0 * model.booting_w,
        "up": 200.0 * model.idle_w,
        "suspended": 100.0 * model.suspended_w,
    }
    by_state = meter.joules_by_state()
    assert by_state == pytest.approx(expected_by_state)
    assert meter.total_joules() == pytest.approx(sum(expected_by_state.values()))


def test_deprovisioned_span_is_free():
    sim, node, meter, _ = make_rig()
    node.deprovision()                           # instant, from OFF at t=0
    sim.run(until=500.0)
    assert node.state is NodeState.DEPROVISIONED
    assert meter.total_joules() == 0.0

    node.provision()
    sim.run(until=500.0 + 100.0 + COLD_BOOT_S)   # 100 s lead + cold boot
    assert node.state is NodeState.UP
    model = meter.model
    # the whole provisioning window (lead + boot chain) burns booting watts
    assert meter.node_joules("enode01") == pytest.approx(
        (100.0 + COLD_BOOT_S) * model.booting_w
    )


def test_busy_core_accounting_uses_started_snapshot():
    sim, node, meter, _ = make_rig()
    node.power_on()
    sim.run(until=COLD_BOOT_S)
    baseline = meter.total_joules()

    job = _PbsJob("7.ehead", [("enode01.cluster", 0), ("enode01.cluster", 1)])
    meter._job_event("pbs", "started", job)
    sim.run(until=COLD_BOOT_S + 50.0)            # 50 s at 70 + 2×22 W
    # the scheduler wipes exec_slots before observers hear "requeued" —
    # the meter must release the cores from its own snapshot anyway
    job.exec_slots = []
    meter._job_event("pbs", "requeued", job)
    sim.run(until=COLD_BOOT_S + 100.0)           # 50 s back at idle

    model = meter.model
    expected = 50.0 * (model.idle_w + 2 * model.core_w) + 50.0 * model.idle_w
    assert meter.total_joules() - baseline == pytest.approx(expected)

    account = meter.accounts["enode01"]
    assert account.busy_cores == 0
    # releasing an unknown job must not push the count negative
    meter._job_event("pbs", "finished", job)
    assert account.busy_cores == 0


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_requeued_job_releases_its_busy_cores(kind):
    """The job's allocation is shared by the ``job.started`` trace event
    and the meter's snapshot, so a requeue must rebind it, not clear it:
    the meter still releases the cores and the trace keeps them."""
    sim, node, meter, tracer = make_rig()
    node.power_on()
    sim.run(until=COLD_BOOT_S)
    scheduler = create_scheduler(kind, sim, head_name="ehead.cluster")
    if kind == "pbs":
        scheduler.create_node("enode01", np=4)
    else:
        scheduler.add_node("enode01", cores=4)
    scheduler.node_online("enode01")
    meter.attach_scheduler(scheduler)
    jobid = scheduler.submit_request(
        JobRequest(name="j", cores=2, runtime_s=1000.0)
    )
    account = meter.accounts["enode01"]
    assert account.busy_cores == 2

    assert scheduler.fence_node("enode01")["requeued"] == [
        scheduler.get_job(jobid).job_id
    ]
    assert account.busy_cores == 0
    assert scheduler.get_job(jobid).allocation_by_host() == {}
    [started] = tracer.events_of("job.started")
    assert started.fields["cores"] == {"enode01": 2}


def test_energy_state_emitted_once_per_power_transition():
    sim, node, meter, tracer = make_rig()
    node.power_on()
    sim.run(until=COLD_BOOT_S + 10.0)

    job = _PbsJob("7.ehead", [("enode01.cluster", 0), ("enode01.cluster", 1)])
    meter._job_event("pbs", "started", job)
    assert meter.accounts["enode01"].watts == 70.0 + 2 * 22.0
    sim.run(until=COLD_BOOT_S + 20.0)
    meter._job_event("pbs", "finished", job)
    # busy cores move the draw but emit no energy.state
    assert meter.accounts["enode01"].busy_cores == 0

    node.reboot()                                # SHUTTING_DOWN → BOOTING
    sim.run()

    states = [
        (e.fields["state"], e.fields["watts"], e.fields["busy_cores"])
        for e in tracer.events_of(ENERGY_STATE)
    ]
    # attach, then one event per transition, including the
    # SHUTTING_DOWN→BOOTING hop that draws the same 120 W on both sides
    assert states == [
        ("off", 3.0, 0),
        ("booting", 120.0, 0),
        ("up", 70.0, 0),
        ("shutting_down", 120.0, 0),
        ("booting", 120.0, 0),
        ("up", 70.0, 0),
    ]


def test_meter_traces_its_power_model_once():
    sim, _node, meter, tracer = make_rig()
    (event,) = tracer.events_of(ENERGY_MODEL)
    assert event.seq == 0
    assert PowerModel(**event.fields) == meter.model


def test_finalize_is_idempotent_and_reports_every_node():
    sim, node, meter, tracer = make_rig()
    node.power_on()
    sim.run(until=COLD_BOOT_S + 100.0)
    meter.finalize()
    meter.finalize()

    reports = tracer.events_of(ENERGY_REPORT)
    assert len(reports) == 2                     # one node + the cluster line
    node_report, cluster_report = reports
    assert node_report.node == "enode01"
    assert cluster_report.node is None
    assert node_report.fields["joules"] == pytest.approx(
        cluster_report.fields["total_joules"]
    )
    assert cluster_report.fields["total_joules"] == pytest.approx(
        meter.total_joules()
    )
