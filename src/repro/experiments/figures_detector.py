"""F5–F8 — detector wire format and the PBS text formats it parses.

Drives a live PBS server through the three queue states of Figure 6 and
prints the detector output for each, plus ``pbsnodes`` / ``qstat -f``
excerpts in the shapes of Figures 7 and 8.  In each state the report
rebuilt from the rendered ``qstat -f`` text (the paper's Perl path) must
equal the live check.
"""

from __future__ import annotations

from repro.core.detector import PbsDetector, WinHpcDetector, qstat_report
from repro.experiments import ExperimentOutput
from repro.metrics.report import Table
from repro.pbs import JobSpec, PbsCommands, PbsServer
from repro.simkernel import Simulator
from repro.winhpc import HpcSchedulerConnection, WinHpcScheduler, WinJobSpec


def _check(detector: PbsDetector, roundtrips: list):
    """The live report; records whether ``qstat -f`` text rebuilds it."""
    report = detector.check()
    text = qstat_report(detector.commands.qstat_f(), eager=detector.eager)
    roundtrips.append(
        (text.wire, text.running, text.queued, text.debug)
        == (report.wire, report.running, report.queued, report.debug)
    )
    return report


def run(seed: int = 0, quick: bool = False) -> ExperimentOutput:
    del seed, quick
    output = ExperimentOutput(
        experiment_id="F5-F8",
        title="Detector wire format (Figures 5-6) over live PBS text "
        "(Figures 7-8)",
    )
    sim = Simulator()
    server = PbsServer(sim, first_jobid=1185)
    for i in range(1, 17):
        server.create_node(f"enode{i:02d}", np=4)
        server.node_up(f"enode{i:02d}")
    commands = PbsCommands(server)
    detector = PbsDetector(commands)
    roundtrips: list = []

    states = Table(
        ["queue state", "wire string", "debug line"],
        title="Figure 6: the three detector outputs",
    )

    # state 1: other (empty)
    report = _check(detector, roundtrips)
    states.add_row(["Other state", report.wire, report.debug[0]])
    wire_other = report.wire

    # state 2: job running, no queuing
    server.qsub(JobSpec(name="sleep", nodes=1, ppn=4, runtime_s=600.0))
    report = _check(detector, roundtrips)
    states.add_row([report.debug[0], report.wire, f"R=1 nR=0"])
    wire_running = report.wire
    qstat_text = commands.qstat_f()
    pbsnodes_text = commands.pbsnodes()

    # state 3: stuck (all nodes down, one job queued)
    for host in list(server.nodes):
        server.node_down(host)
    sim.run()  # let the node-loss kill of the running job land
    stuck_jobid = server.qsub(JobSpec(name="md", nodes=1, ppn=4, runtime_s=60.0))
    report = _check(detector, roundtrips)
    states.add_row(["Queue stuck", report.wire, report.debug[1]])
    wire_stuck = report.wire
    output.tables.append(states)

    output.notes.append(
        "qstat -f excerpt (Figure 8 shape):\n"
        + "\n".join(qstat_text.splitlines()[:12])
    )
    output.notes.append(
        "pbsnodes excerpt (Figure 7 shape):\n"
        + "\n".join(pbsnodes_text.splitlines()[:7])
    )

    # Windows-side detector sees the same wire format via the SDK
    winhpc = WinHpcScheduler(sim)
    winhpc.add_node("enode01", cores=4)
    sdk = HpcSchedulerConnection()
    sdk.connect(winhpc)
    win_detector = WinHpcDetector(sdk)
    win_job = winhpc.submit(WinJobSpec(name="render", amount=4, runtime_s=1.0))
    win_report = win_detector.check()

    output.headline = {
        "wire_other": wire_other,
        "wire_running": wire_running,
        "wire_stuck": wire_stuck,
        "stuck_wire_expected": f"10004{stuck_jobid}",
        "windows_wire_stuck": win_report.wire,
        "qstat_has_exec_host": "exec_host = " in qstat_text,
        "pbsnodes_has_status": "status = opsys=linux" in pbsnodes_text,
        "qstat_roundtrip_matches": len(roundtrips) == 3 and all(roundtrips),
    }
    output.notes.append(
        "both figure-6 idle outputs are '00000none'; the stuck output "
        "carries the first queued job's id and CPU need"
    )
    return output
