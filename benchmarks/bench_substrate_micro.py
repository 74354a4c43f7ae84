"""Substrate micro-benchmarks (real multi-round timings).

The reproduction experiments run thousands of simulated hours in seconds;
these micro-benchmarks keep the hot paths honest (per the hpc-parallel
optimisation workflow: measure, don't guess):

* raw event throughput of the DES kernel,
* full boot-chain resolution (PXE → GRUB4DOS → local disk),
* detector text-parse over a 16-node ``qstat -f`` listing,
* a live detector check over a busy 1024-node cluster,
* utilisation integration over a large job-record set (NumPy path).
"""

import numpy as np

from repro.boot import Firmware, resolve_boot
from repro.boot.chain import BootEnvironment
from repro.boot.grub4dos import GRUB4DOS_ROM, default_menu_path
from repro.core.detector import PbsDetector, parse_qstat_full
from repro.metrics.recorder import JobRecord
from repro.metrics.utilization import utilization_timeline
from repro.netsvc import DhcpServer, TftpServer
from repro.pbs import JobSpec, PbsCommands, PbsServer
from repro.simkernel import Simulator
from repro.storage import Filesystem, FsType
from tests.conftest import CONTROLMENU_FIG3, make_v1_disk


def test_bench_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        sink = []
        for i in range(10_000):
            sim.schedule(float(i % 100), sink.append, i)
        sim.run()
        return len(sink)

    assert benchmark(run_10k_events) == 10_000


def test_bench_boot_chain_resolution(benchmark):
    disk = make_v1_disk()
    fs = Filesystem(FsType.EXT3)
    fs.write("/tftpboot/grldr", GRUB4DOS_ROM)
    tftp = TftpServer(fs)
    tftp.put(default_menu_path(), CONTROLMENU_FIG3)
    env = BootEnvironment(
        dhcp=DhcpServer(default_bootfile="/grldr"), tftp=tftp
    )
    firmware = Firmware.pxe_first()

    outcome = benchmark(
        resolve_boot, disk, firmware, "02:00:5e:00:00:01", env
    )
    assert outcome.os_name == "linux"


def test_bench_detector_parse(benchmark):
    sim = Simulator()
    server = PbsServer(sim)
    for i in range(1, 17):
        server.create_node(f"enode{i:02d}", np=4)
        server.node_up(f"enode{i:02d}")
    for i in range(16):
        server.qsub(JobSpec(name=f"job{i}", ppn=4, runtime_s=1000.0))
    text = PbsCommands(server).qstat_f()

    jobs = benchmark(parse_qstat_full, text)
    assert len(jobs) == 16


def _busy_pbs_cluster(num_nodes=1024, queued=512):
    """A full 1024-node cluster with a deep backlog: every node runs a
    4-core job and *queued* more wait behind them — the worst realistic
    input for one detector check."""
    sim = Simulator()
    server = PbsServer(sim)
    for i in range(1, num_nodes + 1):
        server.create_node(f"enode{i:04d}", np=4)
        server.node_up(f"enode{i:04d}")
    for i in range(num_nodes + queued):
        server.qsub(JobSpec(name=f"job{i}", ppn=4, runtime_s=100_000.0))
    commands = PbsCommands(server)
    return server, commands, PbsDetector(commands)


def test_bench_detector_check_1024(benchmark):
    """One live detector check: O(active jobs), no text round-trip."""
    _, _, detector = _busy_pbs_cluster()

    report = benchmark(detector.check)
    assert report.running == 1024
    assert report.queued == 512


def test_bench_utilization_timeline(benchmark):
    rng = np.random.default_rng(0)
    starts = rng.uniform(0, 30_000, size=2_000)
    records = [
        JobRecord(
            name=f"j{i}", scheduler="pbs", cores=4,
            submit_time=float(s), start_time=float(s),
            end_time=float(s + rng.uniform(60, 3600)),
        )
        for i, s in enumerate(starts)
    ]

    timeline = benchmark(utilization_timeline, records, 36_000.0, 60.0)
    assert timeline.shape == (600,)
    assert timeline.max() > 0
