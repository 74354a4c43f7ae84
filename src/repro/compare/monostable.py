"""Baseline: the mono-stable one-Linux-scheduler hybrid (ref [5]).

Kureshi, Holmes & Liang's earlier design keeps a *single* scheduler (PBS
on Linux) as the source of truth; Windows exists only transiently.  A
Windows job books whole nodes through PBS, reboots them into Windows,
runs, and reboots them back to Linux — the cluster always relaxes to the
Linux state (hence *mono-stable*; the paper's v1/v2 keep both states
stable and claim "flexibility and speed-up" over this design, §III.C).

Modelling note (recorded in DESIGN.md): the double reboot is charged as
runtime padding on the PBS job — the node is booked for
``switch-in + runtime + switch-back``.  This keeps the single-scheduler
property exact while reproducing the cost structure that the bi-stable
design eliminates for consecutive Windows jobs.
"""

from __future__ import annotations

import math

from repro.compare.base import ComparableSystem, job_request
from repro.errors import SchedulerError
from repro.hardware.cluster import Cluster, build_cluster
from repro.hardware.power import RebootTimingModel
from repro.oscar.idedisk import IDE_DISK_V1_MANUAL, parse_ide_disk
from repro.oscar.wizard import OscarWizard
from repro.sched import JobRequest
from repro.simkernel import MINUTE, Simulator
from repro.simkernel.rng import RngStreams
from repro.workloads.jobs import WorkloadJob


class MonostableSystem(ComparableSystem):
    """One PBS scheduler; Windows is a per-job round trip."""

    label = "monostable"

    def __init__(self, num_nodes: int = 16, seed: int = 0) -> None:
        super().__init__()
        self.cluster: Cluster = build_cluster(
            Simulator(), num_nodes=num_nodes, seed=seed
        )
        self._wizard = OscarWizard(self.cluster)
        self._timing = RebootTimingModel()
        self._rng = RngStreams(seed).spawn("monostable")
        self._windows_job_index = 0

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def pbs(self):
        return self._wizard.installation.pbs

    @property
    def total_cores(self) -> int:
        return self.cluster.total_cores

    def deploy(self) -> None:
        wizard = self._wizard
        wizard.install_server()
        wizard.configure_packages(include_dualboot=True)
        image = wizard.build_image(
            parse_ide_disk(IDE_DISK_V1_MANUAL), include_dualboot_files=True
        )
        image.apply_all_manual_edits()
        wizard.define_clients()
        wizard.setup_networking()
        wizard.deploy_clients()
        for node in self.cluster.compute_nodes:
            self.recorder.attach_node(node)
            node.power_on()
        self.recorder.attach_scheduler(self.pbs)
        self.sim.run(until=self.sim.now + 15 * MINUTE)

    def _round_trip_overhead(self, tag: str) -> float:
        """Switch-in to Windows plus switch-back to Linux for one booking."""
        into = self._timing.draw(self._rng, f"mono:{tag}:in", "windows")
        back = self._timing.draw(self._rng, f"mono:{tag}:out", "linux")
        return into.total_s + back.total_s

    def submit(self, job: WorkloadJob) -> None:
        if job.os_name == "linux":
            request = job_request(job)
        else:
            # whole nodes booked for the Windows excursion
            self._windows_job_index += 1
            request = JobRequest(
                name=job.name, nodes=max(1, math.ceil(job.cores / 4)), ppn=4,
                runtime_s=job.runtime_s + self._round_trip_overhead(
                    f"w{self._windows_job_index}"
                ),
                tag=job.tag,
            )
        try:
            self.pbs.submit_request(request)
        except SchedulerError:
            self.rejected += 1
