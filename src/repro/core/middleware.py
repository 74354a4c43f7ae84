"""The ``DualBootOscar`` facade: deploy and operate the hybrid cluster.

This is the top of the stack — what the examples and experiments drive.
``deploy()`` performs the full §III/§IV bring-up in the paper's order
(Windows first, because its stock deployment wipes the disk), wiring
every subsystem together and charging every human intervention to the
:class:`~repro.metrics.effort.AdminEffortLedger`:

======================  ==============================  =====================
phase                   v1 (§III)                       v2 (§IV)
======================  ==============================  =====================
InstallShare            patch diskpart.txt (Figure 10)  same, then swap in the
                                                        Figure-15 reimage script
Windows deploy          every node, MBR ends up         same (PXE makes the
                        Microsoft's                     MBR irrelevant)
OSCAR image             hand-edited ide.disk + the      Figure-14 ide.disk with
                        three master-script edits       ``skip`` (patched, zero
                        (§III.C.1)                      edits)
Linux deploy            GRUB into the MBR + Figure-2    no MBR, PXE-first
                        redirect + FAT control files    firmware + GRUB4DOS flag
control plane           per-node controlmenu switching  head-node flag + plain
                                                        reboot jobs
======================  ==============================  =====================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.config import MiddlewareConfig
from repro.core.controller import BootController, DualBootMenuSpec
from repro.core.controller_v1 import ControllerV1, redirect_menu_lst
from repro.core.controller_v2 import (
    FLICK_BINARY_LINUX,
    FLICK_BINARY_WINDOWS,
    ControllerV2,
)
from repro.core.bootcontrol import register_bootcontrol
from repro.core.daemon import DualBootDaemons, start_daemons
from repro.core.elasticity import ElasticityManager
from repro.core.policy import FcfsPolicy, SwitchPolicy
from repro.core.switchjob import PBS_USER
from repro.energy import EnergyMeter
from repro.errors import MiddlewareError
from repro.hardware.cluster import Cluster, build_cluster
from repro.hardware.node import ComputeNode, NodeState
from repro.health import HeartbeatMonitor
from repro.metrics.effort import AdminEffortLedger
from repro.metrics.recorder import ClusterRecorder
from repro.oscar.idedisk import IDE_DISK_V1_MANUAL, IDE_DISK_V2, parse_ide_disk
from repro.oscar.patches import apply_v2_patches
from repro.oscar.systemimager import deploy_image_to_disk
from repro.oscar.wizard import OscarWizard
from repro.oslayer.base import OSInstance
from repro.sched import JobRequest, SchedulerPersonality, create_scheduler
from repro.simkernel import MINUTE, Simulator
from repro.storage.diskpart import (
    MODIFIED_DISKPART_TXT_V1,
    REIMAGE_DISKPART_TXT_V2,
)
from repro.storage.geometry import WINDOWS_PARTITION_MB
from repro.storage.mbr import BootCode
from repro.windeploy.deploytool import WindowsDeployTool
from repro.windeploy.installshare import InstallShare


class DualBootOscar:
    """A deployed (or deployable) dualboot-oscar hybrid cluster.

    The control plane never talks to a concrete scheduler class: each OS
    side holds a :class:`~repro.sched.SchedulerPersonality` (built via
    :func:`~repro.sched.create_scheduler`), and everything here — job
    submission, fencing, metering, reporting — goes through that seam.
    reprolint rule API002 keeps ``repro.pbs``/``repro.winhpc``/
    ``repro.slurm`` imports out of this module.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[MiddlewareConfig] = None,
        policy: Optional[SwitchPolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config if config is not None else MiddlewareConfig()
        self.policy = policy if policy is not None else FcfsPolicy()
        self.effort = AdminEffortLedger()
        self.recorder = ClusterRecorder()
        #: the simulator's trace, which every component here records into
        self.tracer = cluster.sim.tracer
        #: node-failure resilience and energy accounting, always on;
        #: deploy() attaches the nodes and schedulers and starts them
        self.health = HeartbeatMonitor(self.sim)
        self.health.on_fence.append(self._on_node_fenced)
        self.energy = EnergyMeter(self.sim)

        self.wizard = OscarWizard(cluster)
        #: per-OS-side scheduler personalities (insertion order linux,
        #: windows — fencing/metering loops rely on it for determinism)
        self.schedulers: Dict[str, SchedulerPersonality] = {
            "linux": self.wizard.installation.pbs,
            "windows": create_scheduler(
                self.config.windows_scheduler,
                cluster.sim,
                head_name=cluster.windows_head.name,
            ),
        }
        self.share = InstallShare(cluster.windows_head.os)
        self.deploy_tool = WindowsDeployTool(self.share, self.schedulers["windows"])
        self.controller: Optional[BootController] = None
        self.daemons: Optional[DualBootDaemons] = None
        self.menu_spec: Optional[DualBootMenuSpec] = None
        self.elasticity: Optional[ElasticityManager] = None
        self._deployed = False

    # -- convenient accessors -------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def pbs(self) -> Any:
        """The Linux-side personality (the OSCAR-installed PBS)."""
        return self.schedulers["linux"]

    @property
    def winhpc(self) -> Any:
        """The Windows-side personality (WinHPC unless
        ``config.windows_scheduler`` picked another kind)."""
        return self.schedulers["windows"]

    @property
    def version(self) -> int:
        return self.config.version

    def scheduler(self, side: str) -> SchedulerPersonality:
        """The personality running one OS side ("linux" or "windows")."""
        try:
            return self.schedulers[side]
        except KeyError:
            raise MiddlewareError(
                f"unknown scheduler side {side!r} "
                f"(expected one of: {', '.join(self.schedulers)})"
            ) from None

    # -- deployment ---------------------------------------------------------------

    def deploy(self) -> None:
        """Full bring-up: deploy both OSes everywhere, start the daemons,
        power every node into its initial OS."""
        if self._deployed:
            raise MiddlewareError("already deployed")
        config = self.config
        if (
            config.initial_windows_nodes + config.burst_nodes
            > len(self.cluster.compute_nodes)
        ):
            raise MiddlewareError(
                "initial_windows_nodes + burst_nodes exceeds the cluster size"
            )

        self._deploy_windows_side()
        image = self._deploy_linux_side()
        self._build_controller(image)
        self._prepare_nodes()
        # node-failure resilience: checkpoint credit on requeue
        for scheduler in self.schedulers.values():
            scheduler.checkpoint_interval_s = config.checkpoint_interval_s
        hooks = self.cluster.hooks
        hooks.register("provisioners", self._dualboot_provisioner)
        hooks.register("crash", self._on_node_crash)
        for node in self.cluster.compute_nodes:
            self.health.watch(node)
            self.recorder.attach_node(node)
            self.energy.attach_node(node)
        for personality in self.schedulers.values():
            self.recorder.attach_scheduler(personality)
            self.energy.attach_scheduler(personality)
        self._deployed = True
        self.health.start()
        self._initial_power_on()
        self.daemons = start_daemons(
            cluster=self.cluster,
            pbs=self.pbs,
            winhpc=self.winhpc,
            controller=self.controller,
            policy=self.policy,
            cycle_s=config.check_cycle_s,
            eager_detectors=config.eager_detectors,
            order_timeout_s=config.order_timeout_s,
        )
        if config.elastic.enabled:
            self.elasticity = ElasticityManager(
                sim=self.sim,
                cluster=self.cluster,
                pbs=self.pbs,
                winhpc=self.winhpc,
                orders=self.daemons.orders,
                health=self.health,
                linux_comm=self.daemons.linux,
                controller=self.controller,
            )
            self.elasticity.start()

    def _deploy_windows_side(self) -> None:
        """InstallShare patch + Windows on every node (the paper's order:
        'the Windows partition has to be installed first', §III.C.2)."""
        self.share.write_diskpart(MODIFIED_DISKPART_TXT_V1)
        self.effort.record(
            "edit-script",
            "InstallShare diskpart.txt: claim only the Windows share of the "
            "disk (Figure 10)",
        )
        for node in self.cluster.compute_nodes:
            self.deploy_tool.deploy_node(node, ledger=self.effort)
        if self.config.version == 2:
            # v2 swaps in the partition-1-only reimage script (Figure 15)
            self.share.write_diskpart(REIMAGE_DISKPART_TXT_V2)
            self.effort.record(
                "edit-script",
                "InstallShare diskpart.txt: partition-1-only reimage "
                "(Figure 15)",
            )

    def _deploy_linux_side(self):
        """OSCAR wizard bring-up with version-appropriate image."""
        wizard = self.wizard
        wizard.install_server()
        wizard.configure_packages(include_dualboot=True)

        if self.config.version == 1:
            self.effort.record(
                "edit-script",
                "ide.disk: reserve Windows + FAT control partitions by hand "
                "(§III.C.1 item 1)",
            )
            layout = parse_ide_disk(IDE_DISK_V1_MANUAL)
            spec = DualBootMenuSpec(
                boot_partition=layout.boot_partition(),
                root_partition=layout.root_partition(),
            )
            image = wizard.build_image(
                layout,
                menu_lst=redirect_menu_lst(spec, fat_partition=6),
                include_dualboot_files=True,
            )
            image.apply_all_manual_edits(self.effort)
        else:
            apply_v2_patches(self.wizard.installation)
            layout_text = IDE_DISK_V2.replace(
                "16000", str(int(WINDOWS_PARTITION_MB))
            )
            layout = parse_ide_disk(layout_text)
            image = wizard.build_image(layout, include_dualboot_files=False)

        self.menu_spec = DualBootMenuSpec(
            boot_partition=layout.boot_partition(),
            root_partition=layout.root_partition(),
        )
        wizard.define_clients()
        wizard.setup_networking()
        wizard.deploy_clients()
        return image

    def _build_controller(self, image) -> None:
        if self.config.version == 1:
            self.controller = ControllerV1(
                self.menu_spec,
                fat_partition=6,
                switch_method=self.config.v1_switch_method,
            )
        else:
            installation = self.wizard.installation
            self.controller = ControllerV2(
                self.menu_spec,
                tftp=installation.tftp,
                dhcp=installation.dhcp,
                per_mac_menus=self.config.v2_per_mac_menus,
            )
            self.controller.prepare_cluster()

    def _prepare_nodes(self) -> None:
        windows_first = self.config.initial_windows_nodes
        for index, node in enumerate(self.cluster.compute_nodes):
            initial = "windows" if index < windows_first else "linux"
            self.controller.prepare_node(node, initial_os=initial)

    def _dualboot_provisioner(self, node: ComputeNode, os_instance: OSInstance) -> None:
        """Per-boot wiring: the switch scripts' dependencies must exist."""
        # the heartbeat agent rides both OSes, so an OS switch never looks
        # like a node death
        self.health.attach_agent(node, os_instance)
        if os_instance.kind == "linux":
            register_bootcontrol(os_instance)
            os_instance.mkdir(f"/home/{PBS_USER}/reboot_log")
        if self.config.version == 2 and self.config.v2_per_mac_menus:
            path = (
                FLICK_BINARY_LINUX
                if os_instance.kind == "linux"
                else FLICK_BINARY_WINDOWS
            )
            os_instance.register_binary(path, self._flick)

    def _flick(self, os_instance: OSInstance, args: List[str]) -> str:
        """The per-MAC flag binary a v2 switch job runs on its node."""
        target = args[0]
        self.controller.set_target_os(target, os_instance.context["node"])
        return f"flag set to {target}"

    def _on_node_crash(self, node: ComputeNode) -> None:
        """Hardware crash hook: freeze the victim's jobs where they stand.

        Neither scheduler *reacts* here — the death is silent until the
        health monitor fences the node — but their runners must stop
        making progress the instant the power goes.
        """
        for scheduler in self.schedulers.values():
            scheduler.node_crashed(node.name)

    def _on_node_fenced(self, hostname: str) -> None:
        """Health-monitor fence: evict jobs, abort dead switch orders."""
        failed: List[str] = []
        for scheduler in self.schedulers.values():
            out = scheduler.fence_node(hostname, cause="node fenced")
            failed.extend(out["failed"])
        if self.daemons is not None:
            if failed:
                self.daemons.orders.abort_jobs(
                    failed, cause=f"node {hostname} fenced"
                )
            # the fenced node's eventual reboot must not confirm someone
            # else's pending switch order
            self.daemons.orders.expect_rejoin(hostname)

    def _initial_power_on(self) -> None:
        """Boot every node into its configured initial OS.

        With v2's single shared flag, a mixed initial split needs staging:
        flip the flag to Windows, start the Windows batch, let their boot
        resolution happen, flip back, start the rest.

        The trailing ``burst_nodes`` machines never power on: they start
        DEPROVISIONED — cloud-burst capacity the elasticity manager can
        provision under queue pressure, drawing zero watts until then.
        """
        nodes = self.cluster.compute_nodes
        burst = self.config.burst_nodes
        if burst:
            for node in nodes[len(nodes) - burst:]:
                node.deprovision()
            nodes = nodes[: len(nodes) - burst]
        split = self.config.initial_windows_nodes
        if self.controller.has_cluster_flag and 0 < split:
            self.controller.set_target_os("windows")
            for node in nodes[:split]:
                node.power_on()
            self.sim.run(until=self.sim.now + 1.0)  # resolve before the flip
            self.controller.set_target_os("linux")
            for node in nodes[split:]:
                node.power_on()
        else:
            for node in nodes:
                node.power_on()

    # -- steady-state operation ---------------------------------------------------

    def wait_for_nodes(self, timeout_s: float = 15 * MINUTE) -> None:
        """Advance the simulation until every node is UP (or fail loudly).

        Nodes deliberately parked (SUSPENDED) or never provisioned
        (DEPROVISIONED) are resting states, not boot stragglers — they
        don't count against the deadline.
        """
        deadline = self.sim.now + timeout_s
        self.sim.run(until=deadline)
        not_up = [
            n.name for n in self.cluster.compute_nodes
            if n.state not in (
                NodeState.UP, NodeState.SUSPENDED, NodeState.DEPROVISIONED
            )
        ]
        if not_up:
            raise MiddlewareError(
                f"nodes not up after {timeout_s:.0f}s: {', '.join(not_up)}"
            )

    def submit(self, side: str, request: JobRequest) -> str:
        """Submit a workload job to one OS side; returns the job id.

        The one submission API: the side's personality translates the
        scheduler-neutral :class:`~repro.sched.JobRequest` into its own
        job spec.
        """
        return self.scheduler(side).submit_request(request)

    def nodes_by_os(self) -> Dict[str, List[str]]:
        """Current OS occupancy, for reporting."""
        out: Dict[str, List[str]] = {"linux": [], "windows": [], "other": []}
        for node in self.cluster.compute_nodes:
            key = node.os_name if node.os_name in ("linux", "windows") else "other"
            out[key].append(node.name)
        return out

    def finalize(self) -> None:
        """Close metric intervals at the current time (call before analysis)."""
        self.recorder.finalize(self.sim.now)
        self.energy.finalize()

    def status_report(self) -> str:
        """An operator's one-screen view of the hybrid cluster."""
        from repro.metrics.report import Table
        from repro.simkernel.timeunits import format_duration

        self._require_deployed()
        lines = [
            f"dualboot-oscar v{self.version} on "
            f"{len(self.cluster.compute_nodes)} nodes  "
            f"(t={format_duration(self.sim.now)})",
        ]
        if self.controller is not None:
            lines.append(f"controller: {self.controller.name}")
            if self.controller.has_cluster_flag:
                lines.append(f"target-OS flag: {self.controller.current_target()}")
        table = Table(["node", "state", "os", "boots", "last boot via"])
        for node in self.cluster.compute_nodes:
            last = node.last_boot
            table.add_row([
                node.name,
                node.state.value,
                node.os_name or "-",
                len(node.boot_records),
                (last.via or last.error or "-") if last else "-",
            ])
        lines.append(table.render())
        lines.append(" | ".join(
            f"{p.display_name}: {len(p.running_jobs())} running, "
            f"{len(p.queued_jobs())} queued, "
            f"{p.free_cores()} free cores"
            for p in self.schedulers.values()
        ))
        lines.append(
            f"switches so far: {self.recorder.switch_count}; "
            f"admin interventions: {self.effort.count()}"
        )
        return "\n".join(lines)

    # -- maintenance flows (experiment E4) ---------------------------------------

    def reimage_windows(self, node: ComputeNode) -> None:
        """Reimage a node's Windows side with the share's current script,
        repairing whatever that breaks — and charging the ledger."""
        self._require_deployed()
        if node.state is NodeState.UP:
            node.power_off()
        report = self.deploy_tool.reimage_node(node, ledger=self.effort)
        if report.destroyed_linux:
            # v1 path: clean wiped Linux; redeploy the image + control files
            deploy_image_to_disk(self.wizard.installation.image, node.disk)
            self._reprepare(node)
        elif report.mbr_was_grub and self.config.version == 1:
            # Windows rewrote the MBR; v1 boots from disk, so GRUB must be
            # restored by hand (v2 never notices)
            node.disk.install_mbr(
                BootCode(BootCode.GRUB, config_partition=self.menu_spec.boot_partition)
            )
            self.effort.record(
                "fix-mbr",
                "reinstall GRUB stage1 after the Windows installer rewrote "
                "the MBR",
                node=node.name,
            )
            self._reprepare(node)
        node.power_on()

    def reimage_linux(self, node: ComputeNode) -> None:
        """Reimage the Linux side (systemimager run)."""
        self._require_deployed()
        if node.state is NodeState.UP:
            node.power_off()
        deploy_image_to_disk(self.wizard.installation.image, node.disk)
        self._reprepare(node)
        node.power_on()

    def rebuild_image(self) -> None:
        """Rebuild the golden image — v1 must redo every §III.C.1 edit
        ("It has to be redone each time administrator rebuilds the node
        image"); v2 regenerates cleanly."""
        self._require_deployed()
        installation = self.wizard.installation
        image = installation.image
        if self.config.version == 1:
            image.fat_mkpartfs = False
            image.rsync_fat_ok = False
            image.foreign_lines_removed = False
            image.apply_all_manual_edits(self.effort)

    def _reprepare(self, node: ComputeNode) -> None:
        self.controller.prepare_node(node, initial_os="linux")

    def _require_deployed(self) -> None:
        if not self._deployed:
            raise MiddlewareError("deploy() has not been run")


def build_hybrid_cluster(
    num_nodes: int = 16,
    seed: int = 0,
    version: Optional[int] = None,
    config: Optional[MiddlewareConfig] = None,
    policy: Optional[SwitchPolicy] = None,
    sim: Optional[Simulator] = None,
) -> DualBootOscar:
    """One-call construction of an (undeployed) hybrid cluster.

    *version* picks the middleware version when no *config* is given
    (default 2); with a *config* it may only repeat ``config.version``.

    >>> hybrid = build_hybrid_cluster(num_nodes=4, seed=7)
    >>> hybrid.deploy()
    >>> hybrid.wait_for_nodes()
    >>> sorted(hybrid.nodes_by_os()["linux"])
    ['enode01', 'enode02', 'enode03', 'enode04']
    """
    if config is None:
        config = MiddlewareConfig() if version is None else MiddlewareConfig(version=version)
    elif version is not None and version != config.version:
        raise MiddlewareError(
            f"version={version} contradicts config.version={config.version}"
        )
    simulator = sim if sim is not None else Simulator()
    cluster = build_cluster(simulator, num_nodes=num_nodes, seed=seed)
    return DualBootOscar(cluster, config=config, policy=policy)
