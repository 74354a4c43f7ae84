"""F2–F4 — the GRUB control artefacts and the switch job.

Regenerates Figures 2 and 3 (the ``menu.lst`` redirect and the control
menu) from real disk geometry, executes Figure 4's switch job end to end
on a simulated node, and verifies the boot outcome flips.
"""

from __future__ import annotations

from repro.boot import Firmware, resolve_boot
from repro.boot.chain import BootEnvironment
from repro.core.bootcontrol import register_bootcontrol
from repro.core.controller import DualBootMenuSpec
from repro.core.controller_v1 import ControllerV1, redirect_menu_lst
from repro.core.switchjob import pbs_switch_script_v1
from repro.experiments import ExperimentOutput
from repro.hardware.nic import Nic, mac_for_index
from repro.hardware.node import ComputeNode
from repro.hardware.specs import INTEL_Q8200
from repro.metrics.report import Table
from repro.oslayer.base import OSInstance
from repro.pbs.script import parse_pbs_script
from repro.simkernel import Simulator
from repro.simkernel.rng import RngStreams

SPEC = DualBootMenuSpec(boot_partition=2, root_partition=7)


def _build_v1_node(sim: Simulator, seed: int) -> ComputeNode:
    """A deployed v1 node (same layout as the Eridani nodes)."""
    from repro.oscar.idedisk import IDE_DISK_V1_MANUAL, parse_ide_disk
    from repro.oscar.imagebuilder import build_image
    from repro.oscar.systemimager import deploy_image_to_disk
    from repro.oslayer.windows import install_windows
    from repro.storage.diskpart import (
        DiskpartInterpreter,
        MODIFIED_DISKPART_TXT_V1,
    )

    node = ComputeNode(
        sim=sim,
        name="enode01",
        spec=INTEL_Q8200,
        nic=Nic(mac_for_index(1)),
        rng=RngStreams(seed),
    )
    DiskpartInterpreter(node.disk).run(MODIFIED_DISKPART_TXT_V1)
    install_windows(node.disk)
    image = build_image(
        parse_ide_disk(IDE_DISK_V1_MANUAL),
        include_dualboot_files=True,
        menu_lst=redirect_menu_lst(SPEC, fat_partition=6),
    )
    image.apply_all_manual_edits()
    deploy_image_to_disk(image, node.disk)
    return node


def _provision_bootcontrol(node: ComputeNode, os_instance: OSInstance) -> None:
    """The dualboot-oscar provisioning the middleware would install."""
    if os_instance.kind == "linux":
        register_bootcontrol(os_instance)
        os_instance.mkdir("/home/sliang/reboot_log")


def run(seed: int = 0, quick: bool = False) -> ExperimentOutput:
    del quick
    output = ExperimentOutput(
        experiment_id="F2-F4",
        title="GRUB control files (Figures 2-3) and the OS-switch job "
        "(Figure 4)",
    )
    sim = Simulator()
    node = _build_v1_node(sim, seed)
    controller = ControllerV1(SPEC, switch_method="bootcontrol")
    controller.prepare_node(node, initial_os="linux")

    menu = node.disk.filesystem(2).read("/grub/menu.lst")
    control = node.disk.filesystem(6).read("/controlmenu.lst")
    output.notes.append("generated /boot/grub/menu.lst (Figure 2):\n" + menu)
    output.notes.append(
        "generated controlmenu.lst (Figure 3):\n" + control
    )
    output.notes.append(
        "generated PBS switch job (Figure 4):\n"
        + pbs_switch_script_v1("windows", method="bootcontrol")
    )

    before = resolve_boot(
        node.disk, Firmware.disk_first(), node.mac, BootEnvironment()
    )

    node.hooks.register("provisioners", _provision_bootcontrol)

    # execute the Figure-4 job body on the node's OS
    node.power_on()
    sim.run()
    from repro.oslayer.shell import run_script

    script = pbs_switch_script_v1("windows", method="bootcontrol")
    spec = parse_pbs_script(script)
    proc = sim.spawn(
        run_script(node.current_os, spec.script,
                   env={"PBS_JOBID": "1185.eridani.qgg.hud.ac.uk"})
    )
    sim.run()
    result = proc.result
    after_reboot_os = node.os_name

    table = Table(
        ["step", "value"], title="Figure-4 job executed on a live node"
    )
    table.add_row(["boot before switch", before.os_name])
    table.add_row(["script exit code", result.exit_code])
    table.add_row(["controlmenu default now", controller.current_target(node)])
    table.add_row(["OS after automatic reboot", after_reboot_os])
    output.tables.append(table)

    output.headline = {
        "boot_before": before.os_name,
        "script_ok": result.ok,
        "flag_after": controller.current_target(node),
        "os_after_reboot": after_reboot_os,
        "redirect_uses_configfile": "configfile /controlmenu.lst" in menu,
        "fig3_titles_present": (
            "CentOS-5.4_Oscar-5b2-linux" in control
            and "Win_Server_2K8_R2-windows" in control
        ),
    }
    return output
