#!/usr/bin/env python
"""Inspect the paper's text artefacts, live.

Prints, from a running simulated cluster, the exact text formats the
paper reproduces in its figures: the detector's three outputs (Figure 6),
``pbsnodes`` (Figure 7), ``qstat -f`` (Figure 8), the generated GRUB
control files (Figures 2-3), and the three diskpart scripts (Figures
9/10/15).

Run with::

    python examples/inspect_formats.py
"""

from repro.core.controller import DualBootMenuSpec, make_dualboot_menu
from repro.core.controller_v1 import redirect_menu_lst
from repro.core.detector import PbsDetector
from repro.core.switchjob import pbs_switch_script_v1
from repro.pbs import JobSpec, PbsCommands, PbsServer
from repro.simkernel import Simulator
from repro.storage.diskpart import (
    MODIFIED_DISKPART_TXT_V1,
    ORIGINAL_DISKPART_TXT,
    REIMAGE_DISKPART_TXT_V2,
)


def banner(title: str) -> None:
    print(f"\n{'=' * 64}\n{title}\n{'=' * 64}")


def main() -> None:
    sim = Simulator()
    server = PbsServer(sim, first_jobid=1185)
    for i in range(1, 17):
        server.create_node(f"enode{i:02d}", np=4)
        server.node_up(f"enode{i:02d}")
    commands = PbsCommands(server)
    detector = PbsDetector(server)

    banner("Figure 6 — detector outputs in the three queue states")
    print("[empty cluster]")
    print(detector.check().text())
    server.qsub(JobSpec(name="sleep", nodes=1, ppn=4, runtime_s=600.0))
    print("\n[one job running]")
    print(detector.check().text())
    for host in list(server.nodes):
        server.node_down(host)
    sim.run()
    server.qsub(JobSpec(name="md", nodes=1, ppn=4, runtime_s=600.0))
    print("\n[queue stuck]")
    print(detector.check().text())

    banner("Figure 8 — qstat -f")
    print(commands.qstat_f() or "(no active jobs)")

    banner("Figure 7 — pbsnodes (first stanza)")
    print(commands.pbsnodes().split("\n\n")[0])

    spec = DualBootMenuSpec(boot_partition=2, root_partition=7)
    banner("Figure 2 — /boot/grub/menu.lst (the redirect)")
    print(redirect_menu_lst(spec, fat_partition=6))
    banner("Figure 3 — controlmenu.lst")
    print(make_dualboot_menu(spec, "linux"))
    banner("Figure 4 — the PBS OS-switch job")
    print(pbs_switch_script_v1("windows", method="bootcontrol"))

    banner("Figures 9 / 10 / 15 — the three diskpart.txt scripts")
    print("[Figure 9 — stock]\n" + ORIGINAL_DISKPART_TXT)
    print("[Figure 10 — dualboot-oscar v1]\n" + MODIFIED_DISKPART_TXT_V1)
    print("[Figure 15 — v2 reimage]\n" + REIMAGE_DISKPART_TXT_V2)


if __name__ == "__main__":
    main()
