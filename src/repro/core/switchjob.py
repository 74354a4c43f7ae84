"""OS-switch batch jobs — generated script text (Figure 4 and kin).

"The system switching action is packed as a PBS or Windows HPC job
script, which locates a single node, modifies GRUB's configure file, and
reboots the machine.  The advantage of sending switch orders through job
scheduler is that job scheduler can automatically locate free nodes, and
all the running jobs can be protected" (§III.B.2).

Three script flavours:

* v1 Linux→Windows: the Figure-4 PBS bash job (``bootcontrol.pl`` or the
  lighter rename-based variant of §III.B.1);
* v1 Windows→Linux: a ``.bat`` that renames the pre-staged control menu
  on the FAT share (drive ``D:``) and reboots;
* v2 both ways: "Multi-boot service sends switch batch job (just
  reboot)" — the target OS flag already lives on the head node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.bootcontrol import BOOTCONTROL_PATH, CONTROLMENU_PATH, VALID_TARGETS
from repro.errors import MiddlewareError
from repro.sched.protocol import SWITCH_JOB_NAME


class OrderState(enum.Enum):
    """Lifecycle of one issued switch order (watchdog bookkeeping)."""

    PENDING = "pending"        # issued; node has not rejoined the target yet
    CONFIRMED = "confirmed"    # a node joined the target scheduler for it
    FAILED = "failed"          # watchdog timeout: the node never came back


@dataclass
class SwitchOrderRecord:
    """One issued switch order, tracked from submission to resolution.

    A switch order only *really* succeeds when a node rejoins the target
    scheduler — the batch job itself is killed by the reboot it triggers
    (exit 271, by design), so job state alone cannot distinguish "node is
    mid-reboot" from "node hung at POST and will never return".  The
    watchdog resolves every record one way or the other, so the in-flight
    count can never leak.
    """

    order_id: int
    target_os: str
    issued_at: float
    deadline: float
    jobid: str
    state: OrderState = OrderState.PENDING
    resolved_at: Optional[float] = None
    node: Optional[str] = None  # hostname whose join confirmed the order

#: The PBS account that owns the switch jobs and their reboot log
#: (Figure 4's ``/home/sliang/reboot_log``).
PBS_USER = "sliang"

#: Pre-staged control menus on the FAT partition (§III.B.1).
STAGED_MENU = {
    "linux": "controlmenu_to_linux.lst",
    "windows": "controlmenu_to_windows.lst",
}


def _check_target(target_os: str) -> None:
    if target_os not in VALID_TARGETS:
        raise MiddlewareError(f"unknown switch target {target_os!r}")


def pbs_switch_script_v1(target_os: str, method: str = "bootcontrol") -> str:
    """The Figure-4 PBS job: book a full node, flip GRUB, reboot.

    ``method="bootcontrol"`` reproduces Figure 4 verbatim (Carter's Perl
    script); ``method="rename"`` is the paper's lighter replacement that
    renames the pre-staged ``controlmenu_to_*.lst`` files.
    """
    _check_target(target_os)
    if method == "bootcontrol":
        action = (
            f"sudo {BOOTCONTROL_PATH} {CONTROLMENU_PATH} {target_os} "
            "#changes default boot OS"
        )
    elif method == "rename":
        # two renames keep the mechanism self-sustaining: the live menu
        # (which boots the OS we are leaving) becomes the staged menu for
        # the way back, then the target's staged menu goes live
        other = "linux" if target_os == "windows" else "windows"
        action = (
            f"sudo mv {CONTROLMENU_PATH} /boot/swap/{STAGED_MENU[other]} "
            "#stash current menu\n"
            f"sudo mv /boot/swap/{STAGED_MENU[target_os]} {CONTROLMENU_PATH} "
            "#replace control file"
        )
    else:
        raise MiddlewareError(f"unknown switch method {method!r}")
    return (
        "#####################################\n"
        "### Job Submission Script ###\n"
        "# Change items in section 1 #\n"
        "# to suit your job needs #\n"
        "#####################################\n"
        "# Section 1: User Parameters #\n"
        "#####################################\n"
        "#\n"
        "#!/bin/bash\n"
        "#PBS -l nodes=1:ppn=4\n"
        f"#PBS -N {SWITCH_JOB_NAME}\n"
        "#PBS -q default\n"
        "#PBS -j oe\n"
        "#PBS -o reboot_log.out\n"
        "#PBS -r n\n"
        "#\n"
        "#####################################\n"
        "# Section 3: Executing Commands #\n"
        "#####################################\n"
        f"echo \\$PBS_JOBID >>/home/{PBS_USER}/reboot_log/rebootjob.log "
        "#write logs\n"
        f"{action}\n"
        "sudo reboot #reboot node\n"
        "sleep 10 #leave 10 seconds to avoid job be finished before reboot\n"
    )


def windows_switch_bat_v1(target_os: str) -> str:
    """The Windows-side ``.bat``: rename the staged menu on ``D:``, reboot."""
    _check_target(target_os)
    staged = STAGED_MENU[target_os]
    other = STAGED_MENU["linux" if target_os == "windows" else "windows"]
    return (
        "@echo off\n"
        "rem dualboot-oscar v1 OS switch\n"
        f"ren D:\\controlmenu.lst {other}\n"
        f"ren D:\\{staged} controlmenu.lst\n"
        "shutdown /r /t 0\n"
        "sleep 10\n"
    )


def pbs_switch_script_v2() -> str:
    """v2: the flag is on the head node; the job only logs and reboots."""
    return (
        "#!/bin/bash\n"
        "#PBS -l nodes=1:ppn=4\n"
        f"#PBS -N {SWITCH_JOB_NAME}\n"
        "#PBS -q default\n"
        "#PBS -j oe\n"
        "#PBS -o reboot_log.out\n"
        "#PBS -r n\n"
        f"echo \\$PBS_JOBID >>/home/{PBS_USER}/reboot_log/rebootjob.log\n"
        "sudo reboot #reboot into the flagged OS\n"
        "sleep 10 #keep the node booked until the reboot lands\n"
    )


def windows_switch_bat_v2() -> str:
    """v2 Windows side: just reboot (PXE flag decides the OS)."""
    return (
        "@echo off\n"
        "rem dualboot-oscar v2 OS switch (flag is on the head node)\n"
        "shutdown /r /t 0\n"
        "sleep 10\n"
    )
