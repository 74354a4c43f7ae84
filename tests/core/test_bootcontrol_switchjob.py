"""bootcontrol.pl reimplementation + switch-job script generation."""

import pytest

from repro.boot.grubcfg import parse_grub_config
from repro.core.bootcontrol import (
    BOOTCONTROL_PATH,
    bootcontrol,
    register_bootcontrol,
    switch_grub_default,
)
from repro.core.switchjob import (
    pbs_switch_script_v1,
    pbs_switch_script_v2,
    windows_switch_bat_v1,
    windows_switch_bat_v2,
)
from repro.errors import MiddlewareError
from repro.oslayer import OSInstance
from repro.pbs import PbsServer
from repro.simkernel import Simulator
from repro.storage import Filesystem, FsType
from tests.conftest import CONTROLMENU_FIG3


def test_switch_grub_default_to_windows():
    out = switch_grub_default(CONTROLMENU_FIG3, "windows")
    assert parse_grub_config(out).default == 1
    # entries preserved
    assert "title CentOS-5.4_Oscar-5b2-linux" in out
    assert "title Win_Server_2K8_R2-windows" in out


def test_switch_grub_default_back_to_linux():
    windows_first = switch_grub_default(CONTROLMENU_FIG3, "windows")
    back = switch_grub_default(windows_first, "linux")
    assert parse_grub_config(back).default == 0


def test_switch_grub_default_bad_target():
    with pytest.raises(MiddlewareError):
        switch_grub_default(CONTROLMENU_FIG3, "solaris")


def make_os():
    root = Filesystem(FsType.EXT3)
    fat = Filesystem(FsType.FAT)
    fat.write("/controlmenu.lst", CONTROLMENU_FIG3)
    return OSInstance("linux", "enode01", {"/": root, "/boot/swap": fat}), fat


def test_bootcontrol_binary_edits_file():
    osi, fat = make_os()
    out = bootcontrol(osi, ["/boot/swap/controlmenu.lst", "windows"])
    assert "windows" in out
    assert parse_grub_config(fat.read("/controlmenu.lst")).default == 1


def test_bootcontrol_usage_error():
    osi, _ = make_os()
    with pytest.raises(MiddlewareError):
        bootcontrol(osi, ["only-one-arg"])


def test_register_bootcontrol():
    osi, _ = make_os()
    register_bootcontrol(osi)
    assert osi.find_binary(BOOTCONTROL_PATH) is bootcontrol


# -- script generation -----------------------------------------------------


def test_figure4_script_shape():
    script = pbs_switch_script_v1("windows", method="bootcontrol")
    assert "#PBS -l nodes=1:ppn=4" in script
    assert "#PBS -N release_1_node" in script
    assert "#PBS -q default" in script
    assert "#PBS -j oe" in script
    assert "#PBS -o reboot_log.out" in script
    assert "#PBS -r n" in script
    assert "sudo /boot/swap/bootcontrol.pl /boot/swap/controlmenu.lst windows" in script
    assert "sudo reboot" in script
    assert "sleep 10" in script


def test_rename_script_is_self_sustaining():
    script = pbs_switch_script_v1("windows", method="rename")
    # current menu stashed as the way back, then target goes live
    assert "mv /boot/swap/controlmenu.lst /boot/swap/controlmenu_to_linux.lst" in script
    assert "mv /boot/swap/controlmenu_to_windows.lst /boot/swap/controlmenu.lst" in script


def test_windows_bat_v1():
    bat = windows_switch_bat_v1("linux")
    assert "ren D:\\controlmenu.lst controlmenu_to_windows.lst" in bat
    assert "ren D:\\controlmenu_to_linux.lst controlmenu.lst" in bat
    assert "shutdown /r /t 0" in bat


def test_v2_scripts_only_reboot():
    linux = pbs_switch_script_v2()
    assert "bootcontrol" not in linux and "mv " not in linux
    assert "sudo reboot" in linux
    win = windows_switch_bat_v2()
    assert "ren" not in win
    assert "shutdown /r /t 0" in win


def test_invalid_targets_rejected():
    with pytest.raises(MiddlewareError):
        pbs_switch_script_v1("beos")
    with pytest.raises(MiddlewareError):
        windows_switch_bat_v1("beos")
    with pytest.raises(MiddlewareError):
        pbs_switch_script_v1("windows", method="telepathy")


def test_switch_jobspec_books_full_node_and_tagged():
    pbs = PbsServer(Simulator())
    pbs.create_node("enode01", np=4)
    spec = pbs.jobs[pbs.submit_switch_job(pbs_switch_script_v1("windows"),
                                          owner="sliang")]
    assert (spec.nodes, spec.ppn) == (1, 4)
    assert spec.name == "release_1_node"
    assert not spec.rerunnable
    assert spec.tag == "os-switch"
