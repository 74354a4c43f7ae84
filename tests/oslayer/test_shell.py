"""Shell interpreter tests, including the Figure-4 script body."""

from types import SimpleNamespace

import pytest

from repro.oslayer import OSInstance, run_script
from repro.oslayer.shell import ShellResult, expand_variables
from repro.oslayer.windows import WindowsOS
from repro.simkernel import Simulator
from repro.storage import Filesystem, FsType


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def osi():
    root = Filesystem(FsType.EXT3, label="root")
    fat = Filesystem(FsType.FAT, label="DB")
    instance = OSInstance("linux", "enode01", {"/": root, "/boot/swap": fat})
    instance.mkdir("/home/sliang/reboot_log")
    return instance


def run(sim, osi, text, env=None) -> ShellResult:
    proc = sim.spawn(run_script(osi, text, env=env))
    sim.run()
    return proc.result


def test_expand_variables():
    env = {"PBS_JOBID": "1185.eridani"}
    assert expand_variables(r"echo \$PBS_JOBID", env) == "echo 1185.eridani"
    assert expand_variables("echo $PBS_JOBID", env) == "echo 1185.eridani"
    assert expand_variables("echo $MISSING!", {}) == "echo !"


def test_echo_append_and_overwrite(sim, osi):
    result = run(sim, osi, "echo one >> /log\necho two >> /log\necho three > /log\n")
    assert result.ok
    assert osi.read("/log") == "three\n"


def test_echo_to_stdout(sim, osi):
    result = run(sim, osi, "echo hello world\n")
    assert result.output == ["hello world"]


def test_sleep_advances_time(sim, osi):
    result = run(sim, osi, "sleep 10\n")
    assert result.ok
    assert sim.now == 10.0


def test_sleep_bad_args(sim, osi):
    assert run(sim, osi, "sleep\n").exit_code == 127
    assert run(sim, osi, "sleep soon\n").exit_code == 127


def test_sudo_stripped(sim, osi):
    result = run(sim, osi, "sudo echo ok\n")
    assert result.output == ["ok"]


def test_unknown_command_fails_with_127(sim, osi):
    result = run(sim, osi, "/usr/bin/frobnicate --hard\n")
    assert result.exit_code == 127
    assert "command not found" in result.error


def test_reboot_without_power_control_fails(sim, osi):
    result = run(sim, osi, "sudo reboot\n")
    assert result.exit_code == 127


def test_reboot_requests_via_context(sim, osi):
    calls = []
    osi.context["node"] = SimpleNamespace(
        request_reboot=lambda: calls.append(sim.now)
    )
    result = run(sim, osi, "sudo reboot\nsleep 10\n")
    assert result.ok
    assert calls == [0.0]


def test_windows_shutdown_r(sim):
    fs = Filesystem(FsType.NTFS, label="c")
    osi = WindowsOS("wn01", {"/": fs, "/c": fs})
    calls = []
    osi.context["node"] = SimpleNamespace(request_reboot=lambda: calls.append(1))
    proc = sim.spawn(run_script(osi, "shutdown /r /t 0\n"))
    sim.run()
    assert proc.result.ok and calls == [1]


def test_ren_windows_style(sim):
    fs = Filesystem(FsType.NTFS, label="c")
    fat = Filesystem(FsType.FAT, label="db")
    fat.write("/controlmenu_to_windows.lst", "win")
    osi = WindowsOS("wn01", {"/": fs, "/c": fs, "/d": fat})
    proc = sim.spawn(
        run_script(osi, r"ren D:\controlmenu_to_windows.lst controlmenu.lst")
    )
    sim.run()
    assert proc.result.ok
    assert fat.read("/controlmenu.lst") == "win"


def test_mv_posix_style(sim, osi):
    osi.write("/boot/swap/a.lst", "x")
    result = run(sim, osi, "mv /boot/swap/a.lst /boot/swap/b.lst\n")
    assert result.ok
    assert osi.read("/boot/swap/b.lst") == "x"


def test_mv_missing_file_exits_1(sim, osi):
    result = run(sim, osi, "mv /nope /dst\n")
    assert result.exit_code == 1


def test_binary_dispatch_with_args(sim, osi):
    seen = []
    osi.register_binary(
        "/boot/swap/bootcontrol.pl",
        lambda instance, args: seen.append(tuple(args)) or "switched",
    )
    result = run(
        sim, osi,
        "sudo /boot/swap/bootcontrol.pl /boot/swap/controlmenu.lst windows #switch\n",
    )
    assert result.ok
    assert seen == [("/boot/swap/controlmenu.lst", "windows")]
    assert result.output == ["switched"]


def test_comments_and_directives_skipped(sim, osi):
    text = (
        "#####################\n"
        "#PBS -l nodes=1:ppn=4\n"
        "#!/bin/bash\n"
        ":: windows comment\n"
        "rem another\n"
        "@echo off\n"
        "echo ran\n"
    )
    result = run(sim, osi, text)
    assert result.output == ["ran"]


def test_figure4_script_body_semantics(sim, osi):
    """The executable body of the Figure-4 PBS job."""
    switched = []
    osi.register_binary(
        "/boot/swap/bootcontrol.pl",
        lambda instance, args: switched.append(args[1]),
    )
    rebooted = []
    osi.context["node"] = SimpleNamespace(
        request_reboot=lambda: rebooted.append(sim.now)
    )
    text = (
        "echo \\$PBS_JOBID >>/home/sliang/reboot_log/rebootjob.log #write logs\n"
        "sudo /boot/swap/bootcontrol.pl /boot/swap/controlmenu.lst windows "
        "#changes default boot OS\n"
        "sudo reboot #reboot node\n"
        "sleep 10 #leave 10 seconds to avoid job be finished before reboot\n"
    )
    result = run(sim, osi, text, env={"PBS_JOBID": "1185.eridani.qgg.hud.ac.uk"})
    assert result.ok
    assert osi.read("/home/sliang/reboot_log/rebootjob.log") == (
        "1185.eridani.qgg.hud.ac.uk\n"
    )
    assert switched == ["windows"]
    assert rebooted == [0.0]
    assert sim.now == 10.0
