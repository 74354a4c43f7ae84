"""Unit tests for the menu.lst parser/renderer against Figures 2-3."""

import pytest

from repro.errors import BootError
from repro.boot.grubcfg import (
    parse_device,
    parse_grub_config,
    parse_grub_menu,
    render_grub_config,
    split_device_path,
)
from tests.conftest import CONTROLMENU_FIG3, MENU_LST_FIG2


def test_parse_device():
    assert parse_device("(hd0,5)") == (0, 5)
    assert parse_device("(hd1,0)") == (1, 0)
    with pytest.raises(BootError):
        parse_device("hd0,5")


def test_split_device_path():
    assert split_device_path("(hd0,1)/grub/splash.xpm.gz") == ((0, 1), "/grub/splash.xpm.gz")
    assert split_device_path("/controlmenu.lst") == (None, "/controlmenu.lst")
    assert split_device_path("(hd0,0)") == ((0, 0), "/")


def test_parse_figure2_menu_lst():
    cfg = parse_grub_config(MENU_LST_FIG2)
    assert cfg.default == 0
    assert cfg.timeout == 5
    assert cfg.hiddenmenu
    assert cfg.splashimage == "(hd0,1)/grub/splash.xpm.gz"
    assert len(cfg.entries) == 1
    entry = cfg.entries[0]
    assert entry.title == "changing to control file"
    assert entry.commands == [
        ("root", "(hd0,5)"), ("configfile", "/controlmenu.lst"),
    ]


def test_parse_figure3_controlmenu():
    cfg = parse_grub_config(CONTROLMENU_FIG3)
    assert cfg.default == 0
    assert cfg.timeout == 10
    assert not cfg.hiddenmenu
    assert [e.title for e in cfg.entries] == [
        "CentOS-5.4_Oscar-5b2-linux",
        "Win_Server_2K8_R2-windows",
    ]
    linux, windows = cfg.entries
    linux_commands = dict(linux.commands)
    assert linux_commands["kernel"].startswith(
        "/vmlinuz-2.6.18-164.el5 ro root=/dev/sda7"
    )
    assert linux_commands["initrd"] == "/sc-initrd-2.6.18-164.el5.gz"
    assert windows.commands == [("rootnoverify", "(hd0,0)"), ("chainloader", "+1")]


def test_default_space_and_equals_forms():
    assert parse_grub_config("default=3\ntitle t\nchainloader +1\n").default == 3
    assert parse_grub_config("default 3\ntitle t\nchainloader +1\n").default == 3


def test_comments_and_blanks_ignored():
    cfg = parse_grub_config("# comment\n\ndefault=0\n\ntitle x\nchainloader +1\n")
    assert len(cfg.entries) == 1


def test_unknown_global_directive_raises():
    with pytest.raises(BootError):
        parse_grub_config("frobnicate on\n")


def test_unknown_entry_command_raises():
    with pytest.raises(BootError):
        parse_grub_config("title x\nbogus cmd\n")


def test_non_integer_default_raises():
    with pytest.raises(BootError):
        parse_grub_config("default=x\n")


def test_default_entry_selection_and_bounds():
    cfg = parse_grub_config(CONTROLMENU_FIG3)
    assert cfg.default_entry().title == "CentOS-5.4_Oscar-5b2-linux"
    cfg.default = 5
    with pytest.raises(BootError):
        cfg.default_entry()


def test_default_entry_on_empty_config():
    with pytest.raises(BootError):
        parse_grub_config("default=0\n").default_entry()


def test_entry_index_by_title_suffix():
    cfg = parse_grub_config(CONTROLMENU_FIG3)
    assert cfg.entry_index_by_title_suffix("-linux") == 0
    assert cfg.entry_index_by_title_suffix("-windows") == 1
    with pytest.raises(BootError):
        cfg.entry_index_by_title_suffix("-solaris")


def test_render_roundtrip_fig3():
    cfg = parse_grub_config(CONTROLMENU_FIG3)
    text = render_grub_config(cfg, default_style=" ")
    cfg2 = parse_grub_config(text)
    assert cfg2.default == cfg.default
    assert cfg2.timeout == cfg.timeout
    assert [e.title for e in cfg2.entries] == [e.title for e in cfg.entries]
    assert [e.commands for e in cfg2.entries] == [e.commands for e in cfg.entries]


def test_render_roundtrip_fig2_style():
    cfg = parse_grub_config(MENU_LST_FIG2)
    text = render_grub_config(cfg)
    assert text.startswith("default=0\n")
    assert "hiddenmenu" in text
    cfg2 = parse_grub_config(text)
    assert cfg2.hiddenmenu and cfg2.timeout == 5


def test_parse_returns_a_fresh_editable_config_every_call():
    """Boots share one parse of each menu text; callers that edit a
    config (the switch scripts) must never edit that shared parse."""
    first = parse_grub_config(CONTROLMENU_FIG3)
    second = parse_grub_config(CONTROLMENU_FIG3)
    assert first is not second
    assert first.entries[0] is not second.entries[0]
    first.default = 1
    first.entries[0].title = "edited"
    first.entries[0].commands.append(("boot", ""))
    first.entries.pop()
    again = parse_grub_config(CONTROLMENU_FIG3)
    assert again.default == 0
    assert [e.title for e in again.entries] == [
        "CentOS-5.4_Oscar-5b2-linux", "Win_Server_2K8_R2-windows",
    ]
    assert again.entries[0].commands == second.entries[0].commands
    assert ("boot", "") not in again.entries[0].commands


def test_shared_menu_parse_is_read_only():
    menu = parse_grub_menu(CONTROLMENU_FIG3)
    assert parse_grub_menu(CONTROLMENU_FIG3) is menu
    with pytest.raises(AttributeError):
        menu.default = 1  # type: ignore[misc]
    assert isinstance(menu.entries, tuple)
    assert isinstance(menu.entries[0].commands, tuple)
    assert menu.default_entry().title == "CentOS-5.4_Oscar-5b2-linux"
