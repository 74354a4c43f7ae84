"""Parser/renderer for the GRUB-legacy ``menu.lst`` dialect of the paper.

Both head-node-managed files (Figures 2 and 3) and the GRUB4DOS PXE menus
of v2 use the same syntax.  Quirks preserved deliberately:

* ``default=0`` **and** ``default 0`` are both accepted (Figure 2 uses the
  ``=`` form, Figure 3 the space form — GRUB accepts either);
* global directives may appear in any order before the first ``title``;
* ``hiddenmenu`` is a bare flag;
* device syntax is zero-based: ``(hd0,5)`` is partition 6 (``/dev/sda6``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, TypeVar

from repro.errors import BootError

_DEVICE_RE = re.compile(r"\(hd(?P<disk>\d+),(?P<part>\d+)\)")


def parse_device(text: str) -> Tuple[int, int]:
    """Parse ``(hd0,5)`` → ``(0, 5)`` (disk index, zero-based partition).

    >>> parse_device("(hd0,5)")
    (0, 5)
    """
    m = _DEVICE_RE.fullmatch(text.strip())
    if not m:
        raise BootError(f"malformed GRUB device {text!r}")
    return int(m.group("disk")), int(m.group("part"))


def split_device_path(text: str) -> Tuple[Optional[Tuple[int, int]], str]:
    """Split ``(hd0,1)/grub/splash.xpm.gz`` into device and path parts.

    A bare path returns ``(None, path)`` (relative to the current root).
    """
    m = _DEVICE_RE.match(text.strip())
    if m:
        return (int(m.group("disk")), int(m.group("part"))), text[m.end():] or "/"
    return None, text.strip()


@dataclass
class GrubEntry:
    """One ``title`` stanza and its commands (verb, rest-of-line)."""

    title: str
    commands: List[Tuple[str, str]] = field(default_factory=list)

    def first(self, verb: str) -> Optional[str]:
        """Argument of the first command named *verb*, or ``None``."""
        for v, arg in self.commands:
            if v == verb:
                return arg
        return None


@dataclass
class GrubConfig:
    """A parsed ``menu.lst``."""

    default: int = 0
    timeout: Optional[int] = None
    splashimage: Optional[str] = None
    hiddenmenu: bool = False
    entries: List[GrubEntry] = field(default_factory=list)

    def default_entry(self) -> GrubEntry:
        """The entry selected at boot; raises if ``default`` is dangling."""
        return _select(self.default, self.entries)

    def entry_index_by_title_suffix(self, suffix: str) -> int:
        """Index of the first entry whose title ends with *suffix*.

        This is the matching rule of Carter's ``bootcontrol.pl`` [3]: menu
        titles carry a trailing ``-linux`` / ``-windows`` tag, and the
        switch script points ``default`` at the matching entry.
        """
        for i, entry in enumerate(self.entries):
            if entry.title.endswith(suffix):
                return i
        raise BootError(f"no GRUB entry titled *{suffix!r}")


_ENTRY_VERBS = (
    "root",
    "rootnoverify",
    "kernel",
    "initrd",
    "chainloader",
    "configfile",
    "makeactive",
    "savedefault",
    "boot",
)


class MenuEntry(NamedTuple):
    """One ``title`` stanza of a :class:`GrubMenu` (read-only)."""

    title: str
    commands: Tuple[Tuple[str, str], ...]


class GrubMenu(NamedTuple):
    """A read-only parse of one ``menu.lst`` text, shared by every reader
    of that text (see :func:`parse_grub_menu`)."""

    default: int
    timeout: Optional[int]
    splashimage: Optional[str]
    hiddenmenu: bool
    entries: Tuple[MenuEntry, ...]

    def default_entry(self) -> MenuEntry:
        """The entry selected at boot; raises if ``default`` is dangling."""
        return _select(self.default, self.entries)


_E = TypeVar("_E", GrubEntry, MenuEntry)


def _select(default: int, entries: Sequence[_E]) -> _E:
    if not entries:
        raise BootError("GRUB config has no menu entries")
    if not 0 <= default < len(entries):
        raise BootError(
            f"default={default} but config has {len(entries)} entries"
        )
    return entries[default]


def parse_grub_config(text: str) -> GrubConfig:
    """Parse ``menu.lst`` text into a new, editable :class:`GrubConfig`.

    Unknown lines raise :class:`BootError` — a corrupted control file must
    fail loudly in the simulation, because on real hardware it would leave
    the node at a GRUB prompt.
    """
    menu = parse_grub_menu(text)
    return GrubConfig(
        default=menu.default,
        timeout=menu.timeout,
        splashimage=menu.splashimage,
        hiddenmenu=menu.hiddenmenu,
        entries=[GrubEntry(e.title, list(e.commands)) for e in menu.entries],
    )


@functools.lru_cache(maxsize=64)
def parse_grub_menu(text: str) -> GrubMenu:
    """Parse ``menu.lst`` text into a read-only :class:`GrubMenu`.

    Every node of a cluster boots the same few menus, so each distinct
    text is parsed once: the memo is keyed by the text itself, so a menu
    edited on disk is a new key, and a text that fails to parse raises
    :class:`BootError` on every call.
    """
    default = 0
    timeout: Optional[int] = None
    splashimage: Optional[str] = None
    hiddenmenu = False
    entries: List[Tuple[str, List[Tuple[str, str]]]] = []
    current: Optional[List[Tuple[str, str]]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # normalise "key=value" and "key value"
        if "=" in line.split()[0] or line.split()[0] in ("default", "timeout"):
            key, _, value = line.replace("=", " ", 1).partition(" ")
        else:
            key, _, value = line.partition(" ")
        key = key.strip()
        value = value.strip()

        if key == "title":
            current = []
            entries.append((value, current))
        elif current is None:
            if key == "default":
                default = _parse_int(value, lineno)
            elif key == "timeout":
                timeout = _parse_int(value, lineno)
            elif key == "splashimage":
                splashimage = value
            elif key == "hiddenmenu":
                hiddenmenu = True
            else:
                raise BootError(f"line {lineno}: unknown global directive {key!r}")
        else:
            if key not in _ENTRY_VERBS:
                raise BootError(f"line {lineno}: unknown entry command {key!r}")
            current.append((key, value))
    return GrubMenu(
        default,
        timeout,
        splashimage,
        hiddenmenu,
        tuple(MenuEntry(title, tuple(commands)) for title, commands in entries),
    )


def _parse_int(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise BootError(f"line {lineno}: expected integer, got {value!r}") from None


def render_grub_config(config: GrubConfig, default_style: str = "=") -> str:
    """Render back to ``menu.lst`` text.

    ``default_style`` selects ``default=0`` (Figure 2) or ``default 0``
    (Figure 3) so regenerated artefacts match the paper's listings.
    """
    lines: List[str] = []
    if default_style == "=":
        lines.append(f"default={config.default}")
    else:
        lines.append(f"default {config.default}")
    if config.timeout is not None:
        lines.append(f"timeout={config.timeout}")
    if config.splashimage is not None:
        lines.append(f"splashimage={config.splashimage}")
    if config.hiddenmenu:
        lines.append("hiddenmenu")
    for entry in config.entries:
        lines.append("")
        lines.append(f"title {entry.title}")
        for verb, arg in entry.commands:
            lines.append(f"{verb} {arg}" if arg else verb)
    return "\n".join(lines) + "\n"
