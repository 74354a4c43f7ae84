"""Interpreter for Windows ``diskpart.txt`` scripts.

Windows HPC 2008 R2 stores its node-deployment partitioning script in
clear text at ``…\\InstallShare\\Config\\diskpart.txt`` (Figure 9); the
paper's middleware ships two modified variants:

* Figure 10 — ``create partition primary size=150000`` so only the first
  150 GB is claimed (space left for Linux);
* Figure 15 — no ``clean``: select partition 1 and reformat it in place,
  preserving the Linux partitions (the v2 reimage script).

This module parses and executes those scripts against a
:class:`~repro.storage.disk.Disk`, with the same destructive semantics the
real tool has.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, List, Mapping, Optional, Tuple

from repro.errors import StorageError
from repro.storage.disk import Disk
from repro.storage.partition import FsType, Partition, PartitionKind


@dataclass(frozen=True)
class DiskpartCommand:
    """One parsed script line (read-only: parses are shared)."""

    verb: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", MappingProxyType(dict(self.args)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.verb} {self.args}"


_FORMAT_RE = re.compile(
    r"format\s+FS=(?P<fs>\w+)(?:\s+LABEL=\"(?P<label>[^\"]*)\")?"
    r"(?P<quick>\s+QUICK)?(?P<override>\s+OVERRIDE)?",
    re.IGNORECASE,
)


@functools.lru_cache(maxsize=64)
def parse_diskpart_script(text: str) -> Tuple[DiskpartCommand, ...]:
    """Parse a diskpart script into commands; raises on unknown syntax.

    Every node of a deployment runs the same script, so each distinct
    text is parsed once: the memo is keyed by the text itself, and a text
    that fails to parse raises on every call.  ``rem`` (any case) starts
    a comment only as a whole word, so ``remove`` is a command.
    """
    commands: List[DiskpartCommand] = []
    for raw in text.splitlines():
        line = raw.strip()
        lower = line.lower()
        if not line or line.startswith("#") or lower.split()[0] == "rem":
            continue
        if lower.startswith("select disk"):
            commands.append(
                DiskpartCommand("select_disk", {"index": int(lower.split()[-1])})
            )
        elif lower.startswith("select partition"):
            commands.append(
                DiskpartCommand("select_partition", {"number": int(lower.split()[-1])})
            )
        elif lower == "clean":
            commands.append(DiskpartCommand("clean"))
        elif lower.startswith("create partition primary"):
            size_match = re.search(r"size=(\d+)", lower)
            size = float(size_match.group(1)) if size_match else None
            commands.append(DiskpartCommand("create_primary", {"size_mb": size}))
        elif lower.startswith("assign letter="):
            commands.append(
                DiskpartCommand("assign", {"letter": line.split("=", 1)[1].strip()})
            )
        elif lower.startswith("format"):
            m = _FORMAT_RE.match(line)
            if not m:
                raise StorageError(f"unparseable format line: {line!r}")
            commands.append(
                DiskpartCommand(
                    "format",
                    {
                        "fs": m.group("fs").lower(),
                        "label": m.group("label") or "",
                        "quick": bool(m.group("quick")),
                        "override": bool(m.group("override")),
                    },
                )
            )
        elif lower == "active":
            commands.append(DiskpartCommand("active"))
        elif lower == "exit":
            commands.append(DiskpartCommand("exit"))
            break
        else:
            raise StorageError(f"unknown diskpart command: {line!r}")
    return tuple(commands)


@dataclass
class DiskpartResult:
    """Outcome of an interpreted run — what the deployment layer inspects."""

    commands_run: int = 0
    cleaned: bool = False
    created: List[int] = field(default_factory=list)
    formatted: List[int] = field(default_factory=list)
    activated: Optional[int] = None
    drive_letters: dict = field(default_factory=dict)


_FS_MAP = {"ntfs": FsType.NTFS, "fat": FsType.FAT, "fat32": FsType.FAT}


class DiskpartInterpreter:
    """Execute a parsed diskpart script against one disk.

    The interpreter keeps diskpart's cursor semantics: ``create partition``
    selects the new partition; ``format``/``active`` act on the selection
    and fail without one — exactly the property the Figure 15 script relies
    on (``select partition 1`` then ``format``).
    """

    def __init__(self, disk: Disk) -> None:
        self.disk = disk
        self._selected: Optional[Partition] = None
        self._disk_selected = False

    def run(self, script: str) -> DiskpartResult:
        """Parse and execute *script*; returns a :class:`DiskpartResult`."""
        result = DiskpartResult()
        for cmd in parse_diskpart_script(script):
            self._execute(cmd, result)
            result.commands_run += 1
        return result

    # -- command handlers -----------------------------------------------------

    def _execute(self, cmd: DiskpartCommand, result: DiskpartResult) -> None:
        handler = getattr(self, f"_cmd_{cmd.verb}", None)
        if handler is None:  # pragma: no cover - parser prevents this
            raise StorageError(f"no handler for {cmd.verb}")
        handler(cmd.args, result)

    def _require_disk(self) -> None:
        if not self._disk_selected:
            raise StorageError("no disk selected")

    def _require_partition(self) -> Partition:
        self._require_disk()
        if self._selected is None:
            raise StorageError("no partition selected")
        return self._selected

    def _cmd_select_disk(self, args: Mapping[str, Any], result: DiskpartResult) -> None:
        if args["index"] != 0:
            raise StorageError(f"only disk 0 exists, asked for {args['index']}")
        self._disk_selected = True
        self._selected = None

    def _cmd_select_partition(self, args: Mapping[str, Any], result: DiskpartResult) -> None:
        self._require_disk()
        self._selected = self.disk.partition(args["number"])

    def _cmd_clean(self, args: Mapping[str, Any], result: DiskpartResult) -> None:
        self._require_disk()
        self.disk.clean()
        self._selected = None
        result.cleaned = True

    def _cmd_create_primary(self, args: Mapping[str, Any], result: DiskpartResult) -> None:
        self._require_disk()
        size = args["size_mb"]
        if size is None:
            # No size= → claim all remaining space (real diskpart default).
            size = self.disk.free_mb()
            if size <= 0:
                raise StorageError("no free space for create partition primary")
        part = self.disk.create_partition(size, PartitionKind.PRIMARY)
        self._selected = part
        result.created.append(part.number)

    def _cmd_assign(self, args: Mapping[str, Any], result: DiskpartResult) -> None:
        part = self._require_partition()
        result.drive_letters[args["letter"].upper()] = part.number

    def _cmd_format(self, args: Mapping[str, Any], result: DiskpartResult) -> None:
        part = self._require_partition()
        fstype = _FS_MAP.get(args["fs"])
        if fstype is None:
            raise StorageError(f"unsupported filesystem {args['fs']!r}")
        part.format(fstype, label=args["label"])
        result.formatted.append(part.number)

    def _cmd_active(self, args: Mapping[str, Any], result: DiskpartResult) -> None:
        part = self._require_partition()
        self.disk.set_active(part.number)
        result.activated = part.number

    def _cmd_exit(self, args: Mapping[str, Any], result: DiskpartResult) -> None:
        pass


# -- the three scripts from the paper, verbatim -------------------------------

#: Figure 9 — the stock Windows HPC script: wipes the whole disk.
ORIGINAL_DISKPART_TXT = """\
select disk 0
clean
create partition primary
assign letter=c
format FS=NTFS LABEL="Node" QUICK OVERRIDE
active
exit
"""

#: Figure 10 — dualboot-oscar v1: claim only 150 GB, leave room for Linux.
MODIFIED_DISKPART_TXT_V1 = """\
select disk 0
clean
create partition primary size=150000
assign letter=c
format FS=NTFS LABEL="Node" QUICK OVERRIDE
active
exit
"""

#: Figure 15 — v2 reimage: reformat partition 1 only, Linux untouched.
REIMAGE_DISKPART_TXT_V2 = """\
select disk 0
select partition 1
format FS=NTFS LABEL="Node" QUICK OVERRIDE
active
exit
"""
