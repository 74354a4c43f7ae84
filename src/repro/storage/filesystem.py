"""In-memory simulated filesystems.

A :class:`Filesystem` is a flat map of normalised absolute paths to file
contents (strings).  Directories are implicit — they exist whenever a file
lives under them — but can also be created explicitly, so that a
prepared-but-empty directory (e.g. ``/tftpboot/menu.lst/``) exists.

The operations mirror what the paper's scripts actually do to disk:

* GRUB-config switching renames ``controlmenu_to_linux.lst`` over
  ``controlmenu.lst`` (§III.B.1) — :meth:`Filesystem.rename`;
* detectors and communicators read/write small text files — :meth:`read` /
  :meth:`write`;
* ``rsync`` image deployment replicates whole trees — :meth:`copy_tree_from`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Set, Tuple

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.partition import FsType


def normalize(path: str) -> str:
    """Normalise to a single absolute ``/``-separated path.

    >>> normalize("boot/grub//menu.lst")
    '/boot/grub/menu.lst'

    A path that is already normal comes back unchanged, the same object:
    absolute, no backslash, no empty segment and no segment starting with
    a dot (so none is ``.`` or ``..``).
    """
    if (
        path[:1] == "/"
        and "\\" not in path
        and "//" not in path
        and "/." not in path
        and (path[-1] != "/" or path == "/")
    ):
        return path
    parts = [p for p in path.replace("\\", "/").split("/") if p and p != "."]
    out: List[str] = []
    for part in parts:
        if part == "..":
            if out:
                out.pop()
        else:
            out.append(part)
    return "/" + "/".join(out)


class Filesystem:
    """A formatted filesystem holding text files."""

    def __init__(self, fstype: "FsType", label: str = "") -> None:
        self.fstype = fstype
        self.label = label
        self._files: Dict[str, str] = {}
        self._dirs: Set[str] = set()

    # -- file operations -----------------------------------------------------

    def write(self, path: str, content: str) -> None:
        """Create or overwrite the file at *path*."""
        self._require_mountable()
        self._files[normalize(path)] = content

    def read(self, path: str) -> str:
        """Return file contents; raises :class:`StorageError` if missing."""
        self._require_mountable()
        key = normalize(path)
        if key not in self._files:
            raise StorageError(f"no such file: {key} (fs label={self.label!r})")
        return self._files[key]

    def exists(self, path: str) -> bool:
        key = normalize(path)
        return key in self._files or self.isdir(key)

    def isfile(self, path: str) -> bool:
        return normalize(path) in self._files

    def isdir(self, path: str) -> bool:
        key = normalize(path)
        if key == "/" or key in self._dirs:
            return True
        prefix = key + "/"
        return any(p.startswith(prefix) for p in self._files)

    def delete(self, path: str) -> None:
        """Remove a file; raises if it does not exist."""
        key = normalize(path)
        if key not in self._files:
            raise StorageError(f"cannot delete missing file: {key}")
        del self._files[key]

    def rename(self, src: str, dst: str) -> None:
        """Atomic move/overwrite — the primitive the v1 OS-switch scripts use
        (``controlmenu_to_windows.lst`` → ``controlmenu.lst``)."""
        src_key, dst_key = normalize(src), normalize(dst)
        if src_key not in self._files:
            raise StorageError(f"cannot rename missing file: {src_key}")
        self._files[dst_key] = self._files.pop(src_key)

    def copy(self, src: str, dst: str) -> None:
        """Copy a file within this filesystem."""
        self.write(dst, self.read(src))

    def mkdir(self, path: str) -> None:
        """Explicitly create a directory (idempotent)."""
        self._dirs.add(normalize(path))

    def walk(self) -> Iterator[Tuple[str, str]]:
        """Iterate ``(path, content)`` for every file, sorted by path."""
        self._require_mountable()
        for path in sorted(self._files):
            yield path, self._files[path]

    @property
    def file_count(self) -> int:
        return len(self._files)

    def copy_tree_from(self, other: "Filesystem", src_root: str = "/",
                       dst_root: str = "/") -> int:
        """rsync-style replication of *other*'s tree under *src_root* into
        this filesystem under *dst_root*.  Returns the file count copied."""
        src_prefix = "/" if normalize(src_root) == "/" else normalize(src_root) + "/"
        copied = 0
        for path, content in other.walk():
            if path.startswith(src_prefix) or path == normalize(src_root):
                rel = path[len(src_prefix):] if path != normalize(src_root) else ""
                dst = normalize(dst_root + "/" + rel)
                self._files[dst] = content
                copied += 1
        return copied

    # -- internals ---------------------------------------------------------

    def _require_mountable(self) -> None:
        if not self.fstype.mountable:
            raise StorageError(
                f"filesystem type {self.fstype.value!r} holds no user files"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Filesystem {self.fstype.value} label={self.label!r} "
            f"files={len(self._files)}>"
        )
