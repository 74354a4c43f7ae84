"""TFTP: read-only file service over a filesystem subtree.

The Linux head node exports ``/tftpboot`` (the SYSLINUX/OSCAR convention
the paper follows); GRUB4DOS fetches its ROM, then its menu files from
``/tftpboot/menu.lst/<MAC>`` (§IV.A.1).

The server reads straight from the head node's live root filesystem, so
when the v2 controller rewrites a flag file the very next PXE boot sees
it — no cache, matching TFTP reality.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.storage.filesystem import Filesystem, normalize


class TftpServer:
    """Serves files below *root* on *filesystem*."""

    def __init__(self, filesystem: Filesystem, root: str = "/tftpboot") -> None:
        self.filesystem = filesystem
        self.root = normalize(root)
        self.enabled = True
        self.requests_served = 0
        self.requests_failed = 0

    def _resolve(self, path: str) -> str:
        rel = normalize(path)
        return normalize(self.root + rel)

    def fetch(self, path: str) -> str:
        """Return the file at *path* (relative to the TFTP root).

        Raises :class:`NetworkError` on missing files or a downed service —
        to a PXE client both look identical (timeout).
        """
        if not self.enabled:
            self.requests_failed += 1
            raise NetworkError("TFTP service not responding")
        full = self._resolve(path)
        if not self.filesystem.isfile(full):
            self.requests_failed += 1
            raise NetworkError(f"TFTP: file not found: {path}")
        self.requests_served += 1
        return self.filesystem.read(full)

    def exists(self, path: str) -> bool:
        """Does *path* exist below the TFTP root?"""
        return self.enabled and self.filesystem.isfile(self._resolve(path))

    def put(self, path: str, content: str) -> None:
        """Server-side helper: write a file into the export tree.

        (Real admins edit ``/tftpboot`` directly on the head node; the v2
        controller does the same via the head node's filesystem — this
        helper exists for tests and provisioning code.)
        """
        self.filesystem.write(self._resolve(path), content)
