"""GRUB4DOS as a PXE boot ROM — the v2 loader.

GRUB4DOS "reads different menu files, which are located in the directory
``menu.lst/`` under the PXE directory (normally ``/tftpboot/``), named
from compute nodes' LAN cards MAC address" (§IV.A.1).  dualboot-oscar v2
initially wrote one menu per MAC, then collapsed to a single *flag*:
every menu is (a copy of) the file for the cluster-wide target OS.

Menu file lookup order (matching GRUB4DOS's pxe behaviour):

1. ``menu.lst/01-<mac-with-dashes>`` (the ``01`` is the ARP hardware type);
2. ``menu.lst/default``.

The fetched menu is then executed with full access to the *local* disk —
that is GRUB4DOS's advantage over PXELINUX ("PXELINUX has less ability in
controlling local partitions booting", §IV.A.1).
"""

from __future__ import annotations


from repro.errors import BootError, NetworkError
from repro.boot.grub import BootTarget, GrubExecutor
from repro.netsvc.dhcp import normalize_mac
from repro.netsvc.tftp import TftpServer
from repro.storage.disk import Disk

#: Content marker for the GRUB4DOS PXE ROM file (grldr) in the TFTP tree.
GRUB4DOS_ROM = "ROM:grub4dos"

#: Directory (relative to the TFTP root) holding the menu files.
MENU_DIR = "/menu.lst"

#: Name of the fallback menu file.
DEFAULT_MENU = "default"


def mac_menu_name(mac: str) -> str:
    """Menu file name for *mac*: ``01-aa-bb-cc-dd-ee-ff``.

    >>> mac_menu_name("AA:BB:CC:DD:EE:01")
    '01-aa-bb-cc-dd-ee-01'
    """
    return "01-" + normalize_mac(mac).replace(":", "-")


def menu_path_for(mac: str) -> str:
    """TFTP path of the per-MAC menu file."""
    return f"{MENU_DIR}/{mac_menu_name(mac)}"


def default_menu_path() -> str:
    """TFTP path of the fallback menu file."""
    return f"{MENU_DIR}/{DEFAULT_MENU}"


class Grub4DosPxe:
    """The ROM running on a PXE-booted node."""

    def __init__(self, tftp: TftpServer, disk: Disk) -> None:
        self.tftp = tftp
        self.disk = disk

    def locate_menu(self, mac: str) -> str:
        """Fetch the menu text for *mac* (per-MAC file, else default)."""
        per_mac = menu_path_for(mac)
        if self.tftp.exists(per_mac):
            return self.tftp.fetch(per_mac)
        try:
            return self.tftp.fetch(default_menu_path())
        except NetworkError as exc:
            raise BootError(
                f"GRUB4DOS: no menu for MAC {mac} and no default menu"
            ) from exc

    def boot(self, mac: str) -> BootTarget:
        """Resolve the boot target for the node with *mac*."""
        text = self.locate_menu(mac)
        executor = GrubExecutor(self.disk, net_fetch=self.tftp.fetch)
        target = executor.execute_text(text)
        target.trace.insert(0, f"grub4dos menu for {normalize_mac(mac)}")
        return target
