"""DHCP: MAC→IP leases plus PXE boot options.

OSCAR runs DHCP on the Linux head node; dualboot-oscar v2 relies on the
``next-server``/``filename`` options to hand every PXE-booting node the
GRUB4DOS ROM (§IV.A.1: "DHCP and TFTP services could specify individual
boot ROM and configure file for each node").

The model is synchronous — a node's firmware calls :meth:`DhcpServer.discover`
and gets a lease or ``None`` — because lease timing is irrelevant to every
experiment; the *content* of the lease (which ROM, which server) is what
drives behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import NetworkError


@dataclass(frozen=True)
class DhcpLease:
    """What a PXE client learns from DHCP."""

    mac: str
    ip: str
    next_server: Optional[str] = None  # TFTP server host name
    bootfile: Optional[str] = None     # path of the boot ROM on that server


def normalize_mac(mac: str) -> str:
    """Canonical lower-case colon form.

    >>> normalize_mac("00-1E-C9-3A-BB-01")
    '00:1e:c9:3a:bb:01'
    """
    cleaned = mac.strip().lower().replace("-", ":")
    parts = cleaned.split(":")
    if len(parts) != 6 or not all(len(p) == 2 for p in parts):
        raise NetworkError(f"malformed MAC address {mac!r}")
    return ":".join(parts)


class DhcpServer:
    """A static-reservation DHCP server with a dynamic fallback pool.

    Registered MACs get their reserved IP; unknown MACs draw from the pool
    (OSCAR registers every imaged node, so the pool mainly serves the
    first-contact deployment boot).
    """

    def __init__(
        self,
        subnet_prefix: str = "192.168.1.",
        pool_start: int = 100,
        pool_end: int = 200,
        next_server: Optional[str] = None,
        default_bootfile: Optional[str] = None,
    ) -> None:
        self.subnet_prefix = subnet_prefix
        self._pool = list(range(pool_start, pool_end))
        self._reservations: Dict[str, str] = {}
        self._leases: Dict[str, DhcpLease] = {}
        self.next_server = next_server
        self.default_bootfile = default_bootfile
        self.enabled = True

    # -- administration -----------------------------------------------------

    def reserve(self, mac: str, ip_suffix: int) -> None:
        """Pin *mac* to ``<prefix><ip_suffix>``."""
        self._reservations[normalize_mac(mac)] = f"{self.subnet_prefix}{ip_suffix}"

    # -- client side -------------------------------------------------------

    def discover(self, mac: str) -> Optional[DhcpLease]:
        """PXE DHCP exchange; returns a lease or ``None`` if unserviceable."""
        if not self.enabled:
            return None
        key = normalize_mac(mac)
        existing = self._leases.get(key)
        if existing is not None:
            return existing
        ip = self._reservations.get(key)
        if ip is None:
            if not self._pool:
                return None
            ip = f"{self.subnet_prefix}{self._pool.pop(0)}"
        lease = DhcpLease(
            mac=key,
            ip=ip,
            next_server=self.next_server,
            bootfile=self.default_bootfile,
        )
        self._leases[key] = lease
        return lease

    def release(self, mac: str) -> None:
        """Forget the lease for *mac* (rebooted nodes re-discover)."""
        self._leases.pop(normalize_mac(mac), None)

    @property
    def active_leases(self) -> int:
        return len(self._leases)
