"""Unit tests for DHCP and TFTP services."""

import pytest

from repro.errors import NetworkError
from repro.netsvc import DhcpServer, TftpServer
from repro.netsvc.dhcp import normalize_mac
from repro.storage import Filesystem, FsType


def test_normalize_mac_forms():
    assert normalize_mac("00-1E-C9-3A-BB-01") == "00:1e:c9:3a:bb:01"
    assert normalize_mac("aa:bb:cc:dd:ee:ff") == "aa:bb:cc:dd:ee:ff"
    with pytest.raises(NetworkError):
        normalize_mac("not-a-mac")


def test_reserved_mac_gets_pinned_ip():
    dhcp = DhcpServer(subnet_prefix="10.0.0.")
    dhcp.reserve("aa:bb:cc:dd:ee:01", 11)
    lease = dhcp.discover("AA-BB-CC-DD-EE-01")
    assert lease.ip == "10.0.0.11"


def test_unknown_mac_draws_from_pool():
    dhcp = DhcpServer(pool_start=100, pool_end=102)
    l1 = dhcp.discover("aa:bb:cc:dd:ee:01")
    l2 = dhcp.discover("aa:bb:cc:dd:ee:02")
    assert {l1.ip, l2.ip} == {"192.168.1.100", "192.168.1.101"}
    assert dhcp.discover("aa:bb:cc:dd:ee:03") is None  # pool exhausted


def test_lease_is_stable_until_released():
    dhcp = DhcpServer()
    l1 = dhcp.discover("aa:bb:cc:dd:ee:01")
    l2 = dhcp.discover("aa:bb:cc:dd:ee:01")
    assert l1 is l2
    dhcp.release("aa:bb:cc:dd:ee:01")
    assert dhcp.active_leases == 0


def test_bootfile_default():
    dhcp = DhcpServer(next_server="linhead", default_bootfile="/grldr")
    a = dhcp.discover("aa:bb:cc:dd:ee:01")
    assert (a.next_server, a.bootfile) == ("linhead", "/grldr")
    # a lease taken after the default changes carries the new ROM
    dhcp.default_bootfile = "/pxelinux.0"
    dhcp.release("aa:bb:cc:dd:ee:01")
    assert dhcp.discover("aa:bb:cc:dd:ee:01").bootfile == "/pxelinux.0"


def test_disabled_dhcp_offers_nothing():
    dhcp = DhcpServer()
    dhcp.enabled = False
    assert dhcp.discover("aa:bb:cc:dd:ee:01") is None


@pytest.fixture()
def tftp():
    fs = Filesystem(FsType.EXT3, label="headroot")
    fs.write("/tftpboot/grldr", "ROM:grub4dos")
    fs.write("/tftpboot/menu.lst/default", "default=0\n")
    return TftpServer(fs)


def test_tftp_fetch(tftp):
    assert tftp.fetch("/grldr") == "ROM:grub4dos"
    assert tftp.requests_served == 1


def test_tftp_missing_file_raises(tftp):
    with pytest.raises(NetworkError):
        tftp.fetch("/nope")
    assert tftp.requests_failed == 1


def test_tftp_disabled_raises(tftp):
    tftp.enabled = False
    with pytest.raises(NetworkError):
        tftp.fetch("/grldr")
    assert not tftp.exists("/grldr")


def test_tftp_exists_and_put(tftp):
    assert tftp.exists("/menu.lst/default")
    tftp.put("/menu.lst/flag", "default=1\n")
    assert tftp.fetch("/menu.lst/flag") == "default=1\n"


def test_tftp_put_lands_beside_the_existing_files(tftp):
    tftp.put("/menu.lst/01-aa-bb-cc-dd-ee-01", "x")
    assert tftp.exists("/menu.lst/01-aa-bb-cc-dd-ee-01")
    assert tftp.fetch("/menu.lst/01-aa-bb-cc-dd-ee-01") == "x"
    assert tftp.fetch("/menu.lst/default") == "default=0\n"


def test_tftp_path_cannot_escape_root(tftp):
    # "/../etc/passwd" normalises inside the export tree
    with pytest.raises(NetworkError):
        tftp.fetch("/../outside")
