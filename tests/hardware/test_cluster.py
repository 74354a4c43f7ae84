"""Cluster assembly tests."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import build_cluster
from repro.hardware.cluster import node_hostname
from repro.simkernel import Simulator


@pytest.fixture()
def cluster():
    return build_cluster(Simulator(), num_nodes=16, seed=3)


def test_eridani_shape(cluster):
    assert len(cluster.compute_nodes) == 16
    assert cluster.total_cores == 64  # §III.A: 16 nodes, 64 processors
    assert cluster.linux_head.name == "eridani"
    assert cluster.windows_head.name == "winhead"
    assert cluster.linux_head.fqdn == "eridani.qgg.hud.ac.uk"


def test_node_names_and_macs_unique(cluster):
    names = [n.name for n in cluster.compute_nodes]
    macs = [n.mac for n in cluster.compute_nodes]
    assert names[0] == "enode01" and names[-1] == "enode16"
    assert len(set(names)) == 16 and len(set(macs)) == 16


def test_node_hostname_format():
    assert node_hostname(7) == "enode07"
    assert node_hostname(16) == "enode16"


def test_all_nodes_on_network(cluster):
    for node in cluster.compute_nodes:
        assert cluster.network.has_host(node.name)
    assert cluster.network.has_host("eridani")
    assert cluster.network.has_host("winhead")


def test_head_nodes_always_running(cluster):
    assert cluster.linux_head.os.running
    assert cluster.windows_head.os.running
    assert cluster.linux_head.os.kind == "linux"
    assert cluster.windows_head.os.kind == "windows"


def test_compute_disks_start_blank(cluster):
    for node in cluster.compute_nodes:
        assert node.disk.partitions == []
        assert not node.disk.mbr.bootable


def test_node_lookup(cluster):
    assert cluster.node("enode03").name == "enode03"
    with pytest.raises(ConfigurationError):
        cluster.node("enode99")


def test_no_node_starts_failed(cluster):
    assert cluster.failed_nodes() == []


def test_min_nodes_validation():
    with pytest.raises(ConfigurationError):
        build_cluster(Simulator(), num_nodes=0)


def test_rng_independent_per_node():
    c = build_cluster(Simulator(), num_nodes=2, seed=1)
    a = c.compute_nodes[0].rng.stream("x").random()
    b = c.compute_nodes[1].rng.stream("x").random()
    assert a != b


def test_same_seed_same_cluster():
    c1 = build_cluster(Simulator(), num_nodes=2, seed=9)
    c2 = build_cluster(Simulator(), num_nodes=2, seed=9)
    assert c1.compute_nodes[0].rng.stream("x").random() == \
        c2.compute_nodes[0].rng.stream("x").random()
