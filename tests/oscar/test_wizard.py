"""OSCAR wizard tests: step ordering, patches, client deployment."""

import pytest

from repro.errors import DeploymentError
from repro.hardware import build_cluster
from repro.oscar import apply_v2_patches
from repro.oscar.idedisk import IDE_DISK_STOCK, IDE_DISK_V2
from repro.oscar.patches import V2_PATCHES
from repro.pbs.nodes import PbsNodeState
from repro.simkernel import MINUTE, Simulator
from repro.oscar.wizard import _STEPS, OscarWizard


@pytest.fixture()
def cluster():
    return build_cluster(Simulator(), num_nodes=4, seed=5)


@pytest.fixture()
def wizard(cluster):
    return OscarWizard(cluster)


def run_all_steps(wizard, layout_text=IDE_DISK_STOCK, **image_kw):
    wizard.install_server()
    wizard.configure_packages()
    wizard.build_image(layout_text, **image_kw)
    wizard.define_clients()
    wizard.setup_networking()
    wizard.deploy_clients()


def test_steps_must_run_in_order(wizard):
    with pytest.raises(DeploymentError, match="out of order"):
        wizard.configure_packages()
    wizard.install_server()
    with pytest.raises(DeploymentError, match="out of order"):
        wizard.deploy_clients()


def test_complete_flag(wizard):
    assert wizard.installation.steps_done == []
    run_all_steps(wizard)
    assert tuple(wizard.installation.steps_done) == _STEPS


def test_configure_packages_includes_dualboot_by_default(wizard):
    wizard.install_server()
    wizard.configure_packages()
    names = {p.name for p in wizard.installation.packages}
    assert "torque" in names and "dualboot-oscar" in names


def test_define_clients_registers_pbs_nodes_and_dhcp(wizard, cluster):
    wizard.install_server()
    wizard.configure_packages()
    wizard.build_image(IDE_DISK_STOCK)
    wizard.define_clients()
    pbs = wizard.installation.pbs
    assert len(pbs.nodes) == 4
    assert pbs.node("enode01").state is PbsNodeState.DOWN  # not booted yet
    lease = wizard.installation.dhcp.discover(cluster.compute_nodes[0].mac)
    assert lease.ip.endswith(".101")


def test_setup_networking_attaches_env_and_pxelinux(wizard, cluster):
    wizard.install_server()
    wizard.configure_packages()
    wizard.build_image(IDE_DISK_STOCK)
    wizard.define_clients()
    wizard.setup_networking()
    assert cluster.env.dhcp is wizard.installation.dhcp
    assert cluster.env.tftp is wizard.installation.tftp
    assert cluster.env.tftp.fetch("/pxelinux.0") == "ROM:pxelinux"
    assert "LOCALBOOT" in cluster.env.tftp.fetch("/pxelinux.cfg/default")


def test_deploy_clients_images_and_boots_into_pbs(wizard, cluster):
    run_all_steps(wizard)
    for node in cluster.compute_nodes:
        node.power_on()
    cluster.sim.run(until=15 * MINUTE)
    pbs = wizard.installation.pbs
    assert pbs.free_cores() == 16
    assert all(
        record.state is PbsNodeState.FREE for record in pbs.nodes.values()
    )
    # PXE-first would also work: PXELINUX LOCALBOOTs to the GRUB MBR
    assert cluster.compute_nodes[0].last_boot.via == "mbr-grub"


def test_deploy_clients_without_image_fails(wizard):
    wizard.install_server()
    wizard.configure_packages()
    wizard.installation.steps_done.append("build_image")  # skipped for real
    wizard.define_clients()
    wizard.setup_networking()
    with pytest.raises(DeploymentError, match="no image"):
        wizard.deploy_clients()


def test_pbs_mom_attach_idempotent(wizard, cluster):
    node = cluster.compute_nodes[0]
    wizard.attach_pbs_mom(node)
    wizard.attach_pbs_mom(node)
    assert len(node.hooks.provisioners) == 1


def test_apply_v2_patches_idempotent(wizard):
    installation = wizard.installation
    assert not installation.patched
    first = apply_v2_patches(installation)
    assert [p.component for p in first] == ["systemimager", "systeminstaller"]
    assert installation.patched
    assert apply_v2_patches(installation) == []
    assert len(installation.applied_patches) == len(V2_PATCHES)


def test_patched_wizard_accepts_skip_layout(wizard):
    apply_v2_patches(wizard.installation)
    wizard.install_server()
    wizard.configure_packages()
    image = wizard.build_image(IDE_DISK_V2)
    assert image.patched
    assert not image.install_grub_mbr


def test_node_down_after_reboot_marks_pbs(wizard, cluster):
    run_all_steps(wizard)
    node = cluster.compute_nodes[0]
    node.power_on()
    cluster.sim.run(until=15 * MINUTE)
    pbs = wizard.installation.pbs
    assert pbs.node(node.name).state is PbsNodeState.FREE
    node.reboot()
    cluster.sim.run(until=cluster.sim.now + 1.0)  # reboot process starts
    assert pbs.node(node.name).state is PbsNodeState.DOWN
    cluster.sim.run(until=cluster.sim.now + 15 * MINUTE)
    assert pbs.node(node.name).state is PbsNodeState.FREE
