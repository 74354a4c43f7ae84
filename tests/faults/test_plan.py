"""Validation and description of declarative fault plans."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    BootHang,
    FaultPlan,
    HeadCrash,
    LinkFault,
    Partition,
    ServiceFlap,
    WireCorruption,
)


def test_empty_plan():
    plan = FaultPlan()
    assert plan.is_empty


def test_link_fault_matching():
    link = LinkFault(src="a", dst="b", loss_prob=0.5)
    assert link.matches("a", "b")
    assert link.matches("b", "a")  # bidirectional by default
    assert not link.matches("a", "c")
    one_way = LinkFault(src="a", dst="b", loss_prob=0.5, bidirectional=False)
    assert one_way.matches("a", "b")
    assert not one_way.matches("b", "a")


def test_link_fault_window_defaults_open_ended():
    link = LinkFault(src="a", dst="b", loss_prob=0.1)
    assert link.start_s == 0.0
    assert link.end_s == math.inf


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_link_fault_bad_probability(bad):
    with pytest.raises(ConfigurationError):
        LinkFault(src="a", dst="b", loss_prob=bad)


def test_link_fault_bad_window():
    with pytest.raises(ConfigurationError):
        LinkFault(src="a", dst="b", start_s=10.0, end_s=5.0)


def test_partition_severs_both_directions():
    part = Partition(side_a=("lin",), side_b=("win",), start_s=0, end_s=10)
    assert part.severs("lin", "win")
    assert part.severs("win", "lin")
    assert not part.severs("lin", "other")


def test_partition_rejects_overlap_and_empty_sides():
    with pytest.raises(ConfigurationError):
        Partition(side_a=("x",), side_b=("x",), start_s=0, end_s=1)
    with pytest.raises(ConfigurationError):
        Partition(side_a=(), side_b=("x",), start_s=0, end_s=1)


def test_head_crash_validation():
    HeadCrash(side="linux", at_s=0.0, down_s=1.0)
    with pytest.raises(ConfigurationError):
        HeadCrash(side="macos", at_s=0.0, down_s=1.0)
    with pytest.raises(ConfigurationError):
        HeadCrash(side="linux", at_s=0.0, down_s=0.0)


def test_corruption_validation():
    WireCorruption(port=5800, prob=0.3)
    with pytest.raises(ConfigurationError):
        WireCorruption(port=5800, prob=0.3, modes=("evil-bit",))
    with pytest.raises(ConfigurationError):
        WireCorruption(port=5800, prob=0.3, modes=())


def test_service_flap_validation():
    ServiceFlap(service="dhcp", first_down_at_s=0.0, down_s=5.0)
    with pytest.raises(ConfigurationError):
        ServiceFlap(service="ntp", first_down_at_s=0.0, down_s=5.0)
    with pytest.raises(ConfigurationError):
        # repeated outages need a period longer than the outage itself
        ServiceFlap(service="tftp", first_down_at_s=0.0, down_s=5.0,
                    period_s=5.0, count=2)


def test_boot_hang_validation():
    BootHang()
    with pytest.raises(ConfigurationError):
        BootHang(times=0)
