"""Declarative fault plans.

A :class:`FaultPlan` is data, not behaviour: it names every fault a chaos
run will inject, with explicit activity windows, so that a run is fully
described by ``(seed, plan)`` and two runs with the same pair are
bit-for-bit identical.  The :class:`~repro.faults.injector.FaultInjector`
executes a plan against a live simulation.

The fault vocabulary covers the failure modes the operational papers
(Fermilab cs/0307021, OpenMosix hep-ex/0305077) report dominating real
cluster operations, mapped onto this simulation's layers:

========================  =====================================================
fault                     what it attacks
========================  =====================================================
:class:`LinkFault`        per-link message loss probability and latency jitter
:class:`Partition`        the head-node/head-node TCP path (Figure 11 step 2)
:class:`HeadCrash`        a communicator daemon + its host's reachability
:class:`WireCorruption`   the Figure-5 wire string (bit rot / truncation)
:class:`ServiceFlap`      DHCP or TFTP (the v2 PXE boot dependency)
:class:`BootHang`         a rebooting node (hangs at POST, never comes back)
:class:`NodeCrash`        a compute node's power, mid-job (hardware death)
:class:`NodeFlap`         a compute node, repeatedly (crash/recover cycles)
========================  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError

#: Corruption modes ``corrupt_wire`` can apply; every one of them must make
#: :meth:`repro.core.wire.QueueStateMessage.decode` raise ``MiddlewareError``.
CORRUPTION_MODES = ("bad-flag", "bad-cpu", "truncate", "garbage")

#: Services a :class:`ServiceFlap` may target.
FLAPPABLE_SERVICES = ("dhcp", "tftp")

#: Head-node sides a :class:`HeadCrash` may target.
HEAD_SIDES = ("linux", "windows")


def _check_window(what: str, start_s: float, end_s: float) -> None:
    if start_s < 0:
        raise ConfigurationError(f"{what}: start_s must be >= 0, got {start_s}")
    if end_s <= start_s:
        raise ConfigurationError(
            f"{what}: end_s ({end_s}) must be after start_s ({start_s})"
        )


def _check_prob(what: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"{what}: probability must be in [0, 1], got {p}")


@dataclass(frozen=True)
class LinkFault:
    """Loss probability + latency jitter on one directed host pair.

    ``bidirectional=True`` (the default) applies the fault to both
    directions of the pair — a flaky cable, not a flaky transmitter.
    """

    src: str
    dst: str
    loss_prob: float = 0.0
    jitter_s: float = 0.0
    start_s: float = 0.0
    end_s: float = math.inf
    bidirectional: bool = True

    def __post_init__(self) -> None:
        _check_prob(f"link {self.src}->{self.dst}", self.loss_prob)
        if self.jitter_s < 0:
            raise ConfigurationError(
                f"link {self.src}->{self.dst}: jitter_s must be >= 0"
            )
        _check_window(f"link {self.src}->{self.dst}", self.start_s, self.end_s)

    def matches(self, src: str, dst: str) -> bool:
        if (src, dst) == (self.src, self.dst):
            return True
        return self.bidirectional and (dst, src) == (self.src, self.dst)


@dataclass(frozen=True)
class Partition:
    """No traffic crosses between ``side_a`` and ``side_b`` in the window."""

    side_a: Tuple[str, ...]
    side_b: Tuple[str, ...]
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not self.side_a or not self.side_b:
            raise ConfigurationError("partition: both sides need hosts")
        overlap = set(self.side_a) & set(self.side_b)
        if overlap:
            raise ConfigurationError(
                f"partition: hosts on both sides: {sorted(overlap)}"
            )
        _check_window("partition", self.start_s, self.end_s)

    def severs(self, src: str, dst: str) -> bool:
        return (src in self.side_a and dst in self.side_b) or (
            src in self.side_b and dst in self.side_a
        )


@dataclass(frozen=True)
class HeadCrash:
    """One communicator daemon dies at ``at_s`` and restarts ``down_s`` later."""

    side: str
    at_s: float
    down_s: float

    def __post_init__(self) -> None:
        if self.side not in HEAD_SIDES:
            raise ConfigurationError(f"head crash: unknown side {self.side!r}")
        if self.at_s < 0:
            raise ConfigurationError("head crash: at_s must be >= 0")
        if self.down_s <= 0:
            raise ConfigurationError("head crash: down_s must be > 0")


@dataclass(frozen=True)
class WireCorruption:
    """Corrupt string payloads on one port with the given probability."""

    port: int
    prob: float
    start_s: float = 0.0
    end_s: float = math.inf
    modes: Tuple[str, ...] = CORRUPTION_MODES

    def __post_init__(self) -> None:
        _check_prob(f"corruption on port {self.port}", self.prob)
        _check_window(f"corruption on port {self.port}", self.start_s, self.end_s)
        if not self.modes:
            raise ConfigurationError("corruption: needs at least one mode")
        for mode in self.modes:
            if mode not in CORRUPTION_MODES:
                raise ConfigurationError(f"corruption: unknown mode {mode!r}")


@dataclass(frozen=True)
class ServiceFlap:
    """DHCP/TFTP outage windows: ``count`` outages of ``down_s`` seconds,
    one every ``period_s``, starting at ``first_down_at_s``."""

    service: str
    first_down_at_s: float
    down_s: float
    period_s: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.service not in FLAPPABLE_SERVICES:
            raise ConfigurationError(f"flap: unknown service {self.service!r}")
        if self.first_down_at_s < 0:
            raise ConfigurationError("flap: first_down_at_s must be >= 0")
        if self.down_s <= 0:
            raise ConfigurationError("flap: down_s must be > 0")
        if self.count < 1:
            raise ConfigurationError("flap: count must be >= 1")
        if self.count > 1 and self.period_s <= self.down_s:
            raise ConfigurationError(
                "flap: period_s must exceed down_s for repeated outages"
            )


@dataclass(frozen=True)
class BootHang:
    """The next ``times`` boots of ``node`` (or of any node, ``"*"``) hang.

    Armed from ``start_s`` on; a hung node lands in ``FAILED`` exactly as a
    machine frozen at POST does, and stays there until repowered.
    """

    node: str = "*"
    times: int = 1
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.times < 1:
            raise ConfigurationError("boot hang: times must be >= 1")
        if self.start_s < 0:
            raise ConfigurationError("boot hang: start_s must be >= 0")


@dataclass(frozen=True)
class NodeCrash:
    """Compute node ``node`` loses power at ``at_s``, mid-whatever it runs.

    Unlike :class:`BootHang` this kills a node that is *up* — including one
    with jobs on its cores — without any orderly shutdown, so neither
    scheduler is told.  With ``restart_after_s`` set, the machine is
    repowered that many seconds later (an operator walking to the rack);
    ``None`` means it stays dead for the rest of the run.
    """

    node: str
    at_s: float
    restart_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigurationError("node crash: at_s must be >= 0")
        if self.restart_after_s is not None and self.restart_after_s <= 0:
            raise ConfigurationError(
                "node crash: restart_after_s must be > 0 when set"
            )


@dataclass(frozen=True)
class NodeFlap:
    """Compute node ``node`` crash/recover cycles: ``count`` crashes of
    ``down_s`` seconds each, one every ``period_s``, from ``first_at_s``."""

    node: str
    first_at_s: float
    down_s: float
    period_s: float = 0.0
    count: int = 2

    def __post_init__(self) -> None:
        if self.first_at_s < 0:
            raise ConfigurationError("node flap: first_at_s must be >= 0")
        if self.down_s <= 0:
            raise ConfigurationError("node flap: down_s must be > 0")
        if self.count < 1:
            raise ConfigurationError("node flap: count must be >= 1")
        if self.count > 1 and self.period_s <= self.down_s:
            raise ConfigurationError(
                "node flap: period_s must exceed down_s for repeated crashes"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Everything one chaos run injects (immutable, validated)."""

    name: str = "chaos"
    link_faults: Tuple[LinkFault, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    head_crashes: Tuple[HeadCrash, ...] = ()
    corruptions: Tuple[WireCorruption, ...] = ()
    service_flaps: Tuple[ServiceFlap, ...] = ()
    boot_hangs: Tuple[BootHang, ...] = ()
    node_crashes: Tuple[NodeCrash, ...] = ()
    node_flaps: Tuple[NodeFlap, ...] = ()
