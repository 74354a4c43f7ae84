"""Middleware configuration: the values a deployment actually chooses.

:class:`MiddlewareConfig` holds eleven settable values, one of them in
a nested group (``elastic=ElasticConfig(enabled=...)``).  The paper
itself has two settings, the v1/v2 generation and the fixed
communicator cycle; the rest pick
between mechanisms the reproduction models (the v1 switch script, v2's
per-MAC menus, eager detectors, the Windows-side scheduler) or switch on
one of its extensions (a Windows-first split, checkpoints, cloud-burst
nodes, elasticity).  Nothing else is a deployment knob: every other
default lives once, in the component class that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.communicator import DEFAULT_ORDER_TIMEOUT_S
from repro.errors import ConfigurationError
from repro.simkernel.timeunits import MINUTE

#: TCP port the Linux communicator listens on.
COMMUNICATOR_PORT = 5800

#: Scheduler personalities accepted for the Windows side of the pairing.
WINDOWS_SCHEDULER_KINDS = ("winhpc", "slurm")


@dataclass
class ElasticConfig:
    """Power-aware elasticity: suspend idle nodes, wake/provision under
    queue pressure (the tri-stable extension; disabled = the paper's
    always-on bi-stable cluster).  Its cadence and thresholds are
    :class:`~repro.core.elasticity.ElasticityManager`'s and
    :class:`~repro.core.elasticity.ElasticityPolicy`'s defaults."""

    enabled: bool = False


@dataclass
class MiddlewareConfig:
    """The eleven settable values of a dualboot-oscar deployment.

    Defaults follow the paper: v2 middleware, a 10-minute communicator
    cycle ("fixed cycles (intervals), e.g. 10mins", §IV.A.3), everything
    starting in Linux, PBS↔WinHPC as the scheduler pairing.  Every other
    number of the deployment (partition sizes, ports, retry and heartbeat
    timings, restart budgets, elasticity thresholds) is the default of the
    component class that uses it; see docs/ARCHITECTURE.md,
    "Configuration".
    """

    version: int = 2
    check_cycle_s: float = 10 * MINUTE
    #: leading nodes that boot Windows first (the rest boot Linux)
    initial_windows_nodes: int = 0
    #: v1 switch mechanism: "bootcontrol" (Figure 4) or "rename" (§III.B.1)
    v1_switch_method: str = "rename"
    #: v2 menu mode: single shared flag (the paper's final design) or
    #: per-MAC menu files (the initial v2 approach of Figure 12)
    v2_per_mac_menus: bool = False
    #: §V extension: detectors advertise backlog in the CPU field even
    #: while jobs run (pair with EagerPolicy)
    eager_detectors: bool = False
    #: switch-order watchdog: orders unresolved after this are failed
    order_timeout_s: float = DEFAULT_ORDER_TIMEOUT_S
    #: checkpoint model: work in whole multiples of this interval survives
    #: an eviction (``None`` = no checkpointing, everything is lost)
    checkpoint_interval_s: Optional[float] = None
    #: trailing nodes that start DEPROVISIONED (the cloud-burst pool)
    burst_nodes: int = 0
    #: scheduler personality for the Windows side of the pairing (the
    #: Linux side is always the OSCAR-installed PBS)
    windows_scheduler: str = "winhpc"
    #: nested knob group
    elastic: ElasticConfig = field(default_factory=ElasticConfig)

    def __post_init__(self) -> None:
        if self.version not in (1, 2):
            raise ConfigurationError(f"version must be 1 or 2, got {self.version}")
        if self.check_cycle_s <= 0:
            raise ConfigurationError("check cycle must be positive")
        if self.initial_windows_nodes < 0:
            raise ConfigurationError("initial_windows_nodes must be >= 0")
        if self.v1_switch_method not in ("bootcontrol", "rename"):
            raise ConfigurationError(
                f"bad v1 switch method {self.v1_switch_method!r}"
            )
        if self.order_timeout_s <= 0:
            raise ConfigurationError("order_timeout_s must be positive")
        if self.checkpoint_interval_s is not None and self.checkpoint_interval_s <= 0:
            raise ConfigurationError(
                "checkpoint_interval_s must be positive when set"
            )
        if self.burst_nodes < 0:
            raise ConfigurationError("burst_nodes must be >= 0")
        if self.windows_scheduler not in WINDOWS_SCHEDULER_KINDS:
            raise ConfigurationError(
                f"bad windows_scheduler {self.windows_scheduler!r} "
                f"(expected one of {', '.join(WINDOWS_SCHEDULER_KINDS)})"
            )
