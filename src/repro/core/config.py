"""Middleware configuration.

Knob families live in nested groups: ``elastic=ElasticConfig(...)``,
``energy=EnergyConfig(...)`` and ``trace=TraceConfig(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    always-on bi-stable cluster)."""

    enabled: bool = False
    cycle_s: float = 5 * MINUTE
    #: consecutive surplus evaluations required before suspending anything
    hysteresis_cycles: int = 2
    #: never suspend below this many UP nodes per OS side
    min_online: int = 1
    #: idle nodes to keep warm beyond the floor before suspending the rest
    idle_surplus: int = 1
    #: per-evaluation action budget (suspends or wakes per side per cycle)
    max_actions: int = 2

    def __post_init__(self) -> None:
        if self.cycle_s <= 0:
            raise ConfigurationError("elastic cycle_s must be positive")
        if self.hysteresis_cycles < 1:
            raise ConfigurationError(
                "elastic hysteresis_cycles must be >= 1"
            )
        if self.min_online < 0:
            raise ConfigurationError("elastic min_online must be >= 0")
        if self.idle_surplus < 0:
            raise ConfigurationError("elastic idle_surplus must be >= 0")
        if self.max_actions < 1:
            raise ConfigurationError("elastic max_actions must be >= 1")


@dataclass
class EnergyConfig:
    """Energy accounting."""

    #: meter every node's watt draw into the trace
    metering: bool = True


@dataclass
class TraceConfig:
    """Trace-export behaviour."""

    #: how much the tracer records: "full" (events + counts), "counts"
    #: (per-kind counters only) or "off".  Tracing never feeds back into
    #: simulation state, so any mode replays byte-identically when re-run
    #: with tracing on (see docs/OBSERVABILITY.md).
    mode: str = "full"

    def __post_init__(self) -> None:
        if self.mode not in ("full", "counts", "off"):
            raise ConfigurationError(
                f"bad trace mode {self.mode!r} "
                "(expected 'full', 'counts' or 'off')"
            )


@dataclass
class MiddlewareConfig:
    """Knobs of a dualboot-oscar deployment.

    Defaults follow the paper: v2 middleware, a 10-minute communicator
    cycle ("fixed cycles (intervals), e.g. 10mins", §IV.A.3), 150 GB
    reserved for Windows on 250 GB disks (§III.C.2), everything starting
    in Linux, PBS↔WinHPC as the scheduler pairing.
    """

    version: int = 2
    check_cycle_s: float = 10 * MINUTE
    windows_partition_mb: float = 150_000.0
    initial_os: str = "linux"
    initial_windows_nodes: int = 0
    communicator_port: int = COMMUNICATOR_PORT
    #: v1 switch mechanism: "bootcontrol" (Figure 4) or "rename" (§III.B.1)
    v1_switch_method: str = "rename"
    #: v2 menu mode: single shared flag (the paper's final design) or
    #: per-MAC menu files (the initial v2 approach of Figure 12)
    v2_per_mac_menus: bool = False
    pbs_user: str = "sliang"
    #: §V extension: detectors advertise backlog in the CPU field even
    #: while jobs run (pair with EagerPolicy)
    eager_detectors: bool = False
    #: hardened control plane: ack every report, retry unacked sends
    comm_acks: bool = True
    comm_max_retries: int = 2
    comm_retry_base_s: float = 5.0
    comm_ack_timeout_s: float = 10.0
    #: refuse switch decisions on Windows reports older than this many cycles
    staleness_cycles: int = 3
    #: switch-order watchdog: orders unresolved after this are failed
    order_timeout_s: float = 15 * MINUTE
    watchdog_poll_s: float = MINUTE
    #: node-failure resilience: heartbeat monitor + job recovery policy
    health_monitoring: bool = True
    health_beat_s: float = MINUTE
    health_suspect_misses: int = 2
    health_fence_misses: int = 5
    #: how many times a rerunnable job is requeued before it fails for good
    job_max_restarts: int = 3
    #: checkpoint model: work in whole multiples of this interval survives
    #: an eviction (``None`` = no checkpointing, everything is lost)
    checkpoint_interval_s: Optional[float] = None
    #: trailing nodes that start DEPROVISIONED (the cloud-burst pool)
    burst_nodes: int = 0
    #: scheduler personality for the Windows side of the pairing (the
    #: Linux side is always the OSCAR-installed PBS)
    windows_scheduler: str = "winhpc"
    #: nested knob groups
    elastic: ElasticConfig = field(default_factory=ElasticConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)

    def __post_init__(self) -> None:
        if self.version not in (1, 2):
            raise ConfigurationError(f"version must be 1 or 2, got {self.version}")
        if self.check_cycle_s <= 0:
            raise ConfigurationError("check cycle must be positive")
        if self.initial_os not in ("linux", "windows"):
            raise ConfigurationError(f"bad initial OS {self.initial_os!r}")
        if self.initial_windows_nodes < 0:
            raise ConfigurationError("initial_windows_nodes must be >= 0")
        if self.v1_switch_method not in ("bootcontrol", "rename"):
            raise ConfigurationError(
                f"bad v1 switch method {self.v1_switch_method!r}"
            )
        if self.comm_max_retries < 0:
            raise ConfigurationError("comm_max_retries must be >= 0")
        if self.comm_retry_base_s <= 0 or self.comm_ack_timeout_s <= 0:
            raise ConfigurationError("retry/ack timings must be positive")
        if self.staleness_cycles < 1:
            raise ConfigurationError("staleness_cycles must be >= 1")
        if self.order_timeout_s <= 0 or self.watchdog_poll_s <= 0:
            raise ConfigurationError("watchdog timings must be positive")
        if self.health_beat_s <= 0:
            raise ConfigurationError("health_beat_s must be positive")
        if not 1 <= self.health_suspect_misses < self.health_fence_misses:
            raise ConfigurationError(
                "need 1 <= health_suspect_misses < health_fence_misses"
            )
        if self.job_max_restarts < 0:
            raise ConfigurationError("job_max_restarts must be >= 0")
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
