"""C-Star-style factories over the scheduler personalities.

``create_scheduler`` maps a personality *kind* onto its concrete
class; ``create_detector`` builds the matching queue-state detector.
Imports are function-level so that the scheduler packages (which import
:mod:`repro.sched.protocol` for :data:`SWITCH_TAG`) never cycle with
this module.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.errors import ConfigurationError
from repro.sched.protocol import SchedulerPersonality

#: Every personality kind ``create_scheduler`` accepts.
SCHEDULER_KINDS: Tuple[str, ...] = ("pbs", "winhpc", "slurm")


def create_scheduler(
    kind: str, sim: Any, head_name: str, **kwargs: Any
) -> SchedulerPersonality:
    """Build the personality *kind* headed at *head_name*.

    Extra keyword arguments pass through to the personality class
    (e.g. ``first_jobid`` for PBS).
    """
    if kind == "pbs":
        from repro.pbs.server import PbsServer

        return PbsServer(sim, server_name=head_name, **kwargs)
    if kind == "winhpc":
        from repro.winhpc.scheduler import WinHpcScheduler

        return WinHpcScheduler(sim, head_name=head_name, **kwargs)
    if kind == "slurm":
        from repro.slurm.controller import SlurmController

        return SlurmController(sim, head_name=head_name, **kwargs)
    raise ConfigurationError(
        f"unknown scheduler kind {kind!r} (expected one of "
        f"{', '.join(SCHEDULER_KINDS)})"
    )


def create_detector(
    personality: SchedulerPersonality,
    *,
    eager: bool = False,
) -> Any:
    """Build the queue-state detector matching *personality*.

    The detector is what a communicator daemon runs each cycle to
    produce the wire report (§IV.A.3); each personality ships its own
    detector, reading that scheduler directly, and this factory hides
    which one.
    """
    kind = personality.kind
    if kind == "pbs":
        from repro.core.detector import PbsDetector

        return PbsDetector(personality, eager=eager)
    if kind == "winhpc":
        from repro.core.detector import WinHpcDetector

        return WinHpcDetector(personality, eager=eager)
    if kind == "slurm":
        from repro.slurm.detector import SlurmDetector

        return SlurmDetector(personality, eager=eager)
    raise ConfigurationError(
        f"no detector for scheduler kind {kind!r}"
    )
