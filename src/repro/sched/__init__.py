"""Scheduler-personality seam.

The control plane (middleware, health fencing, elasticity, energy
metering, recorder) speaks to batch schedulers only through the
:class:`~repro.sched.protocol.SchedulerPersonality` protocol defined
here; concrete personalities (``repro.pbs``, ``repro.winhpc``,
``repro.slurm``) share the job-lifecycle core in
:mod:`repro.sched.lifecycle`, are constructed via
:func:`create_scheduler`, and are never imported directly by the
control plane (lint rule API002).
"""

from repro.sched.factory import (
    SCHEDULER_KINDS,
    create_detector,
    create_scheduler,
)
from repro.sched.protocol import (
    SWITCH_TAG,
    JobRequest,
    SchedulerPersonality,
)

__all__ = [
    "SCHEDULER_KINDS",
    "SWITCH_TAG",
    "JobRequest",
    "SchedulerPersonality",
    "create_detector",
    "create_scheduler",
]
