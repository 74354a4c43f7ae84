"""Baseline systems and the scenario runner.

The paper asserts the hybrid's advantages over the obvious alternatives
(§I–II) without measuring them; this package makes the comparison
runnable.  Every system implements the same small interface
(:class:`~repro.compare.base.ComparableSystem`) and is driven with the
identical workload trace by :func:`~repro.compare.runner.run_scenario`
(experiments that deploy and arm a system themselves call its loop,
:func:`~repro.compare.runner.drive`, directly):

* :class:`~repro.compare.hybrid.HybridSystem` — dualboot-oscar v1/v2;
* :class:`~repro.compare.static_split.StaticSplitSystem` — the cluster
  "divided in two or more clusters ... on a single operating system";
* :class:`~repro.compare.monostable.MonostableSystem` — the
  one-Linux-scheduler hybrid of ref [5], which boots Windows on demand
  and back again per job batch;
* :class:`~repro.compare.virtualized.VirtualizedSystem` — VMs, deployable
  only on VT-capable hardware (not Eridani's Q8200s).
"""

from repro.compare.base import ComparableSystem
from repro.compare.hybrid import HybridSystem
from repro.compare.monostable import MonostableSystem
from repro.compare.runner import ScenarioResult, drive, run_scenario
from repro.compare.static_split import StaticSplitSystem
from repro.compare.virtualized import VirtualizedSystem

__all__ = [
    "ComparableSystem",
    "HybridSystem",
    "MonostableSystem",
    "ScenarioResult",
    "StaticSplitSystem",
    "VirtualizedSystem",
    "drive",
    "run_scenario",
]
