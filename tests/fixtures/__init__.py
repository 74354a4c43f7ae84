"""Shared test fixtures: verbatim paper wires and golden traces.

The two Figure-6 wire strings are the paper's own examples of the
Figure-5 message format — tests across the suite (wire codec, detector,
property tests) must agree on them byte-for-byte, so they live here once.

``golden_trace_*.jsonl`` are checked-in canonical trace exports of one
tiny v1 and one tiny v2 scenario, plus a v2 PBS/SLURM one with node
crashes; ``tests/trace/test_golden_traces.py``
compares fresh runs against them and regenerates them when
``REPRO_REGEN_GOLDEN=1`` is set.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

FIXTURES_DIR = Path(__file__).resolve().parent

#: Figure 6, first debug dump: idle queue ("00000" CPU fields + "none").
FIGURE6_IDLE_WIRE = "00000none"

#: Figure 6, second dump: stuck queue needing 4 CPUs for job 41191.
FIGURE6_STUCK_WIRE = "100041191.eridani.qgg.hud.ac.uk"

#: Both verbatim Figure-6 wires, for round-trip parametrisation.
FIGURE6_WIRES = (FIGURE6_IDLE_WIRE, FIGURE6_STUCK_WIRE)


def golden_trace_path(version: Union[int, str]) -> Path:
    """Path of the checked-in golden trace for middleware v1 or v2, or
    ``"2-slurm"`` for the v2 PBS/SLURM crash scenario."""
    return FIXTURES_DIR / f"golden_trace_v{version}.jsonl"


def load_golden_trace(version: Union[int, str]) -> str:
    """The checked-in golden JSONL export (raw text)."""
    return golden_trace_path(version).read_text(encoding="ascii")
