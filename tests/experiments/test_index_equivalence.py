"""Whole-experiment proof that the indexed allocator changes nothing.

The unit properties (``tests/pbs/test_scheduler_index.py``) compare
placements on synthetic tables; this test closes the loop at system
level: every simulation experiment is run twice in quick mode — once
with the shipping :class:`NodeIndex` placement and once with
``PbsServer._place`` monkeypatched back to the reference
``allocate_fifo`` scan — and every attached trace export must match
byte for byte.  If the index ever diverged from the reference on a
*real* workload, the golden traces would have silently shifted; this
is the test that would catch it.
"""

import importlib

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.pbs.server import PbsServer
from tests.pbs.reference import allocate_fifo

SEED = 3

EXPERIMENTS = sorted(f"e{i}" for i in range(1, 10))


def _run(experiment_id):
    module = importlib.import_module(ALL_EXPERIMENTS[experiment_id])
    return module.run(seed=SEED, quick=True)


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_reference_allocator_gives_identical_traces(
    experiment_id, monkeypatch
):
    indexed = _run(experiment_id)

    monkeypatch.setattr(
        PbsServer, "_place",
        lambda self, job: allocate_fifo(job, self.nodes),
    )
    reference = _run(experiment_id)

    assert indexed.traces, f"{experiment_id} attached no traces"
    assert indexed.trace_exports().keys() == reference.trace_exports().keys()
    for label, export in indexed.trace_exports().items():
        assert export == reference.trace_exports()[label], (
            f"{experiment_id} trace {label!r} differs between the indexed "
            "and reference allocators"
        )
