"""Whole-experiment proof that the calendar queue changes nothing.

The unit properties (``tests/simkernel/test_queue_equivalence.py``)
compare the queues on synthetic programs; this test closes the loop at
system level: every simulation experiment is run twice in quick mode —
once on the shipping :class:`~repro.simkernel.calqueue.CalendarQueue`
and once with the class every ``Simulator()`` builds monkeypatched to
the reference :class:`~repro.simkernel.kernel.HeapEventQueue` — and
every attached trace export must match byte for byte.  If the
calendar's bucket boundaries ever reordered a single tie on a *real*
workload, this is the test that would catch it.
"""

import importlib

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.simkernel import Simulator, calqueue
from repro.simkernel.kernel import HeapEventQueue
from tests.trace.test_determinism import SIMULATION_EXPERIMENTS

SEED = 3


def _run(experiment_id):
    module = importlib.import_module(ALL_EXPERIMENTS[experiment_id])
    return module.run(seed=SEED, quick=True)


def test_calendar_is_the_shipping_default():
    assert type(Simulator()._queue) is calqueue.CalendarQueue


@pytest.mark.parametrize("experiment_id", SIMULATION_EXPERIMENTS)
def test_heap_and_calendar_give_byte_identical_traces(
    experiment_id, monkeypatch
):
    calendar = _run(experiment_id)

    monkeypatch.setattr(calqueue, "CalendarQueue", HeapEventQueue)
    heap = _run(experiment_id)

    assert calendar.traces, f"{experiment_id} attached no traces"
    assert calendar.trace_exports().keys() == heap.trace_exports().keys()
    for label, export in calendar.trace_exports().items():
        assert export, f"{experiment_id} trace {label!r} is empty"
        assert export == heap.trace_exports()[label], (
            f"{experiment_id} trace {label!r} differs between the calendar "
            "and heap event queues"
        )
