"""Discrete-event simulation kernel.

Everything in :mod:`repro` runs on this kernel: simulated cluster nodes,
boot chains, batch schedulers and the dualboot-oscar daemons are all
generator-based processes scheduled on a single deterministic event queue.

The kernel is deliberately small and SimPy-flavoured:

* :class:`~repro.simkernel.kernel.Simulator` owns the clock and the event
  queue (a binary heap ordered by ``(time, sequence)`` so same-time
  events fire in schedule order — determinism is a hard requirement, see
  DESIGN.md).
* Processes are plain Python generators that ``yield`` either a
  :class:`~repro.simkernel.process.Timeout` or a one-shot
  :class:`~repro.simkernel.events.Event`.  A process that raises an
  exception it does not catch stops the run: the exception propagates
  out of :meth:`~repro.simkernel.kernel.Simulator.run`.
* All randomness flows through :class:`~repro.simkernel.rng.RngStreams`,
  which derives independent named substreams from one root seed.

Example
-------
>>> from repro.simkernel import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker("a", 2.0))
>>> _ = sim.spawn(worker("b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator
from repro.simkernel.process import Interrupt, Process, Timeout
from repro.simkernel.rng import RngStreams
from repro.simkernel.timeunits import (
    DAY,
    HOUR,
    MINUTE,
    SECOND,
    format_duration,
)

__all__ = [
    "DAY",
    "Event",
    "HOUR",
    "Interrupt",
    "MINUTE",
    "Process",
    "RngStreams",
    "SECOND",
    "Simulator",
    "Timeout",
    "format_duration",
]
