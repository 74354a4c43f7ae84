"""The object store: a SimPy-style FIFO mailbox with blocking ``get``.

The network layer delivers each socket's received messages through a
:class:`Store`.  Schedulers in :mod:`repro.pbs`, :mod:`repro.winhpc` and
:mod:`repro.slurm` manage node allocation themselves (they need richer
placement logic than a counted resource), on the same event machinery.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Optional

from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator


class Store:
    """An unbounded FIFO store of Python objects with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that triggers with the
    oldest item once one is available.  Used for mailbox-style communication
    (e.g. the simulated TCP sockets deliver received messages via a Store).
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    @property
    def items(self) -> List[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next item (immediately if nonempty)."""
        ev = self.sim.event(name=f"get:{self.name}")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop and return the oldest item, or ``None``."""
        if self._items:
            return self._items.popleft()
        return None
