"""The cluster LAN: hosts, datagrams, and TCP-style listeners.

A :class:`Network` is a single switched segment (the paper's clusters hang
off one head-node-connected switch).  Hosts are registered by name; message
delivery is reliable and ordered with a small fixed latency.  Each
listener keeps its inbound messages in a FIFO, so server processes simply
``yield listener.get()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.simkernel import Event, Simulator

#: Default one-way message latency on the simulated LAN (1 Gb campus switch).
DEFAULT_LATENCY_S = 0.001

#: Drop reasons the segment itself produces (taps add ``injected``).
DROP_REASONS = ("offline", "no_listener", "unknown_host", "injected")


@dataclass(frozen=True)
class Message:
    """A delivered payload with its envelope."""

    src: str
    dst: str
    port: int
    payload: Any


@dataclass
class DeliveryVerdict:
    """What a delivery tap wants done with one in-flight message.

    Taps (see :meth:`Network.add_tap`) return ``None`` to pass a message
    through untouched, or a verdict that drops it, delays it, and/or
    rewrites its payload — the fault injector's whole grip on the wire.
    """

    drop: bool = False
    reason: str = "injected"
    extra_delay_s: float = 0.0
    payload: Any = None
    rewrite: bool = False


#: A delivery tap: called with each outbound message, may return a verdict.
DeliveryTap = Callable[[Message], Optional[DeliveryVerdict]]


class Host:
    """A named endpoint on the network (head node or compute node)."""

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self.online = True

    def send(self, dst: str, port: int, payload: Any) -> None:
        """Send *payload* to ``dst:port`` (fire-and-forget, ordered)."""
        self.network.deliver(self.name, dst, port, payload)

    def listen(self, port: int) -> "PortListener":
        """Open a listener on *port* (one per port per host)."""
        return self.network.open_listener(self.name, port)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.online else "down"
        return f"<Host {self.name} {state}>"


class PortListener:
    """Inbound queue for one ``host:port``: a FIFO of delivered messages
    and a FIFO of the events that processes blocked in :meth:`get` wait
    on."""

    def __init__(self, sim: Simulator, host: str, port: int) -> None:
        self.sim = sim
        self.host = host
        self.port = port
        self._messages: Deque[Message] = deque()
        self._getters: Deque[Event] = deque()

    def get(self) -> Event:
        """Event yielding the next :class:`Message` (already triggered if
        one is queued, else it triggers when one arrives)."""
        ev = Event(self.sim)
        if self._messages:
            ev.succeed(self._messages.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Message]:
        """Non-blocking receive: the oldest queued message, or ``None``."""
        if self._messages:
            return self._messages.popleft()
        return None

    def __len__(self) -> int:
        return len(self._messages)

    def _push(self, message: Message) -> None:
        if self._getters:
            self._getters.popleft().succeed(message)
        else:
            self._messages.append(message)


class Network:
    """One switched LAN segment."""

    def __init__(self, sim: Simulator, latency_s: float = DEFAULT_LATENCY_S) -> None:
        if latency_s < 0:
            raise NetworkError(f"latency must be >= 0, got {latency_s}")
        self.sim = sim
        self.latency_s = latency_s
        self._hosts: Dict[str, Host] = {}
        self._listeners: Dict[Tuple[str, int], PortListener] = {}
        self._taps: List[DeliveryTap] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.drops_by_reason: Dict[str, int] = {r: 0 for r in DROP_REASONS}

    @property
    def messages_dropped(self) -> int:
        """Total drops across every reason (back-compat counter)."""
        return sum(self.drops_by_reason.values())

    def _drop(self, reason: str) -> None:
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    # -- taps (fault injection) ---------------------------------------------

    def add_tap(self, tap: DeliveryTap) -> None:
        """Install a delivery tap consulted on every :meth:`deliver` call."""
        self._taps.append(tap)

    # -- membership ---------------------------------------------------------

    def register(self, name: str) -> Host:
        """Attach a new host; names must be unique on the segment."""
        if name in self._hosts:
            raise NetworkError(f"host name {name!r} already on the network")
        host = Host(self, name)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    # -- listeners ------------------------------------------------------------

    def open_listener(self, host: str, port: int) -> PortListener:
        self.host(host)  # must exist
        key = (host, port)
        if key in self._listeners:
            raise NetworkError(f"port {port} on {host!r} already bound")
        listener = PortListener(self.sim, host, port)
        self._listeners[key] = listener
        return listener

    # -- delivery -------------------------------------------------------------

    def deliver(self, src: str, dst: str, port: int, payload: Any) -> None:
        """Queue delivery of one message after the segment latency.

        Messages to unknown hosts/ports or offline hosts are dropped
        silently (counted) — connectionless semantics; the communicators'
        fixed-cycle retry (§IV.A.3) papers over losses exactly as the
        paper's implementation does.
        """
        self.host(src)  # sender must exist
        self.messages_sent += 1
        message = Message(src=src, dst=dst, port=port, payload=payload)
        delay = self.latency_s
        for tap in self._taps:
            verdict = tap(message)
            if verdict is None:
                continue
            if verdict.drop:
                self._drop(verdict.reason or "injected")
                return
            if verdict.extra_delay_s > 0:
                delay += verdict.extra_delay_s
            if verdict.rewrite:
                message = Message(
                    src=message.src, dst=message.dst, port=message.port,
                    payload=verdict.payload,
                )
        self.sim.schedule(delay, self._arrive, message)

    def _arrive(self, message: Message) -> None:
        host = self._hosts.get(message.dst)
        if host is None:
            self._drop("unknown_host")
            return
        if not host.online:
            self._drop("offline")
            return
        listener = self._listeners.get((message.dst, message.port))
        if listener is None:
            self._drop("no_listener")
            return
        self.messages_delivered += 1
        listener._push(message)
