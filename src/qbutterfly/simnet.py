"""Message-passing layer over a topology: tick-based FIFO delivery.

Sends enqueue; nothing is delivered until run_until_idle drains the queue,
so a protocol phase is written as "enqueue everything, then run".  Qubit
payloads move a QubitId between node inventories; a qubit in flight stays
in the custody of its sender for capacity accounting (the fiber port is
the sender's hardware until the photon is absorbed).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from .qstate import QubitId
from .topology import LinkKind, NodeId, Topology


class NetworkError(ValueError):
    """Illegal network operation: missing link, wrong link kind, bad ownership."""


@dataclass(frozen=True)
class ClassicalBits:
    bits: str
    tag: str

    def __post_init__(self) -> None:
        if any(c not in "01" for c in self.bits):
            raise ValueError(f"classical payload must be a bit string, got {self.bits!r}")


@dataclass(frozen=True)
class QubitTransfer:
    qubit: QubitId
    tag: str


Payload = Union[ClassicalBits, QubitTransfer]


@dataclass(frozen=True)
class NetEvent:
    time: int
    src: NodeId
    dst: NodeId
    payload: Payload


@dataclass(frozen=True)
class TraceEntry:
    time: int
    src: NodeId
    dst: NodeId
    kind: str  # "classical" | "quantum"
    tag: str
    size: int  # bits for classical, qubit count for quantum

    def __str__(self) -> str:
        return f"{self.time} {self.src} {self.dst} {self.kind} {self.tag} {self.size}"


@dataclass(frozen=True)
class ReceivedMessage:
    src: NodeId
    tag: str
    bits: str


class NodeInventory:
    """What one node currently holds: tagged qubits and its classical inbox."""

    def __init__(self) -> None:
        self.qubits: dict[str, QubitId] = {}
        self.messages: list[ReceivedMessage] = []

    def message(self, tag: str) -> ReceivedMessage:
        for msg in self.messages:
            if msg.tag == tag:
                return msg
        raise NetworkError(f"no message tagged {tag!r} in inbox")

    def messages_tagged(self, prefix: str) -> list[ReceivedMessage]:
        return [m for m in self.messages if m.tag.startswith(prefix)]


class QNetwork:
    """Event queue, per-node inventories, and the delivery trace."""

    def __init__(self, topology: Topology, max_events: int = 1_000_000):
        self.topology = topology
        self.max_events = max_events
        self.now = 0
        self._queue: deque[NetEvent] = deque()
        self.trace: list[TraceEntry] = []
        self.inventories: dict[NodeId, NodeInventory] = {n: NodeInventory() for n in topology.nodes}
        self._in_flight: dict[NodeId, int] = {n: 0 for n in topology.nodes}
        self.node_peaks: dict[NodeId, int] = {n: 0 for n in topology.nodes}

    def reset(self) -> None:
        """Clear queue, trace, inventories and accounting; topology stays."""
        self.now = 0
        self._queue.clear()
        self.trace.clear()
        for inv in self.inventories.values():
            inv.qubits.clear()
            inv.messages.clear()
        for n in self._in_flight:
            self._in_flight[n] = 0
        for n in self.node_peaks:
            self.node_peaks[n] = 0

    # -- qubit custody --------------------------------------------------------

    def deposit(self, node: NodeId, tag: str, q: QubitId) -> None:
        """A qubit created at this node enters its inventory under tag."""
        inv = self._inventory(node)
        if tag in inv.qubits:
            raise NetworkError(f"{node} already holds a qubit tagged {tag!r}")
        inv.qubits[tag] = q
        self._bump(node)

    def take(self, node: NodeId, tag: str) -> QubitId:
        """The node consumes a held qubit (to gate/measure it locally)."""
        inv = self._inventory(node)
        if tag not in inv.qubits:
            raise NetworkError(f"{node} holds no qubit tagged {tag!r}")
        return inv.qubits.pop(tag)

    def holdings(self, node: NodeId) -> dict[str, QubitId]:
        return dict(self._inventory(node).qubits)

    def node_usage(self, node: NodeId) -> int:
        return len(self._inventory(node).qubits) + self._in_flight[node]

    def peak_usage_total(self) -> int:
        """Sum over nodes of each node's own peak qubit holding (incl. in-flight)."""
        return sum(self.node_peaks.values())

    # -- sending ---------------------------------------------------------------

    def send_classical(self, src: NodeId, dst: NodeId, bits: str, tag: str) -> None:
        if self.topology.find_link(src, dst) is None:
            raise NetworkError(f"no link between {src} and {dst}")
        self._enqueue(src, dst, ClassicalBits(bits, tag))

    def send_qubit(self, src: NodeId, dst: NodeId, q: QubitId, tag: str) -> None:
        kind = self.topology.find_link(src, dst)
        if kind is None:
            raise NetworkError(f"no link between {src} and {dst}")
        if kind is not LinkKind.QUANTUM:
            raise NetworkError(f"link {src}--{dst} is classical; it cannot carry a qubit")
        inv = self._inventory(src)
        held_tag = None
        for t, held in inv.qubits.items():
            if held == q:
                held_tag = t
                break
        if held_tag is None:
            raise NetworkError(f"{src} does not hold qubit {q}")
        del inv.qubits[held_tag]
        self._in_flight[src] += 1  # custody stays with sender until delivery
        self._enqueue(src, dst, QubitTransfer(q, tag))

    def broadcast_classical(self, src: NodeId, bits: str, tag: str,
                            exclude: Iterable[NodeId] = ()) -> list[NodeId]:
        """One classical send to every neighbor (minus exclusions); returns them."""
        skip = set(exclude)
        targets = [n for n in self.topology.neighbors(src) if n not in skip]
        if not targets:
            raise NetworkError(f"{src} has no neighbors to broadcast to")
        for dst in targets:
            self.send_classical(src, dst, bits, tag)
        return targets

    # -- delivery ----------------------------------------------------------------

    def run_until_idle(self) -> list[TraceEntry]:
        """Deliver all queued events in FIFO order; returns this call's deliveries."""
        delivered: list[TraceEntry] = []
        processed = 0
        while self._queue:
            processed += 1
            if processed > self.max_events:
                raise NetworkError(f"event cap exceeded ({self.max_events}); livelock?")
            event = self._queue.popleft()
            self.now = max(self.now, event.time)
            entry = self._deliver(event)
            delivered.append(entry)
        return delivered

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _deliver(self, event: NetEvent) -> TraceEntry:
        inv = self._inventory(event.dst)
        payload = event.payload
        if isinstance(payload, QubitTransfer):
            if payload.tag in inv.qubits:
                raise NetworkError(f"{event.dst} already holds a qubit tagged {payload.tag!r}")
            self._in_flight[event.src] -= 1
            inv.qubits[payload.tag] = payload.qubit
            self._bump(event.dst)
            entry = TraceEntry(event.time, event.src, event.dst, "quantum", payload.tag, 1)
        else:
            inv.messages.append(ReceivedMessage(event.src, payload.tag, payload.bits))
            entry = TraceEntry(event.time, event.src, event.dst, "classical",
                               payload.tag, len(payload.bits))
        self.trace.append(entry)
        return entry

    def _enqueue(self, src: NodeId, dst: NodeId, payload: Payload) -> None:
        self._queue.append(NetEvent(self.now + 1, src, dst, payload))

    def _inventory(self, node: NodeId) -> NodeInventory:
        if node not in self.inventories:
            raise NetworkError(f"{node} is not part of this network")
        return self.inventories[node]

    def _bump(self, node: NodeId) -> None:
        usage = self.node_usage(node)
        if usage > self.node_peaks[node]:
            self.node_peaks[node] = usage


def serialize_trace(trace: Iterable[TraceEntry]) -> str:
    return "\n".join(str(entry) for entry in trace) + "\n"
