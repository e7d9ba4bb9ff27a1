"""Message-passing layer over a topology: tick-based FIFO delivery.

Sends enqueue a plain (src, dst, tag, payload) tuple, whose payload is the
bit string of a classical message or the QubitId of a qubit.  Nothing is
delivered until run_until_idle drains the queue, so a protocol phase is
written as "enqueue everything, then run"; each drain is one tick, and one
pass empties the queue (delivery never sends), so no event cap is needed.
Qubit payloads move a QubitId between node inventories; a qubit in
flight stays in the custody of its sender for capacity accounting (the
fiber port is the sender's hardware until the photon is absorbed).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .qstate import QubitId
from .topology import LinkKind, NodeId, Topology


class NetworkError(ValueError):
    """Illegal network operation: missing link, wrong link kind, bad ownership."""


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


class NodeInventory:
    """What one node currently holds: tagged qubits and its classical inbox."""

    def __init__(self) -> None:
        self.qubits: dict[str, QubitId] = {}
        self.messages: dict[str, str] = {}  # tag -> bits, in arrival order

    def message(self, tag: str) -> str:
        try:
            return self.messages[tag]
        except KeyError:
            raise NetworkError(f"no message tagged {tag!r} in inbox") from None

    def messages_tagged(self, prefix: str) -> list[str]:
        return [bits for tag, bits in self.messages.items() if tag.startswith(prefix)]


class QNetwork:
    """Event queue, per-node inventories, and the delivery trace."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.now = 0
        self._queue: deque[tuple[NodeId, NodeId, str, str | QubitId]] = deque()
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
        if any(c not in "01" for c in bits):
            raise ValueError(f"classical payload must be a bit string, got {bits!r}")
        self._queue.append((src, dst, tag, bits))

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
        self._queue.append((src, dst, tag, q))

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
        """Deliver all queued messages in FIFO order; returns this call's deliveries.

        One drain is one tick, stamped on all its deliveries.  Delivery never
        sends, so the queue cannot refill during a drain: no event cap needed.
        """
        if self._queue:
            self.now += 1
        delivered: list[TraceEntry] = []
        while self._queue:
            delivered.append(self._deliver(*self._queue.popleft()))
        return delivered

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _deliver(self, src: NodeId, dst: NodeId, tag: str, payload: str | QubitId) -> TraceEntry:
        inv = self._inventory(dst)
        if isinstance(payload, str):
            if tag in inv.messages:
                raise NetworkError(f"{dst} already holds a message tagged {tag!r}")
            inv.messages[tag] = payload
            entry = TraceEntry(self.now, src, dst, "classical", tag, len(payload))
        else:
            if tag in inv.qubits:
                raise NetworkError(f"{dst} already holds a qubit tagged {tag!r}")
            self._in_flight[src] -= 1
            inv.qubits[tag] = payload
            self._bump(dst)
            entry = TraceEntry(self.now, src, dst, "quantum", tag, 1)
        self.trace.append(entry)
        return entry

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
