"""Message-passing layer over a topology: tick-based FIFO delivery.

Sends enqueue a plain (src, dst, tag, payload) tuple, whose payload is the
bit string of a classical message or the QubitId of a qubit.  Nothing is
delivered until run_until_idle drains the queue, so a protocol phase is
written as "enqueue everything, then run"; each drain is one tick, and one
pass empties the queue (delivery never sends), so no event cap is needed.
Each node holds tagged qubits (``qubits``) and a classical inbox
(``inbox``).  A delivered qubit enters its receiver's holdings through
``deposit``, as a qubit created there does; a qubit in flight stays in the
custody of its sender for capacity accounting (the fiber port is the
sender's hardware until the photon is absorbed).
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


class QNetwork:
    """Event queue, per-node holdings and inboxes, and the delivery trace."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.now = 0
        self._queue: deque[tuple[NodeId, NodeId, str, str | QubitId]] = deque()
        self.trace: list[TraceEntry] = []
        self.qubits: dict[NodeId, dict[str, QubitId]] = {n: {} for n in topology.nodes}
        self.inbox: dict[NodeId, dict[str, str]] = {n: {} for n in topology.nodes}  # arrival order
        self._in_flight: dict[NodeId, int] = {n: 0 for n in topology.nodes}
        self.node_peaks: dict[NodeId, int] = {n: 0 for n in topology.nodes}

    def reset(self) -> None:
        """Clear queue, trace, holdings, inboxes and accounting; topology stays."""
        self.now = 0
        self._queue.clear()
        self.trace.clear()
        for held in self.qubits.values():
            held.clear()
        for inbox in self.inbox.values():
            inbox.clear()
        for n in self._in_flight:
            self._in_flight[n] = 0
        for n in self.node_peaks:
            self.node_peaks[n] = 0

    # -- qubit custody --------------------------------------------------------

    def deposit(self, node: NodeId, tag: str, q: QubitId) -> None:
        """A qubit created at, or delivered to, this node is held under tag."""
        held = self._held(node)
        if tag in held:
            raise NetworkError(f"{node} already holds a qubit tagged {tag!r}")
        held[tag] = q
        self._bump(node)

    def take(self, node: NodeId, tag: str) -> QubitId:
        """The node consumes a held qubit (to gate/measure it locally)."""
        held = self._held(node)
        if tag not in held:
            raise NetworkError(f"{node} holds no qubit tagged {tag!r}")
        return held.pop(tag)

    def node_usage(self, node: NodeId) -> int:
        return len(self._held(node)) + self._in_flight[node]

    def peak_usage_total(self) -> int:
        """Sum over nodes of each node's own peak qubit holding (incl. in-flight)."""
        return sum(self.node_peaks.values())

    # -- classical inbox -----------------------------------------------------

    def message(self, node: NodeId, tag: str) -> str:
        try:
            return self.inbox[node][tag]
        except KeyError:
            raise NetworkError(f"{node} has no message tagged {tag!r}") from None

    def messages_tagged(self, node: NodeId, prefix: str) -> list[str]:
        return [bits for tag, bits in self.inbox[node].items() if tag.startswith(prefix)]

    # -- sending ---------------------------------------------------------------

    def send_classical(self, src: NodeId, dst: NodeId, bits: str, tag: str) -> None:
        if self.topology.find_link(src, dst) is None:
            raise NetworkError(f"no link between {src} and {dst}")
        _check_bits(bits)
        self._queue.append((src, dst, tag, bits))

    def send_qubit(self, src: NodeId, dst: NodeId, held_tag: str, tag: str) -> None:
        """Send the qubit src holds under held_tag; it arrives at dst under tag."""
        kind = self.topology.find_link(src, dst)
        if kind is None:
            raise NetworkError(f"no link between {src} and {dst}")
        if kind is not LinkKind.QUANTUM:
            raise NetworkError(f"link {src}--{dst} is classical; it cannot carry a qubit")
        q = self.take(src, held_tag)
        self._in_flight[src] += 1  # custody stays with sender until delivery
        self._queue.append((src, dst, tag, q))

    def broadcast_classical(self, src: NodeId, bits: str, tag: str,
                            exclude: Iterable[NodeId] = ()) -> list[NodeId]:
        """One classical send to every neighbor (minus exclusions); returns them."""
        skip = set(exclude)
        targets = [n for n in self.topology.neighbors(src) if n not in skip]
        if not targets:
            raise NetworkError(f"{src} has no neighbors to broadcast to")
        _check_bits(bits)  # once: every target is a neighbour, so linked
        self._queue.extend([(src, dst, tag, bits) for dst in targets])
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
        if isinstance(payload, str):
            inbox = self.inbox[dst]
            if tag in inbox:
                raise NetworkError(f"{dst} already holds a message tagged {tag!r}")
            inbox[tag] = payload
            entry = TraceEntry(self.now, src, dst, "classical", tag, len(payload))
        else:
            self.deposit(dst, tag, payload)  # a collision leaves custody with src
            self._in_flight[src] -= 1
            entry = TraceEntry(self.now, src, dst, "quantum", tag, 1)
        self.trace.append(entry)
        return entry

    def _held(self, node: NodeId) -> dict[str, QubitId]:
        if node not in self.qubits:
            raise NetworkError(f"{node} is not part of this network")
        return self.qubits[node]

    def _bump(self, node: NodeId) -> None:
        usage = self.node_usage(node)
        if usage > self.node_peaks[node]:
            self.node_peaks[node] = usage


def _check_bits(bits: str) -> None:
    if any(c not in "01" for c in bits):
        raise ValueError(f"classical payload must be a bit string, got {bits!r}")


def serialize_trace(trace: Iterable[TraceEntry]) -> str:
    return "\n".join(str(entry) for entry in trace) + "\n"
