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
from itertools import compress, repeat
from typing import Iterable, NamedTuple

from .qstate import QubitId
from .topology import LinkKind, NodeId, Topology


class NetworkError(ValueError):
    """Illegal network operation: missing link, wrong link kind, bad ownership."""


class TraceEntry(NamedTuple):
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
        """Clear queue, holdings, inboxes and accounting; topology stays.

        The trace is replaced, not cleared, so a list handed out by an
        earlier round (``RoundResult.trace``) keeps its entries.
        """
        self.now = 0
        self._queue.clear()
        self.trace = []
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
        try:
            held = self.qubits[node]
        except KeyError:
            raise _outsider(node) from None
        if tag in held:
            raise NetworkError(f"{node} already holds a qubit tagged {tag!r}")
        held[tag] = q
        usage = len(held) + self._in_flight[node]
        if usage > self.node_peaks[node]:
            self.node_peaks[node] = usage

    def take(self, node: NodeId, tag: str) -> QubitId:
        """The node consumes a held qubit (to gate/measure it locally)."""
        try:
            held = self.qubits[node]
        except KeyError:
            raise _outsider(node) from None
        if tag not in held:
            raise NetworkError(f"{node} holds no qubit tagged {tag!r}")
        return held.pop(tag)

    def node_usage(self, node: NodeId) -> int:
        if node not in self.qubits:
            raise _outsider(node)
        return len(self.qubits[node]) + self._in_flight[node]

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
        box = self.inbox[node]
        return list(compress(box.values(), map(str.startswith, box, repeat(prefix))))

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
        neighbors = self.topology.adjacency.get(src, ())
        if exclude:
            skip = set(exclude)
            targets = [n for n in neighbors if n not in skip]
        else:
            targets = list(neighbors)
        if not targets:
            raise NetworkError(f"{src} has no neighbors to broadcast to")
        _check_bits(bits)  # once: every target is a neighbour, so linked
        self._queue.extend(zip(repeat(src), targets, repeat(tag), repeat(bits)))
        return targets

    # -- delivery ----------------------------------------------------------------

    def run_until_idle(self) -> list[TraceEntry]:
        """Deliver all queued messages in FIFO order; returns this call's deliveries.

        One drain is one tick, stamped on all its deliveries, which are the
        tail of ``trace`` from this call on.  Delivery never sends, so the
        queue cannot refill during a drain: no event cap needed.
        """
        queue, trace, inbox = self._queue, self.trace, self.inbox
        entry = tuple.__new__  # TraceEntry's own __new__ is Python code
        start = len(trace)
        if queue:
            self.now += 1
        now = self.now
        while queue:
            src, dst, tag, payload = queue.popleft()
            if isinstance(payload, str):
                box = inbox[dst]
                if tag in box:
                    raise NetworkError(f"{dst} already holds a message tagged {tag!r}")
                box[tag] = payload
                trace.append(entry(TraceEntry, (now, src, dst, "classical", tag, len(payload))))
            else:
                self.deposit(dst, tag, payload)  # a collision leaves custody with src
                self._in_flight[src] -= 1
                trace.append(entry(TraceEntry, (now, src, dst, "quantum", tag, 1)))
        return trace[start:]

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Qubits sent and not yet delivered, over all nodes."""
        return sum(self._in_flight.values())


def _outsider(node: NodeId) -> NetworkError:
    return NetworkError(f"{node} is not part of this network")


def _check_bits(bits: str) -> None:
    if any(c not in "01" for c in bits):
        raise ValueError(f"classical payload must be a bit string, got {bits!r}")


def serialize_trace(trace: Iterable[TraceEntry]) -> str:
    return "\n".join(str(entry) for entry in trace) + "\n"
