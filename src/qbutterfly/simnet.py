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

A drain keeps each delivered queue tuple as it is, and notes its first
index and tick once.  ``trace`` is a read-only ``Trace`` view over those
records: it builds a ``TraceEntry`` only when one is read, so a round that
never reads its trace pays for no entries.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import chain, repeat
from math import inf
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


Record = tuple[NodeId, NodeId, str, "str | QubitId"]  # (src, dst, tag, payload)


class Trace(Sequence[TraceEntry]):
    """Read-only view of deliveries in order; a ``TraceEntry`` is built when read.

    ``records`` are the delivered queue tuples and ``marks`` the (first
    record index, tick) of each drain, both owned by the network.  A view
    with no ``stop`` follows the records as they grow; ``reset`` hands the
    network new lists, so a view taken before it keeps what it saw.
    """

    __slots__ = ("_records", "_marks", "_start", "_stop")

    def __init__(self, records: list[Record], marks: list[tuple[int, int]],
                 start: int = 0, stop: int | None = None):
        self._records, self._marks, self._start, self._stop = records, marks, start, stop

    def _end(self) -> int:
        return len(self._records) if self._stop is None else self._stop

    def __len__(self) -> int:
        return self._end() - self._start

    def __iter__(self) -> Iterator[TraceEntry]:
        return chain.from_iterable(self._drains(self._start, self._end()))

    def __getitem__(self, key):
        at = range(self._start, self._end())[key]  # raises IndexError as a list would
        if isinstance(at, int):
            return next(self._drains(at, at + 1))[0]
        if at.step == 1:
            return list(chain.from_iterable(self._drains(at.start, at.stop)))
        return list(self)[key]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Trace, list)):
            return list(self) == list(other)
        return NotImplemented

    def _drains(self, lo: int, hi: int) -> Iterator[list[TraceEntry]]:
        """Entries of records lo..hi-1, one list per drain."""
        records, marks = self._records, self._marks
        entry = tuple.__new__  # TraceEntry's own __new__ is Python code
        d = bisect_right(marks, (lo, inf)) - 1  # the drain that delivered record lo
        while lo < hi:
            tick = marks[d][1]
            d += 1
            end = min(marks[d][0], hi) if d < len(marks) else hi
            yield [entry(TraceEntry, (tick, src, dst, "classical", tag, len(payload)))
                   if payload.__class__ is str else
                   entry(TraceEntry, (tick, src, dst, "quantum", tag, 1))
                   for src, dst, tag, payload in records[lo:end]]
            lo = end


class QNetwork:
    """Event queue, per-node holdings and inboxes, and the delivery trace."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.reset()

    def reset(self) -> None:
        """Empty the queue, holdings, inboxes, accounting and trace; topology stays.

        Each container is new, not cleared, so a trace or holdings dict
        handed out earlier (``RoundResult.trace``) keeps its entries.
        """
        nodes = self.topology.nodes
        self.now = 0
        self._queue: deque[Record] = deque()
        self._records: list[Record] = []
        self._marks: list[tuple[int, int]] = []  # (first record index, tick) per drain
        self.trace = Trace(self._records, self._marks)
        self.qubits: dict[NodeId, dict[str, QubitId]] = {n: {} for n in nodes}
        self.inbox: dict[NodeId, dict[str, str]] = {n: {} for n in nodes}  # arrival order
        self._in_flight: dict[NodeId, int] = dict.fromkeys(nodes, 0)
        self.node_peaks: dict[NodeId, int] = dict.fromkeys(nodes, 0)

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
            if node not in self.inbox:
                raise _outsider(node) from None
            raise NetworkError(f"{node} has no message tagged {tag!r}") from None

    def messages_tagged(self, node: NodeId, prefix: str) -> list[str]:
        if node not in self.inbox:
            raise _outsider(node)
        n = len(prefix)
        return [m for tag, m in self.inbox[node].items() if tag[:n] == prefix]

    # -- sending ---------------------------------------------------------------

    def send_classical(self, src: NodeId, dst: NodeId, bits: str, tag: str) -> None:
        self._link(src, dst)
        _check_bits(bits)
        self._queue.append((src, dst, tag, bits))

    def send_qubit(self, src: NodeId, dst: NodeId, held_tag: str, tag: str) -> None:
        """Send the qubit src holds under held_tag; it arrives at dst under tag."""
        if self._link(src, dst) is not LinkKind.QUANTUM:
            raise NetworkError(f"link {src}--{dst} is classical; it cannot carry a qubit")
        q = self.take(src, held_tag)
        self._in_flight[src] += 1  # custody stays with sender until delivery
        self._queue.append((src, dst, tag, q))

    def _link(self, src: NodeId, dst: NodeId) -> LinkKind:
        kind = self.topology.find_link(src, dst)
        if kind is None:
            raise NetworkError(f"no link between {src} and {dst}")
        return kind

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

    def run_until_idle(self) -> Trace:
        """Deliver all queued messages in FIFO order; returns this call's deliveries.

        One drain is one tick, stamped on all its deliveries, which are the
        tail of ``trace`` from this call on.  Delivery never sends, so the
        queue cannot refill during a drain: no event cap needed.  A refused
        delivery raises; the deliveries before it stay made and recorded,
        and the messages after it stay queued.
        """
        queue, records, inbox = self._queue, self._records, self.inbox
        start = len(records)
        if queue:
            self.now += 1
            self._marks.append((start, self.now))
        try:
            for item in queue:
                src, dst, tag, payload = item
                if payload.__class__ is str:
                    box = inbox[dst]
                    if tag in box:
                        raise NetworkError(f"{dst} already holds a message tagged {tag!r}")
                    box[tag] = payload
                else:
                    self.deposit(dst, tag, payload)  # a collision leaves custody with src
                    self._in_flight[src] -= 1
        except NetworkError:
            while (done := queue.popleft()) is not item:
                records.append(done)
            raise
        records.extend(queue)
        queue.clear()
        return Trace(records, self._marks, start, len(records))

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
    if bits.strip("01"):
        raise ValueError(f"classical payload must be a bit string, got {bits!r}")


def serialize_trace(trace: Iterable[TraceEntry]) -> str:
    return "\n".join(str(entry) for entry in trace) + "\n"
