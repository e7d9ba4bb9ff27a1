"""Message-passing layer over a topology: tick-based FIFO delivery.

Every send queues one plain (src, targets, tag, payload) record, whose
targets is a tuple of receiving nodes and whose payload is the QubitId of a
qubit or a classical message: one bit string per lane of the round that sent
it (see ``iedtc``), each of the message's size.  A single send names one
target; a broadcast is one record whose targets, when nothing is excluded,
is the neighbour tuple the network builds once per topology.  Nothing is
delivered until run_until_idle drains the queue, so a protocol phase is
written as "enqueue everything, then run"; each drain is one tick, and one
pass empties the queue (delivery never sends), so no event cap is needed.
Each node holds tagged qubits (``qubits``) and a classical inbox
(``inbox``); a protocol reads each by the tag it was sent under, and a
missing tag raises NetworkError.  A delivered qubit enters its receiver's
holdings through ``deposit``, as a qubit created there does; a qubit in
flight stays in the custody of its sender for capacity accounting (the
fiber port is the sender's hardware until the photon is absorbed).

The network keeps one list of delivered records per drain and nothing
beside it: a drain's tick is its place in that list, and the clock ``now``
is the number of drains.  ``trace`` is a ``Trace`` over those drains: its
length sums the records' targets, and it expands each record into one
``TraceEntry`` per target only when the trace is iterated, so a round that
never reads its trace pays for no entries, and the network keeps one object
per send, not one per delivery.
"""
from __future__ import annotations

from collections.abc import Iterator
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


Bits = tuple[str, ...]  # a classical payload: one bit string per lane
Record = tuple[NodeId, tuple[NodeId, ...], str, "Bits | QubitId"]  # (src, targets, tag, payload)


class Trace:
    """Sized iterable of deliveries in order; a ``TraceEntry`` is built when read.

    ``drains`` is a list of delivered-record lists, one per drain, and
    ``first`` is the tick of its first drain.  The network's ``trace`` holds
    the network's own list, so it grows with each drain; ``run_until_idle``
    returns a view of its one drain, which later drains leave as it is.
    ``reset`` starts a new list, so a view taken before it keeps what it saw.
    The length is the number of the records' targets.
    """

    __slots__ = ("_drains", "_first")

    def __init__(self, drains: list[list[Record]], first: int = 1):
        self._drains = drains
        self._first = first

    def __len__(self) -> int:
        return sum(len(targets) for records in self._drains for _, targets, _, _ in records)

    def __iter__(self) -> Iterator[TraceEntry]:
        """One entry per target of each held record."""
        entry = tuple.__new__  # TraceEntry's own __new__ is Python code
        return iter([entry(TraceEntry, (tick, src, dst, "classical", tag, len(payload[0])))
                     if payload.__class__ is tuple else
                     entry(TraceEntry, (tick, src, dst, "quantum", tag, 1))
                     for tick, records in enumerate(self._drains, self._first)
                     for src, targets, tag, payload in records
                     for dst in targets])


class QNetwork:
    """Event queue, per-node holdings and inboxes, and the delivery trace."""

    def __init__(self, topology: Topology):
        self.topology = topology
        # Each node's neighbours, built once: the targets of every broadcast
        # that excludes none of them.
        self._neighbors = {node: tuple(nbrs) for node, nbrs in topology.adjacency.items()}
        self.reset()

    def reset(self) -> None:
        """Empty the queue, holdings, inboxes, accounting and drains; topology stays.

        Each container is new, not cleared, so a trace or holdings dict
        handed out earlier (``RoundResult.trace``) keeps its entries.
        """
        nodes = self._neighbors
        self._queue: list[Record] = []
        self._drains: list[list[Record]] = []  # delivered records per drain; tick = place + 1
        self.trace = Trace(self._drains)
        self.qubits: dict[NodeId, dict[str, QubitId]] = {n: {} for n in nodes}
        self.inbox: dict[NodeId, dict[str, Bits]] = {n: {} for n in nodes}
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

    # -- classical inbox -----------------------------------------------------

    def message(self, node: NodeId, tag: str) -> Bits:
        try:
            return self.inbox[node][tag]
        except KeyError:
            if node not in self.inbox:
                raise _outsider(node) from None
            raise NetworkError(f"{node} has no message tagged {tag!r}") from None

    # -- sending ---------------------------------------------------------------

    def send_classical(self, src: NodeId, dst: NodeId, bits: Bits, tag: str) -> None:
        self._link(src, dst)
        _check_bits(bits)
        self._queue.append((src, (dst,), tag, bits))

    def send_qubit(self, src: NodeId, dst: NodeId, tag: str) -> None:
        """Send the qubit src holds under tag; it arrives at dst under the same tag."""
        if self._link(src, dst) is not LinkKind.QUANTUM:
            raise NetworkError(f"link {src}--{dst} is classical; it cannot carry a qubit")
        q = self.take(src, tag)
        self._in_flight[src] += 1  # custody stays with sender until delivery
        self._queue.append((src, (dst,), tag, q))

    def _link(self, src: NodeId, dst: NodeId) -> LinkKind:
        kind = self.topology.find_link(src, dst)
        if kind is None:
            raise NetworkError(f"no link between {src} and {dst}")
        return kind

    def broadcast_classical(self, src: NodeId, bits: Bits, tag: str,
                            exclude: Iterable[NodeId] = ()) -> None:
        """One classical send to every neighbor (minus exclusions)."""
        if src not in self._neighbors:
            raise _outsider(src)
        targets = self._neighbors[src]
        if exclude:
            skip = set(exclude)
            targets = tuple(n for n in targets if n not in skip)
        if not targets:
            raise NetworkError(f"{src} has no neighbors to broadcast to")
        _check_bits(bits)  # once: every target is a neighbour, so linked
        self._queue.append((src, targets, tag, bits))

    # -- delivery ----------------------------------------------------------------

    def run_until_idle(self) -> Trace:
        """Deliver all queued messages in FIFO order; returns this call's deliveries.

        One drain is one tick: the queue, delivered, is kept as one drain,
        which the returned view holds.  Delivery never sends, so the queue
        cannot refill during a drain: no event cap needed.  A refused
        delivery raises and is dropped, a qubit's included, so it is no
        longer in flight; the deliveries before it stay made and recorded,
        and those after it, a broadcast's later targets included, stay queued.
        """
        queue, self._queue, inbox = self._queue, [], self.inbox
        if not queue:
            return Trace([])
        self._drains.append(queue)
        try:
            for i, (src, targets, tag, payload) in enumerate(queue):
                if payload.__class__ is tuple:
                    for dst in targets:
                        box = inbox[dst]
                        if tag in box:
                            raise NetworkError(f"{dst} already holds a message tagged {tag!r}")
                        box[tag] = payload
                else:
                    dst = targets[0]
                    self._in_flight[src] -= 1  # delivered, or dropped if deposit refuses it
                    self.deposit(dst, tag, payload)
        except NetworkError:
            j = targets.index(dst)  # the refused target; the ones before it are delivered
            self._queue = queue[i + 1:]
            if j + 1 < len(targets):
                self._queue.insert(0, (src, targets[j + 1:], tag, payload))
            queue[i:] = [(src, targets[:j], tag, payload)] if j else []  # what the drain delivered
            raise
        return Trace(self._drains[-1:], self.now)

    @property
    def now(self) -> int:
        """The tick of the last drain: the number of drains since the reset."""
        return len(self._drains)

    @property
    def pending(self) -> int:
        """Messages queued: one per target of each queued send."""
        return sum(len(targets) for _, targets, _, _ in self._queue)

    @property
    def in_flight(self) -> int:
        """Qubits sent and not yet delivered, over all nodes."""
        return sum(self._in_flight.values())


def _outsider(node: NodeId) -> NetworkError:
    return NetworkError(f"{node} is not part of this network")


def _check_bits(bits: Bits) -> None:
    # One string per lane, all of one nonzero length, of 0s and 1s only.
    if (bits.__class__ is not tuple or not (joined := "".join(bits)) or joined.strip("01")
            or len(bits) != 1 and len({*map(len, bits)}) != 1):
        raise ValueError(f"classical payload must be a bit string per lane, got {bits!r}")


def serialize_trace(trace: Iterable[TraceEntry]) -> str:
    return "\n".join(str(entry) for entry in trace) + "\n"
