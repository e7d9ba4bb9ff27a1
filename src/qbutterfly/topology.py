"""Butterfly network topology and resource accounting.

For N transceiver pairs the network has transmitters T1..TN, receivers
R1..RN, a classical relay M1 and an entanglement source M2.  Fiber
(quantum-capable) links: Tn--Rm for every m != n, and Rn--M2 for every n.
Classical-only links: Tn--M1 for every n, plus the single M1--M2 bottleneck.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple


class NodeKind(enum.Enum):
    TRANSMITTER = "T"
    RECEIVER = "R"
    RELAY = "M1"
    SOURCE = "M2"


_KIND_OF_LABEL = {kind.value: kind for kind in NodeKind}


class NodeId(NamedTuple):
    """A node key; as a plain tuple it hashes and compares in C and sorts by
    (index, label): M1, M2, R1, T1, R2, T2, ..."""

    index: int
    label: str

    @property
    def kind(self) -> NodeKind:
        return _KIND_OF_LABEL[self.label[0] if self.index else self.label]

    # Cached: every round asks for M1 and M2 (three calls), each of which
    # would otherwise go through the enum and build a new key.  Each cache
    # holds one immutable key per index ever requested, or one for M1 and M2.
    @classmethod
    @functools.lru_cache(maxsize=None)
    def transmitter(cls, n: int) -> "NodeId":
        return cls._transceiver(NodeKind.TRANSMITTER, n)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def receiver(cls, n: int) -> "NodeId":
        return cls._transceiver(NodeKind.RECEIVER, n)

    @classmethod
    def _transceiver(cls, kind: NodeKind, n: int) -> "NodeId":
        if n < 1:
            raise ValueError("transceiver indices start at 1")
        return cls(n, f"{kind.value}{n}")

    @classmethod
    @functools.lru_cache(maxsize=None)
    def relay(cls) -> "NodeId":
        return cls(0, NodeKind.RELAY.value)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def source(cls) -> "NodeId":
        return cls(0, NodeKind.SOURCE.value)

    def __str__(self) -> str:
        return self.label


class LinkKind(enum.Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


@dataclass(frozen=True)
class Topology:
    """The nodes, as the adjacency's keys, and each one's neighbours and link kinds
    in sorted NodeId order; that order fixes a broadcast's send order and trace."""

    n_pairs: int
    adjacency: dict[NodeId, dict[NodeId, LinkKind]]

    def find_link(self, x: NodeId, y: NodeId) -> LinkKind | None:
        return self.adjacency.get(x, {}).get(y)


def build_butterfly(n_pairs: int) -> Topology:
    """Construct the hybrid butterfly network for n_pairs >= 2 transceiver pairs."""
    if n_pairs < 2:
        raise ValueError(f"butterfly requires at least 2 transceiver pairs, got {n_pairs}")
    transmitters = [NodeId.transmitter(i) for i in range(1, n_pairs + 1)]
    receivers = [NodeId.receiver(i) for i in range(1, n_pairs + 1)]
    relay = NodeId.relay()
    source = NodeId.source()
    quantum, classical = LinkKind.QUANTUM, LinkKind.CLASSICAL
    # Each map is written in sorted NodeId order, (index, label): M1 or M2 at
    # index 0 first, then the far side's transceivers but the partner, by index.
    adjacency: dict[NodeId, dict[NodeId, LinkKind]] = {}
    for side, hub, link, far in ((transmitters, relay, classical, receivers),
                                 (receivers, source, quantum, transmitters)):
        for k, node in enumerate(side):
            adjacency[node] = {hub: link, **dict.fromkeys(far[:k] + far[k + 1:], quantum)}
    adjacency[relay] = {source: classical, **dict.fromkeys(transmitters, classical)}
    adjacency[source] = {relay: classical, **dict.fromkeys(receivers, quantum)}
    return Topology(n_pairs, adjacency)


def _links(topology: Topology) -> list[tuple[NodeId, NodeId, LinkKind]]:
    """Each undirected link once, as (a, b, kind) with a < b."""
    return [(a, b, kind) for a, nbrs in topology.adjacency.items()
            for b, kind in nbrs.items() if a < b]


def link_counts(topology: Topology) -> tuple[int, int]:
    """(total links, quantum links)."""
    links = _links(topology)
    total = len(links)
    quantum = sum(1 for _, _, kind in links if kind is LinkKind.QUANTUM)
    return total, quantum


@dataclass(frozen=True)
class ResourceTriple:
    total_links: int
    quantum_links: int
    qubits: int


def reference_resources(protocol: str, n_pairs: int) -> ResourceTriple:
    """Closed-form resource counts for a given protocol at n_pairs.

    ``benchmark`` is the direct multi-party entanglement design used only as
    a comparison row; it is never simulated here.
    """
    if n_pairs < 2:
        raise ValueError("resource formulas are defined for n_pairs >= 2")
    n = n_pairs
    if protocol == "iedtc":
        return ResourceTriple(n * n + n + 1, n * n, 7 * n)
    if protocol == "benchmark":
        return ResourceTriple(3 * n * n + 5 * n + 2, 2 * n * n + 5 * n + 2, 2 * n * n + 3 * n + 1)
    raise ValueError(f"unknown protocol {protocol!r}")


def serialize_topology(topology: Topology) -> str:
    """Stable line-oriented description: one node per line, then one link per line."""
    lines = [f"node {node}" for node in sorted(topology.adjacency)]
    lines.extend(sorted(f"link {a} {b} {kind.value}" for a, b, kind in _links(topology)))
    return "\n".join(lines) + "\n"
