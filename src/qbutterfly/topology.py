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

    # Cached: a round asks for each node several times, and building one
    # goes through the enum and an f-string.  Each cache holds one
    # immutable key per index ever requested, or one for M1 and M2.
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
    """Each node's neighbours and link kinds, in sorted NodeId order; that order
    fixes the send order of a broadcast and with it the delivery trace."""

    n_pairs: int
    nodes: tuple[NodeId, ...]
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
    nodes = tuple(transmitters + receivers + [relay, source])
    adjacency: dict[NodeId, dict[NodeId, LinkKind]] = {node: {} for node in nodes}

    def connect(x: NodeId, y: NodeId, kind: LinkKind) -> None:
        adjacency[x][y] = kind
        adjacency[y][x] = kind

    for i, t in enumerate(transmitters, start=1):
        for j, r in enumerate(receivers, start=1):
            if i != j:
                connect(t, r, LinkKind.QUANTUM)
        connect(t, relay, LinkKind.CLASSICAL)
    for r in receivers:
        connect(r, source, LinkKind.QUANTUM)
    connect(relay, source, LinkKind.CLASSICAL)
    by_node = {node: {m: nbrs[m] for m in sorted(nbrs)} for node, nbrs in adjacency.items()}
    return Topology(n_pairs, nodes, by_node)


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
    lines = [f"node {node}" for node in sorted(topology.nodes)]
    lines.extend(sorted(f"link {a} {b} {kind.value}" for a, b, kind in _links(topology)))
    return "\n".join(lines) + "\n"
