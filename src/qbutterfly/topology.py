"""Butterfly network topology and resource accounting.

For N transceiver pairs the network has transmitters T1..TN, receivers
R1..RN, a classical relay M1 and an entanglement source M2.  Fiber
(quantum-capable) links: Tn--Rm for every m != n, and Rn--M2 for every n.
Classical-only links: Tn--M1 for every n, plus the single M1--M2 bottleneck.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field


class NodeKind(enum.Enum):
    TRANSMITTER = "T"
    RECEIVER = "R"
    RELAY = "M1"
    SOURCE = "M2"


@dataclass(frozen=True, order=True)
class NodeId:
    kind: NodeKind = field(compare=False)
    index: int
    label: str = field(default="", compare=True)

    def __post_init__(self) -> None:
        if self.kind in (NodeKind.TRANSMITTER, NodeKind.RECEIVER) and self.index < 1:
            raise ValueError("transceiver indices start at 1")
        label = self.kind.value if self.index == 0 else f"{self.kind.value}{self.index}"
        object.__setattr__(self, "label", label)

    @classmethod
    def transmitter(cls, n: int) -> "NodeId":
        return cls(NodeKind.TRANSMITTER, n)

    @classmethod
    def receiver(cls, n: int) -> "NodeId":
        return cls(NodeKind.RECEIVER, n)

    @classmethod
    def relay(cls) -> "NodeId":
        return cls(NodeKind.RELAY, 0)

    @classmethod
    def source(cls) -> "NodeId":
        return cls(NodeKind.SOURCE, 0)

    def __str__(self) -> str:
        return self.label


class LinkKind(enum.Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


@dataclass(frozen=True)
class Link:
    """Undirected link; endpoints are stored in sorted order."""

    a: NodeId
    b: NodeId
    kind: LinkKind

    @classmethod
    def between(cls, x: NodeId, y: NodeId, kind: LinkKind) -> "Link":
        if x == y:
            raise ValueError("a link needs two distinct endpoints")
        lo, hi = sorted((x, y))
        return cls(lo, hi, kind)

    def touches(self, node: NodeId) -> bool:
        return node == self.a or node == self.b

    def other(self, node: NodeId) -> NodeId:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a} {self.b} {self.kind.value}"


@dataclass(frozen=True)
class Topology:
    n_pairs: int
    nodes: tuple[NodeId, ...]
    links: frozenset[Link]

    def neighbors(self, node: NodeId) -> list[NodeId]:
        return sorted(link.other(node) for link in self.links if link.touches(node))

    def find_link(self, x: NodeId, y: NodeId) -> Link | None:
        for kind in LinkKind:
            candidate = Link.between(x, y, kind)
            if candidate in self.links:
                return candidate
        return None

    def quantum_degree(self, node: NodeId) -> int:
        return sum(1 for l in self.links if l.touches(node) and l.kind is LinkKind.QUANTUM)

    def classical_degree(self, node: NodeId) -> int:
        return sum(1 for l in self.links if l.touches(node) and l.kind is LinkKind.CLASSICAL)


def build_butterfly(n_pairs: int) -> Topology:
    """Construct the hybrid butterfly network for n_pairs >= 2 transceiver pairs."""
    if n_pairs < 2:
        raise ValueError(f"butterfly requires at least 2 transceiver pairs, got {n_pairs}")
    transmitters = [NodeId.transmitter(i) for i in range(1, n_pairs + 1)]
    receivers = [NodeId.receiver(i) for i in range(1, n_pairs + 1)]
    relay = NodeId.relay()
    source = NodeId.source()
    links: set[Link] = set()
    for i, t in enumerate(transmitters, start=1):
        for j, r in enumerate(receivers, start=1):
            if i != j:
                links.add(Link.between(t, r, LinkKind.QUANTUM))
        links.add(Link.between(t, relay, LinkKind.CLASSICAL))
    for r in receivers:
        links.add(Link.between(r, source, LinkKind.QUANTUM))
    links.add(Link.between(relay, source, LinkKind.CLASSICAL))
    nodes = tuple(transmitters + receivers + [relay, source])
    return Topology(n_pairs, nodes, frozenset(links))


def link_counts(topology: Topology) -> tuple[int, int]:
    """(total links, quantum links)."""
    total = len(topology.links)
    quantum = sum(1 for l in topology.links if l.kind is LinkKind.QUANTUM)
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
    lines.extend(f"link {link}" for link in sorted(topology.links, key=str))
    return "\n".join(lines) + "\n"
