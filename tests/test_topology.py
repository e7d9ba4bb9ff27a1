"""Tests for the butterfly topology builder and resource accounting."""
import hashlib

import pytest

from qbutterfly.topology import (
    LinkKind,
    NodeId,
    NodeKind,
    ResourceTriple,
    build_butterfly,
    link_counts,
    reference_resources,
    serialize_topology,
)

N2_SERIALIZED = """\
node M1
node M2
node R1
node T1
node R2
node T2
link M1 M2 classical
link M1 T1 classical
link M1 T2 classical
link M2 R1 quantum
link M2 R2 quantum
link R1 T2 quantum
link T1 R2 quantum
"""

# SHA-256 of serialize_topology(build_butterfly(n)) joined for n = 2..10.
SERIALIZED_2_TO_10_SHA256 = "2aef77afe11fb4e6b445138a760ee723268752dfaa7ecd20abff8feaf0890bbb"

N3_SERIALIZED = """\
node M1
node M2
node R1
node T1
node R2
node T2
node R3
node T3
link M1 M2 classical
link M1 T1 classical
link M1 T2 classical
link M1 T3 classical
link M2 R1 quantum
link M2 R2 quantum
link M2 R3 quantum
link R1 T2 quantum
link R1 T3 quantum
link R2 T3 quantum
link T1 R2 quantum
link T1 R3 quantum
link T2 R3 quantum
"""


def test_node_ids():
    t3 = NodeId.transmitter(3)
    assert t3.label == "T3" and str(t3) == "T3"
    assert NodeId.receiver(1).label == "R1"
    assert NodeId.relay().label == "M1"
    assert NodeId.source().label == "M2"
    assert NodeId.relay().kind is NodeKind.RELAY
    assert NodeId.transmitter(2) == NodeId.transmitter(2)
    assert NodeId.transmitter(2) != NodeId.receiver(2)
    with pytest.raises(ValueError):
        NodeId.transmitter(0)
    with pytest.raises(ValueError):
        NodeId.receiver(-1)


# At n = 50 label order and index order differ: R10 sorts before R2 by label.
@pytest.mark.parametrize("n", [*range(2, 9), 50])
def test_links_are_symmetric_and_neighbours_sorted(n):
    topo = build_butterfly(n)
    for x in topo.adjacency:
        neighbours = list(topo.adjacency[x])
        assert x not in neighbours
        assert neighbours == sorted(neighbours)
        for y in topo.adjacency:
            assert topo.find_link(x, y) == topo.find_link(y, x)


def test_small_network_shapes():
    topo = build_butterfly(2)
    assert topo.n_pairs == 2
    assert len(topo.adjacency) == 6
    assert link_counts(topo) == (7, 4)
    topo3 = build_butterfly(3)
    assert len(topo3.adjacency) == 8
    assert link_counts(topo3) == (13, 9)


@pytest.mark.parametrize("n", range(2, 11))
def test_link_counts_follow_closed_forms(n):
    total, quantum = link_counts(build_butterfly(n))
    assert total == n * n + n + 1
    assert quantum == n * n


def test_adjacency_rules():
    topo = build_butterfly(4)
    relay, source = NodeId.relay(), NodeId.source()
    for i in range(1, 5):
        t, r = NodeId.transmitter(i), NodeId.receiver(i)
        # a transmitter never reaches its own receiver directly
        assert topo.find_link(t, r) is None
        for j in range(1, 5):
            if i != j:
                assert topo.find_link(t, NodeId.receiver(j)) is LinkKind.QUANTUM
        assert topo.find_link(r, source) is LinkKind.QUANTUM
        assert topo.find_link(t, relay) is LinkKind.CLASSICAL
        assert topo.find_link(t, source) is None
        assert topo.find_link(r, relay) is None
    assert topo.find_link(relay, source) is LinkKind.CLASSICAL

    def degree(node, kind):
        return sum(1 for k in topo.adjacency[node].values() if k is kind)

    assert degree(relay, LinkKind.QUANTUM) == 0
    assert degree(relay, LinkKind.CLASSICAL) == 5
    assert degree(source, LinkKind.QUANTUM) == 4
    assert degree(NodeId.transmitter(1), LinkKind.QUANTUM) == 3


def test_neighbors_sorted_and_complete():
    topo = build_butterfly(2)
    t1 = NodeId.transmitter(1)
    assert list(topo.adjacency[t1]) == [NodeId.relay(), NodeId.receiver(2)]
    assert list(topo.adjacency[NodeId.source()]) == [
        NodeId.relay(), NodeId.receiver(1), NodeId.receiver(2)]


def test_build_rejects_tiny_networks():
    with pytest.raises(ValueError):
        build_butterfly(1)
    with pytest.raises(ValueError):
        build_butterfly(0)


def test_reference_resources_values():
    assert reference_resources("iedtc", 2) == ResourceTriple(7, 4, 14)
    assert reference_resources("iedtc", 3) == ResourceTriple(13, 9, 21)
    assert reference_resources("iedtc", 10) == ResourceTriple(111, 100, 70)
    assert reference_resources("benchmark", 2) == ResourceTriple(24, 20, 15)
    assert reference_resources("benchmark", 3) == ResourceTriple(44, 35, 28)
    with pytest.raises(ValueError):
        reference_resources("iedtc", 1)
    with pytest.raises(ValueError):
        reference_resources("ghz", 2)


def test_reference_resources_tuple_fields():
    ref = reference_resources("iedtc", 5)
    assert (ref.total_links, ref.quantum_links, ref.qubits) == (31, 25, 35)


def test_serialize_topology_is_stable():
    assert serialize_topology(build_butterfly(2)) == N2_SERIALIZED
    assert serialize_topology(build_butterfly(3)) == N3_SERIALIZED
    # serialization is deterministic across rebuilds
    assert serialize_topology(build_butterfly(3)) == serialize_topology(build_butterfly(3))


def test_serialized_topologies_up_to_ten_pairs_are_pinned():
    text = "".join(serialize_topology(build_butterfly(n)) for n in range(2, 11))
    assert text.count("\n") == 573
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_2_TO_10_SHA256
