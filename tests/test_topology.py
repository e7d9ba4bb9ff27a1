"""Tests for the butterfly topology builder and resource accounting."""
import pytest

from qbutterfly.topology import (
    Link,
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


def test_link_between_sorts_endpoints():
    t1, r2 = NodeId.transmitter(1), NodeId.receiver(2)
    link = Link.between(r2, t1, LinkKind.QUANTUM)
    assert (link.a, link.b) == (t1, r2)
    assert link == Link.between(t1, r2, LinkKind.QUANTUM)
    assert link.other(t1) == r2 and link.other(r2) == t1
    assert link.touches(t1) and not link.touches(NodeId.relay())
    with pytest.raises(ValueError):
        Link.between(t1, t1, LinkKind.QUANTUM)
    with pytest.raises(ValueError):
        link.other(NodeId.relay())


def test_small_network_shapes():
    topo = build_butterfly(2)
    assert topo.n_pairs == 2
    assert len(topo.nodes) == 6
    assert link_counts(topo) == (7, 4)
    topo3 = build_butterfly(3)
    assert len(topo3.nodes) == 8
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
                cross = topo.find_link(t, NodeId.receiver(j))
                assert cross is not None and cross.kind is LinkKind.QUANTUM
        up = topo.find_link(r, source)
        assert up is not None and up.kind is LinkKind.QUANTUM
        down = topo.find_link(t, relay)
        assert down is not None and down.kind is LinkKind.CLASSICAL
        assert topo.find_link(t, source) is None
        assert topo.find_link(r, relay) is None
    bottleneck = topo.find_link(relay, source)
    assert bottleneck is not None and bottleneck.kind is LinkKind.CLASSICAL
    assert topo.quantum_degree(relay) == 0
    assert topo.classical_degree(relay) == 5
    assert topo.quantum_degree(source) == 4
    assert topo.quantum_degree(NodeId.transmitter(1)) == 3


def test_neighbors_sorted_and_complete():
    topo = build_butterfly(2)
    t1 = NodeId.transmitter(1)
    assert topo.neighbors(t1) == [NodeId.relay(), NodeId.receiver(2)]
    assert topo.neighbors(NodeId.source()) == [
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
    # serialization is deterministic across rebuilds
    assert serialize_topology(build_butterfly(3)) == serialize_topology(build_butterfly(3))
