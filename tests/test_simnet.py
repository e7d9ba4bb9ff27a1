"""Tests for the tick-based message-passing layer."""
import pytest

from qbutterfly.qstate import QubitId, StateRegistry, as_state
from qbutterfly.simnet import NetworkError, QNetwork, TraceEntry, _check_bits, serialize_trace
from qbutterfly.topology import NodeId, build_butterfly

T1, T2 = NodeId.transmitter(1), NodeId.transmitter(2)
R1, R2 = NodeId.receiver(1), NodeId.receiver(2)
M1, M2 = NodeId.relay(), NodeId.source()


@pytest.fixture
def net():
    return QNetwork(build_butterfly(2))


def test_classical_send_requires_a_link(net):
    with pytest.raises(NetworkError):
        net.send_classical(T1, T2, ("01",), "x")  # transmitters are not adjacent
    with pytest.raises(NetworkError):
        net.send_classical(T1, R1, ("01",), "x")  # own receiver is unreachable
    net.send_classical(T1, M1, ("01",), "x")
    net.send_classical(T1, R2, ("01",), "y")  # fiber carries classical bits too


def test_qubit_send_requires_quantum_link(net):
    reg = StateRegistry()
    q = reg.alloc_qubit([as_state([1.0, 0.0])])
    net.deposit(T1, "payload", q)
    with pytest.raises(NetworkError):
        net.send_qubit(T1, M1, "payload")  # classical-only link
    assert net.qubits[T1] == {"payload": q}  # a refused send leaves the qubit held
    net.send_qubit(T1, R2, "payload")


def test_qubit_send_requires_possession(net):
    q = StateRegistry().alloc_qubit([as_state([1.0, 0.0])])
    net.deposit(R2, "payload", q)  # held under that tag, but not by the sender
    with pytest.raises(NetworkError):
        net.send_qubit(T1, R2, "payload")
    assert net.qubits[R2] == {"payload": q}


def test_deposit_take_and_collisions(net):
    q1, q2 = QubitId(0), QubitId(1)
    net.deposit(T1, "a", q1)
    with pytest.raises(NetworkError):
        net.deposit(T1, "a", q2)
    assert net.take(T1, "a") == q1
    with pytest.raises(NetworkError):
        net.take(T1, "a")
    outsider = NodeId.transmitter(9)
    for call in (lambda: net.deposit(outsider, "a", q1), lambda: net.take(outsider, "a"),
                 lambda: net.broadcast_classical(outsider, ("01",), "x")):
        with pytest.raises(NetworkError, match="^T9 is not part of this network$"):
            call()


def test_nothing_delivered_until_run(net):
    net.send_classical(T1, M1, ("10",), "msg")
    assert net.pending == 1
    assert net.inbox[M1] == {}
    (entry,) = net.run_until_idle()
    assert net.pending == 0
    assert (entry.src, entry.dst, entry.tag) == (T1, M1, "msg")
    assert net.message(M1, "msg") == ("10",)


def test_fifo_order_and_times(net):
    net.send_classical(T1, M1, ("00",), "first")
    net.send_classical(T2, M1, ("11",), "second")
    delivered = net.run_until_idle()
    assert [e.tag for e in delivered] == ["first", "second"]
    assert [e.time for e in delivered] == [1, 1]
    assert net.now == 1
    # a later send lands on the next tick
    net.send_classical(M1, M2, ("01",), "third")
    (entry,) = net.run_until_idle()
    assert entry.time == 2


def test_qubit_custody_moves_on_delivery(net):
    reg = StateRegistry()
    q = reg.alloc_qubit([as_state([1.0, 0.0])])
    net.deposit(T1, "h", q)
    assert net.qubits[T1] == {"h": q}
    net.send_qubit(T1, R2, "h")
    # in flight: still the sender's hardware problem
    assert net.qubits[T1] == {} and net._in_flight[T1] == 1 == net.in_flight
    assert net.qubits[R2] == {}
    net.run_until_idle()
    assert net.qubits[T1] == {} and net.in_flight == 0
    assert net.qubits[R2] == {"h": q}
    assert net.node_peaks[T1] == 1 and net.node_peaks[R2] == 1


def test_qubit_tag_collision_on_delivery(net):
    reg = StateRegistry()
    qa = reg.alloc_qubit([as_state([1.0, 0.0])])
    qb = reg.alloc_qubit([as_state([1.0, 0.0])])
    net.deposit(R2, "h", qa)
    net.deposit(T1, "h", qb)
    net.send_qubit(T1, R2, "h")  # R2 already holds an "h"
    with pytest.raises(NetworkError):
        net.run_until_idle()
    assert net.qubits[R2] == {"h": qa}
    assert net.qubits[T1] == {}
    assert net.in_flight == 0  # the refused qubit is dropped, no longer in flight


def test_message_tag_collision_on_delivery(net):
    net.send_classical(T1, M1, ("01",), "h")
    net.run_until_idle()
    net.send_classical(T2, M1, ("10",), "h")
    with pytest.raises(NetworkError):
        net.run_until_idle()
    assert net.message(M1, "h") == ("01",)


def test_broadcast_reaches_all_neighbors(net):
    assert net.broadcast_classical(T1, ("01",), "b") is None
    assert [e.dst for e in net.run_until_idle()] == [M1, R2]
    assert net.message(M1, "b") == ("01",)
    assert net.message(R2, "b") == ("01",)


def test_broadcast_exclusion():
    net = QNetwork(build_butterfly(3))
    net.broadcast_classical(M2, ("11",), "c", exclude=[M1])
    with pytest.raises(NetworkError, match="^M1 has no neighbors to broadcast to$"):
        net.broadcast_classical(M1, ("0",), "d", exclude=list(net.topology.adjacency[M1]))
    with pytest.raises(NetworkError, match="^T9 is not part of this network$"):
        net.broadcast_classical(NodeId.transmitter(9), ("0",), "e")
    assert net.pending == 3  # the refused broadcasts queued nothing
    assert [e.dst for e in net.run_until_idle()] == [NodeId.receiver(k) for k in (1, 2, 3)]


def test_inbox_queries(net):
    net.send_classical(T1, M1, ("00",), "B1")
    net.send_classical(T2, M1, ("01",), "B2")
    net.run_until_idle()
    assert (net.message(M1, "B1"), net.message(M1, "B2")) == (("00",), ("01",))
    assert net.inbox[M1] == {"B1": ("00",), "B2": ("01",)}
    with pytest.raises(NetworkError, match="^M1 has no message tagged 'missing'$"):
        net.message(M1, "missing")


def test_inbox_query_refuses_a_node_outside_the_network(net):
    with pytest.raises(NetworkError, match="^R9 is not part of this network$"):
        net.message(NodeId.receiver(9), "B")


def test_reset_clears_state(net):
    reg = StateRegistry()
    q = reg.alloc_qubit([as_state([1.0, 0.0])])
    net.deposit(T1, "h", q)
    net.send_classical(T1, M1, ("01",), "m")
    net.run_until_idle()
    net.deposit(T2, "g", reg.alloc_qubit([as_state([1.0, 0.0])]))
    net.send_qubit(T2, R1, "g")  # still in flight at the reset
    held_before = net.qubits
    net.reset()
    assert net.now == 0
    assert net.pending == 0
    assert list(net.trace) == []
    assert net.qubits[T1] == {}
    assert net.inbox[M1] == {}
    assert not any(net.node_peaks.values())
    assert net.in_flight == 0
    assert not any(net.qubits.values())
    fresh = QNetwork(net.topology)
    for name in ("now", "_queue", "_drains", "qubits", "inbox", "_in_flight",
                 "node_peaks", "_neighbors"):
        assert getattr(net, name) == getattr(fresh, name), name
    assert list(net.trace) == list(fresh.trace) and net.trace._drains is net._drains
    assert held_before[T1] == {"h": q}  # a holdings dict read earlier is not mutated


def test_each_drain_returns_its_own_tail_of_the_trace(net):
    net.send_classical(T1, M1, ("10",), "a")
    net.send_classical(T2, M1, ("01",), "b")
    first = net.run_until_idle()
    net.send_classical(M1, M2, ("11",), "c")
    second = net.run_until_idle()
    assert list(net.run_until_idle()) == [] and net.now == 2  # an empty queue makes no tick
    whole = list(net.trace)
    assert list(first) == whole[:2] and list(second) == whole[2:]
    assert [str(e) for e in [*first, *second]] == [
        "1 T1 M1 classical a 2", "1 T2 M1 classical b 2", "2 M1 M2 classical c 2"]
    # a returned view is read-only, so it cannot change the network's trace
    for mutate in (lambda: first.clear(), lambda: first.append(whole[2]),
                   lambda: first.__setitem__(0, whole[2]), lambda: first.__delitem__(0)):
        with pytest.raises((AttributeError, TypeError)):
            mutate()
    assert len(first) == 2 and len(net.trace) == 3


def test_trace_is_a_sized_view_built_on_read(net):
    reg = StateRegistry()
    net.deposit(T1, "q", reg.alloc_qubit([as_state([1.0, 0.0])]))
    net.send_qubit(T1, R2, "q")
    net.send_classical(T1, M1, ("101",), "a")
    net.run_until_idle()
    net.broadcast_classical(M2, ("0",), "b", exclude=[M1])
    drained = net.run_until_idle()
    trace = net.trace
    expected = [TraceEntry(1, T1, R2, "quantum", "q", 1), TraceEntry(1, T1, M1, "classical", "a", 3),
                TraceEntry(2, M2, R1, "classical", "b", 1), TraceEntry(2, M2, R2, "classical", "b", 1)]
    assert len(trace) == 4 and list(trace) == expected
    assert len(drained) == 2 and list(drained) == expected[2:]
    assert not hasattr(trace, "__getitem__")  # read by iterating, not by index
    assert trace is net.trace  # one view, not a copy per read
    net.reset()
    assert list(trace) == expected and list(net.trace) == [] and net.trace is not trace
    net.send_classical(T2, M1, ("11",), "c")
    net.run_until_idle()
    assert list(trace) == expected and list(drained) == expected[2:]  # views taken before reset() stay
    assert list(net.trace) == [TraceEntry(1, T2, M1, "classical", "c", 2)]


def test_a_refused_delivery_leaves_the_earlier_ones_recorded(net):
    reg = StateRegistry()
    net.send_classical(T1, M1, ("01",), "h")
    net.run_until_idle()
    net.send_classical(T1, R2, ("10",), "m")
    net.send_classical(T2, M1, ("10",), "h")  # collides with the first "h" at M1
    net.send_classical(T2, R1, ("11",), "n")
    with pytest.raises(NetworkError):
        net.run_until_idle()
    assert [str(e) for e in net.trace] == ["1 T1 M1 classical h 2", "2 T1 R2 classical m 2"]
    assert net.pending == 1 and net.inbox[R1] == {}  # the message after it stays queued
    (entry,) = net.run_until_idle()
    assert str(entry) == "3 T2 R1 classical n 2"
    net.deposit(R2, "q", reg.alloc_qubit([as_state([1.0, 0.0])]))
    net.deposit(T1, "q", reg.alloc_qubit([as_state([1.0, 0.0])]))
    net.send_classical(M2, R2, ("0",), "o")
    net.send_qubit(T1, R2, "q")  # collides with the qubit R2 holds
    with pytest.raises(NetworkError):
        net.run_until_idle()
    assert [str(e) for e in list(net.trace)[3:]] == ["4 M2 R2 classical o 1"]
    assert net.pending == 0 and len(net.trace) == 4
    assert net.in_flight == 0  # the refused qubit was dropped with its record


def test_a_broadcast_refused_midway_keeps_its_later_targets_queued():
    net = QNetwork(build_butterfly(3))
    R3 = NodeId.receiver(3)
    net.send_classical(T1, R2, ("1",), "b")
    net.run_until_idle()
    net.broadcast_classical(T1, ("01",), "b")  # to M1, then R2, which holds a "b"
    net.send_classical(T2, M1, ("11",), "d")
    assert net.pending == 4
    with pytest.raises(NetworkError, match="^R2 already holds a message tagged 'b'$"):
        net.run_until_idle()
    assert net.inbox[M1] == {"b": ("01",)} and net.inbox[R2] == {"b": ("1",)} and net.inbox[R3] == {}
    assert net.pending == 2  # the refused delivery is dropped; R3's and the send after it stay
    assert [str(e) for e in net.trace] == ["1 T1 R2 classical b 1", "2 T1 M1 classical b 2"]
    drained = net.run_until_idle()
    assert net.pending == 0 and net.inbox[R3] == {"b": ("01",)}
    assert [str(e) for e in drained] == ["3 T1 R3 classical b 2", "3 T2 M1 classical d 2"]
    assert len(net.trace) == 4
    assert [str(e) for e in list(net.trace)[1:3]] == ["2 T1 M1 classical b 2", "3 T1 R3 classical b 2"]
    net.broadcast_classical(T1, ("0",), "e")  # the cut broadcast left the neighbour tuple whole
    assert [e.dst for e in net.run_until_idle()] == [M1, R2, R3]


def test_payload_validation(net):
    with pytest.raises(ValueError):
        net.send_classical(T1, M1, ("0a1",), "t")
    with pytest.raises(ValueError, match="must be a bit string per lane"):
        net.send_classical(T1, M1, "01", "t")  # a bare string is not one string per lane
    with pytest.raises(ValueError, match="must be a bit string per lane"):
        net.send_classical(T1, M1, (), "t")  # nor is an empty tuple
    with pytest.raises(ValueError, match="must be a bit string per lane"):
        net.send_classical(T1, M1, ("",), "t")  # a message holds one bit at least
    with pytest.raises(ValueError, match="must be a bit string per lane"):
        net.send_classical(T1, M1, ("", ""), "t")  # in every lane
    with pytest.raises(ValueError, match="must be a bit string per lane"):
        net.send_classical(T1, M1, ("01", "0"), "t")  # lanes of one message share its size
    with pytest.raises(ValueError, match="must be a bit string per lane"):
        net.broadcast_classical(T1, ("01", "01", "011"), "t")
    assert net.pending == 0
    net.send_classical(T1, M1, ("0101",), "t")
    assert net.pending == 1


@pytest.mark.parametrize("bits", ["a01", "0a1", "01a", " 01", "0 1", "01 ", "\n01", "01\t", "2"])
def test_bit_check_rejects_any_other_character_anywhere(bits):
    with pytest.raises(ValueError, match="must be a bit string"):
        _check_bits((bits,))
    with pytest.raises(ValueError, match="must be a bit string"):
        _check_bits(("01", bits))  # in any lane


@pytest.mark.parametrize("bits", ["0", "1", "0110"])
def test_bit_check_accepts_bit_strings(bits):
    _check_bits((bits,))
    _check_bits((bits, bits))


def test_trace_serialization(net):
    net.send_classical(T1, M1, ("10",), "swap1")
    net.run_until_idle()
    line = serialize_trace(net.trace)
    assert line == "1 T1 M1 classical swap1 2\n"
    (entry,) = net.trace
    assert entry == TraceEntry(1, T1, M1, "classical", "swap1", 2)
    assert str(entry) == "1 T1 M1 classical swap1 2"


def test_a_message_per_lane_counts_one_lane_bits(net):
    # One round carries every lane's bits in one message; the trace records
    # the size of one lane's, as a one-lane round does.
    net.send_classical(T1, M1, ("01", "10", "11"), "lanes")
    (entry,) = net.run_until_idle()
    assert entry == TraceEntry(1, T1, M1, "classical", "lanes", 2)
    assert net.message(M1, "lanes") == ("01", "10", "11")
