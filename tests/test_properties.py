"""Property tests: the key chunk -> rotation gate map, the registry's cluster
kernels against a dense state-vector oracle, XOR recovery, the delivery
trace against an independent record, and the custody and determinism of
whole rounds."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qbutterfly.iedtc import run_round, xor_combine
from qbutterfly.qsre import rotation_gate
from qbutterfly.qstate import (
    CNOT,
    NOISE_ALL_GATES,
    NOISE_ENTANGLING,
    NORM_ATOL,
    H,
    StateRegistry,
    X,
    Y,
    Z,
    random_state,
    rx,
    ry,
)
from qbutterfly.simnet import NetworkError, QNetwork, serialize_trace
from qbutterfly.topology import LinkKind, build_butterfly
from test_qstate import embed_cnot, embed_single, oracle_matrix

WIDTHS = st.integers(min_value=3, max_value=12)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def chunks(width):
    return st.text(alphabet="01", min_size=width, max_size=width)


@settings(max_examples=200, deadline=None)
@given(chunk=WIDTHS.flatmap(chunks), seed=SEEDS)
def test_chunk_inverse_undoes_its_rotation(chunk, seed):
    reg = StateRegistry()
    ref = random_state(np.random.default_rng(seed))
    q = reg.alloc_qubit(ref)
    gate = rotation_gate(chunk)
    reg.apply_gate(gate, [q])
    reg.apply_gate(gate.inverse(), [q])
    assert reg.fidelity(q, ref) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("width", range(3, 13))
def test_chunk_map_is_injective_at_each_width(width):
    # A guess equals the key's rotation only when it names the same chunk.
    gates = {rotation_gate(f"{v:0{width}b}") for v in range(2 ** width)}
    assert len(gates) == 2 ** width


# -- cluster kernels against a dense oracle -------------------------------------
#
# The oracle keeps one 2**m vector over all live qubits (qubit 0 the high
# bit) and applies every operation as an explicit np.kron-built matrix from
# test_qstate's dense helpers, so it shares no code with the registry's
# strided views.

PROJECTORS = (np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex))


class DenseOracle:
    def __init__(self):
        self.qubits = []
        self.psi = np.ones(1, dtype=complex)

    def alloc(self, q, amps):
        self.qubits.append(q)
        self.psi = np.kron(self.psi, amps)

    def gate(self, gate, q):
        m, k = len(self.qubits), self.qubits.index(q)
        self.psi = embed_single(m, k, oracle_matrix(gate)) @ self.psi

    def cnot(self, control, target):
        m, c, t = len(self.qubits), self.qubits.index(control), self.qubits.index(target)
        self.psi = embed_cnot(m, c, t) @ self.psi

    def measure(self, q, outcome, u):
        """Collapse q; outcome must be 1 exactly when the uniform draw u < P(q = 1)."""
        m, k = len(self.qubits), self.qubits.index(q)
        branches = [embed_single(m, k, proj) @ self.psi for proj in PROJECTORS]
        p1 = np.vdot(branches[1], branches[1]).real
        assert outcome == (1 if u < p1 else 0)
        projected = branches[outcome]
        p = np.vdot(projected, projected).real
        kept = np.take(projected.reshape([2] * m), outcome, axis=k).reshape(-1)
        self.psi = kept / math.sqrt(p)
        self.qubits.pop(k)


def next_uniforms(reg, k):
    """The registry RNG's next k uniform draws, left unconsumed."""
    rng = np.random.Generator(type(reg.rng.bit_generator)())
    rng.bit_generator.state = reg.rng.bit_generator.state
    return rng.random(k)


def registry_vector(reg, order):
    """The registry's live clusters as one vector in the given qubit order.

    Asserts that the clusters partition the live qubits and that each is
    normalized within NORM_ATOL.
    """
    qubits, psi = [], np.ones(1, dtype=complex)
    for q in order:
        if q in qubits:
            continue
        members, amps = reg.cluster_state(q)
        assert abs(np.linalg.norm(amps) - 1.0) <= NORM_ATOL
        qubits.extend(members)
        psi = np.kron(psi, amps)
    assert sorted(qubits) == sorted(order) and reg.live_count == len(order)
    axes = [qubits.index(q) for q in order]
    return psi.reshape([2] * len(order)).transpose(axes).reshape(-1)


THETAS = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)
KET0 = np.array([1.0, 0.0], dtype=complex)
MAX_LIVE = 6


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4), seed=SEEDS)
def test_cluster_kernels_match_dense_oracle(data, n, seed):
    rng = np.random.default_rng([seed, 1])  # a stream apart from the registry's
    reg = StateRegistry(seed=seed)
    oracle = DenseOracle()

    def check():
        # A measurement that empties a cluster leaves its phase on the oracle.
        got = registry_vector(reg, oracle.qubits)
        overlap = np.vdot(got, oracle.psi)
        np.testing.assert_allclose(got * overlap / abs(overlap), oracle.psi, atol=1e-10)

    def cnot(control, target):
        reg.apply_gate(CNOT, [control, target])
        oracle.cnot(control, target)

    def measure(q):
        (u,) = next_uniforms(reg, 1)
        oracle.measure(q, reg.measure(q), u)

    def bell_measure(q1, q2):
        u1, u2 = next_uniforms(reg, 2)
        b1, b2 = reg.bell_measure(q1, q2)
        oracle.cnot(q1, q2)
        oracle.gate(H, q1)
        oracle.measure(q1, b1, u1)
        oracle.measure(q2, b2, u2)

    def bell_pair():
        a, b = reg.create_bell_pair()
        oracle.alloc(a, KET0)
        oracle.alloc(b, KET0)
        oracle.gate(H, a)
        oracle.cnot(a, b)

    for _ in range(n):
        amps = random_state(rng)
        oracle.alloc(reg.alloc_qubit(amps), amps)
    # Group the qubits into 1-3 clusters with CNOTs drawn in either direction.
    groups = data.draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    for g in set(groups):
        members = [q for q, h in zip(oracle.qubits, groups) if h == g]
        for a, b in zip(members, members[1:]):
            cnot(*((a, b) if data.draw(st.booleans()) else (b, a)))
            check()
    # Every gate kind at every cluster position.
    theta = data.draw(THETAS)
    for q in list(oracle.qubits):
        for gate in (X, Y, Z, H, rx(theta), ry(theta)):
            reg.apply_gate(gate, [q])
            oracle.gate(gate, q)
            check()
    # Then new Bell pairs, CNOTs either way round (merging clusters of any
    # sizes), and measurements and Bell measurements at any position.  At
    # most MAX_LIVE qubits keep the oracle's dense matrices small.
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        live = oracle.qubits
        ops = (["bell_pair"] if len(live) + 2 <= MAX_LIVE else []) + (["measure"] if live else [])
        ops += ["cnot", "bell_measure"] if len(live) > 1 else []
        op = data.draw(st.sampled_from(ops))
        if op == "bell_pair":
            bell_pair()
        elif op == "measure":
            measure(data.draw(st.sampled_from(live)))
        else:
            q1, q2 = data.draw(st.permutations(live))[:2]
            (cnot if op == "cnot" else bell_measure)(q1, q2)
        check()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), seed=SEEDS)
def test_x_and_z_kernels_equal_the_matrix_product(n, seed):
    # X runs as a gather and Z as a sign product, as a gate and as a noise
    # Pauli; either way each must give exactly what gate.matrix @ view gives.
    rng = np.random.default_rng(seed)
    reg = StateRegistry()
    qubits = [reg.alloc_qubit(random_state(rng)) for _ in range(n)]
    for a, b in zip(qubits, qubits[1:]):
        reg.apply_gate(CNOT, [a, b])  # one cluster, qubits in allocation order

    def inject(gate, pauli, q):
        reg._draw_noise = lambda *_: [(q, pauli)]  # the hook draws this Pauli on q
        reg._inject_noise(gate, [q])

    for position, q in enumerate(qubits):
        stride = 2 ** (n - 1 - position)
        for pauli, gate in ((0, X), (2, Z)):
            for apply in (lambda: reg.apply_gate(gate, [q]), lambda: inject(gate, pauli, q)):
                order, before = reg.cluster_state(q)
                assert order == tuple(qubits)
                expected = (gate.matrix @ before.reshape(-1, 2, stride)).reshape(-1)
                apply()
                assert np.array_equal(reg.cluster_state(q)[1], expected)


# -- XOR coding and whole rounds -------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(msgs=st.lists(st.sampled_from(["00", "01", "10", "11"]), min_size=1, max_size=64))
def test_xor_combine_recovers_every_message(msgs):
    # The exhaustive tests stop at 6 pairs; this reaches 64.
    combined = xor_combine(msgs)
    for k, msg in enumerate(msgs):
        assert xor_combine([combined, *msgs[:k], *msgs[k + 1:]]) == msg


# -- the delivery trace ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trace_matches_an_independent_record_of_the_sends(data):
    # Tags come from a small pool, so a delivery can find its tag taken at
    # the receiver: a message collision, a broadcast refused midway, a qubit
    # collision, or a drain refused at its first record.  The model drops
    # the refused delivery and keeps the ones after it queued.
    net, reg = QNetwork(build_butterfly(3)), StateRegistry()
    links = [(a, b, kind) for a, nbrs in net.topology.adjacency.items()
             for b, kind in nbrs.items()]
    fiber = [(a, b) for a, b, kind in links if kind is LinkKind.QUANTUM]
    bits = st.text(alphabet="01", min_size=1, max_size=4)
    tags = st.sampled_from("abc")
    inbox = {node: set() for node in net.topology.nodes}  # tags each node has received
    held = {node: set() for node in net.topology.nodes}  # tags of qubits delivered to each
    queued, expected, drains, tick = [], [], [], 0
    for i in range(data.draw(st.integers(min_value=0, max_value=30))):
        op = data.draw(st.sampled_from(["classical", "qubit", "broadcast", "run"]))
        if op == "classical":
            src, dst, _ = data.draw(st.sampled_from(links))
            payload, tag = data.draw(bits), data.draw(tags)
            net.send_classical(src, dst, payload, tag)
            queued.append((src, dst, "classical", tag, len(payload)))
        elif op == "qubit":
            src, dst = data.draw(st.sampled_from(fiber))
            tag = data.draw(tags)
            net.deposit(src, f"h{i}", reg.alloc_qubit([1.0, 0.0]))
            net.send_qubit(src, dst, f"h{i}", tag)
            queued.append((src, dst, "quantum", tag, 1))
        elif op == "broadcast":
            src = data.draw(st.sampled_from(net.topology.nodes))
            neighbors = list(net.topology.adjacency[src])
            skip = data.draw(st.lists(st.sampled_from(neighbors), max_size=len(neighbors) - 1))
            payload, tag = data.draw(bits), data.draw(tags)
            targets = net.broadcast_classical(src, payload, tag, exclude=skip)
            assert targets == [m for m in neighbors if m not in skip]
            queued += [(src, m, "classical", tag, len(payload)) for m in targets]
        else:
            start = len(expected)
            if queued:
                tick += 1
            for k, (src, dst, kind, tag, size) in enumerate(queued):
                taken = inbox[dst] if kind == "classical" else held[dst]
                if tag in taken:  # refused: dropped, and the rest stay queued
                    del queued[:k + 1]
                    with pytest.raises(NetworkError, match="already holds"):
                        net.run_until_idle()
                    break
                taken.add(tag)
                expected.append((tick, src, dst, kind, tag, size))
            else:
                queued.clear()
                drains.append((net.run_until_idle(), start, len(expected)))
            assert net.now == tick and net.trace == expected
        assert net.pending == len(queued)
        assert net.in_flight == sum(kind == "quantum" for _, _, kind, _, _ in queued)
    assert [tuple(e) for e in net.trace] == expected
    assert len(net.trace) == len(expected) and net.now == tick
    for drained, start, stop in drains:
        assert [tuple(e) for e in drained] == expected[start:stop]
        assert drained == net.trace[start:stop]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(min_value=2, max_value=6),
       model=st.sampled_from([NOISE_ENTANGLING, NOISE_ALL_GATES]),
       p=st.floats(min_value=0.0, max_value=1.0), reg_seed=SEEDS, state_seed=SEEDS)
def test_round_leaves_nothing_behind_and_repeats(n, model, p, reg_seed, state_seed,
                                                 assert_nothing_left):
    # The fixture is a stateless check, so sharing it across examples is safe.
    runs = []
    for _ in range(2):
        net = QNetwork(build_butterfly(n))
        reg = StateRegistry(p, seed=reg_seed, noise_model=model)
        rng = np.random.default_rng(state_seed)
        result = run_round(net, reg, [random_state(rng) for _ in range(n)])
        assert result.error is None
        assert_nothing_left(net, reg)
        runs.append((serialize_trace(result.trace), result.fidelities))
    assert runs[0] == runs[1]
