"""Property tests: the key chunk -> rotation gate map, and the registry's
cluster kernels against a dense state-vector oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbutterfly.qsre import rotation_gate
from qbutterfly.qstate import (
    CNOT,
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
from test_qstate import embed_cnot, embed_single, oracle_matrix

WIDTHS = st.integers(min_value=3, max_value=12)


def chunks(width):
    return st.text(alphabet="01", min_size=width, max_size=width)


@settings(max_examples=200, deadline=None)
@given(chunk=WIDTHS.flatmap(chunks), seed=st.integers(min_value=0, max_value=2**32 - 1))
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


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
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
    # Then CNOTs either way round (merging clusters of any sizes), and
    # measurements and Bell measurements at any position.
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        live = oracle.qubits
        if not live:
            break
        if len(live) == 1 or data.draw(st.booleans()):
            measure(data.draw(st.sampled_from(live)))
        else:
            q1, q2 = data.draw(st.permutations(live))[:2]
            (cnot if data.draw(st.booleans()) else bell_measure)(q1, q2)
        check()
