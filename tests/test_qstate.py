"""Tests for the cluster-factored pure-state engine.

The gate tests check the registry against a deliberately naive dense
simulator built here from scratch (full 2**n vectors, explicit kron
embeddings), so the two implementations share no code.
"""
import math

import numpy as np
import pytest
from conftest import pair_fidelity, partial_trace

from qbutterfly import qstate
from qbutterfly.qstate import (
    CNOT,
    H,
    NOISE_ALL_GATES,
    NOISE_ENTANGLING,
    NORM_ATOL,
    DeadQubitError,
    Gate,
    GateKind,
    StateRegistry,
    X,
    Y,
    Z,
    _gray_order,
    as_state,
    random_state,
    rx,
    ry,
)

SQ2 = 1.0 / math.sqrt(2.0)
BELL = np.array([SQ2, 0.0, 0.0, SQ2], dtype=complex)

# -- independent dense oracle -------------------------------------------------

I2 = np.eye(2, dtype=complex)
MX = np.array([[0, 1], [1, 0]], dtype=complex)
MY = np.array([[0, -1j], [1j, 0]], dtype=complex)
MZ = np.array([[1, 0], [0, -1]], dtype=complex)
MH = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)


def states_equal(a, b, atol=1e-9):
    """True if two state vectors match up to a global phase."""
    return bool(abs(abs(np.vdot(a, b)) - 1.0) < atol)


def mrx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def mry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def embed_single(n, k, u):
    """Full 2**n matrix applying u on qubit k (qubit 0 = most significant)."""
    full = np.array([[1.0]], dtype=complex)
    for j in range(n):
        full = np.kron(full, u if j == k else I2)
    return full


def embed_cnot(n, control, target):
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        cbit = (i >> (n - 1 - control)) & 1
        m[i ^ (cbit << (n - 1 - target)), i] = 1.0
    return m


def registry_vector(reg, qubits):
    """Amplitudes of the (single) cluster holding `qubits`, axes reordered to
    match the given qubit order."""
    order, (amps,) = reg.cluster_state(qubits[0])
    assert set(order) == set(qubits)
    k = len(order)
    perm = [order.index(q) for q in qubits]
    return np.transpose(amps.reshape([2] * k), perm).reshape(-1)


def cluster_dims(reg, qubits):
    """Amplitude count of each cluster holding one of `qubits`, ascending;
    the qubits must be every live one."""
    clusters = dict(map(reg.cluster_state, qubits))
    assert sum(len(order) for order in clusters) == reg.live_count
    return sorted(amps.size for (amps,) in clusters.values())


def test_scripted_circuit_matches_dense_oracle():
    reg = StateRegistry()
    rng = np.random.default_rng(17)
    inits = [random_state(rng) for _ in range(3)]
    qs = [reg.alloc_qubit([s]) for s in inits]

    oracle = np.kron(np.kron(inits[0], inits[1]), inits[2])
    script = [
        (H, [0], embed_single(3, 0, MH)),
        (CNOT, [0, 1], embed_cnot(3, 0, 1)),
        (rx(0.7), [2], embed_single(3, 2, mrx(0.7))),
        (CNOT, [2, 1], embed_cnot(3, 2, 1)),
        (Y, [0], embed_single(3, 0, MY)),
        (ry(-1.3), [1], embed_single(3, 1, mry(-1.3))),
        (Z, [2], embed_single(3, 2, MZ)),
        (X, [1], embed_single(3, 1, MX)),
        (CNOT, [0, 2], embed_cnot(3, 0, 2)),
    ]
    for gate, targets, full in script:
        reg.apply_gate(gate, [qs[i] for i in targets])
        oracle = full @ oracle

    got = registry_vector(reg, qs)
    assert np.allclose(got, oracle, atol=1e-12)
    assert reg.gate_count == len(script)


@pytest.mark.parametrize("gate,matrix", [
    (X, MX), (Y, MY), (Z, MZ), (H, MH),
    (rx(1.234), mrx(1.234)), (ry(-0.521), mry(-0.521)),
])
def test_single_qubit_gates_match_matrices(gate, matrix):
    reg = StateRegistry()
    init = random_state(np.random.default_rng(3))
    q = reg.alloc_qubit([init])
    reg.apply_gate(gate, [q])
    _, (amps,) = reg.cluster_state(q)
    assert np.allclose(amps, matrix @ init, atol=1e-12)


def test_bell_pair_is_phi_plus():
    reg = StateRegistry()
    a, b = reg.create_bell_pair()
    order, (amps,) = reg.cluster_state(a)
    assert order == (a, b)
    assert np.allclose(amps, BELL, atol=1e-12)
    assert cluster_dims(reg, [a, b]) == [4]


def _assert_pair_is_its_gates(pair, gates):
    # create_bell_pair against two allocations and two checked gates: equal
    # amplitudes, counters, peaks and rng position.
    a, _ = pair.create_bell_pair()
    c, d = gates.alloc_qubit([as_state([1.0, 0.0])]), gates.alloc_qubit([as_state([1.0, 0.0])])
    gates.apply_gate(H, [c])
    gates.apply_gate(CNOT, [c, d])
    (order, (amps,)), (ref_order, (ref_amps,)) = pair.cluster_state(a), gates.cluster_state(c)
    assert order == ref_order
    assert np.array_equal(amps, ref_amps)  # the paths may sign a zero differently
    assert pair.noise_events == gates.noise_events
    assert pair.gate_count == gates.gate_count == 2
    assert (pair.peak_alloc, pair.peak_cluster_dim, pair.peak_resident_cluster_dim) == (
        gates.peak_alloc, gates.peak_cluster_dim, gates.peak_resident_cluster_dim)
    assert pair.rngs[0].random() == gates.rngs[0].random()


@pytest.mark.parametrize("model", [NOISE_ALL_GATES, NOISE_ENTANGLING])
def test_bell_pair_draws_like_its_gates(model):
    # create_bell_pair starts from a shared constant; under noise it must
    # still match two allocations and two checked gates, draw for draw.
    for seed in range(50):
        _assert_pair_is_its_gates(StateRegistry(0.5, seed=seed, noise_model=model),
                                  StateRegistry(0.5, seed=seed, noise_model=model))
    _assert_pair_is_its_gates(StateRegistry(), StateRegistry())


def _bell_setup(reg, layout, seed):
    """q1, q2 and two spectators s1, s2 in random entangled states.

    "separate": clusters (s1, q1) and (q2, s2), merged by the measurement.
    "shared": one cluster ordered (s1, q2, q1, s2), so q1 is the lower bit.
    """
    rng = np.random.default_rng(seed)

    def pair():
        a, b = reg.alloc_qubit([random_state(rng)]), reg.alloc_qubit([random_state(rng)])
        reg.apply_gate(CNOT, [a, b])
        reg.apply_gate(ry(rng.uniform(0.0, 2.0 * math.pi)), [b])
        return a, b

    if layout == "separate":
        (s1, q1), (q2, s2) = pair(), pair()
    else:
        (s1, q2), (q1, s2) = pair(), pair()
        reg.apply_gate(CNOT, [s1, s2])
        reg.apply_gate(rx(rng.uniform(0.0, 2.0 * math.pi)), [q1])
    return q1, q2, s1, s2


def _bell_by_gates(reg, q1, q2):
    reg.apply_gate(CNOT, [q1, q2])
    reg.apply_gate(H, [q1])
    return reg.measure(q1)[0], reg.measure(q2)[0]


def bell_bits(reg, q1, q2):
    """(b1, b2) of a one-lane registry's Bell measurement."""
    (value,) = reg.bell_measure(q1, q2)
    return divmod(value, 2)


def _assert_same_after_bell(fused, gates, s1, bits, ref_bits):
    assert bits == ref_bits
    (order, (amps,)), (ref_order, (ref_amps,)) = fused.cluster_state(s1), gates.cluster_state(s1)
    assert order == ref_order
    assert abs(np.vdot(amps, ref_amps)) == pytest.approx(1.0, rel=0, abs=1e-12)
    assert fused.rngs[0].random() == gates.rngs[0].random()


@pytest.mark.parametrize("layout", ["separate", "shared"])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("model", [NOISE_ALL_GATES, NOISE_ENTANGLING])
def test_bell_measure_draws_like_its_gates(model, p, layout):
    # bell_measure projects once and folds its gates' Paulis into the bits;
    # it must match CNOT, H and two measurements, draw for draw.
    for seed in range(40):
        fused = StateRegistry(p, seed=seed, noise_model=model)
        gates = StateRegistry(p, seed=seed, noise_model=model)
        q1, q2, s1, s2 = _bell_setup(fused, layout, seed)
        assert _bell_setup(gates, layout, seed) == (q1, q2, s1, s2)
        counts = (fused.gate_count, fused.noise_events, gates.gate_count, gates.noise_events)
        bits = bell_bits(fused, q1, q2)
        ref_bits = _bell_by_gates(gates, q1, q2)
        assert fused.gate_count - counts[0] == gates.gate_count - counts[2] == 2
        assert fused.noise_events - counts[1] == gates.noise_events - counts[3]
        _assert_same_after_bell(fused, gates, s1, bits, ref_bits)


class _OneFault(StateRegistry):
    """Forces one Pauli into one noise slot of the next Bell measurement."""

    def __init__(self, seed, slot, pauli):
        super().__init__(noise_prob=1.0, seed=seed)  # nonzero, so the hook runs
        self.slot, self.pauli = slot, pauli
        self.seen = None  # the gates the hook saw since arming

    def _draw_noise(self, gate, targets, rng):
        if self.seen is None:
            return []
        self.seen.append(gate.kind)
        kind, position = self.slot
        return [(targets[position], self.pauli)] if gate.kind is kind else []


# Pauli index (X, Y, Z) -> flipped (b1, b2), per slot (gate, target position).
_FLIPS = {
    (GateKind.CNOT, 0): [(0, 0), (1, 0), (1, 0)],
    (GateKind.CNOT, 1): [(0, 1), (0, 1), (0, 0)],
    (GateKind.H, 0): [(1, 0), (1, 0), (0, 0)],
}


@pytest.mark.parametrize("slot", list(_FLIPS))
@pytest.mark.parametrize("pauli", [0, 1, 2])
def test_bell_pair_takes_each_fault_like_its_gates(slot, pauli):
    # A fault after H sends the pair through the CNOT kernel; one after the
    # CNOT lands on the shared constant's copy.  Both must match the gates.
    pair, gates = _OneFault(0, slot, pauli), _OneFault(0, slot, pauli)
    pair.seen, gates.seen = [], []
    _assert_pair_is_its_gates(pair, gates)
    assert pair.seen == gates.seen == [GateKind.H, GateKind.CNOT]


def test_shared_bell_pair_constant_is_read_only():
    reg = StateRegistry()
    a, _ = reg.create_bell_pair()
    (shared,) = reg._cluster_of[a].amps  # the one lane's array
    assert shared is qstate._PHI_PLUS and not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0] = 0.0
    reg.apply_gate(X, [a])  # a gate leaves the constant as it was
    assert np.array_equal(qstate._PHI_PLUS, BELL)


@pytest.mark.parametrize("slot", list(_FLIPS))
@pytest.mark.parametrize("pauli", [0, 1, 2])
def test_bell_measure_folds_each_fault_slot(slot, pauli):
    # phi+ measures (0, 0) without noise, so the bits are the flips themselves.
    for path in ("fused", "gates"):
        reg = _OneFault(0, slot, pauli)
        a, b = reg.create_bell_pair()
        reg.seen = []
        bits = bell_bits(reg, a, b) if path == "fused" else _bell_by_gates(reg, a, b)
        assert bits == _FLIPS[slot][pauli]
        assert reg.seen == [GateKind.CNOT, GateKind.H]
    # On random states with spectators both paths agree, draw for draw.
    for layout in ("separate", "shared"):
        for seed in range(10):
            fused, gates = _OneFault(seed, slot, pauli), _OneFault(seed, slot, pauli)
            q1, q2, s1, s2 = _bell_setup(fused, layout, seed)
            assert _bell_setup(gates, layout, seed) == (q1, q2, s1, s2)
            fused.seen, gates.seen = [], []
            bits = bell_bits(fused, q1, q2)
            ref_bits = _bell_by_gates(gates, q1, q2)
            assert fused.seen == gates.seen == [GateKind.CNOT, GateKind.H]
            _assert_same_after_bell(fused, gates, s1, bits, ref_bits)


def test_bell_measure_distinguishes_all_bell_states():
    # X/Z on one half turn phi+ into the other Bell states; the measurement
    # must report a distinct, deterministic bit pair for each.
    expected = {(): (0, 0), (X,): (0, 1), (Z,): (1, 0), (X, Z): (1, 1)}
    for paulis, bits in expected.items():
        reg = StateRegistry()
        a, b = reg.create_bell_pair()
        for gate in paulis:
            reg.apply_gate(gate, [b])
        assert bell_bits(reg, a, b) == bits


def test_measurement_frequency_follows_born_rule():
    theta = 1.234
    p1 = math.sin(theta / 2.0) ** 2
    reg = StateRegistry(seed=5)
    hits = 0
    for _ in range(10_000):
        q = reg.alloc_qubit([as_state([1.0, 0.0])])
        reg.apply_gate(ry(theta), [q])
        hits += reg.measure(q)[0]
    assert abs(hits / 10_000 - p1) < 0.02


def test_bell_pair_measurements_are_correlated():
    reg = StateRegistry(seed=11)
    seen = set()
    for _ in range(200):
        a, b = reg.create_bell_pair()
        (ba,), (bb,) = reg.measure(a), reg.measure(b)
        assert ba == bb
        seen.add(ba)
    assert seen == {0, 1}


def test_partner_collapses_to_measured_bit():
    reg = StateRegistry(seed=2)
    a, b = reg.create_bell_pair()
    (bit,) = reg.measure(a)
    _, (amps,) = reg.cluster_state(b)
    target = np.zeros(2, dtype=complex)
    target[bit] = 1.0
    assert np.allclose(amps, target, atol=1e-12)


def test_release_leaves_partner_maximally_mixed():
    reg = StateRegistry(seed=4)
    a, b = reg.create_bell_pair()
    reg.release(a)
    plus = np.array([SQ2, SQ2], dtype=complex)
    assert reg.fidelity(b, [plus]) == [pytest.approx(0.5, abs=1e-12)]


def test_releasing_a_lone_qubit_moves_the_rng_as_measuring_it_does():
    measured, released = StateRegistry(seed=6), StateRegistry(seed=6)
    for reg, consume in ((measured, measured.measure), (released, released.release)):
        q = reg.alloc_qubit([random_state(np.random.default_rng(1))])
        consume(q)
        assert reg.live_count == 0
    assert measured.rngs[0].random() == released.rngs[0].random()
    with pytest.raises(DeadQubitError):
        released.release(q)


def test_rotation_inverses_cancel():
    reg = StateRegistry()
    init = random_state(np.random.default_rng(9))
    q = reg.alloc_qubit([init])
    for gate, inverse in ((rx(0.7), rx(-0.7)), (ry(2.1), ry(-2.1))):
        reg.apply_gate(gate, [q])
        reg.apply_gate(inverse, [q])
    _, (amps,) = reg.cluster_state(q)
    assert np.allclose(amps, init, atol=1e-12)


def oracle_matrix(gate):
    """The dense oracle's matrix of a gate on its own qubits."""
    if gate.kind is GateKind.RX:
        return mrx(gate.theta)
    if gate.kind is GateKind.RY:
        return mry(gate.theta)
    return {GateKind.X: MX, GateKind.Y: MY, GateKind.Z: MZ, GateKind.H: MH,
            GateKind.CNOT: embed_cnot(2, 0, 1)}[gate.kind]


@pytest.mark.parametrize("gate", [X, Y, Z, H, rx(0.7), ry(-2.1), CNOT])
def test_gate_inverse_undoes_the_gate(gate):
    m = oracle_matrix(gate)
    assert np.allclose(oracle_matrix(gate.inverse()) @ m, np.eye(len(m)), atol=1e-12)


def test_gate_equality_hash_and_repr_ignore_the_matrix():
    # Each gate carries its matrix, built at construction; an ndarray field
    # that took part in == would make the comparison raise.
    assert rx(0.3) == rx(0.3) and hash(rx(0.3)) == hash(rx(0.3))
    assert {H: 1}[Gate(GateKind.H)] == 1
    assert X != Z and rx(0.3) != ry(0.3) and rx(0.3) != rx(0.4)
    assert repr(rx(0.3)) == "Gate(kind=<GateKind.RX: 'rx'>, theta=0.3)"
    assert "array" not in repr(H) and "matrix" not in repr(CNOT)
    for t in (0.3, -1.7, math.pi):
        assert rx(t).inverse() == rx(-t) and ry(t).inverse() == ry(-t)
        np.testing.assert_array_equal(rx(t).inverse().matrix, rx(-t).matrix)
    np.testing.assert_allclose(rx(1.234).matrix, mrx(1.234), rtol=0, atol=1e-15)
    assert CNOT.matrix is None
    with pytest.raises(ValueError):
        H.matrix[0, 0] = 0.0  # the matrix is shared by every use of the gate


def test_full_turn_is_global_phase_only():
    reg = StateRegistry()
    init = random_state(np.random.default_rng(21))
    q = reg.alloc_qubit([init])
    reg.apply_gate(rx(2.0 * math.pi), [q])
    _, (amps,) = reg.cluster_state(q)
    assert np.allclose(amps, -init, atol=1e-12)
    assert states_equal(amps, init)


def test_states_equal_is_phase_invariant():
    psi = random_state(np.random.default_rng(1))
    assert states_equal(psi, np.exp(1.3j) * psi)
    assert not states_equal(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_fidelity_of_known_states():
    reg = StateRegistry()
    q = reg.alloc_qubit([as_state([0.6, 0.8])])
    ref = np.array([SQ2, SQ2], dtype=complex)
    assert reg.fidelity(q, [ref]) == [pytest.approx(abs(np.vdot(ref, [0.6, 0.8])) ** 2, abs=1e-12)]
    # the reduced state of one Bell half is maximally mixed
    a, b = reg.create_bell_pair()
    assert reg.fidelity(a, [as_state([1.0, 0.0])]) == [pytest.approx(0.5, abs=1e-12)]
    assert reg.fidelity(b, [ref]) == [pytest.approx(0.5, abs=1e-12)]


def test_reduced_states_match_dense_oracle():
    # Unequal, non-maximally-mixed marginals, so a swapped or misplaced axis
    # in the reduced-state code changes the overlaps.
    reg = StateRegistry()
    rng = np.random.default_rng(23)
    qs = [reg.alloc_qubit([random_state(rng)]) for _ in range(3)]
    reg.apply_gate(H, [qs[0]])
    reg.apply_gate(CNOT, [qs[0], qs[1]])
    reg.apply_gate(rx(0.9), [qs[2]])
    reg.apply_gate(CNOT, [qs[2], qs[1]])
    reg.apply_gate(ry(-0.4), [qs[0]])
    assert cluster_dims(reg, qs) == [8]
    psi = registry_vector(reg, qs)
    for i, q in enumerate(qs):
        ref = random_state(rng)
        want = np.real(ref.conj() @ partial_trace(psi, [i]) @ ref)
        assert reg.fidelity(q, [ref]) == [pytest.approx(want, abs=1e-12)]
    # The pair_fidelity helper that Bell-pair checks read agrees with the
    # trace of the reordered vector, for every ordered pair.
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ref = np.kron(random_state(rng), random_state(rng))
            want = np.real(ref.conj() @ partial_trace(psi, [i, j]) @ ref)
            assert pair_fidelity(reg, qs[i], qs[j], ref) == pytest.approx(want, abs=1e-12)


def test_cluster_factoring_keeps_pairs_independent():
    reg = StateRegistry()
    pairs = [reg.create_bell_pair() for _ in range(5)]
    dims = cluster_dims(reg, [q for pair in pairs for q in pair])
    assert dims == [4] * 5
    assert sum(dims) == 20  # not 4**5
    assert reg.peak_cluster_dim == 4
    assert reg.live_count == 10
    assert reg.peak_alloc == 10
    for a, b in pairs:
        reg.release(a)
        reg.release(b)
    assert reg.live_count == 0
    assert reg.peak_alloc == 10


def test_transient_merge_tracked_separately_from_resident():
    reg = StateRegistry(seed=1)
    a, b = reg.create_bell_pair()
    c, d = reg.create_bell_pair()
    reg.bell_measure(b, c)  # merges two 4-dim clusters mid-measurement
    assert reg.peak_cluster_dim == 16
    assert reg.peak_resident_cluster_dim == 4
    assert cluster_dims(reg, [a, d]) == [4]  # a and d now share one cluster


def _assert_gather_order(order, blocks):
    np.testing.assert_array_equal(order, np.concatenate(blocks))
    assert sorted(order.tolist()) == list(range(order.size))
    assert not order.flags.writeable  # the cache shares it


def test_gray_order_matches_the_measurement_formulas():
    # One stride: the bit's 0 half, then its 1 half.  Two strides: the
    # blocks 00, 01, 11, 10 that bell_measure projects from.
    for dim in (2, 4, 8, 16, 32, 64):
        idx = np.arange(dim)
        strides = [1 << b for b in range(dim.bit_length() - 1)]
        for s in strides:
            rest = idx[idx & s == 0]
            _assert_gather_order(_gray_order(dim, s), [rest, rest | s])
        for s1 in strides:
            for s2 in strides:
                if s1 != s2:
                    rest = idx[idx & (s1 | s2) == 0]
                    _assert_gather_order(_gray_order(dim, s1, s2),
                                         [rest, rest | s2, rest | s1 | s2, rest | s1])


def _merged_dim(reg, q1, q2):
    qubits, (amps,) = reg.cluster_state(q1)
    if q2 in qubits:
        return amps.size
    return amps.size * reg.cluster_state(q2)[1][0].size


def test_peaks_match_brute_force_reference():
    # Both peaks recomputed from the live clusters after every operation; a
    # two-qubit operation's transient merge is read from cluster_state first.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        reg = StateRegistry(0.2, seed=seed, noise_model=NOISE_ALL_GATES)
        live = []
        resident = transient = 0
        for _ in range(60):
            if len(live) < 2:
                op = int(rng.integers(2))
            elif len(live) >= 8:
                op = int(rng.integers(2, 6))
            else:
                op = int(rng.integers(6))
            i, j = (int(x) for x in rng.choice(max(len(live), 2), 2, replace=False))
            merge = 0
            if op == 0:
                live.append(reg.alloc_qubit([random_state(rng)]))
            elif op == 1:
                live.extend(reg.create_bell_pair())
            elif op == 2:
                merge = _merged_dim(reg, live[i], live[j])
                reg.apply_gate(CNOT, [live[i], live[j]])
            elif op == 3:
                reg.apply_gate([H, X, rx(0.3)][int(rng.integers(3))], [live[i]])
            elif op == 4:
                merge = _merged_dim(reg, live[i], live[j])
                reg.bell_measure(live[i], live[j])
                live = [q for k, q in enumerate(live) if k not in (i, j)]
            else:
                (reg.measure if rng.random() < 0.5 else reg.release)(live.pop(i))
            # The distinct clusters partition the live qubits, each normalized.
            clusters = {}
            for q in live:
                order, (amps,) = reg.cluster_state(q)
                assert q in order
                assert abs(np.linalg.norm(amps) - 1.0) <= NORM_ATOL
                clusters[order] = amps.size
            assert sum(len(order) for order in clusters) == reg.live_count == len(live)
            top = max(clusters.values(), default=0)
            resident = max(resident, top)
            transient = max(transient, top, merge)
            assert reg.peak_resident_cluster_dim == resident
            assert reg.peak_cluster_dim == transient


def test_chain_entanglement_grows_and_collapses():
    reg = StateRegistry(seed=0)
    qs = [reg.alloc_qubit([as_state([1.0, 0.0])]) for _ in range(3)]
    reg.apply_gate(H, [qs[0]])
    reg.apply_gate(CNOT, [qs[0], qs[1]])
    reg.apply_gate(CNOT, [qs[1], qs[2]])
    assert cluster_dims(reg, qs) == [8]
    assert reg.peak_resident_cluster_dim == 8
    reg.measure(qs[0])
    assert cluster_dims(reg, qs[1:]) == [4]


def test_consumed_qubits_are_dead():
    reg = StateRegistry(seed=8)
    q = reg.alloc_qubit([as_state([1.0, 0.0])])
    reg.measure(q)
    with pytest.raises(DeadQubitError):
        reg.measure(q)
    with pytest.raises(DeadQubitError):
        reg.apply_gate(X, [q])
    a, b = reg.create_bell_pair()
    reg.bell_measure(a, b)
    for dead in (a, b):
        with pytest.raises(DeadQubitError):
            reg.fidelity(dead, [as_state([1.0, 0.0])])
    with pytest.raises(DeadQubitError):
        reg.cluster_state(q)
    assert reg.live_count == 0


def test_qubit_ids_are_never_reused():
    reg = StateRegistry()
    q1 = reg.alloc_qubit([as_state([1.0, 0.0])])
    reg.measure(q1)
    q2 = reg.alloc_qubit([as_state([1.0, 0.0])])
    assert q2 != q1


def test_alloc_validates_shape_and_norm():
    reg = StateRegistry()
    with pytest.raises(ValueError):
        reg.alloc_qubit([as_state([1.0, 0.0, 0.0])])
    with pytest.raises(ValueError):
        reg.alloc_qubit([as_state([1.0, 1.0])])
    with pytest.raises(ValueError):
        reg.alloc_qubit([as_state([float("nan"), 0.0])])
    # within the norm tolerance is fine
    reg.alloc_qubit([as_state([1.0 + 0.5 * NORM_ATOL, 0.0])])


def test_gate_construction_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.RX)  # rotation without an angle
    with pytest.raises(ValueError):
        Gate(GateKind.X, theta=0.5)
    with pytest.raises(ValueError):
        rx(float("nan"))
    with pytest.raises(ValueError):
        ry(float("inf"))


def test_gate_application_validation():
    reg = StateRegistry()
    a = reg.alloc_qubit([as_state([1.0, 0.0])])
    b = reg.alloc_qubit([as_state([1.0, 0.0])])
    with pytest.raises(ValueError):
        reg.apply_gate(CNOT, [a])
    with pytest.raises(ValueError):
        reg.apply_gate(X, [a, b])
    with pytest.raises(ValueError):
        reg.apply_gate(CNOT, [a, a])
    with pytest.raises(ValueError):
        reg.bell_measure(a, a)


def test_registry_constructor_validation():
    with pytest.raises(ValueError):
        StateRegistry(noise_prob=1.5)
    with pytest.raises(ValueError):
        StateRegistry(noise_prob=-0.1)
    with pytest.raises(ValueError):
        StateRegistry(noise_model="thermal")


def test_random_state_normalized_and_deterministic():
    s1 = random_state(np.random.default_rng(123))
    s2 = random_state(np.random.default_rng(123))
    assert np.allclose(s1, s2)
    assert abs(np.linalg.norm(s1) - 1.0) < 1e-12


def test_noiseless_runs_are_clean_and_reproducible():
    outcomes = []
    for _ in range(2):
        reg = StateRegistry(noise_prob=0.0, seed=77)
        bits = []
        for _ in range(20):
            a, b = reg.create_bell_pair()
            bits.append(reg.bell_measure(a, b))
        outcomes.append(bits)
    assert outcomes[0] == outcomes[1]
    assert reg.noise_events == 0


def test_entangling_noise_fires_only_on_cnot():
    reg = StateRegistry(noise_prob=1.0, seed=13)
    q = reg.alloc_qubit([as_state([1.0, 0.0])])
    for _ in range(10):
        reg.apply_gate(H, [q])
        reg.apply_gate(rx(0.3), [q])
    assert reg.noise_events == 0

    # every noisy pair creation lands exactly one Pauli on one half, which
    # maps phi+ to an orthogonal Bell state
    for seed in range(12):
        reg = StateRegistry(noise_prob=1.0, seed=seed)
        a, b = reg.create_bell_pair()
        assert reg.noise_events == 1
        assert pair_fidelity(reg, a, b, BELL) == pytest.approx(0.0, abs=1e-12)


def test_all_gates_noise_hits_every_target():
    for seed in range(12):
        reg = StateRegistry(noise_prob=1.0, seed=seed, noise_model=NOISE_ALL_GATES)
        a, b = reg.create_bell_pair()
        assert reg.noise_events == 3  # one for H, one per CNOT target
        # Pauli images of Bell states are Bell states: fidelity is 0 or 1
        fid = pair_fidelity(reg, a, b, BELL)
        assert min(abs(fid), abs(fid - 1.0)) < 1e-12


def test_noise_rate_statistics():
    reg = StateRegistry(noise_prob=0.25, seed=99)
    for _ in range(2000):
        a, b = reg.create_bell_pair()
        reg.release(a)
        reg.release(b)
    # one CNOT per pair; expect ~500 events (sigma ~ 19)
    assert abs(reg.noise_events - 500) < 80
