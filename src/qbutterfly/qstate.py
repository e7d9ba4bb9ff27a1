"""Pure-state qubit simulator with entanglement-cluster factoring.

Qubits live in independent clusters (dense complex amplitude vectors).
Only a two-qubit gate can merge clusters, so K Bell pairs cost K
4-amplitude vectors rather than one 4**K-amplitude vector.  This keeps the
qubit memory of a simulated round linear in the number of transceiver
pairs; the round itself still delivers Theta(n**2) messages.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NewType, Sequence

import numpy as np

QubitId = NewType("QubitId", int)

NORM_ATOL = 1e-9

# Noise models for the post-gate hook (see StateRegistry).
NOISE_ENTANGLING = "entangling"  # default: one Pauli on one qubit of a noisy CNOT
NOISE_ALL_GATES = "all-gates"    # independent Pauli chance per target of every gate
NOISE_MODELS = (NOISE_ENTANGLING, NOISE_ALL_GATES)


class DeadQubitError(ValueError):
    """A QubitId was used after being consumed (measured/released) or never existed."""


class GateKind(enum.Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    CNOT = "cnot"
    RX = "rx"
    RY = "ry"


_ROTATIONS = (GateKind.RX, GateKind.RY)


@dataclass(frozen=True)
class Gate:
    """A gate from the supported set; rotations carry their angle."""

    kind: GateKind
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind in _ROTATIONS:
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError(f"{self.kind.value} requires a finite angle, got {self.theta!r}")
        elif self.theta is not None:
            raise ValueError(f"{self.kind.value} takes no angle")

    @property
    def arity(self) -> int:
        return 2 if self.kind is GateKind.CNOT else 1


X = Gate(GateKind.X)
Y = Gate(GateKind.Y)
Z = Gate(GateKind.Z)
H = Gate(GateKind.H)
CNOT = Gate(GateKind.CNOT)


def rx(theta: float) -> Gate:
    """Rotation exp(-i*theta*X/2)."""
    return Gate(GateKind.RX, float(theta))


def ry(theta: float) -> Gate:
    """Rotation exp(-i*theta*Y/2)."""
    return Gate(GateKind.RY, float(theta))


_SQ2 = 1.0 / math.sqrt(2.0)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_HADAMARD = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_PAULIS = (_PAULI_X, _PAULI_Y, _PAULI_Z)


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.kind is GateKind.X:
        return _PAULI_X
    if gate.kind is GateKind.Y:
        return _PAULI_Y
    if gate.kind is GateKind.Z:
        return _PAULI_Z
    if gate.kind is GateKind.H:
        return _HADAMARD
    half = gate.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    if gate.kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate.kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(f"not a single-qubit gate: {gate.kind.value}")


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit pure state (uniform on the Bloch sphere)."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    half = math.acos(z) / 2.0
    return np.array([math.cos(half), np.exp(1j * phi) * math.sin(half)], dtype=complex)


def as_state(amplitudes: Sequence[complex], n_qubits: int = 1) -> np.ndarray:
    """The amplitudes as a complex vector; ValueError unless a normalized n-qubit state."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (2 ** n_qubits,):
        raise ValueError(f"a {n_qubits}-qubit state needs {2 ** n_qubits} amplitudes, "
                         f"got shape {amps.shape}")
    if abs(np.linalg.norm(amps) - 1.0) > NORM_ATOL:
        raise ValueError("state vector is not normalized")
    return amps


def states_equal(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """True if two state vectors match up to a global phase."""
    inner = np.vdot(a, b)
    return bool(abs(abs(inner) - 1.0) < atol)


class _Cluster:
    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: list[QubitId], amps: np.ndarray):
        self.qubits = qubits
        self.amps = amps

    @property
    def dim(self) -> int:
        return self.amps.size


class StateRegistry:
    """Owns every live qubit and its cluster state.

    Measurement and release consume the QubitId; a consumed id can never be
    used again (no-cloning is enforced by handle death, ids are never reused).

    Noise hook: after each gate the configured channel may inject Pauli
    errors, drawn from this registry's RNG so runs are seed-deterministic.

    * ``entangling`` (default): with probability ``noise_prob`` per CNOT,
      one Pauli chosen uniformly from {X,Y,Z} lands on one of the two
      participating qubits chosen uniformly.  Single-qubit gates are clean.
    * ``all-gates``: after every gate, independently for each target qubit,
      with probability ``noise_prob`` a uniform Pauli is applied.

    Measurements themselves are noise-free under both models.
    """

    def __init__(self, noise_prob: float = 0.0, seed: int = 0,
                 noise_model: str = NOISE_ENTANGLING):
        if not (0.0 <= noise_prob <= 1.0):
            raise ValueError(f"noise_prob must be in [0, 1], got {noise_prob}")
        if noise_model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {noise_model!r}")
        self.noise_prob = float(noise_prob)
        self.noise_model = noise_model
        self.rng = np.random.default_rng(seed)
        self._clusters: dict[int, _Cluster] = {}
        self._cluster_of: dict[QubitId, int] = {}
        self._next_qubit = 0
        self._next_cluster = 0
        self.live_count = 0
        self.peak_alloc = 0              # max simultaneous live qubits, any instant
        self.peak_cluster_dim = 0        # max amplitudes in one cluster, any instant
        self.peak_resident_cluster_dim = 0  # same, sampled between operations only
        self.gate_count = 0
        self.noise_events = 0

    # -- allocation ---------------------------------------------------------

    def alloc_qubit(self, amplitudes: Sequence[complex]) -> QubitId:
        """Allocate a fresh qubit in the given normalized single-qubit state."""
        amps = as_state(amplitudes)
        q = QubitId(self._next_qubit)
        self._next_qubit += 1
        cid = self._next_cluster
        self._next_cluster += 1
        self._clusters[cid] = _Cluster([q], amps.copy())
        self._cluster_of[q] = cid
        self.live_count += 1
        self.peak_alloc = max(self.peak_alloc, self.live_count)
        self._note(cid)
        return q

    def create_bell_pair(self) -> tuple[QubitId, QubitId]:
        """Allocate two qubits and entangle them into (|00>+|11>)/sqrt(2).

        Built from H and CNOT so the noise hook sees both gates.
        """
        a = self.alloc_qubit([1.0, 0.0])
        b = self.alloc_qubit([1.0, 0.0])
        self._apply_gate(H, [a])
        self._apply_gate(CNOT, [a, b])
        self._note(self._cluster_of[a])
        return a, b

    # -- gates --------------------------------------------------------------

    def apply_gate(self, gate: Gate, targets: Sequence[QubitId]) -> None:
        self._apply_gate(gate, targets)
        self._note(self._cluster_of[targets[0]])

    def _apply_gate(self, gate: Gate, targets: Sequence[QubitId]) -> None:
        targets = list(targets)
        if len(targets) != gate.arity:
            raise ValueError(f"{gate.kind.value} takes {gate.arity} target(s), got {len(targets)}")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target qubit")
        for q in targets:
            self._require_live(q)
        if gate.kind is GateKind.CNOT:
            self._apply_cnot(targets[0], targets[1])
        else:
            self._apply_single(_single_qubit_matrix(gate), targets[0])
        self.gate_count += 1
        self._inject_noise(gate, targets)

    def _apply_single(self, matrix: np.ndarray, q: QubitId) -> None:
        cluster = self._clusters[self._cluster_of[q]]
        k = len(cluster.qubits)
        pos = cluster.qubits.index(q)
        state = cluster.amps.reshape([2] * k)
        state = np.tensordot(matrix, state, axes=([1], [pos]))
        state = np.moveaxis(state, 0, pos)
        cluster.amps = np.ascontiguousarray(state).reshape(-1)

    def _apply_cnot(self, control: QubitId, target: QubitId) -> None:
        cid_c = self._cluster_of[control]
        cid_t = self._cluster_of[target]
        if cid_c != cid_t:
            self._merge(cid_c, cid_t)
        cluster = self._clusters[self._cluster_of[control]]
        k = len(cluster.qubits)
        pc = cluster.qubits.index(control)
        pt = cluster.qubits.index(target)
        state = cluster.amps.reshape([2] * k)
        sel0: list[slice | int] = [slice(None)] * k
        sel1: list[slice | int] = [slice(None)] * k
        sel0[pc] = 1
        sel1[pc] = 1
        sel0[pt] = 0
        sel1[pt] = 1
        tmp = state[tuple(sel0)].copy()
        state[tuple(sel0)] = state[tuple(sel1)]
        state[tuple(sel1)] = tmp
        cluster.amps = state.reshape(-1)

    def _merge(self, cid_a: int, cid_b: int) -> None:
        a = self._clusters.pop(cid_a)
        b = self._clusters.pop(cid_b)
        cid = self._next_cluster
        self._next_cluster += 1
        merged = _Cluster(a.qubits + b.qubits, np.kron(a.amps, b.amps))
        self._clusters[cid] = merged
        for q in merged.qubits:
            self._cluster_of[q] = cid
        self.peak_cluster_dim = max(self.peak_cluster_dim, merged.dim)

    def _inject_noise(self, gate: Gate, targets: list[QubitId]) -> None:
        p = self.noise_prob
        if p == 0.0:
            return
        if self.noise_model == NOISE_ENTANGLING:
            if gate.kind is GateKind.CNOT and self.rng.random() < p:
                victim = targets[int(self.rng.integers(len(targets)))]
                self._apply_pauli(victim)
        else:
            for q in targets:
                if self.rng.random() < p:
                    self._apply_pauli(q)

    def _apply_pauli(self, q: QubitId) -> None:
        pauli = _PAULIS[int(self.rng.integers(3))]
        self._apply_single(pauli, q)
        self.noise_events += 1

    # -- measurement & consumption ------------------------------------------

    def measure(self, q: QubitId) -> int:
        """Computational-basis measurement; collapses and consumes the qubit."""
        return self._measure(q)

    def bell_measure(self, q1: QubitId, q2: QubitId) -> tuple[int, int]:
        """Bell-basis measurement: CNOT(q1->q2), H(q1), then measure both.

        Consumes both qubits; returns (b1, b2) with b1 from q1.
        """
        if q1 == q2:
            raise ValueError("bell_measure needs two distinct qubits")
        self._require_live(q1)
        self._require_live(q2)
        self._apply_gate(CNOT, [q1, q2])
        self._apply_gate(H, [q1])
        merged = self._cluster_of[q1]
        b1 = self._measure(q1)
        b2 = self._measure(q2)
        if merged in self._clusters:  # other qubits shared the merged cluster
            self._note(merged)
        return b1, b2

    def release(self, q: QubitId) -> None:
        """Discard a qubit (measure-and-forget); partners decohere accordingly."""
        self._measure(q)

    def _measure(self, q: QubitId) -> int:
        self._require_live(q)
        cid = self._cluster_of[q]
        cluster = self._clusters[cid]
        k = len(cluster.qubits)
        pos = cluster.qubits.index(q)
        state = cluster.amps.reshape([2] * k)
        moved = np.moveaxis(state, pos, 0)
        p1 = float(np.sum(np.abs(moved[1]) ** 2))
        p1 = min(max(p1, 0.0), 1.0)
        outcome = 1 if self.rng.random() < p1 else 0
        collapsed = moved[outcome]
        norm = np.linalg.norm(collapsed)
        del self._cluster_of[q]
        self.live_count -= 1
        if k == 1:
            del self._clusters[cid]
        else:
            cluster.qubits.pop(pos)
            cluster.amps = np.ascontiguousarray(collapsed).reshape(-1) / norm
        return outcome

    # -- inspection ----------------------------------------------------------

    def is_live(self, q: QubitId) -> bool:
        return q in self._cluster_of

    def fidelity(self, q: QubitId, reference: Sequence[complex]) -> float:
        """<ref|rho_q|ref> for the qubit's reduced state; non-destructive."""
        self._require_live(q)
        ref = as_state(reference)
        cluster = self._clusters[self._cluster_of[q]]
        k = len(cluster.qubits)
        if k == 1:
            return float(abs(np.vdot(ref, cluster.amps)) ** 2)
        return float(np.real(ref.conj() @ self._reduced(q) @ ref))

    def pair_fidelity(self, q1: QubitId, q2: QubitId, reference: Sequence[complex]) -> float:
        """<ref|rho_{q1,q2}|ref> for a two-qubit reference (q1 is the high bit)."""
        if q1 == q2:
            raise ValueError("pair_fidelity needs two distinct qubits")
        self._require_live(q1)
        self._require_live(q2)
        ref = as_state(reference, n_qubits=2)
        cid1 = self._cluster_of[q1]
        cid2 = self._cluster_of[q2]
        if cid1 == cid2:
            cluster = self._clusters[cid1]
            k = len(cluster.qubits)
            p1 = cluster.qubits.index(q1)
            p2 = cluster.qubits.index(q2)
            state = np.moveaxis(cluster.amps.reshape([2] * k), (p1, p2), (0, 1))
            psi = np.ascontiguousarray(state).reshape(4, -1)
            rho = psi @ psi.conj().T
        else:
            rho = np.kron(self._reduced(q1), self._reduced(q2))
        return float(np.real(ref.conj() @ rho @ ref))

    def _reduced(self, q: QubitId) -> np.ndarray:
        cluster = self._clusters[self._cluster_of[q]]
        k = len(cluster.qubits)
        pos = cluster.qubits.index(q)
        psi = np.moveaxis(cluster.amps.reshape([2] * k), pos, 0).reshape(2, -1)
        return psi @ psi.conj().T

    def cluster_state(self, q: QubitId) -> tuple[tuple[QubitId, ...], np.ndarray]:
        """Qubit ordering and a copy of the amplitude vector of q's cluster."""
        self._require_live(q)
        cluster = self._clusters[self._cluster_of[q]]
        return tuple(cluster.qubits), cluster.amps.copy()

    def cluster_dims(self) -> list[int]:
        return sorted(c.dim for c in self._clusters.values())

    @property
    def cluster_count(self) -> int:
        return len(self._clusters)

    @property
    def total_amplitudes(self) -> int:
        return sum(c.dim for c in self._clusters.values())

    # -- internals -----------------------------------------------------------

    def _require_live(self, q: QubitId) -> None:
        if q not in self._cluster_of:
            raise DeadQubitError(f"qubit {q} is not live (consumed or never allocated)")

    def _note(self, cid: int) -> None:
        # Called at the end of each operation on the one cluster it can have
        # grown; measurement and release only shrink clusters.
        dim = self._clusters[cid].dim
        self.peak_cluster_dim = max(self.peak_cluster_dim, dim)
        self.peak_resident_cluster_dim = max(self.peak_resident_cluster_dim, dim)
