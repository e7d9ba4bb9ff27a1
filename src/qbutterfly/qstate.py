"""Pure-state qubit simulator with entanglement-cluster factoring.

Qubits live in independent clusters (dense complex amplitude vectors).
Only a two-qubit gate can merge clusters, so K Bell pairs cost K
4-amplitude vectors rather than one 4**K-amplitude vector.  This keeps the
qubit memory of a simulated round linear in the number of transceiver
pairs; the round itself still delivers Theta(n**2) messages.

A cluster's first qubit is the high bit of its amplitude index, so qubit q
at position i of a k-qubit cluster has stride 2**(k - 1 - i): the index
step that flips its bit.  A single-qubit gate multiplies its 2x2 matrix,
built once with the Gate, into ``amps.reshape(-1, 2, stride)``, which puts
q's bit on the middle axis, except that X gathers and Z multiplies by
cached signs.  CNOT gathers through a cached permutation, and both
measurements through one cached Gray-code order of the measured bits
(``_gray_order``).  A Bell measurement is one such gather and one
projection: its CNOT and H are never applied.  A Bell pair starts as one
shared read-only (|00>+|11>)/sqrt(2) unless its H drew a fault.  Public
methods check every input; ``iedtc``'s round calls the unchecked steps they
are built from on what it has checked (see ``StateRegistry``).
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
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
_SQ2 = 1.0 / math.sqrt(2.0)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_HADAMARD = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_FIXED = {GateKind.X: _PAULI_X, GateKind.Y: _PAULI_Y, GateKind.Z: _PAULI_Z,
          GateKind.H: _HADAMARD, GateKind.CNOT: None}
# H|0>|0> from the single-qubit kernel's own product, signed zeros included.
_H_ON_00 = (_HADAMARD @ np.eye(4, dtype=complex)[0].reshape(1, 2, 2)).reshape(-1)
_H_ON_00.flags.writeable = False  # shared by Bell pairs; kernels never write amps in place


@dataclass(frozen=True)
class Gate:
    """A gate from the supported set; rotations carry their angle."""

    kind: GateKind
    theta: float | None = None
    # The 2x2 unitary (None for CNOT), built once here; equality, hash and
    # repr see only kind and theta.
    matrix: np.ndarray | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind in _ROTATIONS:
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError(f"{self.kind.value} requires a finite angle, got {self.theta!r}")
            c, s = math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)
            matrix = np.array([[c, -1j * s], [-1j * s, c]] if self.kind is GateKind.RX
                              else [[c, -s], [s, c]], dtype=complex)
        elif self.theta is not None:
            raise ValueError(f"{self.kind.value} takes no angle")
        else:
            matrix = _FIXED[self.kind]
        if matrix is not None:
            matrix.flags.writeable = False  # the gate is frozen, and so is what it applies
        object.__setattr__(self, "matrix", matrix)

    @property
    def arity(self) -> int:
        return 2 if self.kind is GateKind.CNOT else 1

    def inverse(self) -> "Gate":
        """The same rotation with -theta; X, Y, Z, H and CNOT are their own inverses."""
        return self if self.theta is None else _rotation(self.kind, -self.theta)


X = Gate(GateKind.X)
Y = Gate(GateKind.Y)
Z = Gate(GateKind.Z)
H = Gate(GateKind.H)
CNOT = Gate(GateKind.CNOT)
_PAULIS = (X, Y, Z)
_rotation = functools.lru_cache(maxsize=1024)(Gate)  # bounded: angles can be any float


def rx(theta: float) -> Gate:
    """Rotation exp(-i*theta*X/2)."""
    return Gate(GateKind.RX, float(theta))


def ry(theta: float) -> Gate:
    """Rotation exp(-i*theta*Y/2)."""
    return Gate(GateKind.RY, float(theta))


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit pure state (uniform on the Bloch sphere)."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    half = math.acos(z) / 2.0
    return np.array([math.cos(half), np.exp(1j * phi) * math.sin(half)], dtype=complex)


def as_state(amplitudes: Sequence[complex]) -> np.ndarray:
    """The amplitudes as a complex vector; ValueError unless a normalized one-qubit state."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (2,):
        raise ValueError(f"a one-qubit state needs 2 amplitudes, got shape {amps.shape}")
    if not abs(math.sqrt(np.vdot(amps, amps).real) - 1.0) <= NORM_ATOL:  # NaN fails too
        raise ValueError("state vector is not normalized")
    return amps


class _Cluster:
    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: list[QubitId], amps: np.ndarray):
        self.qubits = qubits
        self.amps = amps


@functools.lru_cache(maxsize=None)
def _cnot_permutation(dim: int, control_stride: int, target_stride: int) -> np.ndarray:
    # Gather indices that swap the target's 0 and 1 halves where the control is 1.
    idx = np.arange(dim)
    perm = np.where(idx & control_stride, idx ^ target_stride, idx)
    perm.flags.writeable = False  # the cache hands this one array to every caller
    return perm


# The CNOT kernel's output on H|0>|0>, where each Bell pair with a clean H starts.
_PHI_PLUS = _H_ON_00[_cnot_permutation(4, 2, 1)]
_PHI_PLUS.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _flip_order(dim: int, stride: int) -> np.ndarray:
    # Gather indices of X: swap the qubit's 0 and 1 halves.
    order = np.arange(dim) ^ stride
    order.flags.writeable = False  # the cache hands this one array to every caller
    return order


@functools.lru_cache(maxsize=None)
def _phase_signs(dim: int, stride: int) -> np.ndarray:
    # Z as a product: -1 where the qubit's bit is 1.
    signs = np.where(np.arange(dim) & stride, -1.0, 1.0).astype(complex)
    signs.flags.writeable = False  # the cache hands this one array to every caller
    return signs


@functools.lru_cache(maxsize=None)
def _gray_order(dim: int, *strides: int) -> np.ndarray:
    # Gather indices that list the chosen bits in Gray-code order, the first
    # stride highest, each block holding the other bits in amplitude order.
    idx = np.arange(dim)
    rest = idx[idx & sum(strides) == 0]
    blocks = []
    for i in range(1 << len(strides)):
        code = i ^ (i >> 1)  # its lowest bit selects the last stride
        blocks.append(rest | sum(s for j, s in enumerate(reversed(strides)) if code >> j & 1))
    order = np.concatenate(blocks)
    order.flags.writeable = False  # the cache hands this one array to every caller
    return order


class StateRegistry:
    """Owns every live qubit and its cluster state.

    Each live qubit maps straight to the cluster object that holds it;
    clusters carry no ids, and a cluster lives as long as a qubit maps to it.
    A single-qubit gate on q is ``gate.matrix @ view`` on the (high, q, low)
    view of the module docstring, or the same amplitudes by gather (X) or
    sign product (Z).  CNOT gathers through a cached order that swaps the
    target halves where the control bit is 1, after a merge that appends
    the second cluster's qubits as the low bits.
    Measuring q gathers q's 0 half then its 1 half, draws the outcome from
    the 1 half's weight and keeps the chosen half, renormalized.

    ``bell_measure(q1, q2)`` stands for CNOT(q1->q2), H(q1) and two
    measurements, and makes their draws, but projects once.  It gathers the
    amplitudes into ``lo`` (q1 = 0) and ``hi`` (q1 = 1), each ordered by
    q1 xor q2; the H's branch b1 is ``lo + hi`` or ``lo - hi``, drawn against
    half the weight of ``lo - hi``.  b2 is drawn against the weight of the
    branch's second half over the branch's weight, and the other qubits
    keep the chosen quarter, renormalized.

    Measurement and release consume the QubitId; a consumed id can never be
    used again (no-cloning is enforced by handle death, ids are never reused).

    Each operation is checked once, where it enters: the public methods
    (``alloc_qubit``, ``apply_gate``, ``measure``, ``bell_measure``,
    ``release``, ``fidelity``, ``cluster_state``) validate states, arity,
    distinct targets and liveness.  The steps they are built from
    (``_alloc``, ``_apply_gate``, ``_measure``, ``_fidelity``, the kernels
    and ``_draw_noise``), and ``create_bell_pair``, whose qubits are fresh,
    run unchecked.  Only ``iedtc`` calls the steps: ``run_round`` validates
    each payload once, ``teleport_payloads`` allocates and rotates it, and
    ``teleport_decode`` and ``read_out`` (qsre's eavesdropper's too) correct,
    unrotate and read the fidelity of halves the round holds in custody.

    Noise hook: after each gate, when ``noise_prob`` is nonzero, the
    configured channel may inject Pauli errors, drawn from this registry's
    RNG so runs are seed-deterministic.  Every gate's Paulis are drawn by
    ``_draw_noise(gate, targets)``, the one hook, which returns (qubit,
    Pauli index) pairs; ``_inject_noise`` applies them.  ``bell_measure``
    applies none: a Pauli pushed through its Clifford gates stays a Pauli,
    so on a measured qubit it flips that qubit's bit or is a global phase.
    A flipped bit is drawn against the other branch's weight, so every draw
    meets the probability it meets when the gates run.

    * ``entangling`` (default): with probability ``noise_prob`` per CNOT,
      one Pauli chosen uniformly from {X,Y,Z} lands on one of the two
      participating qubits chosen uniformly.  Single-qubit gates are clean.
    * ``all-gates``: after every gate, independently for each target qubit,
      with probability ``noise_prob`` a uniform Pauli is applied.

    Measurements themselves are noise-free under both models.
    """

    def __init__(self, noise_prob: float = 0.0, seed: int | np.random.Generator = 0,
                 noise_model: str = NOISE_ENTANGLING):
        if not (0.0 <= noise_prob <= 1.0):
            raise ValueError(f"noise_prob must be in [0, 1], got {noise_prob}")
        if noise_model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {noise_model!r}")
        self.noise_prob = float(noise_prob)
        self.noise_model = noise_model
        self.rng = np.random.default_rng(seed)
        self._cluster_of: dict[QubitId, _Cluster] = {}
        self._next_qubit = 0
        self.peak_alloc = 0              # max simultaneous live qubits, any instant
        self.peak_cluster_dim = 0        # max amplitudes in one cluster, any instant
        self.peak_resident_cluster_dim = 0  # same, sampled between operations only
        self.gate_count = 0
        self.noise_events = 0

    # -- allocation ---------------------------------------------------------

    def alloc_qubit(self, amplitudes: Sequence[complex]) -> QubitId:
        """Allocate a fresh qubit in the given normalized single-qubit state."""
        return self._alloc(as_state(amplitudes))

    def _alloc(self, amps: np.ndarray) -> QubitId:
        # Unchecked: amps came from as_state.
        q = QubitId(self._next_qubit)
        self._next_qubit += 1
        cluster = _Cluster([q], amps.copy())
        self._cluster_of[q] = cluster
        if len(self._cluster_of) > self.peak_alloc:
            self.peak_alloc = len(self._cluster_of)
        self._note(cluster)
        return q

    def create_bell_pair(self) -> tuple[QubitId, QubitId]:
        """Allocate two qubits and entangle them into (|00>+|11>)/sqrt(2).

        The pair starts as one cluster holding the CNOT's output, unless H's
        noise hook drew a fault: then H|0>|0> takes the fault and the CNOT
        kernel runs.  Both gates count and both hooks draw in order, so the
        draws and amplitudes are those of two allocations and two gates.
        """
        a, b = QubitId(self._next_qubit), QubitId(self._next_qubit + 1)
        self._next_qubit += 2
        cluster = _Cluster([a, b], _H_ON_00)
        self._cluster_of[a] = self._cluster_of[b] = cluster
        if len(self._cluster_of) > self.peak_alloc:
            self.peak_alloc = len(self._cluster_of)
        self.gate_count += 2
        if self.noise_prob and self._inject_noise(H, (a,)):
            self._apply_cnot(a, b)
        else:
            cluster.amps = _PHI_PLUS
        if self.noise_prob:
            self._inject_noise(CNOT, (a, b))
        self._note(cluster)
        return a, b

    # -- gates --------------------------------------------------------------

    def apply_gate(self, gate: Gate, targets: Sequence[QubitId]) -> None:
        targets = list(targets)
        if len(targets) != gate.arity:
            raise ValueError(f"{gate.kind.value} takes {gate.arity} target(s), got {len(targets)}")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target qubit")
        for q in targets:
            self._require_live(q)
        self._apply_gate(gate, targets)
        if gate.matrix is None:  # only a CNOT's merge can grow a cluster
            self._note(self._cluster_of[targets[0]])

    def _apply_gate(self, gate: Gate, targets: Sequence[QubitId]) -> None:
        # Unchecked: the caller has made sure of arity, distinctness and liveness.
        if gate.matrix is None:
            self._apply_cnot(targets[0], targets[1])
        else:
            self._apply_single(gate, targets[0])
        self.gate_count += 1
        if self.noise_prob:
            self._inject_noise(gate, targets)

    def _apply_single(self, gate: Gate, q: QubitId) -> None:
        cluster = self._cluster_of[q]
        qubits, amps, kind = cluster.qubits, cluster.amps, gate.kind
        stride = 1 << (len(qubits) - 1 - qubits.index(q))
        if kind is GateKind.X:
            cluster.amps = amps[_flip_order(amps.size, stride)]
        elif kind is GateKind.Z:
            cluster.amps = amps * _phase_signs(amps.size, stride)
        else:
            cluster.amps = (gate.matrix @ amps.reshape(-1, 2, stride)).reshape(-1)

    def _apply_cnot(self, control: QubitId, target: QubitId) -> None:
        cluster = self._cluster_of[control]
        if cluster is not self._cluster_of[target]:
            cluster = self._merge(cluster, self._cluster_of[target])
        qubits, amps = cluster.qubits, cluster.amps
        last = len(qubits) - 1
        cluster.amps = amps[_cnot_permutation(amps.size, 1 << (last - qubits.index(control)),
                                              1 << (last - qubits.index(target)))]

    def _merge(self, a: _Cluster, b: _Cluster) -> _Cluster:
        merged = _Cluster(a.qubits + b.qubits, (a.amps.reshape(-1, 1) * b.amps).reshape(-1))
        for q in merged.qubits:
            self._cluster_of[q] = merged
        if merged.amps.size > self.peak_cluster_dim:
            self.peak_cluster_dim = merged.amps.size
        return merged

    def _inject_noise(self, gate: Gate, targets: Sequence[QubitId]) -> bool:
        events = self._draw_noise(gate, targets)
        for q, pauli in events:
            self._apply_single(_PAULIS[pauli], q)
        return bool(events)

    def _draw_noise(self, gate: Gate, targets: Sequence[QubitId]) -> list[tuple[QubitId, int]]:
        # The one noise hook: every gate's Paulis are drawn here, and only
        # when noise_prob > 0.  Returns (qubit, index into _PAULIS) in draw order.
        p, rng = self.noise_prob, self.rng
        events = []
        if self.noise_model == NOISE_ENTANGLING:
            if gate.kind is GateKind.CNOT and rng.random() < p:
                victim = targets[int(rng.integers(len(targets)))]
                events.append((victim, int(rng.integers(3))))
        else:
            for q in targets:
                if rng.random() < p:
                    events.append((q, int(rng.integers(3))))
        self.noise_events += len(events)
        return events

    # -- measurement & consumption ------------------------------------------

    def measure(self, q: QubitId) -> int:
        """Computational-basis measurement; collapses and consumes the qubit."""
        self._require_live(q)
        return self._measure(q)

    def _measure(self, q: QubitId) -> int:
        # Unchecked: q is live.
        cluster = self._cluster_of[q]
        qubits, amps = cluster.qubits, cluster.amps
        half = amps.size >> 1
        halves = amps[_gray_order(amps.size, 1 << (len(qubits) - 1 - qubits.index(q)))]
        ones = halves[half:]
        outcome = 1 if self.rng.random() < np.vdot(ones, ones).real else 0  # the draw is < 1
        del self._cluster_of[q]
        qubits.remove(q)
        if qubits:  # an emptied cluster is dropped with its last qubit
            collapsed = ones if outcome else halves[:half]
            cluster.amps = collapsed / math.sqrt(np.vdot(collapsed, collapsed).real)
        return outcome

    def bell_measure(self, q1: QubitId, q2: QubitId) -> tuple[int, int]:
        """Bell-basis measurement: CNOT(q1->q2), H(q1), then measure both.

        Consumes both qubits; returns (b1, b2) with b1 from q1.  Runs as one
        projection with the draws of those four steps (see the class docstring).
        """
        if q1 == q2:
            raise ValueError("bell_measure needs two distinct qubits")
        self._require_live(q1)
        self._require_live(q2)
        cluster = self._cluster_of[q1]
        if cluster is not self._cluster_of[q2]:
            cluster = self._merge(cluster, self._cluster_of[q2])
        qubits, amps = cluster.qubits, cluster.amps
        last, half = len(qubits) - 1, amps.size >> 1
        gathered = amps[_gray_order(amps.size, 1 << (last - qubits.index(q1)),
                                    1 << (last - qubits.index(q2)))]
        lo, hi = gathered[:half], gathered[half:]
        self.gate_count += 2
        flip1 = flip2 = False
        if self.noise_prob:
            # A Pauli before the measurements only relabels their bits (the
            # rest is a global phase): after the CNOT, Y or Z on q1 flips b1
            # and X or Y on q2 flips b2; after the H, X or Y on q1 flips b1.
            for q, pauli in self._draw_noise(CNOT, (q1, q2)):
                if q == q1:
                    flip1 ^= pauli != 0
                else:
                    flip2 ^= pauli != 2
            for _, pauli in self._draw_noise(H, (q1,)):
                flip1 ^= pauli != 2
        if flip1:  # Z on q1 before the H
            hi = -hi
        # Branch b1 of the H is (lo + (-1)**b1 * hi) / sqrt(2), and its first
        # half has q2 = 0.
        minus = lo - hi
        if self.rng.random() < 0.5 * np.vdot(minus, minus).real:
            b1, branch = 1, minus
        else:
            b1, branch = 0, lo + hi
        zeros, ones = branch[:half >> 1], branch[half >> 1:]
        if flip2:  # X on q2 before its measurement
            zeros, ones = ones, zeros
        w_zeros, w_ones = np.vdot(zeros, zeros).real, np.vdot(ones, ones).real
        b2 = 1 if self.rng.random() < w_ones / (w_zeros + w_ones) else 0
        del self._cluster_of[q1], self._cluster_of[q2]
        qubits.remove(q1)
        qubits.remove(q2)
        if qubits:  # other qubits shared the merged cluster
            cluster.amps = ones / math.sqrt(w_ones) if b2 else zeros / math.sqrt(w_zeros)
            self._note(cluster)
        return b1, b2

    def release(self, q: QubitId) -> None:
        """Discard a qubit (measure-and-forget); partners decohere accordingly.

        A qubit with no partner is dropped without working out an outcome
        that nothing reads, after the one draw its measurement makes, so the
        RNG stream ends where a measurement leaves it.
        """
        self._require_live(q)
        if len(self._cluster_of[q].qubits) > 1:
            self._measure(q)
        else:
            self.rng.random()
            del self._cluster_of[q]

    # -- inspection ----------------------------------------------------------

    @property
    def live_count(self) -> int:
        return len(self._cluster_of)

    def fidelity(self, q: QubitId, reference: Sequence[complex]) -> float:
        """<ref|rho_q|ref> for the qubit's reduced state; non-destructive."""
        self._require_live(q)
        return self._fidelity(q, as_state(reference))

    def _fidelity(self, q: QubitId, ref: np.ndarray) -> float:
        # q is live and ref came from as_state; the cluster's norm is checked as there.
        cluster = self._cluster_of[q]
        if not abs(math.sqrt(np.vdot(cluster.amps, cluster.amps).real) - 1.0) <= NORM_ATOL:
            raise ValueError(f"qubit {q}'s cluster is not normalized")
        qubits = cluster.qubits
        if len(qubits) == 1:
            return float(abs(np.vdot(ref, cluster.amps)) ** 2)
        # q's reduced density matrix: its bit moves from the columns to the rows.
        psi = cluster.amps.reshape(-1, 2, 1 << (len(qubits) - 1 - qubits.index(q)))
        psi = psi.transpose(1, 0, 2).reshape(2, -1)
        return float(np.real(ref.conj() @ (psi @ psi.conj().T) @ ref))

    def cluster_state(self, q: QubitId) -> tuple[tuple[QubitId, ...], np.ndarray]:
        """Qubit ordering and a copy of the amplitude vector of q's cluster."""
        self._require_live(q)
        cluster = self._cluster_of[q]
        return tuple(cluster.qubits), cluster.amps.copy()

    # -- internals -----------------------------------------------------------

    def _require_live(self, q: QubitId) -> None:
        if q not in self._cluster_of:
            raise DeadQubitError(f"qubit {q} is not live (consumed or never allocated)")

    def _note(self, cluster: _Cluster) -> None:
        # Called at the end of each operation on the one cluster it can have
        # grown; single-qubit gates keep a cluster's size, and measurement
        # and release only shrink clusters.
        dim = cluster.amps.size
        if dim > self.peak_resident_cluster_dim:  # never above peak_cluster_dim
            self.peak_resident_cluster_dim = dim
            if dim > self.peak_cluster_dim:
                self.peak_cluster_dim = dim
