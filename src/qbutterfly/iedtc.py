"""Entanglement distribution by swap-assisted teleportation with XOR-coded
classical messaging.

One round moves one qubit state from every transmitter Tk to its receiver
Rk.  No quantum link Tk--Rk exists, so a neighbor receiver (the assister)
swaps entanglement sourced at M2 onto Tk's own Bell pair; Tk then teleports
its payload and the 2-bit teleport messages cross the M1--M2 bottleneck as
a single XOR-combined message that every receiver can invert locally.  A
round runs in every lane of its registry (see ``qstate``): the network runs
once, a classical payload holds one bit string per lane, and encoding,
corrections and read-out run per lane, each a public registry method that
returns a value per lane.  Payload states pass ``as_state`` once, in ``run_round``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import xor
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .qstate import Gate, QubitId, StateRegistry, X, Z, as_state
from .simnet import NetworkError, QNetwork, Trace
from .topology import NodeId

SUCCESS_FIDELITY = 1.0 - 1e-9


_TWO_BITS = ("00", "01", "10", "11")
_TWO_BIT_VALUE = {m: v for v, m in enumerate(_TWO_BITS)}


def xor_combine(messages: Sequence[str]) -> str:
    """Bitwise XOR of 2-bit messages: M1's bottleneck message from every pair's
    broadcast, or Rk's own bits from that and every other pair's broadcast."""
    if not messages:
        raise ValueError("cannot combine zero messages")
    try:
        return _TWO_BITS[reduce(xor, map(_TWO_BIT_VALUE.__getitem__, messages))]
    except (KeyError, TypeError):
        raise ValueError(f"XOR combines 2-bit messages only, got {list(messages)!r}") from None


def teleport_encode(reg: StateRegistry, state: QubitId, half: QubitId) -> tuple[str, ...]:
    """Bell-measure payload against the local pair half, consuming both;
    returns each lane's "b1b2", b1 from the H side.  Entanglement swapping is
    this same step with one half of a Bell pair as the payload."""
    return tuple(map(_TWO_BITS.__getitem__, reg.bell_measure(state, half)))


def teleport_decode(reg: StateRegistry, half: QubitId, bits: Sequence[str]) -> None:
    """Correct the held half in each lane by that lane's bits (X if b2, then Z if b1)."""
    if len(bits) != len(reg.lanes):
        raise ValueError(f"need one pair of bits per lane ({len(reg.lanes)}), got {len(bits)}")
    for lane, b in enumerate(bits):
        if b[1] == "1":
            reg.apply_gate(X, (half,), lane)
        if b[0] == "1":
            reg.apply_gate(Z, (half,), lane)


def read_out(reg: StateRegistry, half: QubitId, bits: Sequence[str], rotation: Gate | None,
             references: Sequence[np.ndarray]) -> list[float]:
    """Correct the half by its teleport bits, undo the rotation if any, and
    release the half; returns each lane's fidelity to its reference (from
    ``as_state``).  A receiver reads out its payload this way, and so does qsre's eavesdropper."""
    teleport_decode(reg, half, bits)
    if rotation is not None:
        reg.apply_gate(rotation.inverse(), (half,))
    fidelities = reg.fidelity(half, references)
    reg.release(half)
    return fidelities


class Pair(NamedTuple):
    """One transceiver pair's nodes and the tags its round uses."""
    k: int
    t: NodeId
    r: NodeId
    assister: NodeId
    phi_keep: str   # Tk's kept half of its own pair
    phi_swap: str   # Tk's half for the assister, under this tag at both
    psi_own: str    # M2's half for Rk, under this tag at both
    psi_swap: str   # M2's half for the assister, under this tag at both
    swap: str       # the assister's 2 correction bits to Tk
    eta: str        # Tk's payload
    broadcast: str  # Tk's teleport bits, broadcast to its neighbours


@lru_cache(maxsize=None)  # one table per network size, shared by every round
def pair_table(n_pairs: int) -> tuple[Pair, ...]:
    """Each pair's record, pair k at index k - 1.  Pair k's assister is R_{k-1}
    and pair 1's is R_N: never the pair's own receiver, always Tk's neighbour."""
    if n_pairs < 2:
        raise ValueError("swap assignment needs at least 2 transceiver pairs")
    return tuple(Pair(k, NodeId.transmitter(k), NodeId.receiver(k),
                      NodeId.receiver(k - 1 if k > 1 else n_pairs),
                      f"phi{k}.keep", f"phi{k}.swap", f"psi{k}.own", f"psi{k}.swap",
                      f"swap{k}", f"eta{k}", f"B{k}")
                 for k in range(1, n_pairs + 1))


SwapPolicy = Callable[[QNetwork, StateRegistry, Pair, QubitId, QubitId], tuple[str, ...]]


def honest_swap(net: QNetwork, reg: StateRegistry, pair: Pair,
                phi_half: QubitId, psi_half: QubitId) -> tuple[str, ...]:
    """Swap policy of a faithful assister: teleport the source half's
    entanglement onto the transmitter's kept qubit, which applies the bits."""
    return teleport_encode(reg, psi_half, phi_half)


def distribute_entanglements(net: QNetwork, reg: StateRegistry,
                             swap: SwapPolicy = honest_swap) -> None:
    """Phase one: leave every (Tk, Rk) holding an exact shared Bell pair.

    Per pair: Tk makes a pair and sends one half to the assister; M2 makes a
    pair and sends its halves to the assister and to Rk; the assister
    Bell-measures its two halves (through ``swap``) and sends the 2
    correction bits straight to Tk, which applies them to "phi{k}.keep"; Rk
    holds "psi{k}.own".  The M1--M2 bottleneck is never used here.  A
    dishonest ``swap`` policy breaks the promise of exact pairs, which is
    what the insider attack in qsre does.
    """
    pairs = pair_table(net.topology.n_pairs)
    source = NodeId.source()
    for p in pairs:
        keep, give = reg.create_bell_pair()
        net.deposit(p.t, p.phi_keep, keep)
        net.deposit(p.t, p.phi_swap, give)
        net.send_qubit(p.t, p.assister, p.phi_swap)
        left, right = reg.create_bell_pair()
        net.deposit(source, p.psi_swap, left)
        net.deposit(source, p.psi_own, right)
        net.send_qubit(source, p.assister, p.psi_swap)
        net.send_qubit(source, p.r, p.psi_own)
    net.run_until_idle()

    for p in pairs:
        phi_half = net.take(p.assister, p.phi_swap)
        psi_half = net.take(p.assister, p.psi_swap)
        net.send_classical(p.assister, p.t, swap(net, reg, p, phi_half, psi_half), p.swap)
    net.run_until_idle()

    for p in pairs:
        teleport_decode(reg, net.qubits[p.t][p.phi_keep], net.message(p.t, p.swap))


def teleport_payloads(net: QNetwork, reg: StateRegistry, states: Sequence[Sequence[np.ndarray]],
                      rotations: Sequence[Gate | None]) -> None:
    """Phase two: each Tk rotates and teleports its payload (a state per
    lane, which ``run_round`` checked), broadcasting the bits."""
    for p, state, rotation in zip(pair_table(net.topology.n_pairs), states, rotations):
        payload = reg.alloc_qubit(state)
        net.deposit(p.t, p.eta, payload)
        if rotation is not None:
            reg.apply_gate(rotation, (payload,))
        state_q, kept = net.take(p.t, p.eta), net.take(p.t, p.phi_keep)
        net.broadcast_classical(p.t, teleport_encode(reg, state_q, kept), p.broadcast)
    net.run_until_idle()


def relay_combined(net: QNetwork) -> None:
    """Phase three: M1 XORs each pair's broadcast, read by its tag, into the one
    bottleneck message; M2 relays what it received.  A lost message raises."""
    relay, source = NodeId.relay(), NodeId.source()
    broadcasts = [net.message(relay, p.broadcast) for p in pair_table(net.topology.n_pairs)]
    net.send_classical(relay, source, tuple(map(xor_combine, zip(*broadcasts))), "combined")
    net.run_until_idle()
    net.broadcast_classical(source, net.message(source, "combined"), "combined", exclude=[relay])
    net.run_until_idle()


def decode_payloads(net: QNetwork, reg: StateRegistry, states: Sequence[Sequence[np.ndarray]],
                    rotations: Sequence[Gate | None]) -> list[float]:
    """Phase four: each Rk XORs every other pair's broadcast, read by its tag, out
    of "combined" and reads out its half; a lost message raises.  Returns the
    fidelities pair by pair, each pair's lanes in order."""
    pairs = pair_table(net.topology.n_pairs)
    tags, fidelities = [p.broadcast for p in pairs], []
    for k, (p, refs, rotation) in enumerate(zip(pairs, states, rotations)):
        box, reads = net.inbox[p.r], ("combined", *tags[:k], *tags[k + 1:])
        try:
            own = [xor_combine([box[tag][lane] for tag in reads]) for lane in reg.lanes]
        except KeyError as lost:
            raise NetworkError(f"{p.r} has no message tagged {lost.args[0]!r}") from None
        fidelities += read_out(reg, net.take(p.r, p.psi_own), own, rotation, refs)
    return fidelities


@dataclass
class RoundResult:
    fidelities: list[float] = field(default_factory=list)  # pair by pair, a lane each
    peak_usage: int = 0        # sum over nodes of per-node peak holdings
    peak_alloc: int = 0        # network-wide simultaneous live qubits
    trace: Trace = Trace([])  # net.trace: entries are built when iterated
    error: str | None = None

    @property
    def all_success(self) -> bool:
        return self.error is None and all(f >= SUCCESS_FIDELITY for f in self.fidelities)


def run_round(net: QNetwork, reg: StateRegistry,
              input_states: Sequence[Sequence[complex]],
              rotations: Sequence[Gate | None] | None = None,
              swap: SwapPolicy = honest_swap) -> RoundResult:
    """One full protocol round on a fresh/reset network: its four phases, in
    every lane of ``reg``.

    input_states: one payload per pair, each one state for every lane or
    each one state per lane.  rotations: optional per-pair rotation gate,
    applied at the transmitter and inverted at the receiver in every lane.
    swap: the assisters' policy during distribution.  A pair succeeds when
    the receiver-side fidelity reaches 1 within 1e-9.  A round that ends
    with a message queued, a qubit in flight, or a live qubit no node holds
    fails with an error starting "round end".  ``trace`` is ``net.trace``
    itself, a sized iterable of the round's deliveries; it builds each
    ``TraceEntry`` when iterated, and the next ``reset`` leaves it as it is.
    """
    n = net.topology.n_pairs
    if len(input_states) != n:
        raise ValueError(f"need {n} input states, got {len(input_states)}")
    if rotations is None:
        rotations = [None] * n
    elif len(rotations) != n:
        raise ValueError(f"need {n} rotation entries, got {len(rotations)}")
    states = _lane_states(input_states, len(reg.lanes))  # before any qubit exists
    result = RoundResult()
    try:
        distribute_entanglements(net, reg, swap)
        teleport_payloads(net, reg, states, rotations)
        relay_combined(net)
        result.fidelities = decode_payloads(net, reg, states, rotations)
        result.error = _custody_error(net, reg)
    except Exception as exc:  # a failed round is a failed trial, with diagnostic
        result.error = f"{type(exc).__name__}: {exc}"
    result.peak_usage = sum(net.node_peaks.values())
    result.peak_alloc = reg.peak_alloc
    result.trace = net.trace  # reset() starts a new view, so this one stays as is
    return result


def _lane_states(payloads, lanes: int) -> list[list[np.ndarray]]:
    """Each pair's payload, checked, in each lane: one state for all or one per lane."""
    if np.ndim(payloads[0]) < 2:
        return [[as_state(s)] * lanes for s in payloads]
    if any(len(payload) != lanes for payload in payloads):
        raise ValueError(f"need one payload state per lane ({lanes}) for every pair")
    return [[as_state(s) for s in payload] for payload in payloads]


def _custody_error(net: QNetwork, reg: StateRegistry) -> str | None:
    """Round-end invariant: nothing queued or in flight, and every live qubit
    is held by a node (an attacker's retained qubit is held at its node)."""
    held, in_flight = sum(map(len, net.qubits.values())), net.in_flight
    if net.pending or in_flight or reg.live_count != held:
        return (f"round end: {reg.live_count} live qubits, {held} held, "
                f"{in_flight} in flight, {net.pending} queued")
    return None
