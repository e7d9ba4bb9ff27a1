"""Entanglement distribution by swap-assisted teleportation with XOR-coded
classical messaging.

One round moves one qubit state from every transmitter Tk to its receiver
Rk.  No quantum link Tk--Rk exists, so a neighbor receiver (the assister)
swaps entanglement sourced at M2 onto Tk's own Bell pair; Tk then teleports
its payload and the 2-bit teleport messages cross the M1--M2 bottleneck as
a single XOR-combined message that every receiver can invert locally.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import repeat
from operator import xor
from typing import Callable, Sequence

from .qstate import Gate, QubitId, StateRegistry, X, Z, as_state
from .simnet import QNetwork, TraceEntry
from .topology import NodeId

SUCCESS_FIDELITY = 1.0 - 1e-9


def xor_combine(messages: Sequence[str]) -> str:
    """Bitwise XOR of 2-bit messages: the relay's bottleneck message from every
    broadcast, or a receiver's own from that and the broadcasts it overheard."""
    if not messages:
        raise ValueError("cannot combine zero messages")
    return f"{functools.reduce(xor, map(int, messages, repeat(2))):02b}"


def assign_swappers(n_pairs: int) -> dict[int, NodeId]:
    """Assister for each pair k: the cyclically previous receiver.

    A_k = R_{k-1} and A_1 = R_N, so every assister differs from its pair's
    own receiver and is quantum-connected to the pair's transmitter.
    """
    if n_pairs < 2:
        raise ValueError("swap assignment needs at least 2 transceiver pairs")
    return {k: NodeId.receiver(k - 1 if k > 1 else n_pairs) for k in range(1, n_pairs + 1)}


def teleport_encode(reg: StateRegistry, state: QubitId, half: QubitId) -> str:
    """Bell-measure payload against the local pair half, consuming both; returns
    "b1b2", b1 from the H side.  Entanglement swapping is this same step with
    one half of a Bell pair as the payload."""
    b1, b2 = reg.bell_measure(state, half)
    return f"{b1}{b2}"


def teleport_decode(reg: StateRegistry, half: QubitId, bits: str) -> None:
    """Apply the conditional corrections (X if b2, then Z if b1) to the held half."""
    if bits[1] == "1":
        reg.apply_gate(X, [half])
    if bits[0] == "1":
        reg.apply_gate(Z, [half])


def read_out(reg: StateRegistry, half: QubitId, bits: str, rotation: Gate | None,
             reference: Sequence[complex]) -> float:
    """Correct the half by its teleport bits, undo the rotation if any, and
    release the half; returns its fidelity to the reference.  A receiver
    reads out its payload this way, and so does the eavesdropper in qsre."""
    teleport_decode(reg, half, bits)
    if rotation is not None:
        reg.apply_gate(rotation.inverse(), [half])
    fidelity = reg.fidelity(half, reference)
    reg.release(half)
    return fidelity


SwapPolicy = Callable[[QNetwork, StateRegistry, int, NodeId, QubitId, QubitId], str]


def honest_swap(net: QNetwork, reg: StateRegistry, k: int, assister: NodeId,
                phi_half: QubitId, psi_half: QubitId) -> str:
    """Swap policy of a faithful assister: teleport the source half's
    entanglement onto the transmitter's kept qubit, which applies the bits."""
    return teleport_encode(reg, psi_half, phi_half)


@functools.lru_cache(maxsize=None)  # a round asks for 21 tags per pair
def _tag(prefix: str, k: int, role: str = "") -> str:
    return f"{prefix}{k}.{role}" if role else f"{prefix}{k}"


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
    n = net.topology.n_pairs
    swappers = assign_swappers(n)
    source = NodeId.source()
    for k in range(1, n + 1):
        t = NodeId.transmitter(k)
        keep, give = reg.create_bell_pair()
        net.deposit(t, _tag("phi", k, "keep"), keep)
        net.deposit(t, _tag("phi", k, "give"), give)
        net.send_qubit(t, swappers[k], _tag("phi", k, "give"), _tag("phi", k, "swap"))
        left, right = reg.create_bell_pair()
        net.deposit(source, _tag("psi", k, "assist"), left)
        net.deposit(source, _tag("psi", k, "own"), right)
        net.send_qubit(source, swappers[k], _tag("psi", k, "assist"), _tag("psi", k, "swap"))
        net.send_qubit(source, NodeId.receiver(k), _tag("psi", k, "own"), _tag("psi", k, "own"))
    net.run_until_idle()

    for k in range(1, n + 1):
        assister = swappers[k]
        phi_half = net.take(assister, _tag("phi", k, "swap"))
        psi_half = net.take(assister, _tag("psi", k, "swap"))
        msg = swap(net, reg, k, assister, phi_half, psi_half)
        net.send_classical(assister, NodeId.transmitter(k), msg, _tag("swap", k))
    net.run_until_idle()

    for k in range(1, n + 1):
        t = NodeId.transmitter(k)
        kept = net.qubits[t][_tag("phi", k, "keep")]
        teleport_decode(reg, kept, net.message(t, _tag("swap", k)))


def teleport_payloads(net: QNetwork, reg: StateRegistry, states: Sequence[Sequence[complex]],
                      rotations: Sequence[Gate | None]) -> None:
    """Phase two: each Tk rotates and teleports its payload, broadcasting the bits."""
    for k, (state, rotation) in enumerate(zip(states, rotations), 1):
        t = NodeId.transmitter(k)
        payload = reg.alloc_qubit(state)
        net.deposit(t, _tag("eta", k), payload)
        if rotation is not None:
            reg.apply_gate(rotation, [payload])
        state_q, kept = net.take(t, _tag("eta", k)), net.take(t, _tag("phi", k, "keep"))
        net.broadcast_classical(t, teleport_encode(reg, state_q, kept), _tag("B", k))
    net.run_until_idle()


def relay_combined(net: QNetwork) -> None:
    """Phase three: M1 XORs the broadcasts into the one message that crosses
    the bottleneck, and M2 broadcasts it to every receiver."""
    relay, source = NodeId.relay(), NodeId.source()
    combined = xor_combine(net.messages_tagged(relay, "B"))
    net.send_classical(relay, source, combined, "combined")
    net.run_until_idle()
    net.broadcast_classical(source, combined, "combined", exclude=[relay])
    net.run_until_idle()


def decode_payloads(net: QNetwork, reg: StateRegistry, states: Sequence[Sequence[complex]],
                    rotations: Sequence[Gate | None]) -> list[float]:
    """Phase four: each Rk XORs out the broadcasts it overheard and reads out
    its pair half with them; returns each fidelity."""
    fidelities = []
    for k, (state, rotation) in enumerate(zip(states, rotations), 1):
        r = NodeId.receiver(k)
        own = xor_combine([net.message(r, "combined"), *net.messages_tagged(r, "B")])
        fidelities.append(read_out(reg, net.take(r, _tag("psi", k, "own")), own, rotation, state))
    return fidelities


@dataclass
class RoundResult:
    fidelities: list[float] = field(default_factory=list)
    peak_usage: int = 0        # sum over nodes of per-node peak holdings
    peak_alloc: int = 0        # network-wide simultaneous live qubits
    trace: list[TraceEntry] = field(default_factory=list)
    error: str | None = None

    @property
    def all_success(self) -> bool:
        return self.error is None and all(f >= SUCCESS_FIDELITY for f in self.fidelities)


def run_round(net: QNetwork, reg: StateRegistry,
              input_states: Sequence[Sequence[complex]],
              rotations: Sequence[Gate | None] | None = None,
              swap: SwapPolicy = honest_swap) -> RoundResult:
    """One full protocol round on a fresh/reset network: its four phases.

    input_states: one payload state per pair.  rotations: optional per-pair
    rotation gate, applied at the transmitter and inverted at the receiver.
    swap: the assisters' policy during distribution.  A pair succeeds when
    the receiver-side fidelity reaches 1 within 1e-9.  A round that ends
    with a message queued, a qubit in flight, or a live qubit no node holds
    fails with an error starting "round end".  ``trace`` is the network's
    own list, which the next ``reset`` replaces rather than clears.
    """
    n = net.topology.n_pairs
    if len(input_states) != n:
        raise ValueError(f"need {n} input states, got {len(input_states)}")
    if rotations is None:
        rotations = [None] * n
    elif len(rotations) != n:
        raise ValueError(f"need {n} rotation entries, got {len(rotations)}")
    states = [as_state(s) for s in input_states]  # before any qubit exists
    result = RoundResult()
    try:
        distribute_entanglements(net, reg, swap)
        teleport_payloads(net, reg, states, rotations)
        relay_combined(net)
        result.fidelities = decode_payloads(net, reg, states, rotations)
        result.error = _custody_error(net, reg)
    except Exception as exc:  # a failed round is a failed trial, with diagnostic
        result.error = f"{type(exc).__name__}: {exc}"
    result.peak_usage = net.peak_usage_total()
    result.peak_alloc = reg.peak_alloc
    result.trace = net.trace  # reset() starts a new list, so this one stays as is
    return result


def _custody_error(net: QNetwork, reg: StateRegistry) -> str | None:
    """Round-end invariant: nothing queued or in flight, and every live qubit
    is held by a node (an attacker's retained qubit is held at its node)."""
    held, in_flight = sum(map(len, net.qubits.values())), net.in_flight
    if net.pending or in_flight or reg.live_count != held:
        return (f"round end: {reg.live_count} live qubits, {held} held, "
                f"{in_flight} in flight, {net.pending} queued")
    return None
