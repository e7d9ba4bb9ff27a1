"""Entanglement distribution by swap-assisted teleportation with XOR-coded
classical messaging.

One round moves one qubit state from every transmitter Tk to its receiver
Rk.  No quantum link Tk--Rk exists, so a neighbor receiver (the assister)
swaps entanglement sourced at M2 onto Tk's own Bell pair; Tk then teleports
its payload and the 2-bit teleport messages cross the M1--M2 bottleneck as
a single XOR-combined message that every receiver can invert locally.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .qstate import Gate, QubitId, StateRegistry, X, Z, as_state
from .simnet import QNetwork, TraceEntry
from .topology import NodeId

SUCCESS_FIDELITY = 1.0 - 1e-9


def xor_combine(messages: Sequence[str]) -> str:
    """Bitwise XOR of all 2-bit messages; this is what crosses the bottleneck."""
    if not messages:
        raise ValueError("cannot combine zero messages")
    return xor_recover(messages[0], messages[1:])


def xor_recover(combined: str, others: Sequence[str]) -> str:
    """Invert the combination: XOR out every message that is not yours."""
    v = int(combined, 2)
    for bits in others:
        v ^= int(bits, 2)
    return f"{v:02b}"


def assign_swappers(n_pairs: int) -> dict[int, NodeId]:
    """Assister for each pair k: the cyclically previous receiver.

    A_k = R_{k-1} and A_1 = R_N, so every assister differs from its pair's
    own receiver and is quantum-connected to the pair's transmitter.
    """
    if n_pairs < 2:
        raise ValueError("swap assignment needs at least 2 transceiver pairs")
    return {k: NodeId.receiver(k - 1 if k > 1 else n_pairs) for k in range(1, n_pairs + 1)}


def entanglement_swap(reg: StateRegistry, phi_half: QubitId, psi_half: QubitId) -> str:
    """Bell-measure the source half against the transmitter-pair half.

    Teleports psi_half's entanglement onto the transmitter's kept qubit;
    the returned "b1b2" (b1 from the H side) must be applied there.
    """
    b1, b2 = reg.bell_measure(psi_half, phi_half)
    return f"{b1}{b2}"


SwapPolicy = Callable[[QNetwork, StateRegistry, int, NodeId, QubitId, QubitId], str]


def honest_swap(net: QNetwork, reg: StateRegistry, k: int, assister: NodeId,
                phi_half: QubitId, psi_half: QubitId) -> str:
    """Swap policy of a faithful assister: Bell-measure the two halves it was sent."""
    return entanglement_swap(reg, phi_half, psi_half)


def teleport_encode(reg: StateRegistry, state: QubitId, half: QubitId) -> str:
    """Bell-measure payload against the local pair half; consumes both.

    Returns "b1b2", b1 from the H side, like entanglement_swap.
    """
    b1, b2 = reg.bell_measure(state, half)
    return f"{b1}{b2}"


def teleport_decode(reg: StateRegistry, half: QubitId, bits: str) -> QubitId:
    """Apply the conditional corrections (X if b2, then Z if b1) to the held half."""
    if bits[1] == "1":
        reg.apply_gate(X, [half])
    if bits[0] == "1":
        reg.apply_gate(Z, [half])
    return half


def _tag(prefix: str, k: int, role: str = "") -> str:
    return f"{prefix}{k}.{role}" if role else f"{prefix}{k}"


def distribute_entanglements(net: QNetwork, reg: StateRegistry,
                             swap: SwapPolicy = honest_swap) -> dict[int, tuple[QubitId, QubitId]]:
    """Phase one: leave every (Tk, Rk) holding an exact shared Bell pair.

    Per pair: Tk makes a pair and sends one half to the assister; M2 makes a
    pair and sends its halves to the assister and to Rk; the assister
    Bell-measures its two halves (through ``swap``) and sends the 2
    correction bits straight to Tk, which applies them.  The M1--M2
    bottleneck is never used here.  A dishonest ``swap`` policy breaks the
    promise of exact pairs, which is what the insider attack in qsre does.
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

    pairs: dict[int, tuple[QubitId, QubitId]] = {}
    for k in range(1, n + 1):
        t = NodeId.transmitter(k)
        kept = net.holdings(t)[_tag("phi", k, "keep")]
        teleport_decode(reg, kept, net.inventories[t].message(_tag("swap", k)))
        pairs[k] = (kept, net.holdings(NodeId.receiver(k))[_tag("psi", k, "own")])
    return pairs


@dataclass
class RoundResult:
    fidelities: list[float] = field(default_factory=list)
    successes: list[bool] = field(default_factory=list)
    all_success: bool = False
    peak_usage: int = 0        # sum over nodes of per-node peak holdings
    peak_alloc: int = 0        # network-wide simultaneous live qubits
    trace: list[TraceEntry] = field(default_factory=list)
    error: str | None = None


def run_round(net: QNetwork, reg: StateRegistry,
              input_states: Sequence[Sequence[complex]],
              rotations: Sequence[Gate | None] | None = None,
              swap: SwapPolicy = honest_swap) -> RoundResult:
    """One full protocol round on a fresh/reset network.

    input_states: one payload state per pair.  rotations: optional per-pair
    rotation gate, applied at the transmitter and inverted at the receiver.
    swap: the assisters' policy during distribution.  A pair succeeds when
    the receiver-side fidelity reaches 1 within 1e-9.
    """
    n = net.topology.n_pairs
    if len(input_states) != n:
        raise ValueError(f"need {n} input states, got {len(input_states)}")
    if rotations is not None and len(rotations) != n:
        raise ValueError(f"need {n} rotation entries, got {len(rotations)}")
    states = [as_state(s) for s in input_states]  # before any qubit exists
    result = RoundResult()
    try:
        distribute_entanglements(net, reg, swap)

        relay = NodeId.relay()
        source = NodeId.source()
        for k in range(1, n + 1):
            t = NodeId.transmitter(k)
            payload = reg.alloc_qubit(states[k - 1])
            net.deposit(t, _tag("eta", k), payload)
            if rotations is not None and rotations[k - 1] is not None:
                reg.apply_gate(rotations[k - 1], [payload])
            state_q = net.take(t, _tag("eta", k))
            kept = net.take(t, _tag("phi", k, "keep"))
            msg = teleport_encode(reg, state_q, kept)
            net.broadcast_classical(t, msg, _tag("B", k))
        net.run_until_idle()

        combined = xor_combine(net.inventories[relay].messages_tagged("B"))
        net.send_classical(relay, source, combined, "combined")
        net.run_until_idle()

        net.broadcast_classical(source, combined, "combined", exclude=[relay])
        net.run_until_idle()

        for k in range(1, n + 1):
            r = NodeId.receiver(k)
            inbox = net.inventories[r]
            own = xor_recover(inbox.message("combined"), inbox.messages_tagged("B"))
            half = net.take(r, _tag("psi", k, "own"))
            teleport_decode(reg, half, own)
            if rotations is not None and rotations[k - 1] is not None:
                reg.apply_gate(rotations[k - 1].inverse(), [half])
            fid = reg.fidelity(half, states[k - 1])
            result.fidelities.append(fid)
            result.successes.append(fid >= SUCCESS_FIDELITY)
            reg.release(half)
        result.all_success = all(result.successes)
    except Exception as exc:  # a failed round is a failed trial, with diagnostic
        result.error = f"{type(exc).__name__}: {exc}"
        result.all_success = False
    result.peak_usage = net.peak_usage_total()
    result.peak_alloc = reg.peak_alloc
    result.trace = list(net.trace)
    return result
