"""Key-driven rotation encoding of teleported states, and the insider
eavesdropping attack it defends against.

A key chunk of 2+D bits picks a rotation gate, and ``rotation_gate`` is the
one place that reads a chunk: bit 0 chooses the axis (0 -> rx, 1 -> ry),
bit 1 the sign (1 -> negative), and the remaining D bits (MSB first) a
magnitude d, giving angle sign * pi / (1 + d).  The transmitter rotates the
payload before teleporting; the intended receiver, holding the same key,
applies the gate's inverse.  An eavesdropper who captured the raw teleported
state must guess among 2 * 2 * 2**D rotations.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .iedtc import (
    SUCCESS_FIDELITY,
    Pair,
    honest_swap,
    pair_table,
    read_out,
    run_round,
    teleport_encode,
)
from .qstate import Gate, QubitId, StateRegistry, random_state, rx, ry
from .simnet import QNetwork

EAVESDROP_THRESHOLD = 0.99


@functools.lru_cache(maxsize=1024)  # every chunk of 3..8 bits (504), not unbounded 65-bit keys
def rotation_gate(chunk: str) -> Gate:
    """The rx or ry gate a key chunk of 2 + D bits names (frozen, so shared)."""
    if len(chunk) < 3 or any(c not in "01" for c in chunk):
        raise ValueError(f"rotation chunk needs >= 3 bits of 0/1, got {chunk!r}")
    sign = -1.0 if chunk[1] == "1" else 1.0
    angle = sign * math.pi / (1 + int(chunk[2:], 2))
    return ry(angle) if chunk[0] == "1" else rx(angle)


def derive_rotation(key: str, magnitude_bits: int, i: int) -> Gate:
    """Rotation for the i-th message under this key.

    The key is read as complete chunks of 2 + magnitude_bits bits, used
    cyclically; a trailing partial chunk is never used.
    """
    w = 2 + magnitude_bits
    num_chunks = len(key) // w
    if num_chunks == 0:
        raise ValueError(f"key holds no complete chunk of width {w}")
    j = i % num_chunks
    return rotation_gate(key[j * w:(j + 1) * w])


def random_guess(magnitude_bits: int, rng: np.random.Generator) -> Gate:
    """Uniform draw over the 2 * 2 * 2**magnitude_bits possible rotations."""
    if magnitude_bits < 1:
        raise ValueError("magnitude_bits must be >= 1")
    axis = int(rng.integers(2))
    sign = int(rng.integers(2))
    magnitude = int(rng.integers(2 ** magnitude_bits))
    return rotation_gate(f"{axis}{sign}{magnitude:0{magnitude_bits}b}")


def load_key_file(path: str) -> str:
    """Read a key file: '0'/'1' characters, whitespace/newlines ignored."""
    with open(path, "r", encoding="ascii") as fh:
        bits = "".join(fh.read().split())
    if not bits:
        raise ValueError(f"key file {path!r} contains no bits")
    if any(c not in "01" for c in bits):
        raise ValueError(f"key file {path!r} contains non-bit characters")
    return bits


@dataclass
class AttackStats:
    trials: int
    eavesdrop_successes: int
    legit_successes: int


def substituting_swap(net: QNetwork, reg: StateRegistry, pair: Pair,
                      phi_half: QubitId, psi_half: QubitId) -> str:
    """Swap policy of a malicious assister on pair 1; honest on every other pair.

    It Bell-measures a half of its own fresh pair against the transmitter's
    half, so the transmitter unknowingly shares a pair with the attacker,
    keeps the other half in the slot the source half arrived in, and
    discards the source half, leaving the real receiver with a decoy.
    Creating the pair before the swap and discarding after it keeps the
    registry's random draws in the order of the honest round.
    """
    if pair.k != 1:
        return honest_swap(net, reg, pair, phi_half, psi_half)
    keep, give = reg.create_bell_pair()
    net.deposit(pair.assister, pair.psi_swap, keep)
    msg = teleport_encode(reg, give, phi_half)
    reg.release(psi_half)
    return msg


def run_attack(net: QNetwork, reg: StateRegistry, magnitude_bits: int,
               use_qsre: bool, trials: int, seed: int, *,
               key: str | None = None) -> AttackStats:
    """Insider attack on pair 1: the assisting receiver swaps in its own pair.

    Each trial is an ordinary protocol round run with ``substituting_swap``
    as the assisters' policy; pair 1 carries the payload, the other pairs
    carry |0>.  After the broadcast the attacker reads out its half with
    ``iedtc.read_out``, as a receiver would, using the bits it overheard
    and, under rotation encoding, a uniformly guessed rotation.  Eavesdrop
    success means fidelity >= EAVESDROP_THRESHOLD against the original
    payload; legitimate success keeps the protocol's own exactness bar.  A
    round that fails inside the simulator raises RuntimeError rather than
    counting as a decoy.
    """
    n = net.topology.n_pairs
    attacked = pair_table(n)[0]  # its assister is the eavesdropper
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (1 <= magnitude_bits <= 63):
        raise ValueError(f"magnitude_bits must be in 1..63, got {magnitude_bits}")
    if key is not None and any(c not in "01" for c in key):
        raise ValueError("key must consist of 0/1 characters")
    rng = np.random.default_rng(seed)
    chunk_width = 2 + magnitude_bits
    idle = [[1.0, 0.0]] * (n - 1)
    eve_hits = 0
    legit_hits = 0
    for t in range(trials):
        net.reset()
        payload_ref = random_state(rng)
        if use_qsre:
            if key is not None:
                rotation = derive_rotation(key, magnitude_bits, t)
            else:
                bits = "".join(map(str, rng.integers(0, 2, size=chunk_width).tolist()))
                rotation = rotation_gate(bits)
        else:
            rotation = None
        result = run_round(net, reg, [payload_ref] + idle, [rotation] + [None] * (n - 1),
                           swap=substituting_swap)
        if result.error is not None:
            raise RuntimeError(f"attacked round {t} failed: {result.error}")
        if result.fidelities[0] >= SUCCESS_FIDELITY:
            legit_hits += 1

        # Eve reads out as a connected receiver, with the pair-1 broadcast.
        guess = random_guess(magnitude_bits, rng) if use_qsre else None
        broadcast = net.message(attacked.assister, attacked.broadcast)
        fidelity = read_out(reg, net.take(attacked.assister, attacked.psi_swap), broadcast, guess,
                            payload_ref)
        if fidelity >= EAVESDROP_THRESHOLD:
            eve_hits += 1
    return AttackStats(trials, eve_hits, legit_hits)
