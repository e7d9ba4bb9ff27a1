"""Tests for rotation encoding and the malicious-assister attack.

The Monte-Carlo attack rates are checked against an analytic oracle derived
here independently: for a Haar-random state and a net rotation U, the
fidelity is c^2 + s^2*z^2 with z uniform on [-1, 1], so the probability of
clearing a threshold tau has the closed form used in `expected_attack_rate`.
"""
import math

import numpy as np
import pytest

from qbutterfly import qsre
from qbutterfly.qsre import (
    EAVESDROP_THRESHOLD,
    AttackStats,
    derive_rotation,
    load_key_file,
    random_guess,
    rotation_gate,
    run_attack,
)
from qbutterfly.qstate import (
    NOISE_ALL_GATES,
    NOISE_ENTANGLING,
    Gate,
    GateKind,
    StateRegistry,
    random_state,
    ry,
)
from qbutterfly.simnet import QNetwork
from qbutterfly.topology import build_butterfly

# -- analytic oracle -----------------------------------------------------------

_OX = np.array([[0, 1], [1, 0]], dtype=complex)
_OY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _oracle_rotation(kind, theta):
    pauli = {GateKind.RX: _OX, GateKind.RY: _OY}[kind]
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * pauli


def _clear_probability(u, tau):
    c = abs(np.trace(u).real) / 2.0
    s2 = max(0.0, 1.0 - c * c)
    if s2 <= 1.0 - tau:
        return 1.0
    return 1.0 - math.sqrt(1.0 - (1.0 - tau) / s2)


def _all_specs(magnitude_bits):
    width = 2 + magnitude_bits
    return [rotation_gate(f"{v:0{width}b}") for v in range(2 ** width)]


def expected_attack_rate(magnitude_bits, targets=None, tau=EAVESDROP_THRESHOLD):
    """Mean success probability over uniform guesses (and targets, if not given)."""
    guesses = _all_specs(magnitude_bits)
    if targets is None:
        targets = guesses
    total = 0.0
    for t in targets:
        rt = _oracle_rotation(t.kind, t.theta)
        for g in guesses:
            rg_inv = _oracle_rotation(g.kind, -g.theta)
            total += _clear_probability(rg_inv @ rt, tau)
    return total / (len(targets) * len(guesses))


# -- rotation derivation ---------------------------------------------------------

def test_rotation_gate_angle_convention():
    assert rotation_gate("000").theta == pytest.approx(math.pi)
    assert rotation_gate("010").theta == pytest.approx(-math.pi)
    assert rotation_gate("0011").theta == pytest.approx(math.pi / 4)
    assert rotation_gate("01111").theta == pytest.approx(-math.pi / 8)


def test_spec_from_bits():
    gate = rotation_gate("1011")
    assert gate.kind is GateKind.RY
    assert gate.theta == pytest.approx(math.pi / 4)
    gate = rotation_gate("0100")
    assert gate.kind is GateKind.RX
    assert gate.theta == pytest.approx(-math.pi)
    with pytest.raises(ValueError):
        rotation_gate("01")
    with pytest.raises(ValueError):
        rotation_gate("01a1")


def test_spec_gates():
    xgate = rotation_gate("0011")
    ygate = rotation_gate("1011")
    assert xgate.kind is GateKind.RX
    assert ygate.kind is GateKind.RY
    assert xgate.inverse().theta == pytest.approx(-xgate.theta)
    assert xgate == rotation_gate("0011")
    assert xgate != ygate


def test_rotation_gates_are_shared_from_bounded_caches():
    # Each chunk of 3..8 bits fits the cache; random 65-bit keys must not grow it.
    maxsize = rotation_gate.cache_info().maxsize
    assert maxsize is not None and maxsize >= sum(2 ** w for w in range(3, 9))
    gate = rotation_gate("10110")
    assert rotation_gate("10110") is gate
    assert gate.inverse() is gate.inverse()
    assert gate.inverse() == Gate(gate.kind, -gate.theta) and gate.inverse().inverse() == gate


def test_derive_rotation_reads_chunks():
    key = "10110100"
    assert derive_rotation(key, 2, 0) == rotation_gate("1011")
    assert derive_rotation(key, 2, 1) == rotation_gate("0100")


def test_derive_rotation_cycles_and_skips_the_partial_chunk():
    key = "1011010001"  # two chunks of 4 bits, then "01" that is never used
    assert derive_rotation(key, 2, 2) == derive_rotation(key, 2, 0)
    assert derive_rotation(key, 2, 3) == rotation_gate("0100")
    assert [derive_rotation("10110", 1, i) for i in range(3)] == [rotation_gate("101")] * 3


def test_derive_rotation_needs_a_complete_chunk():
    with pytest.raises(ValueError, match="no complete chunk"):
        derive_rotation("10", 1, 0)
    with pytest.raises(ValueError, match="no complete chunk"):
        derive_rotation("", 1, 0)


def test_encode_decode_roundtrip_is_exact():
    rng = np.random.default_rng(31)
    for chunk in ("000", "101", "0111", "110101"):
        reg = StateRegistry()
        ref = random_state(rng)
        q = reg.alloc_qubit(ref)
        gate = rotation_gate(chunk)
        reg.apply_gate(gate, [q])
        reg.apply_gate(gate.inverse(), [q])
        assert reg.fidelity(q, ref) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("magnitude_bits", [1, 2, 3])
def test_attack_rate_is_sign_symmetric(magnitude_bits):
    # The rotation set is closed under inversion and a fidelity depends only
    # on |angle|, so flipping a key's sign bit never changes its exact rate.
    width = 2 + magnitude_bits
    for v in range(2 ** width):
        chunk = f"{v:0{width}b}"
        flipped = chunk[0] + str(1 - int(chunk[1])) + chunk[2:]
        assert expected_attack_rate(magnitude_bits, [rotation_gate(chunk)]) == pytest.approx(
            expected_attack_rate(magnitude_bits, [rotation_gate(flipped)]), abs=1e-12)


def test_wrong_sign_is_invisible_at_magnitude_zero():
    # +pi and -pi rotations differ by a full turn: a sign-only wrong guess
    # still recovers the state perfectly when the magnitude bits are zero.
    reg = StateRegistry()
    ref = random_state(np.random.default_rng(12))
    q = reg.alloc_qubit(ref)
    reg.apply_gate(rotation_gate("000"), [q])
    reg.apply_gate(rotation_gate("010").inverse(), [q])
    assert reg.fidelity(q, ref) == pytest.approx(1.0, abs=1e-12)


def test_random_guess_covers_space_uniformly():
    rng = np.random.default_rng(44)
    counts = {}
    draws = 4000
    for _ in range(draws):
        g = random_guess(1, rng)
        counts[(g.kind, g.theta)] = counts.get((g.kind, g.theta), 0) + 1
    assert len(counts) == 8
    for c in counts.values():
        assert abs(c / draws - 0.125) < 0.04
    with pytest.raises(ValueError):
        random_guess(0, rng)


def test_widest_key_chunk_reaches_the_top_magnitudes(monkeypatch):
    # 65 total bits, 63 magnitude bits: the widest chunk check_total_bits accepts.
    assert rotation_gate("10" + "1" * 63) == ry(math.pi / 2 ** 63)
    assert rotation_gate("11" + "1" * 63) == ry(-math.pi / 2 ** 63)
    chunks = []

    def recording(chunk):
        chunks.append(chunk)
        return rotation_gate(chunk)

    monkeypatch.setattr(qsre, "rotation_gate", recording)
    rng = np.random.default_rng(63)
    for _ in range(64):
        random_guess(63, rng)
    assert all(len(chunk) == 65 for chunk in chunks)
    assert max(int(chunk[2:], 2) for chunk in chunks) >= 2 ** 62


def test_load_key_file(tmp_path):
    path = tmp_path / "key.txt"
    path.write_text("1011 0100\n01\n")
    assert load_key_file(str(path)) == "1011010001"
    bad = tmp_path / "bad.txt"
    bad.write_text("10z1")
    with pytest.raises(ValueError):
        load_key_file(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text(" \n")
    with pytest.raises(ValueError):
        load_key_file(str(empty))
    with pytest.raises(OSError):
        load_key_file(str(tmp_path / "missing.txt"))


def test_attack_stats_rates():
    stats = AttackStats(trials=200, eavesdrop_successes=50, legit_successes=2)
    assert stats.eavesdrop_successes / stats.trials == pytest.approx(0.25)
    assert stats.legit_successes / stats.trials == pytest.approx(0.01)


def test_attack_validation():
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry()
    with pytest.raises(ValueError):
        run_attack(net, reg, 1, True, trials=0, seed=1)
    with pytest.raises(ValueError):
        run_attack(net, reg, 0, True, trials=1, seed=1)
    with pytest.raises(ValueError):
        run_attack(net, reg, 64, True, trials=1, seed=1)
    with pytest.raises(ValueError):  # "000" holds no complete 4-bit chunk
        run_attack(net, reg, 2, True, trials=1, seed=1, key="000")
    with pytest.raises(ValueError, match="0/1"):  # checked even when no trial reads it
        run_attack(net, reg, 1, False, trials=1, seed=1, key="10x1")


def test_attack_without_defense_always_wins(assert_nothing_left):
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry(seed=9)
    stats = run_attack(net, reg, 1, use_qsre=False, trials=100, seed=10)
    assert stats.eavesdrop_successes / stats.trials == 1.0
    assert stats.legit_successes / stats.trials == 0.0
    assert_nothing_left(net, reg)  # every trial cleans up after itself


def test_attack_raises_when_the_round_fails(monkeypatch):
    def broken_swap(*args):
        raise IndexError("simulated fault in the attacked round")

    monkeypatch.setattr(qsre, "substituting_swap", broken_swap)
    net = QNetwork(build_butterfly(2))
    with pytest.raises(RuntimeError, match="IndexError"):
        run_attack(net, StateRegistry(seed=3), 1, use_qsre=True, trials=5, seed=4)


@pytest.mark.parametrize("magnitude_bits,mc_trials", [(1, 800), (2, 800)])
def test_attack_rate_matches_analytic_oracle(magnitude_bits, mc_trials, assert_nothing_left):
    expected = expected_attack_rate(magnitude_bits)
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry(seed=20 + magnitude_bits)
    stats = run_attack(net, reg, magnitude_bits, use_qsre=True,
                       trials=mc_trials, seed=30 + magnitude_bits)
    sigma = math.sqrt(expected * (1 - expected) / mc_trials)
    assert abs(stats.eavesdrop_successes / stats.trials - expected) < 4 * sigma
    assert stats.legit_successes / stats.trials == 0.0  # the real receiver is left with a decoy
    assert_nothing_left(net, reg)


def test_attack_with_fixed_key_cycles_chunks(assert_nothing_left):
    # key of two chunks: "000" -> rx(pi) and "101" -> ry(pi/2); trials alternate
    key = "000101"
    targets = [derive_rotation(key, 1, 0), derive_rotation(key, 1, 1)]
    expected = expected_attack_rate(1, targets=targets)
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry(seed=51)
    stats = run_attack(net, reg, 1, use_qsre=True, trials=600, seed=52, key=key)
    sigma = math.sqrt(expected * (1 - expected) / 600)
    assert abs(stats.eavesdrop_successes / stats.trials - expected) < 4 * sigma
    assert_nothing_left(net, reg)


@pytest.mark.parametrize("model,hits,counters", [
    (NOISE_ENTANGLING, 3, (350, 21, 14, 16, 4, 0.12441722975576242)),
    (NOISE_ALL_GATES, 2, (357, 86, 14, 16, 4, 0.08280661639561793)),
])
def test_noisy_attack_counters_and_rng_position_are_pinned(model, hits, counters,
                                                           assert_nothing_left):
    # Pinned like test_noisy_round_counters_and_rng_position_are_pinned in
    # test_iedtc, through the attacked round, Eve's pair and her rotations.
    net = QNetwork(build_butterfly(3))
    reg = StateRegistry(0.2, seed=15, noise_model=model)
    stats = run_attack(net, reg, 4, use_qsre=True, trials=10, seed=16)
    assert (stats.eavesdrop_successes, stats.legit_successes) == (hits, 0)
    assert (reg.gate_count, reg.noise_events, reg.peak_alloc, reg.peak_cluster_dim,
            reg.peak_resident_cluster_dim, reg.rng.random()) == counters
    assert_nothing_left(net, reg)


def test_attack_works_on_larger_networks(assert_nothing_left):
    net = QNetwork(build_butterfly(3))
    reg = StateRegistry(seed=61)
    stats = run_attack(net, reg, 1, use_qsre=False, trials=30, seed=62)
    assert stats.eavesdrop_successes / stats.trials == 1.0
    assert stats.legit_successes / stats.trials == 0.0
    assert_nothing_left(net, reg)
