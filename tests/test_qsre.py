"""Tests for rotation encoding and the malicious-assister attack.

The Monte-Carlo attack rates are checked against an analytic oracle derived
here independently: for a Haar-random state and a net rotation U, the
fidelity is c^2 + s^2*z^2 with z uniform on [-1, 1], so the probability of
clearing a threshold tau has the closed form used in `expected_attack_rate`.
"""
import itertools
import math

import numpy as np
import pytest

from qbutterfly import qsre
from qbutterfly.qsre import (
    EAVESDROP_THRESHOLD,
    AttackStats,
    Axis,
    PrivateKey,
    RotationSpec,
    derive_rotation,
    load_key_file,
    random_guess,
    rotation_angle,
    run_attack,
)
from qbutterfly.qstate import GateKind, StateRegistry, random_state
from qbutterfly.simnet import QNetwork
from qbutterfly.topology import build_butterfly

# -- analytic oracle -----------------------------------------------------------

_OX = np.array([[0, 1], [1, 0]], dtype=complex)
_OY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _oracle_rotation(axis, theta):
    pauli = _OX if axis is Axis.X else _OY
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * pauli


def _clear_probability(u, tau):
    c = abs(np.trace(u).real) / 2.0
    s2 = max(0.0, 1.0 - c * c)
    if s2 <= 1.0 - tau:
        return 1.0
    return 1.0 - math.sqrt(1.0 - (1.0 - tau) / s2)


def _all_specs(magnitude_bits):
    return [RotationSpec.from_parts(axis, sign, mag)
            for axis, sign, mag in itertools.product(
                (Axis.X, Axis.Y), (0, 1), range(2 ** magnitude_bits))]


def expected_attack_rate(magnitude_bits, targets=None, tau=EAVESDROP_THRESHOLD):
    """Mean success probability over uniform guesses (and targets, if not given)."""
    guesses = _all_specs(magnitude_bits)
    if targets is None:
        targets = guesses
    total = 0.0
    for t in targets:
        rt = _oracle_rotation(t.axis, t.angle)
        for g in guesses:
            rg_inv = _oracle_rotation(g.axis, -g.angle)
            total += _clear_probability(rg_inv @ rt, tau)
    return total / (len(targets) * len(guesses))


# -- rotation derivation ---------------------------------------------------------

def test_rotation_angle_formula_convention():
    assert rotation_angle(0, 0) == pytest.approx(math.pi)
    assert rotation_angle(1, 0) == pytest.approx(-math.pi)
    assert rotation_angle(0, 3) == pytest.approx(math.pi / 4)
    assert rotation_angle(1, 7) == pytest.approx(-math.pi / 8)


def test_rotation_angle_validation():
    with pytest.raises(ValueError):
        rotation_angle(2, 0)
    with pytest.raises(ValueError):
        rotation_angle(0, -1)


def test_spec_from_bits():
    spec = RotationSpec.from_bits("1011")
    assert spec.axis is Axis.Y
    assert spec.sign_bit == 0
    assert spec.magnitude == 3
    assert spec.angle == pytest.approx(math.pi / 4)
    spec = RotationSpec.from_bits("0100")
    assert (spec.axis, spec.sign_bit, spec.magnitude) == (Axis.X, 1, 0)
    assert spec.angle == pytest.approx(-math.pi)
    with pytest.raises(ValueError):
        RotationSpec.from_bits("01")
    with pytest.raises(ValueError):
        RotationSpec.from_bits("01a1")


def test_spec_gates():
    xspec = RotationSpec.from_bits("0011")
    yspec = RotationSpec.from_bits("1011")
    assert xspec.gate().kind is GateKind.RX
    assert yspec.gate().kind is GateKind.RY
    assert xspec.inverse_gate().theta == pytest.approx(-xspec.angle)
    assert xspec == RotationSpec.from_bits("0011")
    assert xspec != yspec


def test_private_key_chunking():
    key = PrivateKey("10110100", magnitude_bits=2)
    assert key.chunk_width == 4
    assert key.num_chunks == 2
    assert key.chunk(0) == "1011"
    assert key.chunk(1) == "0100"
    with pytest.raises(ValueError):
        key.chunk(2)
    # a trailing partial chunk is simply never used
    assert PrivateKey("10110", magnitude_bits=1).num_chunks == 1


def test_private_key_validation():
    with pytest.raises(ValueError):
        PrivateKey("10x1", magnitude_bits=1)
    with pytest.raises(ValueError):
        PrivateKey("1011", magnitude_bits=0)
    with pytest.raises(ValueError):
        PrivateKey("10", magnitude_bits=1)  # shorter than one chunk


def test_derive_rotation_reads_chunks():
    key = PrivateKey("10110100", magnitude_bits=2)
    assert derive_rotation(key, 0) == RotationSpec.from_bits("1011")
    assert derive_rotation(key, 1) == RotationSpec.from_bits("0100")


def test_encode_decode_roundtrip_is_exact():
    rng = np.random.default_rng(31)
    for chunk in ("000", "101", "0111", "110101"):
        reg = StateRegistry()
        ref = random_state(rng)
        q = reg.alloc_qubit(ref)
        spec = RotationSpec.from_bits(chunk)
        reg.apply_gate(spec.gate(), [q])
        reg.apply_gate(spec.inverse_gate(), [q])
        assert reg.fidelity(q, ref) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("magnitude_bits", [1, 2, 3])
def test_attack_rate_is_sign_symmetric(magnitude_bits):
    # The rotation set is closed under inversion and a fidelity depends only
    # on |angle|, so flipping a key's sign bit never changes its exact rate.
    for spec in _all_specs(magnitude_bits):
        flipped = RotationSpec.from_parts(spec.axis, 1 - spec.sign_bit, spec.magnitude)
        assert expected_attack_rate(magnitude_bits, [spec]) == pytest.approx(
            expected_attack_rate(magnitude_bits, [flipped]), abs=1e-12)


def test_wrong_sign_is_invisible_at_magnitude_zero():
    # +pi and -pi rotations differ by a full turn: a sign-only wrong guess
    # still recovers the state perfectly when the magnitude bits are zero.
    reg = StateRegistry()
    ref = random_state(np.random.default_rng(12))
    q = reg.alloc_qubit(ref)
    reg.apply_gate(RotationSpec.from_parts(Axis.X, 0, 0).gate(), [q])
    reg.apply_gate(RotationSpec.from_parts(Axis.X, 1, 0).inverse_gate(), [q])
    assert reg.fidelity(q, ref) == pytest.approx(1.0, abs=1e-12)


def test_random_guess_covers_space_uniformly():
    rng = np.random.default_rng(44)
    counts = {}
    draws = 4000
    for _ in range(draws):
        g = random_guess(1, rng)
        counts[(g.axis, g.sign_bit, g.magnitude)] = counts.get(
            (g.axis, g.sign_bit, g.magnitude), 0) + 1
    assert len(counts) == 8
    for c in counts.values():
        assert abs(c / draws - 0.125) < 0.04
    with pytest.raises(ValueError):
        random_guess(0, rng)


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
    assert stats.eavesdrop_rate == pytest.approx(0.25)
    assert stats.legit_rate == pytest.approx(0.01)


def test_attack_validation():
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry()
    with pytest.raises(ValueError):
        run_attack(net, reg, 1, True, trials=0, seed=1)
    with pytest.raises(ValueError):
        run_attack(net, reg, 0, True, trials=1, seed=1)
    with pytest.raises(ValueError):
        run_attack(net, reg, 2, True, trials=1, seed=1,
                   key=PrivateKey("000", magnitude_bits=1))


def test_attack_without_defense_always_wins():
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry(seed=9)
    stats = run_attack(net, reg, 1, use_qsre=False, trials=100, seed=10)
    assert stats.eavesdrop_rate == 1.0
    assert stats.legit_rate == 0.0
    assert_nothing_left(net, reg)  # every trial cleans up after itself


def assert_nothing_left(net, reg):
    assert reg.live_count == 0
    assert all(not net.holdings(node) for node in net.topology.nodes)
    assert net.pending == 0


def test_attack_raises_when_the_round_fails(monkeypatch):
    def broken_swap(*args):
        raise IndexError("simulated fault in the attacked round")

    monkeypatch.setattr(qsre, "substituting_swap", broken_swap)
    net = QNetwork(build_butterfly(2))
    with pytest.raises(RuntimeError, match="IndexError"):
        run_attack(net, StateRegistry(seed=3), 1, use_qsre=True, trials=5, seed=4)


@pytest.mark.parametrize("magnitude_bits,mc_trials", [(1, 800), (2, 800)])
def test_attack_rate_matches_analytic_oracle(magnitude_bits, mc_trials):
    expected = expected_attack_rate(magnitude_bits)
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry(seed=20 + magnitude_bits)
    stats = run_attack(net, reg, magnitude_bits, use_qsre=True,
                       trials=mc_trials, seed=30 + magnitude_bits)
    sigma = math.sqrt(expected * (1 - expected) / mc_trials)
    assert abs(stats.eavesdrop_rate - expected) < 4 * sigma
    assert stats.legit_rate == 0.0  # the real receiver is left with a decoy


def test_attack_with_fixed_key_cycles_chunks():
    # key of two chunks: (X,0,0) and (Y,0,1); trials alternate between them
    key = PrivateKey("000101", magnitude_bits=1)
    targets = [derive_rotation(key, 0), derive_rotation(key, 1)]
    expected = expected_attack_rate(1, targets=targets)
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry(seed=51)
    stats = run_attack(net, reg, 1, use_qsre=True, trials=600, seed=52, key=key)
    sigma = math.sqrt(expected * (1 - expected) / 600)
    assert abs(stats.eavesdrop_rate - expected) < 4 * sigma


def test_attack_works_on_larger_networks():
    net = QNetwork(build_butterfly(3))
    reg = StateRegistry(seed=61)
    stats = run_attack(net, reg, 1, use_qsre=False, trials=30, seed=62)
    assert stats.eavesdrop_rate == 1.0
    assert stats.legit_rate == 0.0
    assert_nothing_left(net, reg)
