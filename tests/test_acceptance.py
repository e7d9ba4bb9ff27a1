"""Acceptance suite: ten end-to-end checks of the protocol simulator.

Each test prints exactly one PASS/FAIL line (past pytest's capture) so a run
of this file doubles as an acceptance report.  Tolerances are part of the
package's contract and are frozen here; the statistical checks use the
harness's canonical seed (42) so every run is reproducible bit for bit.
"""
import itertools
import math
import time

import numpy as np
import pytest
from conftest import pair_fidelity

from qbutterfly.experiments import (
    ExperimentConfig,
    run_accuracy_sweep,
    run_eavesdrop_sweep,
)
from qbutterfly.iedtc import run_round, teleport_decode, teleport_encode, xor_combine
from qbutterfly.qsre import random_guess, run_attack
from qbutterfly.qstate import StateRegistry, random_state
from qbutterfly.simnet import QNetwork
from qbutterfly.topology import (
    NodeId,
    ResourceTriple,
    build_butterfly,
    link_counts,
    reference_resources,
)

SQ2 = 1.0 / math.sqrt(2.0)
BELL = np.array([SQ2, 0.0, 0.0, SQ2], dtype=complex)

# Published reference points for the round-accuracy curve at 2 transceiver
# pairs, gate-noise 1%..10%; estimates must land within this band.
ACCURACY_ANCHORS_N2 = (0.925, 0.896, 0.839, 0.767, 0.722, 0.693, 0.654,
                       0.600, 0.573, 0.550)
ACCURACY_BAND = 0.07
NOISE_LEVELS = tuple(round(0.01 * i, 2) for i in range(1, 11))


def report(capfd, num, name, passed, detail):
    with capfd.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def noiseless_round(n, seed):
    net = QNetwork(build_butterfly(n))
    reg = StateRegistry(seed=seed)
    rng = np.random.default_rng(seed + 500_000)
    result = run_round(net, reg, [random_state(rng) for _ in range(n)])
    return result, reg


def test_01_noiseless_rounds_are_exact(capfd):
    started = time.perf_counter()
    worst = 0.0
    rounds = 0
    for n in range(2, 11):
        for t in range(200):
            result, _ = noiseless_round(n, seed=n * 1000 + t)
            assert result.error is None, result.error
            rounds += 1
            for fid in result.fidelities:
                worst = max(worst, abs(fid - 1.0))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-9 and elapsed < 60.0
    report(capfd, 1, "noiseless-exactness", passed,
           f"{rounds} rounds, worst fidelity deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_02_resource_counts_match_closed_forms(capfd):
    problems = []
    usage = {}
    for n in range(2, 11):
        total, quantum = link_counts(build_butterfly(n))
        if (total, quantum) != (n * n + n + 1, n * n):
            problems.append(f"links(n={n})=({total},{quantum})")
        if reference_resources("iedtc", n) != ResourceTriple(n * n + n + 1, n * n, 7 * n):
            problems.append(f"iedtc-form(n={n})")
        if reference_resources("benchmark", n) != ResourceTriple(
                3 * n * n + 5 * n + 2, 2 * n * n + 5 * n + 2, 2 * n * n + 3 * n + 1):
            problems.append(f"benchmark-form(n={n})")
        result, _ = noiseless_round(n, seed=90_000 + n)
        usage[n] = result.peak_usage
        if result.peak_usage > 7 * n:
            problems.append(f"usage(n={n})={result.peak_usage}>7n")
    if usage[2] != 14:
        problems.append(f"usage(n=2)={usage[2]}!=14")
    if usage[3] != 21:
        problems.append(f"usage(n=3)={usage[3]}!=21")
    passed = not problems
    report(capfd, 2, "resource-table", passed,
           "; ".join(problems) if problems else
           f"links and formulas exact for n=2..10, usage n=2:{usage[2]} n=3:{usage[3]}")
    assert passed, problems


def test_03_one_bottleneck_message_per_round(capfd):
    relay, source = NodeId.relay(), NodeId.source()
    counts = {}
    problems = []
    for n in range(2, 11):
        result, _ = noiseless_round(n, seed=80_000 + n)
        crossing = [e for e in result.trace
                    if e.src == relay and e.dst == source and e.kind == "classical"]
        counts[n] = len(crossing)
        if len(crossing) != 1 or crossing[0].size != 2:
            problems.append(f"n={n}: {len(crossing)} messages")
        reverse = [e for e in result.trace if e.src == source and e.dst == relay]
        if reverse:
            problems.append(f"n={n}: {len(reverse)} reverse messages")
    passed = not problems
    report(capfd, 3, "single-bottleneck-message", passed,
           "; ".join(problems) if problems else
           "exactly one 2-bit relay->source message per round, n=2..10")
    assert passed, problems


def test_04_xor_recovery_exhaustive(capfd):
    checked = 0
    for n in range(2, 7):
        for values in itertools.product(range(4), repeat=n):
            msgs = [f"{v:02b}" for v in values]
            combined = xor_combine(msgs)
            for k, msg in enumerate(msgs):
                assert xor_combine([combined, *msgs[:k], *msgs[k + 1:]]) == msg
            checked += 1
    report(capfd, 4, "xor-coding-exhaustive", True,
           f"all {checked} assignments recovered for 2..6 pairs")


def test_05_every_measurement_branch_is_exact(capfd):
    swap_seen = {}
    for seed in range(300):
        if len(swap_seen) == 4:
            break
        reg = StateRegistry(seed=seed)
        keep, give = reg.create_bell_pair()
        assist, own = reg.create_bell_pair()
        msg = teleport_encode(reg, assist, give)
        teleport_decode(reg, keep, msg)
        fid = pair_fidelity(reg, keep, own, BELL)
        assert fid == pytest.approx(1.0, abs=1e-9), (msg, fid)
        swap_seen[(int(msg[0]), int(msg[1]))] = fid

    tele_seen = {}
    rng = np.random.default_rng(424242)
    for seed in range(300):
        if len(tele_seen) == 4:
            break
        reg = StateRegistry(seed=seed)
        ref = random_state(rng)
        payload = reg.alloc_qubit(ref)
        here, there = reg.create_bell_pair()
        msg = teleport_encode(reg, payload, here)
        teleport_decode(reg, there, msg)
        fid = reg.fidelity(there, ref)
        assert fid == pytest.approx(1.0, abs=1e-9), (msg, fid)
        tele_seen[(int(msg[0]), int(msg[1]))] = fid

    passed = len(swap_seen) == 4 and len(tele_seen) == 4
    report(capfd, 5, "all-bell-outcomes-exact", passed,
           f"swap branches {sorted(swap_seen)}, teleport branches {sorted(tele_seen)}")
    assert passed


def test_06_accuracy_curve_tracks_references(capfd):
    started = time.perf_counter()
    rows2 = run_accuracy_sweep(ExperimentConfig(
        "accuracy", n_pairs=2, noise_levels=NOISE_LEVELS, trials=1000, seed=42))
    rows3 = run_accuracy_sweep(ExperimentConfig(
        "accuracy", n_pairs=3, noise_levels=NOISE_LEVELS, trials=1000, seed=42))
    elapsed = time.perf_counter() - started

    problems = []
    worst = 0.0
    for row, anchor in zip(rows2, ACCURACY_ANCHORS_N2):
        worst = max(worst, abs(row.estimate - anchor))
        if abs(row.estimate - anchor) > ACCURACY_BAND:
            problems.append(f"p={row.x}: {row.estimate:.3f} vs {anchor}")
    for a, b in zip(rows2, rows2[1:]):
        if b.ci_low > a.ci_high:
            problems.append(f"non-monotone at p={b.x}")
    for r2, r3 in zip(rows2, rows3):
        if r3.ci_low > r2.ci_high:
            problems.append(f"3-pair curve above 2-pair at p={r3.x}")
    if elapsed >= 600.0:
        problems.append(f"too slow: {elapsed:.0f}s")
    passed = not problems
    report(capfd, 6, "noise-accuracy-curve", passed,
           "; ".join(problems) if problems else
           f"10 levels within ±{ACCURACY_BAND} (worst {worst:.3f}), monotone, "
           f"3-pair below 2-pair, {elapsed:.0f}s")
    assert passed, problems


def test_07_exact_guess_probability(capfd):
    details = []
    problems = []
    for magnitude_bits in (1, 2, 4, 6):
        target = random_guess(magnitude_bits, np.random.default_rng(1000 + magnitude_bits))
        rng = np.random.default_rng(42)
        draws = 10_000
        hits = sum(random_guess(magnitude_bits, rng) == target
                   for _ in range(draws))
        p = 1.0 / 2 ** (magnitude_bits + 2)
        ci = 1.96 * math.sqrt(p * (1.0 - p) / draws)
        freq = hits / draws
        details.append(f"D={magnitude_bits}: {freq:.4f}~{p:.4f}")
        if abs(freq - p) > ci:
            problems.append(f"D={magnitude_bits}: {freq:.4f} outside {p:.4f}±{ci:.4f}")
    passed = not problems
    report(capfd, 7, "exact-guess-rate", passed,
           "; ".join(problems) if problems else ", ".join(details))
    assert passed, problems


def test_08_attack_rate_dips_then_rises_with_key_width(capfd):
    started = time.perf_counter()
    rows = run_eavesdrop_sweep(ExperimentConfig(
        "eavesdrop", bits_range=(3, 4, 8), trials=500, seed=42))
    elapsed = time.perf_counter() - started
    rates = {int(row.x): row.estimate for row in rows}
    problems = []
    if not rates[4] < rates[3]:
        problems.append(f"rate(4)={rates[4]:.3f} !< rate(3)={rates[3]:.3f}")
    if not rates[4] < rates[8]:
        problems.append(f"rate(4)={rates[4]:.3f} !< rate(8)={rates[8]:.3f}")
    if not 0.04 <= rates[4] <= 0.12:
        problems.append(f"rate(4)={rates[4]:.3f} outside [0.04, 0.12]")
    if not rates[8] > 0.20:
        problems.append(f"rate(8)={rates[8]:.3f} <= 0.20")
    if elapsed >= 300.0:
        problems.append(f"too slow: {elapsed:.0f}s")
    passed = not problems
    report(capfd, 8, "attack-rate-u-shape", passed,
           "; ".join(problems) if problems else
           f"rates 3/4/8 bits = {rates[3]:.3f}/{rates[4]:.3f}/{rates[8]:.3f}, {elapsed:.0f}s")
    assert passed, problems


def test_09_attack_without_defense(capfd):
    net = QNetwork(build_butterfly(2))
    reg = StateRegistry(seed=4242)
    stats = run_attack(net, reg, magnitude_bits=1, use_qsre=False, trials=500, seed=42)
    eavesdrop_rate = stats.eavesdrop_successes / stats.trials
    legit_rate = stats.legit_successes / stats.trials
    passed = eavesdrop_rate >= 0.99 and legit_rate <= 0.01
    report(capfd, 9, "undefended-attack", passed,
           f"eavesdropper {eavesdrop_rate:.3f}, intended receiver {legit_rate:.3f}")
    assert eavesdrop_rate >= 0.99
    assert legit_rate <= 0.01


def test_10_runtime_and_memory_scale(capfd):
    started = time.perf_counter()
    result, _ = noiseless_round(10, seed=777)
    round_time = time.perf_counter() - started
    assert result.all_success

    problems = []
    if round_time >= 1.0:
        problems.append(f"10-pair round took {round_time:.2f}s")
    peaks = {}
    for n in (10, 20, 30, 40, 50):
        result, reg = noiseless_round(n, seed=700 + n)
        peaks[n] = reg.peak_alloc
        if not result.all_success:
            problems.append(f"n={n} round failed")
        if reg.peak_alloc != 4 * n:
            problems.append(f"n={n}: {reg.peak_alloc} live qubits, expected {4 * n}")
        if reg.peak_resident_cluster_dim > 8:
            problems.append(f"n={n}: resident cluster dim {reg.peak_resident_cluster_dim}")
        if reg.peak_cluster_dim > 16:
            problems.append(f"n={n}: transient cluster dim {reg.peak_cluster_dim}")
        if result.peak_usage != 7 * n:
            problems.append(f"n={n}: usage {result.peak_usage} != {7 * n}")
    passed = not problems
    report(capfd, 10, "scaling", passed,
           "; ".join(problems) if problems else
           f"10-pair round {round_time * 1000:.0f}ms; live-qubit peak 4n for n up to 50, "
           "per-cluster footprint constant")
    assert passed, problems
