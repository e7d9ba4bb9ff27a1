"""Tests for the distribution/teleportation protocol round."""
import gc
import hashlib
import itertools
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import pair_fidelity

import qbutterfly.iedtc
from qbutterfly.iedtc import (
    SUCCESS_FIDELITY,
    decode_payloads,
    distribute_entanglements,
    honest_swap,
    pair_table,
    relay_combined,
    run_round,
    teleport_decode,
    teleport_encode,
    teleport_payloads,
    xor_combine,
)
from qbutterfly.qsre import random_guess
from qbutterfly.qstate import (
    NOISE_ALL_GATES,
    NOISE_ENTANGLING,
    DeadQubitError,
    StateRegistry,
    as_state,
    random_state,
)
from qbutterfly.simnet import QNetwork, TraceEntry, serialize_trace
from qbutterfly.topology import NodeId, build_butterfly

README = Path(__file__).resolve().parents[1] / "README.md"

SQ2 = 1.0 / math.sqrt(2.0)
BELL = np.array([SQ2, 0.0, 0.0, SQ2], dtype=complex)

# serialize_trace of the n=3 round at StateRegistry(seed=7), default_rng(8) states
ROUND_TRACE_N3_SHA256 = "cb20c14d0e1648806cbe7f115a2359d5a982effb36ade05b30e15cffd19c45a1"


def fresh(n):
    return QNetwork(build_butterfly(n))


# -- classical message coding --------------------------------------------------

def test_xor_combine_and_recover_roundtrip():
    msgs = ["01", "11", "10"]
    combined = xor_combine(msgs)
    assert combined == "00"
    for k, msg in enumerate(msgs):
        others = msgs[:k] + msgs[k + 1:]
        assert xor_combine([combined, *others]) == msg
    with pytest.raises(ValueError):
        xor_combine([])


@pytest.mark.parametrize("msgs", [
    ["001", "000"],
    ["1"],
    ["01", ""],
    ["01", "0b1"],
    ["0x", "01"],
    [1, "01"],
    [],
], ids=["wide", "narrow", "empty-message", "prefixed", "non-binary", "not-a-string", "none"])
def test_xor_combine_accepts_only_2_bit_messages(msgs):
    with pytest.raises(ValueError):
        xor_combine(msgs)


def test_xor_recovery_exhaustive_small():
    # every assignment of 2-bit messages to 3 pairs survives the shared-link trip
    for values in itertools.product(range(4), repeat=3):
        msgs = [f"{v:02b}" for v in values]
        combined = xor_combine(msgs)
        for k, msg in enumerate(msgs):
            assert xor_combine([combined, *msgs[:k], *msgs[k + 1:]]) == msg


# -- swapper assignment ----------------------------------------------------------

def test_assign_swappers_cyclic():
    # Pair k's assister is the previous receiver R_{k-1}; pair 1's is R_n.
    assert [p.assister for p in pair_table(2)] == [NodeId.receiver(2), NodeId.receiver(1)]
    assert [p.assister for p in pair_table(3)] == [
        NodeId.receiver(3), NodeId.receiver(1), NodeId.receiver(2)]
    with pytest.raises(ValueError):
        pair_table(1)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_swapper_is_reachable_and_never_own_receiver(n):
    topo = build_butterfly(n)
    for k in range(1, n + 1):
        assister = pair_table(n)[k - 1].assister
        assert assister == NodeId.receiver(k - 1 if k > 1 else n)
        assert assister != NodeId.receiver(k)
        link = topo.find_link(NodeId.transmitter(k), assister)
        assert link is not None  # the correction bits can flow back directly


@pytest.mark.parametrize("n", range(2, 7))
def test_pair_table_holds_each_pairs_nodes_and_distinct_tags(n):
    table = pair_table(n)
    assert [p.k for p in table] == list(range(1, n + 1))
    for p in table:
        # The assister is the previous receiver, R_{k-1}, and R_n for pair 1.
        assert (p.t, p.r, p.assister) == (
            NodeId.transmitter(p.k), NodeId.receiver(p.k), NodeId.receiver(p.k - 1 or n))
    tags = [tag for p in table for tag in p[4:]]
    assert len(tags) == 7 * n == len(set(tags))
    assert table[-1][4:] == (f"phi{n}.keep", f"phi{n}.swap", f"psi{n}.own", f"psi{n}.swap",
                             f"swap{n}", f"eta{n}", f"B{n}")
    assert pair_table(n) is table  # built once per size


# -- swap and teleport micro-steps ----------------------------------------------

def test_entanglement_swap_exact_for_every_outcome():
    seen = {}
    for seed in range(60):
        reg = StateRegistry(seed=seed)
        keep, give = reg.create_bell_pair()
        assist, own = reg.create_bell_pair()
        (msg,) = teleport_encode(reg, assist, give)  # the one lane's bits
        teleport_decode(reg, keep, (msg,))
        fid = pair_fidelity(reg, keep, own, BELL)
        seen.setdefault(msg, fid)
        assert fid == pytest.approx(1.0, abs=1e-9)
    assert set(seen) == {"00", "01", "10", "11"}


def test_swap_without_corrections_gives_wrong_pair():
    for seed in range(40):
        reg = StateRegistry(seed=seed)
        keep, give = reg.create_bell_pair()
        assist, own = reg.create_bell_pair()
        (msg,) = teleport_encode(reg, assist, give)
        if msg != "00":
            # uncorrected state is a different Bell state, orthogonal to phi+
            assert pair_fidelity(reg, keep, own, BELL) == pytest.approx(0.0, abs=1e-9)
            break
    else:
        pytest.fail("never sampled a nontrivial outcome")


def test_unswapped_halves_are_uncorrelated():
    reg = StateRegistry(seed=1)
    a, _ = reg.create_bell_pair()
    c, _ = reg.create_bell_pair()
    assert pair_fidelity(reg, a, c, BELL) == pytest.approx(0.25, abs=1e-12)


def test_teleport_exact_for_every_outcome():
    rng = np.random.default_rng(7)
    seen = set()
    for seed in range(60):
        reg = StateRegistry(seed=seed)
        ref = random_state(rng)
        payload = reg.alloc_qubit([ref])
        here, there = reg.create_bell_pair()
        (msg,) = teleport_encode(reg, payload, here)
        teleport_decode(reg, there, (msg,))
        assert reg.fidelity(there, [ref]) == [pytest.approx(1.0, abs=1e-9)]
        seen.add(msg)
    assert seen == {"00", "01", "10", "11"}


def test_teleport_encode_refuses_a_repeated_or_dead_qubit_and_changes_nothing():
    def registry():
        reg = StateRegistry(seed=[1, 2])
        payload = reg.alloc_qubit([as_state([0.6, 0.8])] * 2)
        here, there = reg.create_bell_pair()
        reg.release(payload)
        return reg, payload, here, there

    reg, payload, here, there = registry()
    with pytest.raises(ValueError, match="two distinct qubits"):
        teleport_encode(reg, here, here)
    for dead in ((payload, here), (here, payload)):
        with pytest.raises(DeadQubitError):
            teleport_encode(reg, *dead)
    untouched, *_ = registry()
    assert reg.live_count == untouched.live_count == 2
    assert reg._cluster_of[here].qubits == reg._cluster_of[there].qubits == [here, there]
    assert reg.gate_count == untouched.gate_count
    assert [rng.random() for rng in reg.rngs] == [rng.random() for rng in untouched.rngs]


def test_teleport_with_flipped_corrections_fails():
    reg = StateRegistry(seed=3)
    ref = np.array([0.6, 0.8], dtype=complex)
    payload = reg.alloc_qubit([ref])
    here, there = reg.create_bell_pair()
    (msg,) = teleport_encode(reg, payload, here)
    wrong = xor_combine([msg, "11"])
    teleport_decode(reg, there, (wrong,))
    # off by X*Z, and <psi|XZ|psi> = 0 for this state
    assert reg.fidelity(there, [ref]) == [pytest.approx(0.0, abs=1e-9)]


# -- distribution phase -----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_distribution_leaves_exact_shared_pairs(n):
    net = fresh(n)
    reg = StateRegistry(seed=n)
    distribute_entanglements(net, reg)
    for k in range(1, n + 1):
        kept = net.qubits[NodeId.transmitter(k)][f"phi{k}.keep"]
        r_half = net.qubits[NodeId.receiver(k)][f"psi{k}.own"]
        assert pair_fidelity(reg, kept, r_half, BELL) == pytest.approx(1.0, abs=1e-9)
    # 3 qubit transfers and 1 correction message per pair, none on the bottleneck
    assert len(net.trace) == 4 * n
    relay, source = NodeId.relay(), NodeId.source()
    assert not [e for e in net.trace if {e.src, e.dst} == {relay, source}]


def test_distribution_is_seed_deterministic():
    traces = []
    for _ in range(2):
        net = fresh(3)
        reg = StateRegistry(seed=123)
        distribute_entanglements(net, reg)
        traces.append([str(e) for e in net.trace])
    assert traces[0] == traces[1]


# -- the four phases, driven by hand ----------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_four_phases_by_hand_are_the_round(n, assert_nothing_left):
    net, reg = fresh(n), StateRegistry(seed=7)
    rng = np.random.default_rng(8)
    states, rotations, fidelities = [random_state(rng) for _ in range(n)], [None] * n, []
    lanes = [[s] for s in states]  # each pair's checked state in the one lane
    relay, source = NodeId.relay(), NodeId.source()
    phases = [  # (deliveries, crossings of M1->M2, phase)
        (4 * n, 0, lambda: distribute_entanglements(net, reg)),
        (n * n, 0, lambda: teleport_payloads(net, reg, lanes, rotations)),
        (n + 1, 1, lambda: relay_combined(net)),
        (0, 0, lambda: fidelities.extend(decode_payloads(net, reg, lanes, rotations))),
    ]
    for deliveries, crossings, phase in phases:
        start = len(net.trace)
        phase()
        assert (net.pending, net.in_flight) == (0, 0)
        entries = list(net.trace)[start:]
        assert len(entries) == deliveries
        assert sum(e.src == relay and e.dst == source for e in entries) == crossings
    assert fidelities == pytest.approx([1.0] * n, abs=1e-9)
    assert_nothing_left(net, reg)
    whole = run_round(fresh(n), StateRegistry(seed=7), states)
    assert serialize_trace(net.trace) == serialize_trace(whole.trace)
    assert fidelities == whole.fidelities
    if n == 3:
        digest = hashlib.sha256(serialize_trace(net.trace).encode()).hexdigest()
        assert digest == ROUND_TRACE_N3_SHA256


# -- full round --------------------------------------------------------------------

def test_round_delivers_every_state_exactly():
    net = fresh(2)
    reg = StateRegistry(seed=5)
    rng = np.random.default_rng(6)
    states = [random_state(rng) for _ in range(2)]
    result = run_round(net, reg, states)
    assert result.error is None
    assert result.all_success
    for fid in result.fidelities:
        assert fid == pytest.approx(1.0, abs=1e-9)
    assert result.peak_usage == 14
    assert result.peak_alloc == 8


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_round_peak_usage_scales_with_pairs(n):
    net = fresh(n)
    reg = StateRegistry(seed=n * 11)
    rng = np.random.default_rng(n)
    result = run_round(net, reg, [random_state(rng) for _ in range(n)])
    assert result.all_success
    assert result.peak_usage == 7 * n
    assert result.peak_alloc == 4 * n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_uses_bottleneck_exactly_once(n):
    net = fresh(n)
    reg = StateRegistry(seed=n)
    rng = np.random.default_rng(n + 100)
    result = run_round(net, reg, [random_state(rng) for _ in range(n)])
    relay, source = NodeId.relay(), NodeId.source()
    crossing = [e for e in result.trace if e.src == relay and e.dst == source]
    assert len(crossing) == 1
    assert crossing[0].kind == "classical"
    assert crossing[0].size == 2


def test_round_input_validation():
    net = fresh(2)
    reg = StateRegistry()
    with pytest.raises(ValueError):
        run_round(net, reg, [[1.0, 0.0]])  # one state for two pairs
    with pytest.raises(ValueError):
        run_round(net, reg, [[1.0, 0.0], [1.0, 0.0]], rotations=[None])
    # unnormalized, three amplitudes, NaN
    for bad in ([5.0, 0.0], [1.0, 0.0, 0.0], [float("nan"), 0.0]):
        with pytest.raises(ValueError):
            run_round(net, reg, [[1.0, 0.0], bad])
        assert reg.live_count == 0
        assert net.pending == 0
        assert all(net.qubits[node] == {} for node in net.topology.adjacency)


@pytest.mark.parametrize("n", [2, 3])
def test_rotated_round_is_exact(n):
    net = fresh(n)
    reg = StateRegistry(seed=40 + n)
    rng = np.random.default_rng(50 + n)
    specs = [random_guess(3, rng) for _ in range(n)]
    result = run_round(net, reg, [random_state(rng) for _ in range(n)], rotations=specs)
    assert result.error is None
    assert result.all_success


def test_readme_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})


def test_round_captures_internal_failures(monkeypatch):
    def broken_swap(*args):
        raise IndexError("simulated fault in the swap")

    monkeypatch.setattr(qbutterfly.iedtc, "teleport_encode", broken_swap)
    net = fresh(2)
    reg = StateRegistry(seed=1)
    result = run_round(net, reg, [[1.0, 0.0], [0.0, 1.0]])
    assert not result.all_success
    assert result.error == "IndexError: simulated fault in the swap"


class KeepOnRelease(StateRegistry):
    """A registry whose release forgets to consume the qubit."""

    def release(self, q):
        pass


def test_round_end_check_catches_a_leaked_qubit():
    net = fresh(3)
    result = run_round(net, KeepOnRelease(seed=1), [[1.0, 0.0]] * 3)
    assert result.error == "round end: 3 live qubits, 0 held, 0 in flight, 0 queued"
    assert not result.all_success
    assert result.fidelities == pytest.approx([1.0] * 3, abs=1e-9)


@pytest.mark.parametrize("dropped, error", [
    (None, "NetworkError: M1 has no message tagged 'B2'"),
    (NodeId.receiver(1), "NetworkError: R1 has no message tagged 'B2'"),
], ids=["whole-broadcast", "one-receiver"])
def test_a_lost_broadcast_fails_the_round(monkeypatch, dropped, error):
    # T2's teleport bits never leave T2 (dropped is None), so M1 cannot form
    # the bottleneck message, or they never reach R1, so R1 cannot decode.
    broadcast = QNetwork.broadcast_classical

    def lossy(net, src, bits, tag, exclude=()):
        if src != NodeId.transmitter(2):
            return broadcast(net, src, bits, tag, exclude)
        return [] if dropped is None else broadcast(net, src, bits, tag, [dropped])

    monkeypatch.setattr(QNetwork, "broadcast_classical", lossy)
    result = run_round(fresh(3), StateRegistry(seed=1), [[0.6, 0.8]] * 3)
    assert result.error == error
    assert not result.all_success


def test_a_lost_bottleneck_message_fails_the_round(monkeypatch):
    # M1's combined message never reaches M2, so M2 has nothing to relay.
    send = QNetwork.send_classical

    def drop_bottleneck(net, src, dst, bits, tag):
        if (src, dst) != (NodeId.relay(), NodeId.source()):
            send(net, src, dst, bits, tag)

    monkeypatch.setattr(QNetwork, "send_classical", drop_bottleneck)
    result = run_round(fresh(3), StateRegistry(seed=1), [[0.6, 0.8]] * 3)
    assert result.error == "NetworkError: M2 has no message tagged 'combined'"
    assert not result.all_success
    assert not [e for e in result.trace if e.tag == "combined"]


class LeakyGates(StateRegistry):
    """A registry whose single-qubit gates lose 1 % of each amplitude."""

    def _apply_single(self, gate, q, lanes):
        super()._apply_single(gate, q, lanes)
        amps = self._cluster_of[q].amps
        for lane in lanes:
            amps[lane] = amps[lane] * 0.99


def test_a_leaking_kernel_fails_the_readout():
    # Seed 1 makes the receivers apply corrections, so the leak reaches a readout.
    result = run_round(fresh(2), LeakyGates(seed=1), [[0.6, 0.8]] * 2)
    assert result.error == "ValueError: qubit 3's cluster is not normalized"
    assert not result.all_success


def test_round_checks_each_payload_once(monkeypatch):
    calls = []

    def counting(amplitudes):
        calls.append(amplitudes)
        return as_state(amplitudes)

    importers = [m for name, m in list(sys.modules.items())
                 if name.startswith("qbutterfly") and getattr(m, "as_state", None) is as_state]
    assert {m.__name__ for m in importers} >= {"qbutterfly.qstate", "qbutterfly.iedtc"}
    for module in importers:
        monkeypatch.setattr(module, "as_state", counting)
    rng = np.random.default_rng(4)
    states = [random_state(rng) for _ in range(3)]
    result = run_round(fresh(3), StateRegistry(seed=4), states)
    assert result.all_success
    assert len(calls) == 3 and all(c is s for c, s in zip(calls, states))


def test_unnormalized_payload_raises_before_any_qubit_exists():
    net, reg = fresh(3), StateRegistry(seed=1)
    with pytest.raises(ValueError, match="not normalized"):
        run_round(net, reg, [[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    assert (reg.live_count, reg.peak_alloc, reg.gate_count, len(net.trace)) == (0, 0, 0, 0)


def test_round_fails_when_a_held_half_dies_behind_the_network(assert_nothing_left):
    # Every registry method refuses a dead qubit at its lookup, corrections
    # included, so a half that a swap policy released fails the round.
    def releasing_swap(net, reg, pair, phi_half, psi_half):
        if pair.k == 1:
            reg.release(net.qubits[pair.t][pair.phi_keep])
        return honest_swap(net, reg, pair, phi_half, psi_half)

    errors = set()
    for seed in range(8):
        result = run_round(fresh(2), StateRegistry(seed=seed), [[1.0, 0.0]] * 2,
                           swap=releasing_swap)
        assert result.error is not None and not result.all_success
        assert result.error.endswith("is not live (consumed or never allocated)"), result.error
        errors.add(result.error.split(":")[0])
    assert errors == {"DeadQubitError"}  # from a correction, a readout or the payload's teleport


@pytest.mark.parametrize("n", range(2, 11))
def test_a_round_is_five_drains(n, monkeypatch):
    # Entanglement halves, swap bits, teleport broadcasts, the one bottleneck
    # message and the relay's broadcast: one tick each.
    views, run_until_idle = [], QNetwork.run_until_idle

    def keeping(net):
        views.append(run_until_idle(net))
        return views[-1]

    monkeypatch.setattr(QNetwork, "run_until_idle", keeping)
    net, rng = fresh(n), np.random.default_rng(n)
    result = run_round(net, StateRegistry(seed=n), [random_state(rng) for _ in range(n)])
    assert result.all_success and net.now == 5
    assert Counter(e.time for e in result.trace) == {1: 3 * n, 2: n, 3: n * n, 4: 1, 5: n}
    by_tick = [[e for e in result.trace if e.time == tick] for tick in range(1, 6)]
    assert len(views) == 5 and all(list(view) == entries for view, entries in zip(views, by_tick))
    net.reset()
    run_round(net, StateRegistry(seed=n), [random_state(rng) for _ in range(n)])
    assert len(views) == 10 and all(list(view) == entries for view, entries in zip(views, by_tick))


def test_kept_trace_survives_reset_and_the_next_round():
    net = fresh(3)
    rng = np.random.default_rng(2)
    first = run_round(net, StateRegistry(seed=1), [random_state(rng) for _ in range(3)])
    kept = list(first.trace)
    net.reset()
    second = run_round(net, StateRegistry(seed=2), [random_state(rng) for _ in range(3)])
    assert list(first.trace) == kept
    assert second.trace is net.trace and second.trace is not first.trace
    assert len(second.trace) == len(kept) == 3 * 3 + 5 * 3 + 1


def test_round_builds_no_trace_entry_until_the_trace_is_read():
    def entries_alive():
        return sum(type(o) is TraceEntry for o in gc.get_objects())

    net = fresh(8)
    rng = np.random.default_rng(3)
    states = [random_state(rng) for _ in range(8)]
    gc.collect()
    before = entries_alive()
    result = run_round(net, StateRegistry(seed=3), states)
    assert result.all_success and entries_alive() == before
    # The length sums the records' targets; it builds no entry either.
    assert len(result.trace) == 8 * 8 + 5 * 8 + 1 and entries_alive() == before
    read = list(result.trace)
    assert len(read) == 8 * 8 + 5 * 8 + 1 and entries_alive() == before + len(read)


def test_round_trace_is_pinned():
    # Any change to delivery or to the trace entry type must keep these bytes.
    net = fresh(3)
    rng = np.random.default_rng(8)
    result = run_round(net, StateRegistry(seed=7), [random_state(rng) for _ in range(3)])
    text = serialize_trace(result.trace)
    assert hashlib.sha256(text.encode()).hexdigest() == ROUND_TRACE_N3_SHA256


@pytest.mark.parametrize("model,successes,counters", [
    (NOISE_ENTANGLING, 3, (301, 25, 12, 16, 4, 0.5910779258150205)),
    (NOISE_ALL_GATES, 0, (296, 86, 12, 16, 4, 0.25166471963787906)),
])
def test_noisy_round_counters_and_rng_position_are_pinned(model, successes, counters):
    # Values computed before the registry skipped its noise hook at p=0, its
    # peak bookkeeping after single-qubit gates, and the H product of each
    # Bell pair; the seed-42 digests see only success counts.
    net = fresh(3)
    reg = StateRegistry(0.2, seed=13, noise_model=model)
    rng = np.random.default_rng(14)
    wins = 0
    for _ in range(10):
        net.reset()
        result = run_round(net, reg, [random_state(rng) for _ in range(3)])
        assert result.error is None
        wins += result.all_success
    assert wins == successes
    assert (reg.gate_count, reg.noise_events, reg.peak_alloc, reg.peak_cluster_dim,
            reg.peak_resident_cluster_dim, reg.rngs[0].random()) == counters


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_honest_round_leaves_nothing_behind(n, assert_nothing_left):
    net = fresh(n)
    rng = np.random.default_rng(n)
    for noise, model in [(0.0, NOISE_ENTANGLING), (0.05, NOISE_ENTANGLING),
                         (0.05, NOISE_ALL_GATES)]:
        for seed in range(4):
            net.reset()
            reg = StateRegistry(noise, seed=seed, noise_model=model)
            result = run_round(net, reg, [random_state(rng) for _ in range(n)])
            assert result.error is None
            assert_nothing_left(net, reg)


@pytest.mark.parametrize("n", [2, 3, 10])
def test_node_peaks_are_fixed_but_at_the_source(n):
    # Every transmitter peaks at 2 qubits and every receiver at 3, at any n;
    # M1 holds none, and M2, which emits every pair in one tick, holds 2n.
    net = fresh(n)
    rng = np.random.default_rng(n)
    result = run_round(net, StateRegistry(seed=n), [random_state(rng) for _ in range(n)])
    assert result.all_success
    want = {NodeId.relay(): 0, NodeId.source(): 2 * n}
    for k in range(1, n + 1):
        want[NodeId.transmitter(k)], want[NodeId.receiver(k)] = 2, 3
    assert net.node_peaks == want
    assert result.peak_usage == 7 * n


def test_noisy_rounds_mostly_fail_at_full_noise():
    successes = 0
    net = fresh(2)
    for seed in range(20):
        net.reset()
        reg = StateRegistry(noise_prob=1.0, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        result = run_round(net, reg, [random_state(rng) for _ in range(2)])
        assert result.error is None  # noise degrades fidelity, it never crashes
        successes += result.all_success
    assert successes <= 4


def test_round_success_threshold_is_strict():
    assert SUCCESS_FIDELITY == pytest.approx(1.0 - 1e-9, abs=0)
