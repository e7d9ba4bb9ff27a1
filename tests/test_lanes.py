"""Lanes: a round of B lanes is B one-lane rounds run side by side, lane by
lane, with the network, its trace and the registry's bookkeeping shared."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbutterfly.experiments
from qbutterfly.experiments import BATCH, ExperimentConfig, run_accuracy_sweep
from qbutterfly.iedtc import run_round
from qbutterfly.qstate import (
    CNOT,
    NOISE_ALL_GATES,
    NOISE_MODELS,
    DeadQubitError,
    H,
    StateRegistry,
    X,
    as_state,
    random_state,
    ry,
)
from qbutterfly.simnet import QNetwork, serialize_trace
from qbutterfly.topology import build_butterfly

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def peaks(reg):
    return reg.peak_alloc, reg.peak_cluster_dim, reg.peak_resident_cluster_dim


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 5]), lanes=st.integers(min_value=1, max_value=6),
       p=st.sampled_from([0.0, 0.05, 0.2]), model=st.sampled_from(NOISE_MODELS), seed=SEEDS)
def test_a_round_of_lanes_is_its_one_lane_rounds(n, lanes, p, model, seed):
    streams = np.random.SeedSequence(seed).spawn(lanes)
    rngs = [np.random.default_rng(s) for s in streams]
    inputs = [[random_state(rng) for _ in range(n)] for rng in rngs]
    reg = StateRegistry(p, seed=rngs, noise_model=model)
    batch = run_round(QNetwork(build_butterfly(n)), reg, list(zip(*inputs)))
    assert batch.error is None
    alone = []
    for lane, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        one = StateRegistry(p, seed=rng, noise_model=model)
        result = run_round(QNetwork(build_butterfly(n)), one, [random_state(rng) for _ in range(n)])
        assert batch.fidelities[lane::lanes] == result.fidelities
        assert rngs[lane].random() == rng.random()  # each stream ends where it ends alone
        assert peaks(reg) == peaks(one)
        assert (batch.peak_usage, batch.peak_alloc) == (result.peak_usage, result.peak_alloc)
        assert serialize_trace(batch.trace) == serialize_trace(result.trace)
        alone.append((one, result))
    assert reg.gate_count == sum(one.gate_count for one, _ in alone)
    assert reg.noise_events == sum(one.noise_events for one, _ in alone)
    assert batch.all_success == all(result.all_success for _, result in alone)


def test_one_state_serves_every_lane():
    lanes, n = 3, 3
    rngs = [np.random.default_rng(s) for s in range(lanes)]
    shared = run_round(QNetwork(build_butterfly(n)), StateRegistry(seed=rngs), [[0.6, 0.8]] * n)
    rngs = [np.random.default_rng(s) for s in range(lanes)]
    explicit = run_round(QNetwork(build_butterfly(n)), StateRegistry(seed=rngs),
                         [[[0.6, 0.8]] * lanes] * n)
    assert shared.fidelities == explicit.fidelities and len(shared.fidelities) == lanes * n
    assert shared.all_success
    with pytest.raises(ValueError, match="one payload state per lane"):
        run_round(QNetwork(build_butterfly(n)), StateRegistry(seed=[1, 2]), [[[0.6, 0.8]] * 3] * n)


def one_circuit(reg, states, refs, flipped):
    """The same operations in every lane, except an X in each lane of ``flipped``,
    and what each read returns: a value per lane."""
    q = reg.alloc_qubit(states)
    a, b = reg.create_bell_pair()
    c, d = reg.create_bell_pair()
    reg.apply_gate(CNOT, [q, a])
    reg.apply_gate(ry(0.7), [b])
    for lane in flipped:
        reg.apply_gate(X, [d], lane)
    order, amps = reg.cluster_state(q)
    reads = [reg.fidelity(b, refs), reg.fidelity(q, refs), reg.bell_measure(a, c),
             reg.measure(q), reg.fidelity(d, refs)]
    reg.release(b)
    reg.release(d)
    return order, amps, reads


def test_a_lane_registry_reads_each_lane_as_its_one_lane_registry():
    with pytest.raises(ValueError, match="at least one lane"):
        StateRegistry(seed=[])
    reg = StateRegistry(seed=[1, 2])
    a, b = reg.create_bell_pair()
    assert reg.gate_count == 4  # H and CNOT in each lane
    reg.release(a)  # acts in every lane
    assert reg.live_count == 1
    for lanes in (1, 3):
        states = [random_state(np.random.default_rng([lanes, lane])) for lane in range(lanes)]
        refs = [random_state(np.random.default_rng([lanes, lane, 1])) for lane in range(lanes)]
        reg = StateRegistry(0.3, seed=list(range(lanes)), noise_model=NOISE_ALL_GATES)
        order, amps, reads = one_circuit(reg, states, refs, range(0, lanes, 2))
        assert reg.live_count == 0 and len(amps) == lanes
        assert all(len(read) == lanes for read in reads)
        for lane in range(lanes):
            one = StateRegistry(0.3, seed=lane, noise_model=NOISE_ALL_GATES)
            one_order, (one_amps,), one_reads = one_circuit(
                one, [states[lane]], [refs[lane]], (0,) if lane % 2 == 0 else ())
            assert order == one_order and np.array_equal(amps[lane], one_amps)
            assert [read[lane] for read in reads] == [read[0] for read in one_reads]
            assert reg.rngs[lane].random() == one.rngs[0].random()


def registry_state(reg, q):
    """What a refused call must leave as it was."""
    order, amps = reg.cluster_state(q)
    return (reg.live_count, reg.gate_count, reg.peak_alloc, reg._next_qubit, order,
            [a.tolist() for a in amps])


def test_every_refusal_comes_before_any_change():
    for lanes in (1, 3):
        reg = StateRegistry(0.5, seed=list(range(lanes)), noise_model=NOISE_ALL_GATES)
        a, b = reg.create_bell_pair()
        dead = reg.alloc_qubit([as_state([0.6, 0.8])] * lanes)
        reg.release(dead)
        before, zeros = registry_state(reg, a), [as_state([1, 0])] * lanes
        refusals = [
            (ValueError, "one state per lane", lambda: reg.alloc_qubit(zeros + zeros[:1])),
            (ValueError, "one state per lane", lambda: reg.alloc_qubit([])),
            (ValueError, "two distinct targets", lambda: reg.apply_gate(CNOT, [a])),
            (ValueError, "two distinct targets", lambda: reg.apply_gate(CNOT, [a, a])),
            (ValueError, "one target", lambda: reg.apply_gate(H, [a, b])),
            (ValueError, "no lane", lambda: reg.apply_gate(X, [a], lane=lanes)),
            (ValueError, "no lane", lambda: reg.apply_gate(X, [a], lane=-1)),
            (DeadQubitError, "not live", lambda: reg.apply_gate(X, [dead], lanes - 1)),
            (DeadQubitError, "not live", lambda: reg.apply_gate(CNOT, [a, dead])),
            (DeadQubitError, "not live", lambda: reg.measure(dead)),
            (ValueError, "one reference per lane", lambda: reg.fidelity(a, zeros + zeros[:1])),
            (ValueError, "one reference per lane", lambda: reg.fidelity(a, zeros[:-1])),
            (DeadQubitError, "not live", lambda: reg.fidelity(dead, zeros)),
            (DeadQubitError, "not live", lambda: reg.cluster_state(dead)),
        ]
        for error, message, refused in refusals:
            with pytest.raises(error, match=message):
                refused()
            assert registry_state(reg, a) == before
        draws = [rng.random() for rng in reg.rngs]
        again = StateRegistry(0.5, seed=list(range(lanes)), noise_model=NOISE_ALL_GATES)
        again.create_bell_pair()
        again.release(again.alloc_qubit([as_state([0.6, 0.8])] * lanes))
        assert draws == [rng.random() for rng in again.rngs]  # no refusal drew


def recorded_sweep(monkeypatch, cfg):
    """The sweep's rows, and each level's fidelities trial by trial."""
    seen = {}

    def recording_round(net, reg, inputs, *args, **kwargs):
        result = qbutterfly.iedtc.run_round(net, reg, inputs, *args, **kwargs)
        lanes = len(reg.rngs)  # the round's fidelities run pair by pair, a lane each
        seen.setdefault(reg.noise_prob, []).extend(
            f for lane in range(lanes) for f in result.fidelities[lane::lanes])
        return result

    monkeypatch.setattr(qbutterfly.experiments, "run_round", recording_round)
    return run_accuracy_sweep(cfg), seen


def test_a_sweep_of_several_batches_is_its_trials_run_alone(monkeypatch):
    trials, n = 2 * BATCH + 1, 2
    for model in NOISE_MODELS:
        cfg = ExperimentConfig("accuracy", n_pairs=n, noise_levels=(0.0, 0.05), trials=trials,
                               seed=42, noise_model=model)
        rows, seen = recorded_sweep(monkeypatch, cfg)
        net = QNetwork(build_butterfly(n))
        for row in rows:
            # Trial t's stream, as the experiments docstring keys it.
            key = (cfg.seed << 128) | (int(np.float64(row.x).view(np.uint64)) << 64)
            fidelities, successes = [], 0
            for t in range(trials):
                rng = np.random.default_rng(np.random.SeedSequence(key | t))
                inputs = [random_state(rng) for _ in range(n)]
                net.reset()
                result = run_round(net, StateRegistry(row.x, seed=rng, noise_model=model), inputs)
                fidelities += result.fidelities
                successes += result.all_success
            assert seen[row.x] == fidelities
            assert (row.trials, row.successes) == (trials, successes)


class LeakyLastLane(StateRegistry):
    """Loses 1 % of its last lane's amplitude before a read-out, in a round
    of fewer than BATCH lanes only: a sweep's short last batch."""

    def fidelity(self, q, refs):
        if len(self.rngs) < BATCH:
            amps = self._cluster_of[q].amps
            amps[-1] = amps[-1] * 0.99
        return super().fidelity(q, refs)


def test_an_errored_lane_fails_its_batch_and_names_its_first_trial(monkeypatch):
    monkeypatch.setattr(qbutterfly.experiments, "StateRegistry", LeakyLastLane)
    cfg = ExperimentConfig("accuracy", noise_levels=(0.0,), trials=BATCH + 5, seed=7)
    with pytest.raises(RuntimeError, match=rf"noise 0\.0, trial {BATCH}: ValueError: .*"
                                           "not normalized"):
        run_accuracy_sweep(cfg)
