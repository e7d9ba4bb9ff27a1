"""Lanes: a round of B lanes is B one-lane rounds run side by side, lane by
lane, with the network, its trace and the registry's bookkeeping shared."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbutterfly.experiments
from qbutterfly.experiments import BATCH, ExperimentConfig, run_accuracy_sweep
from qbutterfly.iedtc import run_round
from qbutterfly.qstate import NOISE_MODELS, StateRegistry, random_state
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


def test_a_lane_registry_refuses_what_reads_one_lane():
    with pytest.raises(ValueError, match="at least one lane"):
        StateRegistry(seed=[])
    reg = StateRegistry(seed=[1, 2])
    a, b = reg.create_bell_pair()
    assert reg.gate_count == 4  # H and CNOT in each lane
    for read in (lambda: reg.measure(a), lambda: reg.bell_measure(a, b),
                 lambda: reg.fidelity(a, [1.0, 0.0]), lambda: reg.cluster_state(a)):
        with pytest.raises(ValueError, match="reads one lane's value; the registry has 2"):
            read()
    reg.release(a)  # acts in every lane
    assert reg.live_count == 1


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

    def _fidelity(self, q, refs):
        if len(self.rngs) < BATCH:
            amps = self._cluster_of[q].amps
            amps[-1] = amps[-1] * 0.99
        return super()._fidelity(q, refs)


def test_an_errored_lane_fails_its_batch_and_names_its_first_trial(monkeypatch):
    monkeypatch.setattr(qbutterfly.experiments, "StateRegistry", LeakyLastLane)
    cfg = ExperimentConfig("accuracy", noise_levels=(0.0,), trials=BATCH + 5, seed=7)
    with pytest.raises(RuntimeError, match=rf"noise 0\.0, trial {BATCH}: ValueError: .*"
                                           "not normalized"):
        run_accuracy_sweep(cfg)
