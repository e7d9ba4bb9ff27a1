"""Monte-Carlo sweeps, confidence intervals, and file outputs.

Every trial is independently seeded from (master seed, sweep point, trial
index) through numpy's SeedSequence, so identical configurations reproduce
identical CSV bytes regardless of execution order.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import __version__
from .iedtc import run_round
from .qsre import run_attack
from .qstate import NOISE_ENTANGLING, NOISE_MODELS, StateRegistry, random_state
from .simnet import QNetwork
from .topology import build_butterfly, link_counts, reference_resources

Z_95 = 1.96

EXPERIMENTS = ("accuracy", "eavesdrop")


def binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    """(estimate, 95% normal-approximation half-width) for a success count."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    half = Z_95 * (p * (1.0 - p) / trials) ** 0.5
    return p, half


@dataclass(frozen=True)
class SweepRow:
    x: float
    estimate: float
    ci_half_width: float
    trials: int
    successes: int


def check_noise_level(level: float) -> None:
    if not (0.0 <= level <= 1.0):
        raise ValueError(f"noise level {level} outside [0, 1]")


def check_total_bits(bits: int) -> None:
    if not (3 <= bits <= 65):
        raise ValueError(f"total bits must be in 3..65, got {bits}")


@dataclass
class ExperimentConfig:
    experiment: str
    n_pairs: int = 2
    noise_levels: tuple[float, ...] = ()
    trials: int = 1000
    bits_range: tuple[int, ...] = ()
    seed: int = 42
    noise_model: str = NOISE_ENTANGLING
    key_bits: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {self.noise_model!r}")
        if self.n_pairs < 2:
            raise ValueError("n_pairs must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.experiment == "accuracy":
            if self.bits_range or self.key_bits is not None:
                raise ValueError("an accuracy sweep reads no bits_range or key_bits")
            if not self.noise_levels:
                raise ValueError("accuracy sweep needs at least one noise level")
            for level in self.noise_levels:
                check_noise_level(level)
        else:
            if self.noise_levels or self.noise_model != NOISE_ENTANGLING:
                raise ValueError("an eavesdrop sweep runs noise-free; it reads no noise "
                                 "levels or noise model")
            if not self.bits_range:
                raise ValueError("eavesdrop sweep needs at least one bits value")
            for b in self.bits_range:
                check_total_bits(b)
            if self.key_bits is not None and len(self.key_bits) < max(self.bits_range):
                raise ValueError(f"key holds no complete chunk of width {max(self.bits_range)}")

    def settings(self) -> dict:
        """The settings this experiment's sweep reads, as its manifest records them."""
        read = {"n_pairs": self.n_pairs, "trials": self.trials, "seed": self.seed}
        if self.experiment == "accuracy":
            return {**read, "noise_levels": list(self.noise_levels),
                    "noise_model": self.noise_model}
        return {**read, "bits_range": list(self.bits_range),
                "key_file_used": self.key_bits is not None}


def _derived_seed(master_seed: int, salt: int, t: int) -> int:
    return int(np.random.SeedSequence([master_seed, salt, t]).generate_state(1, np.uint64)[0])


def run_accuracy_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Fraction of rounds in which every pair arrives exactly, per noise level."""
    if cfg.experiment != "accuracy":
        raise ValueError("config is not an accuracy configuration")
    net = QNetwork(build_butterfly(cfg.n_pairs))
    rows = []
    for level in cfg.noise_levels:
        salt = int(round(level * 1_000_000))
        successes = 0
        for t in range(cfg.trials):
            trial_seed = _derived_seed(cfg.seed, salt, t)
            reg = StateRegistry(level, seed=trial_seed, noise_model=cfg.noise_model)
            input_rng = np.random.default_rng(_derived_seed(cfg.seed, salt + 1, t))
            inputs = [random_state(input_rng) for _ in range(cfg.n_pairs)]
            net.reset()
            result = run_round(net, reg, inputs)
            if result.error is not None:
                raise RuntimeError(f"accuracy round failed at noise {level}, trial {t}: "
                                   f"{result.error}")
            if result.all_success:
                successes += 1
        estimate, half = binomial_ci(successes, cfg.trials)
        rows.append(SweepRow(level, estimate, half, cfg.trials, successes))
    return rows


def run_eavesdrop_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Attack success rate versus total key bits per message (2 + magnitude bits).

    Attack trials run noise-free so the curve isolates the guessing problem.
    """
    if cfg.experiment != "eavesdrop":
        raise ValueError("config is not an eavesdrop configuration")
    net = QNetwork(build_butterfly(cfg.n_pairs))
    rows = []
    for bits in cfg.bits_range:
        reg = StateRegistry(0.0, seed=_derived_seed(cfg.seed, bits, 0))
        stats = run_attack(net, reg, bits - 2, True, cfg.trials,
                           _derived_seed(cfg.seed, bits, 1), key=cfg.key_bits)
        estimate, half = binomial_ci(stats.eavesdrop_successes, stats.trials)
        rows.append(SweepRow(bits, estimate, half, stats.trials, stats.eavesdrop_successes))
    return rows


@dataclass(frozen=True)
class ResourceRow:
    n_pairs: int
    total_links: int
    quantum_links: int
    qubit_usage: int       # sum of per-node peak holdings over one round
    peak_live_qubits: int  # network-wide simultaneous peak
    ref_total_links: int
    ref_quantum_links: int
    ref_qubits: int
    benchmark_total_links: int
    benchmark_quantum_links: int
    benchmark_qubits: int
    within_reference: bool


def run_resource_report(n_range: Sequence[int]) -> list[ResourceRow]:
    """Measured link/qubit usage of one noiseless round against the closed forms.

    Usage does not depend on the payloads or the measurement outcomes, so the
    round sends |0> on every pair through a default registry.
    """
    rows = []
    for n in n_range:
        topology = build_butterfly(n)
        total, quantum = link_counts(topology)
        result = run_round(QNetwork(topology), StateRegistry(), [[1.0, 0.0]] * n)
        if result.error is not None:
            raise RuntimeError(f"resource round failed at n={n}: {result.error}")
        ref = reference_resources("iedtc", n)
        bench = reference_resources("benchmark", n)
        within = (total <= ref.total_links and quantum <= ref.quantum_links
                  and result.peak_usage <= ref.qubits)
        rows.append(ResourceRow(n, total, quantum, result.peak_usage, result.peak_alloc,
                                ref.total_links, ref.quantum_links, ref.qubits,
                                bench.total_links, bench.quantum_links, bench.qubits,
                                within))
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(rows: Sequence[SweepRow] | Sequence[ResourceRow], path: str) -> None:
    """One CSV line per row, headed by the row type's field names."""
    if not rows:
        raise ValueError("no rows to write")
    header = [f.name for f in fields(rows[0])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name)) for name in header])


def write_manifest(experiment: str, settings: dict, outputs: Sequence[str], elapsed: float,
                   path: str) -> None:
    """JSON run record: version, the settings the experiment read, outputs and wall time."""
    doc = {
        "version": f"qbutterfly-{__version__}",
        "experiment": experiment,
        "config": settings,
        "outputs": list(outputs),
        "elapsed_seconds": round(elapsed, 3),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
