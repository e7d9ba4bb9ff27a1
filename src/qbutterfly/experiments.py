"""Monte-Carlo sweeps, confidence intervals, and file outputs.

Every accuracy trial runs on one generator, seeded through numpy's
SeedSequence by the single integer (master seed, the noise level's exact
64-bit pattern, trial index), and draws the trial's payloads and then its
noise and outcomes as one lane of a round of up to ``BATCH``, as it would
alone.  Every eavesdrop point is seeded from (master seed, key bits).  So a
point's row depends on its own value and not on the sweep around it, and
identical configurations reproduce identical CSV bytes regardless of order.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import __version__
from .iedtc import SUCCESS_FIDELITY, run_round
from .qsre import run_attack
from .qstate import NOISE_ENTANGLING, NOISE_MODELS, StateRegistry, random_state
from .simnet import QNetwork
from .topology import build_butterfly, link_counts, reference_resources

Z_95 = 1.96
BATCH = 64  # accuracy trials per round, each in its own lane

EXPERIMENTS = ("accuracy", "eavesdrop")


def _wilson_low(successes: int, trials: int) -> float:
    z2 = Z_95 * Z_95
    spread = Z_95 * math.sqrt(z2 + 4 * successes * (trials - successes) / trials)
    return (2 * successes + z2 - spread) / (2 * (trials + z2))


def binomial_ci(successes: int, trials: int) -> tuple[float, float, float]:
    """(estimate, low, high): a success count's 95% Wilson score interval.

    It never shrinks to a point: 0 successes read low = 0 < high, and all
    successes low < high = 1.  The high bound is computed as one minus the
    failures' low bound, so both ends are exact.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    return (successes / trials, max(0.0, _wilson_low(successes, trials)),
            min(1.0, 1.0 - _wilson_low(trials - successes, trials)))


@dataclass(frozen=True, slots=True)
class SweepRow:
    """A sweep point and its counts; the estimate and interval are read from them."""
    x: float
    trials: int
    successes: int

    estimate = property(lambda self: binomial_ci(self.successes, self.trials)[0])
    ci_low = property(lambda self: binomial_ci(self.successes, self.trials)[1])
    ci_high = property(lambda self: binomial_ci(self.successes, self.trials)[2])
    COLUMNS = ("x", "estimate", "ci_low", "ci_high", "trials", "successes")  # the CSV's


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
    """Fraction of rounds in which every pair arrives exactly, per noise level.
    An errored round of ``BATCH`` lanes fails the sweep, naming its first trial."""
    if cfg.experiment != "accuracy":
        raise ValueError("config is not an accuracy configuration")
    n, net = cfg.n_pairs, QNetwork(build_butterfly(cfg.n_pairs))
    rows = []
    for level in cfg.noise_levels:
        # One integer, not a list: SeedSequence spreads a list's ints over
        # as many 32-bit words as each needs, so two lists can collide.
        point_key = (cfg.seed << 128) | (int(np.float64(level).view(np.uint64)) << 64)
        successes = 0
        for first in range(0, cfg.trials, BATCH):
            rngs = [np.random.default_rng(np.random.SeedSequence(point_key | t))
                    for t in range(first, min(first + BATCH, cfg.trials))]
            inputs = [[random_state(rng) for _ in range(n)] for rng in rngs]
            reg = StateRegistry(level, seed=rngs, noise_model=cfg.noise_model)
            net.reset()
            result = run_round(net, reg, list(zip(*inputs)))  # each pair's state per lane
            if result.error is not None:
                raise RuntimeError(f"accuracy round failed at noise {level}, trial {first}: "
                                   f"{result.error}")
            exact = np.reshape(result.fidelities, (n, len(rngs))) >= SUCCESS_FIDELITY
            successes += int(exact.all(axis=0).sum())
        rows.append(SweepRow(level, cfg.trials, successes))
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
        rows.append(SweepRow(bits, stats.trials, stats.eavesdrop_successes))
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

    COLUMNS = property(lambda self: tuple(f.name for f in fields(self)))  # the CSV's: every field


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


def format_cell(value, exact: bool) -> str:
    """A CSV cell: floats at 6 decimals unless exact, booleans in lower case."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float) and not exact:
        return f"{value:.6f}"
    return str(value)


def write_csv(rows: Sequence[SweepRow] | Sequence[ResourceRow], path: str) -> None:
    """One CSV line per row, headed by the row type's ``COLUMNS``.  A sweep
    row's ``x`` prints exactly (shortest round-trip repr), other floats at 6
    decimals, so every sweep point reads apart from its neighbours."""
    if not rows:
        raise ValueError("no rows to write")
    header = rows[0].COLUMNS
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(getattr(row, name), name == "x") for name in header])


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
