#!/usr/bin/env python3
"""Benchmark of the qbutterfly simulator: end-to-end throughput and per-layer spans.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload accuracy-n2 --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one process, one thread of work):

* ``accuracy-n2``: ``run_accuracy_sweep`` at n=2 over noise 0.00..0.10 under
  both noise models. Tiny rounds, so per-gate numpy work in ``qstate`` and
  per-trial set-up in ``experiments`` dominate.
* ``round-scale``: single noiseless ``run_round`` calls at n = 8, 16, 32 on
  topologies built during set-up. Topology lookups lead and grow with n;
  ``qstate`` clusters stay at 16 amplitudes or fewer.
* ``eavesdrop-qsre``: ``run_eavesdrop_sweep`` at n=2 over key bits 3..8,
  through the attacked-round path in ``qsre``.
* ``all``: each of the above in its own process, one after another.

``--trace 0`` measures with no timing inside the program and prints the
end-to-end metrics; each timing is the fastest of many samples spread over
the run (see ``measure``). ``--trace 1`` runs each unit twice, first with a
span recorded around every public function of each module and then untraced;
it prints per-layer calls and self time, and fails unless both runs of every
unit produced identical outputs and simulated counts.

Every run checks the program's outputs. A failed check, an errored trial or
an exception counts its trials as failed; any failed trial makes the run
print ``"correct": false`` and exit with status 1. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
import os
import sys

# Single-threaded numerics: set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# The benchmark writes nothing into the checkout, bytecode included.
sys.dont_write_bytecode = True

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import Patcher, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MODULES = ("qstate", "topology", "simnet", "iedtc", "qsre", "experiments")
SETUP_REPEATS = 20
MAX_PROBLEMS = 5

COUNT_METRICS = {  # per-layer count -> key in the simulated statistics
    "qstate.gate_count": "gate_count",
    "qstate.noise_events": "noise_events",
    "qstate.peak_cluster_dim": "peak_cluster_dim",
    "simnet.deliveries": "deliveries",
    "simnet.classical_bits": "classical_bits",
    "simnet.bottleneck_msgs": "bottleneck_msgs",
    "qsre.eavesdrop_successes": "eavesdrop_successes",
    "qsre.legit_successes": "legit_successes",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- the program under test ----------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import qbutterfly afresh from this checkout's ``src/``, compiled from source."""
    init = SRC / "qbutterfly" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"{init} not found; run from the root of a qbutterfly checkout")
    for name in [m for m in sys.modules if m == "qbutterfly" or m.startswith("qbutterfly.")]:
        del sys.modules[name]
    # With bytecode writing off, a cache prefix that holds nothing makes the
    # import compile from source, so set-up time never depends on a stale
    # __pycache__ left in src/ by another tool.
    prefix, sys.pycache_prefix = sys.pycache_prefix, str(BENCH_DIR / "no-pycache")
    try:
        package = importlib.import_module("qbutterfly")
    finally:
        sys.pycache_prefix = prefix
    if Path(package.__file__).resolve() != init.resolve():
        raise BenchError(f"imported qbutterfly from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"qbutterfly.{m}") for m in MODULES})


def span_targets(p: SimpleNamespace) -> dict[str, list[tuple[object, str]]]:
    """Where each span's functions are looked up: their modules and classes."""
    reg, topo, net = p.qstate.StateRegistry, p.topology.Topology, p.simnet.QNetwork
    return {
        "qstate.alloc": [(reg, "alloc_qubit")],
        "qstate.bell_pair": [(reg, "create_bell_pair")],
        "qstate.gate": [(reg, "apply_gate")],
        "qstate.bell_measure": [(reg, "bell_measure")],
        "qstate.measure": [(reg, "measure"), (reg, "release")],
        "qstate.fidelity": [(reg, "fidelity")],
        "qstate.random_state": [(p.qstate, "random_state"), (p.qsre, "random_state"),
                                (p.experiments, "random_state")],
        "topology.build": [(p.topology, "build_butterfly"), (p.experiments, "build_butterfly")],
        "topology.neighbors": [(topo, "neighbors")],
        "topology.find_link": [(topo, "find_link")],
        "simnet.send": [(net, "send_classical"), (net, "send_qubit")],
        "simnet.broadcast": [(net, "broadcast_classical")],
        "simnet.run_until_idle": [(net, "run_until_idle")],
        "simnet.deposit_take": [(net, "deposit"), (net, "take")],
        "simnet.reset": [(net, "reset")],
        "iedtc.round": [(p.iedtc, "run_round"), (p.experiments, "run_round")],
        "iedtc.distribute": [(p.iedtc, "distribute_entanglements")],
        "iedtc.swap": [(p.iedtc, "entanglement_swap"), (p.qsre, "entanglement_swap")],
        "iedtc.teleport_encode": [(p.iedtc, "teleport_encode"), (p.qsre, "teleport_encode")],
        "iedtc.teleport_decode": [(p.iedtc, "teleport_decode"), (p.qsre, "teleport_decode")],
        "iedtc.xor": [(p.iedtc, "xor_combine"), (p.iedtc, "xor_recover"),
                      (p.qsre, "xor_combine"), (p.qsre, "xor_recover")],
        "qsre.attack": [(p.qsre, "run_attack"), (p.experiments, "run_attack")],
        "qsre.derive_rotation": [(p.qsre, "derive_rotation")],
        "qsre.random_guess": [(p.qsre, "random_guess")],
        "experiments.sweep": [(p.experiments, "run_accuracy_sweep"),
                              (p.experiments, "run_eavesdrop_sweep")],
    }


def derive_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def delivery_counts(entries, relay, source) -> tuple[int, int, int]:
    """Deliveries, classical bits, and messages over the relay-source bottleneck."""
    bits = bottleneck = 0
    for entry in entries:
        if entry.kind == "classical":
            bits += entry.size
            bottleneck += entry.src.kind is relay and entry.dst.kind is source
    return len(entries), bits, bottleneck


# -- result-only hooks: simulated statistics and failed trials ------------------


class Tally:
    """Simulated statistics of the current unit and failed trials of the run.

    Both are read from results only: the hooks do no timing. Deliveries are
    collected while a unit runs and summarised afterwards, outside its timed
    region.
    """

    def __init__(self, prog: SimpleNamespace) -> None:
        self._relay = prog.topology.NodeKind.RELAY
        self._source = prog.topology.NodeKind.SOURCE
        self.failed = 0
        self.problems: list[str] = []
        self.clear()

    def clear(self) -> None:
        self._counts = {key: 0 for key in COUNT_METRICS.values()}
        self._batches: list[list] = []

    def fail(self, trials: int, problem: str) -> None:
        self.failed += trials
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def registry(self, reg) -> None:
        c = self._counts
        c["gate_count"] += reg.gate_count
        c["noise_events"] += reg.noise_events
        c["peak_cluster_dim"] = max(c["peak_cluster_dim"], reg.peak_cluster_dim)

    def round(self, reg, result) -> None:
        """An honest round must not error, and must be exact when noiseless."""
        self.registry(reg)
        if result.error is not None:
            self.fail(1, f"round errored: {result.error}")
        elif reg.noise_prob == 0.0 and not result.all_success:
            self.fail(1, "noiseless round was not exact")

    def attack(self, reg, stats) -> None:
        """The substituting assister leaves the intended receiver a decoy, never its state."""
        self.registry(reg)
        self._counts["eavesdrop_successes"] += stats.eavesdrop_successes
        self._counts["legit_successes"] += stats.legit_successes
        if stats.legit_successes != 0:
            self.fail(stats.legit_successes,
                      f"intended receiver got the state in {stats.legit_successes}"
                      f" of {stats.trials} attacked rounds")

    def counts(self) -> dict[str, int]:
        c = dict(self._counts)
        for batch in self._batches:
            deliveries, bits, bottleneck = delivery_counts(batch, self._relay, self._source)
            c["deliveries"] += deliveries
            c["classical_bits"] += bits
            c["bottleneck_msgs"] += bottleneck
        return c

    def install(self, patcher: Patcher, prog: SimpleNamespace) -> None:
        def deliveries(run_until_idle):
            def hooked(net):
                delivered = run_until_idle(net)
                self._batches.append(delivered)
                return delivered
            return hooked

        def rounds(run_round):
            def hooked(net, reg, *args, **kwargs):
                result = run_round(net, reg, *args, **kwargs)
                self.round(reg, result)
                return result
            return hooked

        def attacks(run_attack):
            def hooked(net, reg, *args, **kwargs):
                stats = run_attack(net, reg, *args, **kwargs)
                self.attack(reg, stats)
                return stats
            return hooked

        patcher.wrap(prog.simnet.QNetwork, "run_until_idle", deliveries)
        patcher.wrap(prog.experiments, "run_round", rounds)
        patcher.wrap(prog.experiments, "run_attack", attacks)


# -- workloads -------------------------------------------------------------------


@dataclass
class UnitResult:
    trials: int
    output: object  # what the program returned; traced and untraced runs must agree
    round_times: list[tuple[int, float]]  # (n, seconds of one round)


def run_sweep(sweep, cfg, trials: int, tally: Tally):
    """A sweep that raises fails every one of its trials."""
    failed_before = tally.failed
    try:
        return sweep(cfg)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.failed = failed_before
        tally.fail(trials, f"{sweep.__name__} raised (seed {cfg.seed})")
        return None


class AccuracyN2:
    """The paper's accuracy-versus-noise curve at n=2, both noise models."""

    sizes = (2,)
    noise_levels = tuple(i / 100 for i in range(11))
    noise_models = ("entangling", "all-gates")
    trials_per_point = 3

    def setup(self, prog, seed):
        prog.experiments.run_accuracy_sweep(
            self._config(prog, derive_seed(seed, 0), 1, (0.01,), self.noise_models[0]))

    def unit(self, prog, state, seed, i, tally) -> UnitResult:
        t0 = time.perf_counter()
        per_sweep = len(self.noise_levels) * self.trials_per_point
        rows = [run_sweep(prog.experiments.run_accuracy_sweep,
                          self._config(prog, derive_seed(seed, 1, i, j), self.trials_per_point,
                                       self.noise_levels, model),
                          per_sweep, tally)
                for j, model in enumerate(self.noise_models)]
        trials = len(self.noise_models) * per_sweep
        return UnitResult(trials, rows, [(2, (time.perf_counter() - t0) / trials)])

    @staticmethod
    def _config(prog, master_seed, trials, levels, model):
        return prog.experiments.ExperimentConfig(
            "accuracy", n_pairs=2, noise_levels=levels, trials=trials, seed=master_seed,
            noise_model=model)


class EavesdropQsre:
    """The eavesdropper-rate curve at n=2, fresh random key chunk per trial."""

    sizes = (2,)
    bits_range = tuple(range(3, 9))
    trials_per_point = 5

    def setup(self, prog, seed):
        prog.experiments.run_eavesdrop_sweep(self._config(prog, derive_seed(seed, 0), 1, (3,)))

    def unit(self, prog, state, seed, i, tally) -> UnitResult:
        t0 = time.perf_counter()
        trials = len(self.bits_range) * self.trials_per_point
        rows = run_sweep(prog.experiments.run_eavesdrop_sweep,
                         self._config(prog, derive_seed(seed, 1, i), self.trials_per_point,
                                      self.bits_range),
                         trials, tally)
        return UnitResult(trials, rows, [(2, (time.perf_counter() - t0) / trials)])

    @staticmethod
    def _config(prog, master_seed, trials, bits_range):
        return prog.experiments.ExperimentConfig(
            "eavesdrop", n_pairs=2, bits_range=bits_range, trials=trials, seed=master_seed)


class RoundScale:
    """One noiseless round at each n, on networks built during set-up."""

    sizes = (8, 16, 32)

    def setup(self, prog, seed):
        nets = {n: prog.simnet.QNetwork(prog.topology.build_butterfly(n)) for n in self.sizes}
        self._round(prog, nets[self.sizes[0]], derive_seed(seed, 0))
        return nets

    def unit(self, prog, state, seed, i, tally) -> UnitResult:
        rounds, times = [], []
        for n in self.sizes:
            elapsed, reg, result = self._round(prog, state[n], derive_seed(seed, 1, i, n))
            self._check(prog, n, reg, result, tally)
            times.append((n, elapsed))
            rounds.append((n, tuple(result.fidelities), result.peak_alloc, result.peak_usage))
        return UnitResult(len(self.sizes), rounds, times)

    @staticmethod
    def _round(prog, net, round_seed):
        net.reset()
        reg = prog.qstate.StateRegistry(0.0, seed=derive_seed(round_seed, 0))
        rng = np.random.default_rng(derive_seed(round_seed, 1))
        inputs = [prog.qstate.random_state(rng) for _ in range(net.topology.n_pairs)]
        t0 = time.perf_counter()
        result = prog.iedtc.run_round(net, reg, inputs)
        return time.perf_counter() - t0, reg, result

    @staticmethod
    def _check(prog, n, reg, result, tally):
        """The closed-form resource counts of the protocol hold in every round."""
        tally.round(reg, result)
        deliveries, _, bottleneck = delivery_counts(
            result.trace, prog.topology.NodeKind.RELAY, prog.topology.NodeKind.SOURCE)
        expected = {"peak_alloc": (result.peak_alloc, 4 * n),
                    "peak_usage": (result.peak_usage, 7 * n),
                    "deliveries": (deliveries, n * n + 5 * n + 1),
                    "bottleneck messages": (bottleneck, 1)}
        for what, (got, want) in expected.items():
            if got != want:
                tally.fail(1, f"n={n}: {what} {got}, expected {want}")
                break


WORKLOADS = {"accuracy-n2": AccuracyN2, "round-scale": RoundScale,
             "eavesdrop-qsre": EavesdropQsre}


# -- passes ----------------------------------------------------------------------


@dataclass
class UnitRecord:
    result: UnitResult
    counts: dict[str, int]
    seconds: float


def run_unit(workload, prog, state, seed, i, tally) -> UnitRecord:
    tally.clear()
    t0 = time.perf_counter()
    result = workload.unit(prog, state, seed, i, tally)
    elapsed = time.perf_counter() - t0
    return UnitRecord(result, tally.counts(), elapsed)


def run_units(workload, prog, state, seed, tally, seconds, after_unit):
    """Run units 0, 1, ... until ``seconds`` of wall time pass.

    ``after_unit`` is called after each unit with the share of ``seconds``
    used so far.
    """
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records.append(run_unit(workload, prog, state, seed, len(records), tally))
        after_unit((time.perf_counter() - start) / seconds)
    return records


def round_times(records, sizes) -> dict[int, list[float]]:
    """Seconds of each round, by network size."""
    return {n: [t for r in records for m, t in r.result.round_times if m == n] for n in sizes}


def scaling_exponent(by_size: dict[int, list[float]]) -> float:
    """Least-squares slope of log fastest round time against log n; 0 for one size."""
    if len(by_size) < 2:
        return 0.0
    x = np.log(list(by_size))
    y = np.log([min(times) for times in by_size.values()])
    return float(np.polyfit(x, y, 1)[0])


def total_counts(records) -> dict[str, int]:
    total = {key: 0 for key in COUNT_METRICS.values()}
    for r in records:
        for key, value in r.counts.items():
            total[key] = max(total[key], value) if key == "peak_cluster_dim" else total[key] + value
    return total


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics.

    Each timing is the fastest of many samples taken across the whole run.
    On a shared 2-vCPU virtual machine, other tenants slowed this process by
    up to 2x for stretches of 5 to 20 seconds, which moved a run's median by
    as much; the fastest sample, taken while the program ran unhindered, did
    not move with them.
    Set-up (import, topology, network, warm-up trial) is therefore repeated
    between the measured units; the repeats' programs and states are discarded.
    """
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        prog = load_program()
        state = workload.setup(prog, seed)
        setup_times.append(time.perf_counter() - t0)
        return prog, state

    def spread_setups(progress):
        if len(setup_times) < SETUP_REPEATS * min(progress, 1.0):
            timed_setup()

    prog, state = timed_setup()
    tally = Tally(prog)
    with Patcher() as patcher:
        tally.install(patcher, prog)
        records = run_units(workload, prog, state, seed, tally, seconds=seconds,
                            after_unit=spread_setups)
    while len(setup_times) < SETUP_REPEATS:
        timed_setup()
    trials = sum(r.result.trials for r in records)
    by_size = round_times(records, workload.sizes)
    largest = by_size[workload.sizes[-1]]
    metrics = {
        "trials_per_s": (max(r.result.trials / r.seconds for r in records), "1/s"),
        "round_ms_min": (min(largest) * 1e3, "ms"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = [f"{len(records)} units, {trials} trials in {sum(r.seconds for r in records):.3f} s;"
              f" median {statistics.median(r.result.trials / r.seconds for r in records):.6g}"
              " trials/s",
              f"error_rate {tally.failed / trials:.6g} ({tally.failed} of {trials} trials)",
              f"setup_s median {statistics.median(setup_times):.6g} s of {len(setup_times)}"]
    report += [f"round at n={n}: min {min(t) * 1e3:.4f} ms, median"
               f" {statistics.median(t) * 1e3:.4f} ms ({len(t)} samples)"
               for n, t in by_size.items()]
    if len(by_size) > 1:
        report.append(f"round_scaling_exponent {scaling_exponent(by_size):.4f}"
                      f" (log-log slope of min over n={list(by_size)})")
    return dict(attempted=trials, failed=tally.failed, problems=tally.problems, metrics=metrics,
                report=report, first_unit=records[0].counts, mismatch=None)


def trace(workload, seed, seconds):
    """Per-layer metrics: each unit runs traced, then again untraced.

    Both runs of a unit must give identical outputs and simulated counts.
    Running them back to back makes their time ratio, the tracing overhead,
    insensitive to the host's slow stretches.
    """
    prog = load_program()
    targets = span_targets(prog)
    tracer = Tracer(list(targets))
    tally = Tally(prog)
    traced, replay = [], []
    with Patcher() as hooks:
        tally.install(hooks, prog)
        with Patcher() as spans:
            missing = tracer.install(spans, targets)
            t0 = time.perf_counter()
            state = workload.setup(prog, seed)
            traced_wall = time.perf_counter() - t0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            with Patcher() as spans:
                tracer.install(spans, targets)
                traced.append(run_unit(workload, prog, state, seed, len(replay), tally))
            replay.append(run_unit(workload, prog, state, seed, len(replay), tally))
    traced_wall += sum(r.seconds for r in traced)

    mismatch = next((i for i, (a, b) in enumerate(zip(traced, replay))
                     if (a.result.output, a.counts) != (b.result.output, b.counts)), None)
    overhead = statistics.median(a.seconds / b.seconds for a, b in zip(traced, replay))
    spans = tracer.summary()
    metrics = {}
    for name, (calls, self_s) in spans.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_pct"] = (100.0 * self_s / traced_wall, "%")
    counts = total_counts(traced)
    for name, key in COUNT_METRICS.items():
        metrics[name] = (counts[key], "count")
    metrics["bench.self_pct"] = (100.0 * (traced_wall - sum(s for _, s in spans.values()))
                                 / traced_wall, "%")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead"] = (overhead, "x")
    metrics["round.scaling_exponent"] = (scaling_exponent(round_times(replay, workload.sizes)), "1")

    trials = sum(r.result.trials for r in traced + replay)
    by_self = sorted(spans, key=lambda s: -spans[s][1])
    report = [f"{len(traced)} units, each traced then untraced; {tracer.span_count} spans in"
              f" {traced_wall:.3f} s traced; overhead {overhead:.3f}x"]
    report += [f"{s:24s} calls {spans[s][0]:>9d}  self {spans[s][1]:9.4f} s"
               f"  {100 * spans[s][1] / traced_wall:6.2f} %" for s in by_self]
    if missing:
        report.append("not traced (name not found): " + ", ".join(missing))
    if mismatch is not None:
        report.append(f"unit {mismatch}: traced and untraced outputs differ")
    return dict(attempted=trials, failed=tally.failed, problems=tally.problems, metrics=metrics,
                report=report, first_unit=traced[0].counts, mismatch=mismatch)


# -- command line ----------------------------------------------------------------


def environment(prog_version: str) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "qbutterfly": prog_version, "machine": platform.machine(), "nproc": os.cpu_count()}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = WORKLOADS[name]()
    out = (trace if traced else measure)(workload, seed, seconds)
    correct = out["failed"] == 0 and out["mismatch"] is None
    print(f"workload {name} seed {seed} trace {int(traced)}")
    for line in out["report"]:
        print(f"  {line}")
    for metric, (value, unit) in out["metrics"].items():
        print(f"  {metric:32s} {value:.6g} {unit}")
    for problem in out["problems"]:
        print(f"  FAILED: {problem}")
    print("sim " + json.dumps({"workload": name, "seed": seed, "unit": 0, **out["first_unit"]},
                              sort_keys=True))
    print("env " + json.dumps(environment(sys.modules["qbutterfly"].__version__)))
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in out["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak memory."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if not lines or proc.returncode not in (0, 1):
            raise BenchError(f"workload {name} exited with status {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
