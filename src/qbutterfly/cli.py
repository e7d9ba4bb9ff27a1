"""Command-line interface.

    qbutterfly accuracy  --n 2 --noise 0.01:0.10:0.01 --trials 1000 --seed 42 --out acc.csv
    qbutterfly eavesdrop --bits 3:8 --trials 500 --out eve.csv
    qbutterfly resources --n 2:10 --out res.csv

Range arguments are inclusive: START:STOP[:STEP].  A bare number is a
single-point range.  Each --noise and --bits point is checked as it is built,
so an out-of-bounds range fails at its first bad point however long it is.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Callable, TypeVar

from .experiments import (
    ExperimentConfig,
    check_noise_level,
    check_total_bits,
    format_cell,
    run_accuracy_sweep,
    run_eavesdrop_sweep,
    run_resource_report,
    write_csv,
    write_manifest,
)
from .qsre import load_key_file
from .qstate import NOISE_ALL_GATES, NOISE_ENTANGLING
from .topology import build_butterfly, serialize_topology


N = TypeVar("N", int, float)


def _split_range(text: str, number: Callable[[str], N], default_step: N) -> tuple[N, ...]:
    """A bare number as (value,), or START:STOP[:STEP] as (start, stop, step)
    with stop >= start and step > 0; each part is parsed by ``number``."""
    parts = text.split(":")
    if len(parts) == 1:
        return (number(parts[0]),)
    if len(parts) > 3:
        raise ValueError(f"bad range {text!r}; expected START:STOP[:STEP]")
    start, stop = number(parts[0]), number(parts[1])
    step = number(parts[2]) if len(parts) == 3 else default_step
    if step <= 0 or stop < start:
        raise ValueError(f"bad range {text!r}; needs stop >= start and step > 0")
    return start, stop, step


def parse_float_range(text: str) -> tuple[float, ...]:
    """The --noise range; each point is checked as a noise level as it is built."""
    bounds = _split_range(text, float, 0.01)
    if len(bounds) == 1:
        return bounds
    start, stop, step = bounds
    span = (stop - start) / step
    if not all(math.isfinite(v) for v in (start, stop, step, span)):
        raise ValueError(f"bad range {text!r}; needs finite bounds, step and point count")
    points: list[float] = []
    for i in range(math.floor(span + 1e-9) + 1):  # never past stop
        point = round(start + i * step, 10)
        if points and point == points[-1]:  # points never decrease: a repeat is adjacent
            raise ValueError(f"bad range {text!r}; STEP is below the 1e-10 point resolution")
        check_noise_level(point)
        points.append(point)
    return tuple(points)


def parse_int_range(text: str,
                    check: Callable[[int], None] = lambda point: None) -> tuple[int, ...]:
    bounds = _split_range(text, int, 1)
    if len(bounds) == 1:
        return bounds
    start, stop, step = bounds
    points = range(start, stop + 1, step)
    for point in points:
        check(point)
    return tuple(points)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbutterfly",
        description="Butterfly-network teleportation protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    acc = sub.add_parser("accuracy", help="round accuracy versus gate-noise probability")
    acc.add_argument("--n", type=int, default=2, help="number of transceiver pairs")
    acc.add_argument("--noise", default="0.01:0.10:0.01",
                     help="noise probabilities, START:STOP[:STEP] or a single value")
    acc.add_argument("--trials", type=int, default=1000)
    acc.add_argument("--seed", type=int, default=42)
    acc.add_argument("--noise-model", choices=[NOISE_ENTANGLING, NOISE_ALL_GATES],
                     default=NOISE_ENTANGLING)
    acc.add_argument("--out", default="accuracy.csv", help="CSV output path")
    acc.add_argument("--json-manifest", default=None, help="also write a JSON run manifest")

    eve = sub.add_parser("eavesdrop", help="attack success rate versus key bits per message")
    eve.add_argument("--n", type=int, default=2, help="number of transceiver pairs")
    eve.add_argument("--bits", default="3:8",
                     help="total key bits per message (3..65), START:STOP[:STEP]")
    eve.add_argument("--trials", type=int, default=500)
    eve.add_argument("--seed", type=int, default=42)
    eve.add_argument("--key-file", default=None,
                     help="file of 0/1 characters used as the shared key")
    eve.add_argument("--out", default="eavesdrop.csv", help="CSV output path")
    eve.add_argument("--json-manifest", default=None)

    res = sub.add_parser("resources", help="measured versus closed-form resource usage")
    res.add_argument("--n", default="2:10", help="network sizes, START:STOP[:STEP]")
    res.add_argument("--out", default="resources.csv", help="CSV output path")
    res.add_argument("--dump-topology", action="store_true",
                     help="print each network's node and link list")
    res.add_argument("--json-manifest", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "accuracy":
            cfg = ExperimentConfig(
                experiment="accuracy", n_pairs=args.n,
                noise_levels=parse_float_range(args.noise),
                trials=args.trials, seed=args.seed, noise_model=args.noise_model)
            settings = cfg.settings()
            rows = run_accuracy_sweep(cfg)
            write_csv(rows, args.out)
            for row in rows:
                print(f"noise={format_cell(row.x, exact=True)}  accuracy={row.estimate:.3f} "
                      f"[{row.ci_low:.3f}, {row.ci_high:.3f}]  ({row.successes}/{row.trials})")
        elif args.command == "eavesdrop":
            key_bits = load_key_file(args.key_file) if args.key_file else None
            cfg = ExperimentConfig(
                experiment="eavesdrop", n_pairs=args.n,
                bits_range=parse_int_range(args.bits, check_total_bits),
                trials=args.trials, seed=args.seed, key_bits=key_bits)
            settings = cfg.settings()
            rows = run_eavesdrop_sweep(cfg)
            write_csv(rows, args.out)
            for row in rows:
                print(f"bits={int(row.x)}  eavesdrop_rate={row.estimate:.3f} "
                      f"[{row.ci_low:.3f}, {row.ci_high:.3f}]  ({row.successes}/{row.trials})")
        else:
            n_range = parse_int_range(args.n)
            settings = {"n_range": list(n_range)}
            if args.dump_topology:
                for n in n_range:
                    print(serialize_topology(build_butterfly(n)), end="")
            rows = run_resource_report(n_range)
            write_csv(rows, args.out)
            for row in rows:
                print(f"n={row.n_pairs}  links={row.total_links}/{row.ref_total_links}  "
                      f"quantum={row.quantum_links}/{row.ref_quantum_links}  "
                      f"qubits={row.qubit_usage}/{row.ref_qubits}  "
                      f"within_reference={str(row.within_reference).lower()}")
        print(f"wrote {args.out}")
        if args.json_manifest:
            write_manifest(args.command, settings, [args.out], time.perf_counter() - started,
                           args.json_manifest)
            print(f"wrote {args.json_manifest}")
    except (ValueError, OSError) as exc:
        print(f"qbutterfly: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
