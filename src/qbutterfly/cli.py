"""Command-line interface.

    qbutterfly accuracy  --n 2 --noise 0.01:0.10:0.01 --trials 1000 --seed 42 --out acc.csv
    qbutterfly eavesdrop --bits 3:8 --trials 500 --out eve.csv
    qbutterfly resources --n 2:10 --out res.csv

Every range argument (--noise, --bits and resources' --n) follows one rule:
inclusive START:STOP[:STEP], or a bare number for a single point.  Each point
is checked as it is built, so an out-of-bounds range fails at its first bad
point however long it is.  Each command writes its CSV to --out and prints the
same CSV to stdout (after resources' --dump-topology, if given).
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from typing import Callable, TypeVar

from .experiments import (
    ExperimentConfig,
    check_n_pairs,
    check_noise_level,
    check_total_bits,
    csv_lines,
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


def parse_range(text: str, number: Callable[[str], N], default_step: N,
                check: Callable[[N], None]) -> tuple[N, ...]:
    """The points of START:STOP[:STEP] (stop >= start, step > 0, each part read by
    ``number``) rounded to 10 decimals, or of a bare number as given; ``check``
    sees each point as it is built.  Int ranges stay exact at any size."""
    parts = text.split(":")
    if len(parts) > 3:
        raise ValueError(f"bad range {text!r}; expected START:STOP[:STEP]")
    start = number(parts[0])
    if len(parts) == 1:
        check(start)
        return (start,)
    stop, step = number(parts[1]), number(parts[2]) if len(parts) == 3 else default_step
    if step <= 0 or stop < start:
        raise ValueError(f"bad range {text!r}; needs stop >= start and step > 0")
    if isinstance(step, int):
        last = (stop - start) // step
    else:
        span = (stop - start) / step
        if not all(math.isfinite(v) for v in (start, stop, step, span)):
            raise ValueError(f"bad range {text!r}; needs finite bounds, step and point count")
        last = math.floor(span + 1e-9)  # never past stop
    points: list[N] = []
    for i in range(last + 1):
        point = round(start + i * step, 10)
        if points and point == points[-1]:  # points never decrease: a repeat is adjacent
            raise ValueError(f"bad range {text!r}; STEP is below the 1e-10 point resolution")
        check(point)
        points.append(point)
    return tuple(points)


def _accuracy(args: argparse.Namespace) -> tuple[list, dict]:
    cfg = ExperimentConfig(
        experiment="accuracy", n_pairs=args.n,
        noise_levels=parse_range(args.noise, float, 0.01, check_noise_level),
        trials=args.trials, seed=args.seed, noise_model=args.noise_model)
    return run_accuracy_sweep(cfg), cfg.settings()


def _eavesdrop(args: argparse.Namespace) -> tuple[list, dict]:
    key_bits = load_key_file(args.key_file) if args.key_file else None
    cfg = ExperimentConfig(
        experiment="eavesdrop", n_pairs=args.n,
        bits_range=parse_range(args.bits, int, 1, check_total_bits),
        trials=args.trials, seed=args.seed, key_bits=key_bits)
    return run_eavesdrop_sweep(cfg), cfg.settings()


def _resources(args: argparse.Namespace) -> tuple[list, dict]:
    n_range = parse_range(args.n, int, 1, check_n_pairs)
    if args.dump_topology:
        print(*(serialize_topology(build_butterfly(n)) for n in n_range), sep="", end="")
    return run_resource_report(n_range), {"n_range": list(n_range)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbutterfly", description="Butterfly-network teleportation protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, step, text in (
            ("accuracy", _accuracy, "round accuracy versus gate-noise probability"),
            ("eavesdrop", _eavesdrop, "attack success rate versus key bits per message"),
            ("resources", _resources, "measured versus closed-form resource usage")):
        cmd = sub.add_parser(name, help=text)
        cmd.set_defaults(step=step)
        cmd.add_argument("--out", default=f"{name}.csv", help="CSV path; stdout prints it too")
        cmd.add_argument("--json-manifest", default=None, help="also write a JSON run manifest")
    acc, eve, res = sub.choices.values()
    for cmd, trials in ((acc, 1000), (eve, 500)):
        cmd.add_argument("--n", type=int, default=2, help="number of transceiver pairs")
        cmd.add_argument("--trials", type=int, default=trials)
        cmd.add_argument("--seed", type=int, default=42)
    acc.add_argument("--noise", default="0.01:0.10:0.01",
                     help="noise probabilities, START:STOP[:STEP] or a single value")
    acc.add_argument("--noise-model", choices=[NOISE_ENTANGLING, NOISE_ALL_GATES],
                     default=NOISE_ENTANGLING)
    eve.add_argument("--bits", default="3:8",
                     help="total key bits per message (3..65), START:STOP[:STEP]")
    eve.add_argument("--key-file", default=None, help="file of 0/1 characters: the shared key")
    res.add_argument("--n", default="2:10", help="network sizes, START:STOP[:STEP]")
    res.add_argument("--dump-topology", action="store_true",
                     help="print each network's node and link list")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        rows, settings = args.step(args)
        write_csv(rows, args.out)
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_lines(rows))
        if args.json_manifest:
            write_manifest(args.command, settings, [args.out], time.perf_counter() - started,
                           args.json_manifest)
    except (ValueError, OSError) as exc:
        print(f"qbutterfly: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
