"""Tests for the sweep harness, CSV/manifest outputs, and the CLI."""
import csv
import hashlib
import json
import math
from statistics import NormalDist

import numpy as np
import pytest

import qbutterfly.experiments
import qbutterfly.iedtc
from qbutterfly.cli import main, parse_range
from qbutterfly.experiments import (
    ExperimentConfig,
    ResourceRow,
    SweepRow,
    binomial_ci,
    check_n_pairs,
    check_noise_level,
    check_total_bits,
    run_accuracy_sweep,
    run_eavesdrop_sweep,
    run_resource_report,
    write_csv,
    write_manifest,
)
from test_iedtc import KeepOnRelease


def score_bound(successes, trials, side):
    """The q on ``side`` (-1 below, +1 above) of the estimate whose score
    |estimate - q| / sqrt(q (1 - q) / trials) is 1.96, found by bisection."""
    est = successes / trials
    if (side < 0 and successes == 0) or (side > 0 and successes == trials):
        return est
    lo, hi = (0.0, est) if side < 0 else (est, 1.0)
    for _ in range(200):
        mid = (lo + hi) / 2
        inside = abs(est - mid) <= 1.96 * math.sqrt(mid * (1 - mid) / trials)
        if inside == (side < 0):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_binomial_ci_values():
    # The 95% Wilson score interval, checked against a bisection of the score test.
    for successes, trials in [(925, 1000), (447, 1000), (1, 7), (3, 10), (0, 10), (10, 10),
                              (0, 1), (1, 1), (0, 200), (200, 200), (5, 123456)]:
        est, low, high = binomial_ci(successes, trials)
        assert est == successes / trials
        assert low == pytest.approx(score_bound(successes, trials, -1), abs=1e-12)
        assert high == pytest.approx(score_bound(successes, trials, +1), abs=1e-12)
        assert 0.0 <= low < high <= 1.0
    assert binomial_ci(925, 1000)[1:] == pytest.approx((0.9069987, 0.9397484), abs=1e-7)
    # no certainty at the ends: 0/N and N/N each keep a nonzero width
    for trials in (1, 10, 200, 1000, 10**6):
        assert binomial_ci(0, trials)[1] == 0.0 < binomial_ci(0, trials)[2]
        assert binomial_ci(trials, trials)[1] < binomial_ci(trials, trials)[2] == 1.0
    assert binomial_ci(0, 10)[2] == pytest.approx(1.96 ** 2 / (10 + 1.96 ** 2))


def test_binomial_ci_validation():
    with pytest.raises(ValueError):
        binomial_ci(5, 0)
    with pytest.raises(ValueError):
        binomial_ci(11, 10)
    with pytest.raises(ValueError):
        binomial_ci(-1, 10)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("warp")
    with pytest.raises(ValueError):
        ExperimentConfig("accuracy", noise_levels=())
    with pytest.raises(ValueError):
        ExperimentConfig("accuracy", noise_levels=(1.5,))
    with pytest.raises(ValueError):
        ExperimentConfig("accuracy", noise_levels=(0.1,), n_pairs=1)
    with pytest.raises(ValueError):
        ExperimentConfig("accuracy", noise_levels=(0.1,), trials=0)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):  # not numpy's own message
        ExperimentConfig("accuracy", noise_levels=(0.1,), seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig("eavesdrop", bits_range=(2,))
    with pytest.raises(ValueError):
        ExperimentConfig("eavesdrop", bits_range=())
    with pytest.raises(ValueError):  # the resource report takes no config
        ExperimentConfig("resources")
    # settings the experiment never reads are refused, not silently ignored
    with pytest.raises(ValueError):  # the attack runs noise-free
        ExperimentConfig("eavesdrop", bits_range=(3,), trials=20, seed=5,
                         noise_model="all-gates", noise_levels=(0.5,))
    with pytest.raises(ValueError):
        ExperimentConfig("accuracy", noise_levels=(0.1,), key_bits="0101")
    with pytest.raises(ValueError):
        ExperimentConfig("accuracy", noise_levels=(0.1,), bits_range=(9,))
    with pytest.raises(ValueError):
        ExperimentConfig("accuracy", noise_levels=(0.1,), noise_model="thermal")
    # a key too short for the widest point fails before any point runs
    with pytest.raises(ValueError, match="^key holds no complete chunk of width 6$"):
        ExperimentConfig("eavesdrop", bits_range=(3, 4, 5, 6), key_bits="01101")
    ExperimentConfig("eavesdrop", bits_range=(3, 4, 5, 6), key_bits="011010")


def test_accuracy_sweep_noiseless_is_perfect():
    cfg = ExperimentConfig("accuracy", noise_levels=(0.0,), trials=25, seed=7)
    (row,) = run_accuracy_sweep(cfg)
    assert row == SweepRow(0.0, 25, 25)
    assert (row.estimate, row.ci_low, row.ci_high) == binomial_ci(25, 25)
    assert row.ci_low < row.estimate == row.ci_high == 1.0


def test_accuracy_sweep_is_reproducible():
    cfg = ExperimentConfig("accuracy", noise_levels=(0.05, 0.1), trials=30, seed=9)
    first = run_accuracy_sweep(cfg)
    second = run_accuracy_sweep(cfg)
    assert first == second
    assert all(0.0 <= r.estimate <= 1.0 for r in first)
    # more noise should not help (coarse check at small trial counts)
    assert first[1].ci_low <= first[0].ci_high


def test_each_sweep_point_reads_as_a_one_point_sweep():
    # A row depends on its own point only, not on the sweep around it.
    acc = dict(experiment="accuracy", trials=40, seed=42)
    for model in ("entangling", "all-gates"):
        rows = run_accuracy_sweep(ExperimentConfig(
            noise_levels=parse_range("0.03:0.05:0.01", float, 0.01, check_noise_level),
            noise_model=model, **acc))
        assert [row.x for row in rows] == [0.03, 0.04, 0.05]
        for row in rows:
            assert run_accuracy_sweep(ExperimentConfig(
                noise_levels=(row.x,), noise_model=model, **acc)) == [row]
    rows = run_eavesdrop_sweep(ExperimentConfig(
        "eavesdrop", bits_range=parse_range("3:5", int, 1, check_total_bits), trials=40, seed=42))
    assert [row.x for row in rows] == [3, 4, 5]
    for row in rows:
        assert run_eavesdrop_sweep(ExperimentConfig(
            "eavesdrop", bits_range=(row.x,), trials=40, seed=42)) == [row]


def test_levels_one_ulp_apart_draw_different_payloads(monkeypatch):
    # Each trial's stream is keyed by the level's exact bits, not a rounding of it.
    payloads = {}

    def recording_round(net, reg, inputs, *args, **kwargs):
        payloads[reg.noise_prob] = inputs
        return qbutterfly.iedtc.run_round(net, reg, inputs, *args, **kwargs)

    monkeypatch.setattr(qbutterfly.experiments, "run_round", recording_round)
    low = 0.05
    high = float(np.nextafter(low, 1.0))
    run_accuracy_sweep(ExperimentConfig("accuracy", noise_levels=(low, high), trials=1, seed=42))
    assert set(payloads) == {low, high}
    assert not np.allclose(payloads[low], payloads[high])


def entangling_accuracy(p, n):
    """Exact accuracy of an n-pair round under the entangling model: each
    pair arrives exactly with probability a(p), independently of the others."""
    a = 0.25 * (1 + (1 - 4 * p / 3) ** 2 * (2 * (1 - 2 * p / 3) ** 2 + (1 - 4 * p / 3) ** 2))
    return a ** n


# Exact n=2 accuracy under the all-gates model (16 fault slots per pair).
ALL_GATES_N2 = {0.01: 0.8003, 0.02: 0.6457, 0.05: 0.3590, 0.10: 0.1679}
TEN_LEVELS = tuple(round(0.01 * i, 2) for i in range(1, 11))


def test_seed42_accuracy_lies_within_a_bonferroni_z_bound_of_the_exact_values():
    # z is fixed before looking: a two-sided 1 % family-wise level over all
    # 24 points, each scored with the sd of its exact value.  Never re-seed
    # or re-key the streams to make this pass.
    sweeps = [("entangling", 2, {p: entangling_accuracy(p, 2) for p in TEN_LEVELS}),
              ("entangling", 3, {p: entangling_accuracy(p, 3) for p in TEN_LEVELS}),
              ("all-gates", 2, ALL_GATES_N2)]
    trials = 1000
    z = NormalDist().inv_cdf(1 - 0.01 / (2 * sum(len(exact) for *_, exact in sweeps)))
    assert z == pytest.approx(3.53, abs=0.01)
    scores = {}
    for model, n, exact in sweeps:
        rows = run_accuracy_sweep(ExperimentConfig(
            "accuracy", n_pairs=n, noise_levels=tuple(exact), trials=trials, seed=42,
            noise_model=model))
        for row in rows:
            q = exact[row.x]
            scores[model, n, row.x] = (row.estimate - q) / math.sqrt(q * (1 - q) / trials)
    worst = max(scores, key=lambda k: abs(scores[k]))
    assert abs(scores[worst]) <= z, (worst, scores[worst])


def test_accuracy_sweep_raises_when_a_round_fails(monkeypatch):
    def broken_swap(*args):
        raise IndexError("simulated fault in the swap")

    monkeypatch.setattr(qbutterfly.iedtc, "teleport_encode", broken_swap)
    cfg = ExperimentConfig("accuracy", noise_levels=(0.0,), trials=20, seed=7)
    with pytest.raises(RuntimeError, match=r"noise 0\.0, trial 0: IndexError"):
        run_accuracy_sweep(cfg)


def test_accuracy_sweep_raises_when_a_round_leaks_a_qubit(monkeypatch):
    monkeypatch.setattr(qbutterfly.experiments, "StateRegistry", KeepOnRelease)
    cfg = ExperimentConfig("accuracy", noise_levels=(0.0,), trials=5, seed=7)
    with pytest.raises(RuntimeError, match=r"noise 0\.0, trial 0: round end: 2 live qubits"):
        run_accuracy_sweep(cfg)


def test_accuracy_sweep_rejects_wrong_config():
    cfg = ExperimentConfig("eavesdrop", bits_range=(3,))
    with pytest.raises(ValueError):
        run_accuracy_sweep(cfg)


def test_eavesdrop_sweep_shape_and_determinism():
    cfg = ExperimentConfig("eavesdrop", bits_range=(3,), trials=40, seed=11)
    first = run_eavesdrop_sweep(cfg)
    assert len(first) == 1
    assert first[0].x == 3
    assert first[0].trials == 40
    assert 0.0 <= first[0].estimate <= 1.0
    assert run_eavesdrop_sweep(cfg) == first


def test_eavesdrop_sweep_runs_at_the_widest_keys():
    # 64 and 65 total bits draw magnitudes up to 2**62 - 1 and 2**63 - 1.
    cfg = ExperimentConfig("eavesdrop", bits_range=(64, 65), trials=5, seed=17)
    rows = run_eavesdrop_sweep(cfg)
    assert [(row.x, row.trials) for row in rows] == [(64, 5), (65, 5)]
    assert run_eavesdrop_sweep(cfg) == rows


def test_eavesdrop_sweep_accepts_fixed_key():
    cfg = ExperimentConfig("eavesdrop", bits_range=(3,), trials=20, seed=13,
                           key_bits="101010")
    (row,) = run_eavesdrop_sweep(cfg)
    assert row.trials == 20


def test_resource_report_matches_closed_forms():
    rows = run_resource_report((2, 3))
    assert [r.n_pairs for r in rows] == [2, 3]
    first = rows[0]
    assert (first.total_links, first.quantum_links) == (7, 4)
    assert first.qubit_usage == 14
    assert first.peak_live_qubits == 8
    assert (first.ref_total_links, first.ref_quantum_links, first.ref_qubits) == (7, 4, 14)
    assert (first.benchmark_total_links, first.benchmark_quantum_links,
            first.benchmark_qubits) == (24, 20, 15)
    assert first.within_reference
    second = rows[1]
    assert (second.total_links, second.quantum_links, second.qubit_usage) == (13, 9, 21)
    assert second.within_reference


def test_sweep_csv_roundtrip(tmp_path):
    rows = [SweepRow(0.01, 1000, 925)]  # the interval columns are worked out from the counts
    path = tmp_path / "sweep.csv"
    write_csv(rows, str(path))
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 1
    rec = records[0]
    assert list(rec) == ["x", "estimate", "ci_low", "ci_high", "trials", "successes"]
    assert rec["x"] == "0.01"  # the sweep point prints exactly
    assert rec["estimate"] == "0.925000"
    assert rec["ci_low"] == "0.906999"
    assert rec["ci_high"] == "0.939748"
    assert rec["trials"] == "1000"
    assert rec["successes"] == "925"


def test_sweep_csv_bytes_are_reproducible(tmp_path):
    cfg = ExperimentConfig("accuracy", noise_levels=(0.03,), trials=20, seed=3)
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_csv(run_accuracy_sweep(cfg), str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_resource_csv_layout(tmp_path):
    path = tmp_path / "res.csv"
    write_csv(run_resource_report((2,)), str(path))
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert records[0]["n_pairs"] == "2"
    assert records[0]["qubit_usage"] == "14"
    assert records[0]["within_reference"] == "true"
    with pytest.raises(ValueError):  # no row type, so no header
        write_csv([], str(tmp_path / "empty.csv"))


def test_manifest_contents(tmp_path):
    cfg = ExperimentConfig("accuracy", noise_levels=(0.01,), trials=10, seed=42)
    path = tmp_path / "run.json"
    write_manifest("accuracy", cfg.settings(), ["acc.csv"], 1.2345, str(path))
    doc = json.loads(path.read_text())
    assert doc["version"] == "qbutterfly-0.1.0"
    assert doc["experiment"] == "accuracy"
    # the config records exactly the settings the sweep read
    assert doc["config"] == {"n_pairs": 2, "noise_levels": [0.01], "trials": 10, "seed": 42,
                             "noise_model": "entangling"}
    eve = ExperimentConfig("eavesdrop", bits_range=(3, 4), trials=5, seed=7)
    assert eve.settings() == {"n_pairs": 2, "bits_range": [3, 4], "trials": 5, "seed": 7,
                              "key_file_used": False}
    assert doc["outputs"] == ["acc.csv"]
    assert doc["elapsed_seconds"] == 1.234  # stored at millisecond precision


# -- CLI ------------------------------------------------------------------------

def test_parse_float_range():
    assert parse_range("0.05", float, 0.01, check_noise_level) == (0.05,)
    assert parse_range("0.01:0.03:0.01", float, 0.01, check_noise_level) == (0.01, 0.02, 0.03)
    levels = parse_range("0.01:0.10:0.01", float, 0.01, check_noise_level)
    assert len(levels) == 10
    assert levels[-1] == 0.1
    # a step that does not divide the range stops at the last point before stop
    assert parse_range("0:0.1:0.06", float, 0.01, check_noise_level) == (0.0, 0.06)
    assert parse_range("0.9:1.0:0.06", float, 0.01, check_noise_level) == (0.9, 0.96)
    with pytest.raises(ValueError):
        parse_range("0.5:0.1", float, 0.01, check_noise_level)
    with pytest.raises(ValueError):
        parse_range("0.1:0.5:0", float, 0.01, check_noise_level)
    with pytest.raises(ValueError):
        parse_range("1:2:3:4", float, 0.01, check_noise_level)
    for text in ("0:inf:0.01", "nan:1:0.1", "0:1:inf", "-1e308:1e308:1"):
        with pytest.raises(ValueError):
            parse_range(text, float, 0.01, check_noise_level)
    with pytest.raises(ValueError):  # rounding to 10 decimals would repeat 0.0
        parse_range("0:1e-12:1e-13", float, 0.01, check_noise_level)
    with pytest.raises(ValueError):  # 1e12 points: rejected at the first repeat
        parse_range("0:1:1e-12", float, 0.01, check_noise_level)


def test_parse_int_range():
    assert parse_range("4", int, 1, check_n_pairs) == (4,)
    assert parse_range("2:5", int, 1, check_n_pairs) == (2, 3, 4, 5)
    assert parse_range("2:10:4", int, 1, check_n_pairs) == (2, 6, 10)
    with pytest.raises(ValueError):
        parse_range("5:2", int, 1, check_n_pairs)


def test_parse_range_checks_each_point_as_it_is_built():
    seen = []

    def check(point):
        seen.append(point)
        if point > 4:
            raise ValueError(f"{point} is past 4")

    for text, number, step in (("2:9", int, 1), ("2:9:1", float, 0.5), ("7", int, 1)):
        seen.clear()
        with pytest.raises(ValueError, match="is past 4"):
            parse_range(text, number, step, check)
        assert seen == ([7] if text == "7" else [2, 3, 4, 5])  # none after the first bad one


def test_cli_rejects_an_out_of_bounds_range_before_building_it(tmp_path, capsys):
    # Neither range could ever be built (1e15 points); each fails at its first
    # out-of-bounds point, with the message ExperimentConfig gives that value.
    out = tmp_path / "x.csv"
    assert main(["accuracy", "--noise", "0:1e15:1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "qbutterfly: error: noise level 2.0 outside [0, 1]\n"
    assert main(["eavesdrop", "--bits", f"3:{10**15}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "qbutterfly: error: total bits must be in 3..65, got 66\n"
    assert not out.exists()


def test_cli_builds_no_range_past_its_first_bad_point(tmp_path, capsys):
    # resources --n is checked point by point too: 1e15 sizes are never built.
    out = tmp_path / "x.csv"
    assert main(["resources", "--n", "1:1000000000000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("qbutterfly: error: butterfly requires at least 2 "
                                       "transceiver pairs, got 1\n")
    # An int range stays exact: a 400-digit stop is walked, never divided as a float.
    assert main(["eavesdrop", "--bits", "3:1" + "0" * 400, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "qbutterfly: error: total bits must be in 3..65, got 66\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["accuracy", "--noise", "0:0.1:0.05", "--trials", "20"],
    ["eavesdrop", "--bits", "3:5", "--trials", "20"],
    ["resources", "--n", "2:4"],
])
def test_cli_stdout_prints_the_csv_it_writes(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out), "--json-manifest", str(tmp_path / "m.json")]) == 0
    assert capsys.readouterr().out.splitlines() == out.read_text().splitlines()


def test_cli_accuracy_and_manifest(tmp_path, capsys):
    out = tmp_path / "acc.csv"
    manifest = tmp_path / "acc.json"
    code = main(["accuracy", "--n", "2", "--noise", "0.02", "--trials", "15",
                 "--seed", "5", "--out", str(out), "--json-manifest", str(manifest)])
    assert code == 0
    assert out.exists() and manifest.exists()
    printed = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["x"] for row in printed] == ["0.02"]  # x prints as the CSV prints it
    assert json.loads(manifest.read_text())["experiment"] == "accuracy"


def test_cli_tells_apart_levels_closer_than_a_millionth(tmp_path, capsys):
    out = tmp_path / "close.csv"
    assert main(["accuracy", "--noise", "0.0500001:0.0500003:0.0000001", "--trials", "200",
                 "--seed", "42", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        xs = [row["x"] for row in csv.DictReader(fh)]
    assert xs == ["0.0500001", "0.0500002", "0.0500003"]
    printed = [row["x"] for row in csv.DictReader(capsys.readouterr().out.splitlines())]
    assert printed == xs  # stdout prints each level as the CSV does


def test_cli_eavesdrop_with_key_file(tmp_path, capsys):
    key_file = tmp_path / "key.txt"
    key_file.write_text("1011 0100\n")
    out = tmp_path / "eve.csv"
    code = main(["eavesdrop", "--bits", "3", "--trials", "10",
                 "--key-file", str(key_file), "--out", str(out)])
    assert code == 0
    assert [row["x"] for row in csv.DictReader(capsys.readouterr().out.splitlines())] == ["3"]
    assert out.exists()


def test_cli_resources_with_topology_dump(tmp_path, capsys):
    out = tmp_path / "res.csv"
    manifest = tmp_path / "res.json"
    code = main(["resources", "--n", "2:3", "--out", str(out), "--dump-topology",
                 "--json-manifest", str(manifest)])
    assert code == 0
    assert json.loads(manifest.read_text())["config"] == {"n_range": [2, 3]}
    stdout = capsys.readouterr().out
    assert "node M1" in stdout
    assert "link M1 M2 classical" in stdout
    printed = csv.DictReader(stdout.splitlines()[-3:])  # the CSV follows the dump
    assert [row["n_pairs"] for row in printed] == ["2", "3"]


SEED42_OUTPUTS = [
    (["eavesdrop", "--bits", "3:8", "--trials", "100", "--seed", "42"],
     "31ca347216f37f59039b306ad52afbc44ed22f247431de776d91274bc1725dad"),
    (["accuracy", "--n", "2", "--noise", "0.0:0.10:0.05", "--trials", "200", "--seed", "42",
      "--noise-model", "entangling"],
     "dbc30e477180a6ccb82b7def404887d1129838dfb95b6d7002a38165e4fa366e"),
    (["accuracy", "--n", "2", "--noise", "0.0:0.10:0.05", "--trials", "200", "--seed", "42",
      "--noise-model", "all-gates"],
     "4b60d280f5735c12c7c01d66b9cd6bf0a9645344fd4cb68bc193d489536f6eca"),
    (["resources", "--n", "2:5"],
     "fbbd8b5969bffef5f3d17521737d5c8be0b47c84e544552b0c7d3422c0eff2ba"),
]


def test_seed42_outputs_are_pinned(tmp_path):
    # A change that alters these bytes on purpose (new seed streams, say)
    # updates the digests and says why; any other change must keep them.
    for i, (argv, digest) in enumerate(SEED42_OUTPUTS):
        out = tmp_path / f"{i}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


def test_cli_error_exits(tmp_path, capsys):
    assert main(["accuracy", "--noise", "0.5:0.1"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["eavesdrop", "--bits", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["eavesdrop", "--key-file", str(tmp_path / "nope.txt")]) == 2
    assert main(["accuracy", "--n", "1", "--noise", "0.01"]) == 2
    assert main(["accuracy", "--noise", "0:inf:0.01", "--out", str(tmp_path / "y.csv")]) == 2
    capsys.readouterr()
    assert main(["eavesdrop", "--bits", "66", "--out", str(tmp_path / "z.csv")]) == 2
    assert "3..65" in capsys.readouterr().err
    assert main(["resources", "--n", "1:3", "--out", str(tmp_path / "n.csv")]) == 2
    with pytest.raises(SystemExit) as exc:  # the resource report takes no seed
        main(["resources", "--seed", "1", "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_resource_row_is_frozen():
    row = run_resource_report((2,))[0]
    assert isinstance(row, ResourceRow)
    with pytest.raises(AttributeError):
        row.n_pairs = 3
