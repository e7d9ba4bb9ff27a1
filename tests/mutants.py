"""Mutation audit: each mutant listed here must fail the tests named with it.

A mutant is one exact (file, old text, new text) replacement in ``src/``.
For each, the script copies ``src/`` into a temporary directory, makes the
replacement there and runs the mutant's tests with ``pytest -x`` against the
copy; the checkout itself is never edited.  First, every named test runs once
on an unmutated copy and must pass, so that a kill means the mutant, not a
test that fails anyway.

Usage, from the repository root or anywhere else:

    python tests/mutants.py

It exits 0 when every mutant is killed, and 1 naming each mutant that
survives or whose old text does not occur exactly once in its file.  The
tier-1 suite does not collect it (pytest collects ``test_*.py`` only).
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per pytest run; a mutant that hangs its tests counts as killed


class Mutant(NamedTuple):
    name: str
    file: str              # relative to src/qbutterfly/
    old: str               # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


LANES = "tests/test_lanes.py::"
REFUSALS = LANES + "test_every_refusal_comes_before_any_change"
LANE_READS = LANES + "test_a_lane_registry_reads_each_lane_as_its_one_lane_registry"
ORACLE = "tests/test_qstate.py::test_scripted_circuit_matches_dense_oracle"
DENSE = "tests/test_properties.py::test_cluster_kernels_match_dense_oracle"
NOISY_ROUND = "tests/test_iedtc.py::test_noisy_round_counters_and_rng_position_are_pinned"

MUTANTS = (
    # Each registry refusal comes before any change.
    Mutant("gate counted before the checks", "qstate.py",
           """        if gate.matrix is not None and len(targets) == 1:
            self._apply_single(gate, targets[0], lanes)
        elif gate.matrix is None and len(targets) == 2 and targets[0] != targets[1]:
            self._apply_cnot(targets[0], targets[1], lanes)
            self._note(self._cluster_of[targets[0]])  # only a merge can grow a cluster
        else:
            need = "one target" if gate.matrix is not None else "two distinct targets"
            raise ValueError(f"{gate.kind.value} takes {need}, got {list(targets)}")
        self.gate_count += len(lanes)
""",
           """        self.gate_count += len(lanes)
        if gate.matrix is not None and len(targets) == 1:
            self._apply_single(gate, targets[0], lanes)
        elif gate.matrix is None and len(targets) == 2 and targets[0] != targets[1]:
            self._apply_cnot(targets[0], targets[1], lanes)
            self._note(self._cluster_of[targets[0]])  # only a merge can grow a cluster
        else:
            need = "one target" if gate.matrix is not None else "two distinct targets"
            raise ValueError(f"{gate.kind.value} takes {need}, got {list(targets)}")
""",
           (REFUSALS,)),
    Mutant("qubit id taken before the state-count check", "qstate.py",
           """        if len(states) != len(self.rngs):
            raise ValueError(f"need one state per lane ({len(self.rngs)}), got {len(states)}")
        q = QubitId(self._next_qubit)
        self._next_qubit += 1
""",
           """        q = QubitId(self._next_qubit)
        self._next_qubit += 1
        if len(states) != len(self.rngs):
            raise ValueError(f"need one state per lane ({len(self.rngs)}), got {len(states)}")
""",
           (REFUSALS,)),
    Mutant("measurement outcomes in reversed lane order", "qstate.py",
           "            outcomes.append(outcome)\n        return outcomes\n",
           "            outcomes.append(outcome)\n        return outcomes[::-1]\n",
           (LANE_READS,)),
    Mutant("CNOT without the distinct-target test", "qstate.py",
           "len(targets) == 2 and targets[0] != targets[1]:",
           "len(targets) == 2:",
           (REFUSALS,)),
    Mutant("cluster_state copies lane 0 into every lane", "qstate.py",
           "[amps.copy() for amps in cluster.amps]",
           "[cluster.amps[0].copy() for amps in cluster.amps]",
           (LANE_READS,)),
    Mutant("run_attack without its one-lane check", "qsre.py",
           """    if len(reg.rngs) != 1:
        raise ValueError(f"the attack runs one lane; the registry has {len(reg.rngs)}")
""",
           "",
           ("tests/test_qsre.py::test_attack_refuses_a_lane_registry_before_any_round",)),
    # apply_gate's lane, fidelity's references, the dead-qubit map and peak_alloc.
    Mutant("lane checked after the kernel", "qstate.py",
           """        if lane is None:
            lanes = self.lanes
        elif 0 <= lane < len(self.rngs):
            lanes = (lane,)
        else:
            raise ValueError(f"no lane {lane!r} in a registry of {len(self.rngs)} lanes")
        if gate.matrix is not None and len(targets) == 1:
            self._apply_single(gate, targets[0], lanes)
        elif gate.matrix is None and len(targets) == 2 and targets[0] != targets[1]:
            self._apply_cnot(targets[0], targets[1], lanes)
            self._note(self._cluster_of[targets[0]])  # only a merge can grow a cluster
        else:
            need = "one target" if gate.matrix is not None else "two distinct targets"
            raise ValueError(f"{gate.kind.value} takes {need}, got {list(targets)}")
""",
           """        lanes = self.lanes if lane is None else (lane,)
        if gate.matrix is not None and len(targets) == 1:
            self._apply_single(gate, targets[0], lanes)
        elif gate.matrix is None and len(targets) == 2 and targets[0] != targets[1]:
            self._apply_cnot(targets[0], targets[1], lanes)
            self._note(self._cluster_of[targets[0]])  # only a merge can grow a cluster
        else:
            need = "one target" if gate.matrix is not None else "two distinct targets"
            raise ValueError(f"{gate.kind.value} takes {need}, got {list(targets)}")
        if lane is not None and not 0 <= lane < len(self.rngs):
            raise ValueError(f"no lane {lane!r} in a registry of {len(self.rngs)} lanes")
""",
           (REFUSALS,)),
    Mutant("fidelity without its reference-count check", "qstate.py",
           """        if len(refs) != len(self.rngs):
            raise ValueError(f"need one reference per lane ({len(self.rngs)}), got {len(refs)}")
""",
           "",
           (REFUSALS,)),
    Mutant("dead-qubit lookup returns None", "qstate.py",
           '        raise DeadQubitError(f"qubit {q} is not live (consumed or never allocated)")',
           "        return None",
           (REFUSALS,)),
    Mutant("_note without the peak_alloc raise", "qstate.py",
           """        if len(self._cluster_of) > self.peak_alloc:
            self.peak_alloc = len(self._cluster_of)
""",
           "",
           ("tests/test_qstate.py::test_cluster_factoring_keeps_pairs_independent",)),
    # Kernels, each against the dense oracles.
    Mutant("CNOT strides swapped", "qstate.py",
           """        perm = _cnot_permutation(2 << last, 1 << (last - qubits.index(control)),
                                 1 << (last - qubits.index(target)))
""",
           """        perm = _cnot_permutation(2 << last, 1 << (last - qubits.index(target)),
                                 1 << (last - qubits.index(control)))
""",
           (ORACLE,)),
    Mutant("merge order swapped", "qstate.py",
           "        a.qubits += b.qubits\n",
           "        a.qubits[:0] = b.qubits\n",
           (ORACLE,)),
    Mutant("the wrong collapsed half", "qstate.py",
           "collapsed = ones if outcome else halves[:half]",
           "collapsed = halves[:half] if outcome else ones",
           (DENSE,)),
    Mutant("a transposed gate matrix", "qstate.py",
           "(gate.matrix @ amps[lane].reshape(-1, 2, stride))",
           "(gate.matrix.T @ amps[lane].reshape(-1, 2, stride))",
           (ORACLE,)),
    Mutant("p1 read from the 0 half", "qstate.py",
           "outcome = 1 if rng.random() < np.vdot(ones, ones).real else 0",
           "outcome = 1 if rng.random() < np.vdot(halves[:half], halves[:half]).real else 0",
           (DENSE,)),
    Mutant("H noise after the CNOT", "qstate.py",
           """            self._inject_noise(H, (a,), self.lanes)
            self._apply_cnot(a, b, self.lanes)
""",
           """            self._apply_cnot(a, b, self.lanes)
            self._inject_noise(H, (a,), self.lanes)
""",
           ("tests/test_qstate.py::test_bell_pair_draws_like_its_gates",)),
    Mutant("the kept quarter of a Bell measurement renormalized by its branch's weight",
           "qstate.py",
           "ones / math.sqrt(w_ones) if b2 else zeros / math.sqrt(w_zeros)",
           "ones / math.sqrt(w_zeros + w_ones) if b2 else zeros / math.sqrt(w_zeros + w_ones)",
           (NOISY_ROUND,)),
    # The network and the round.
    Mutant("a refused broadcast's earlier targets cut from its drain", "simnet.py",
           "queue[i:] = [(src, targets[:j], tag, payload)] if j else []",
           "queue[i:] = []",
           ("tests/test_simnet.py::test_a_broadcast_refused_midway_keeps_its_later_targets_queued",)),
    Mutant("M2 relays M1's local XOR", "iedtc.py",
           """    net.send_classical(relay, source, tuple(map(xor_combine, zip(*broadcasts))), "combined")
    net.run_until_idle()
    net.broadcast_classical(source, net.message(source, "combined"), "combined", exclude=[relay])
""",
           """    combined = tuple(map(xor_combine, zip(*broadcasts)))
    net.send_classical(relay, source, combined, "combined")
    net.run_until_idle()
    net.broadcast_classical(source, combined, "combined", exclude=[relay])
""",
           ("tests/test_iedtc.py::test_a_lost_bottleneck_message_fails_the_round",)),
    Mutant("teleport_decode without its lane-count check", "iedtc.py",
           """    if len(bits) != len(reg.lanes):
        raise ValueError(f"need one pair of bits per lane ({len(reg.lanes)}), got {len(bits)}")
""",
           "",
           (LANES + "test_a_swap_policy_that_drops_lanes_fails_the_round",)),
    # The command line: every range point is checked as it is built.
    Mutant("a range point left unchecked", "cli.py",
           """        check(point)
        points.append(point)
""",
           """        points.append(point)
""",
           ("tests/test_experiments.py::test_parse_range_checks_each_point_as_it_is_built",)),
)


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run_tests(src: Path, tests: tuple[str, ...], scratch: Path) -> subprocess.CompletedProcess:
    """The tests, run with -x against the package under ``src``."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(scratch / "hypothesis"))
    probe = "import qbutterfly; print(qbutterfly.__file__)"
    where = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                           capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        sys.exit(f"qbutterfly imports from {where}, not from the copy in {src}")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(command, -1, f"timed out after {TIMEOUT_S} s", "")


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qbutterfly-mutants-") as tmp:
        scratch = Path(tmp)
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        clean = run_tests(copy_src(scratch / "clean"), tests, scratch)
        if clean.returncode != 0:
            print(clean.stdout + clean.stderr)
            print("the named tests fail on the unmutated source; no mutant was run")
            return 1
        failures = []
        for i, m in enumerate(MUTANTS):
            src = copy_src(scratch / f"mutant-{i}")
            path = src / "qbutterfly" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                failures.append(m.name)
                print(f"STALE     {m.name}: old text occurs {text.count(m.old)} times in {m.file}")
                continue
            path.write_text(text.replace(m.old, m.new))
            t0 = time.perf_counter()
            run = run_tests(src, m.tests, scratch)
            verdict = "killed" if run.returncode != 0 else "SURVIVED"
            print(f"{verdict:<9} {m.name} ({time.perf_counter() - t0:.1f} s)")
            if run.returncode == 0:
                failures.append(m.name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - started:.0f} s")
    for name in failures:
        print(f"not killed: {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
