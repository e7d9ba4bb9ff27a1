"""Shared test helpers."""
import math

import numpy as np
import pytest


def _assert_nothing_left(net, reg):
    """Round-end invariant: no live qubit, no held qubit, nothing in flight or queued."""
    assert reg.live_count == 0
    assert not any(net.qubits.values())
    assert net.in_flight == 0
    assert net.pending == 0


@pytest.fixture
def assert_nothing_left():
    return _assert_nothing_left


def partial_trace(psi, keep):
    """Density matrix of the qubits `keep` of the dense state psi (qubit 0 =
    most significant), keep[0] the high bit, by an explicit einsum trace."""
    n = int(round(math.log2(psi.size)))
    t = psi.reshape([2] * n)
    rows, cols = "abcdefgh"[:n], "ijklmnop"[:n]
    traced = "".join(cols[i] if i in keep else rows[i] for i in range(n))
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    rho = np.einsum(f"{rows},{traced}->{out}", t, t.conj())
    return rho.reshape(2 ** len(keep), 2 ** len(keep))


def pair_fidelity(reg, q1, q2, ref):
    """<ref|rho_{q1,q2}|ref> (q1 the high bit), from the registry's cluster
    amplitudes by the dense partial trace above."""
    order1, (amps1,) = reg.cluster_state(q1)
    order2, (amps2,) = reg.cluster_state(q2)
    if order1 == order2:
        rho = partial_trace(amps1, [order1.index(q1), order1.index(q2)])
    else:
        rho = np.kron(partial_trace(amps1, [order1.index(q1)]),
                      partial_trace(amps2, [order2.index(q2)]))
    return float(np.real(np.conj(ref) @ rho @ ref))
