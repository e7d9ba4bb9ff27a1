"""Property tests for the key chunk -> rotation gate map."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbutterfly.qsre import rotation_gate
from qbutterfly.qstate import StateRegistry, random_state

WIDTHS = st.integers(min_value=3, max_value=12)


def chunks(width):
    return st.text(alphabet="01", min_size=width, max_size=width)


@settings(max_examples=200, deadline=None)
@given(chunk=WIDTHS.flatmap(chunks), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_chunk_inverse_undoes_its_rotation(chunk, seed):
    reg = StateRegistry()
    ref = random_state(np.random.default_rng(seed))
    q = reg.alloc_qubit(ref)
    gate = rotation_gate(chunk)
    reg.apply_gate(gate, [q])
    reg.apply_gate(gate.inverse(), [q])
    assert reg.fidelity(q, ref) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("width", range(3, 13))
def test_chunk_map_is_injective_at_each_width(width):
    # A guess equals the key's rotation only when it names the same chunk.
    gates = {rotation_gate(f"{v:0{width}b}") for v in range(2 ** width)}
    assert len(gates) == 2 ** width
