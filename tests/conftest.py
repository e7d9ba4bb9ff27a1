"""Shared test helpers."""
import pytest


def _assert_nothing_left(net, reg):
    """Round-end invariant: no live qubit, no held qubit, nothing in flight."""
    assert reg.live_count == 0
    assert all(net.node_usage(node) == 0 for node in net.topology.nodes)
    assert net.pending == 0


@pytest.fixture
def assert_nothing_left():
    return _assert_nothing_left
