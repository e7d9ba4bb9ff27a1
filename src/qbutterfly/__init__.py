"""Simulator of a hybrid classical-quantum butterfly network.

Core pieces: a cluster-factored pure-state qubit registry (qstate), the
butterfly topology and resource formulas (topology), a tick-based
message-passing layer (simnet), the swap-assisted teleportation protocol
with XOR-coded classical messaging (iedtc), the rotation-encoding defense
and its insider-attack model (qsre), and the Monte-Carlo experiment
drivers (experiments).  The package namespace carries only what one
round needs; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .qstate import StateRegistry, random_state
from .topology import build_butterfly
from .simnet import QNetwork
from .iedtc import run_round

__all__ = ["QNetwork", "StateRegistry", "build_butterfly", "random_state", "run_round"]
