"""Post-selection of the vertex register on a coin measurement outcome.

The walker position is discarded (traced out) and the coin is projected
onto |Sigma> = cos(mu)|0> + exp(-i nu) sin(mu)|1>, leaving a renormalized
conditional state of the vertex qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbabilityError
from .walk import PureState

ZERO_PROBABILITY = 1e-12


@dataclass(frozen=True)
class CoinProjection:
    """Coin measurement direction, mu in [0, pi], nu in [0, pi/2]."""

    mu: float
    nu: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.mu <= math.pi:
            raise ValueError(f"mu must lie in [0, pi], got {self.mu}")
        if not 0.0 <= self.nu <= math.pi / 2:
            raise ValueError(f"nu must lie in [0, pi/2], got {self.nu}")

    def ket(self) -> np.ndarray:
        return np.array([math.cos(self.mu),
                         np.exp(-1j * self.nu) * math.sin(self.mu)])


def postselect_coin(state: PureState, proj: CoinProjection) -> tuple[np.ndarray, float]:
    """Conditional vertex-register state after projecting the coin.

    Contracts <Sigma| into the coin index of the pure walk state (cheaper
    than, but identical to, projecting the full density matrix), then
    traces out the walker.  Returns ``(rho, p)`` with ``rho`` the
    renormalized density matrix on the vertex qubits and ``p`` the outcome
    probability.  Raises :class:`ZeroProbabilityError` when ``p`` is below
    the numerical floor: the conditional state does not exist.
    """
    if len(state.shape.dims) < 3 or state.shape.dims[1] != 2:
        raise ValueError("state must live on position (x) coin (x) vertex qubits, "
                         f"got dims {state.shape.dims}")
    n = state.shape.dims[0]
    tensor = state.tensor().reshape(n, 2, -1)

    bra = proj.ket().conj()
    branch = bra[0] * tensor[:, 0, :] + bra[1] * tensor[:, 1, :]

    prob = float(np.sum(np.abs(branch) ** 2))
    if prob < ZERO_PROBABILITY:
        raise ZeroProbabilityError(
            f"projection ({proj.mu}, {proj.nu}) has probability {prob:.3e}")
    rho = np.einsum("pg,ph->gh", branch, branch.conj()) / prob
    return rho, prob


def unconditioned_vertex_state(state: PureState) -> np.ndarray:
    """Vertex-register density matrix: trace over walker and coin."""
    return state.reduced(range(2, len(state.shape.dims)))

