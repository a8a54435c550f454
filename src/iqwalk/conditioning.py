"""Post-selection of the vertex register on a coin measurement outcome: the
reference route from one full walk state to the register metrics, which
the runner's series reach from blocked-walk statistics instead.

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


def _walk_tensor(state: PureState) -> np.ndarray:
    """The (n, 2, 2**n) tensor of a state on :func:`~iqwalk.walk.walk_shape`'s dims."""
    dims = state.shape.dims
    if dims != (dims[0], 2) + (2,) * dims[0]:
        raise ValueError("state must live on position (x) coin (x) vertex qubits, "
                         f"got dims {dims}")
    return state.amplitudes.reshape(dims[0], 2, -1)


def postselect_coin(state: PureState, proj: CoinProjection) -> tuple[np.ndarray, float]:
    """Conditional vertex-register state after projecting the coin.

    Contracts <Sigma| into the coin index of the pure walk state (cheaper
    than, but identical to, projecting the full density matrix); tracing
    out the walker then leaves ``rho = B @ B^dag`` with ``B`` the projected
    branch as a (2**n, n) matrix.  Returns ``(B, p)`` with ``B`` already
    renormalized, so ``rho`` has unit trace and rank at most n, and ``p``
    the outcome probability.  Raises :class:`ZeroProbabilityError` when
    ``p`` is below the numerical floor: the conditional state does not
    exist.
    """
    tensor = _walk_tensor(state)
    bra = proj.ket().conj()
    branch = bra[0] * tensor[:, 0, :] + bra[1] * tensor[:, 1, :]

    prob = float(np.sum(np.abs(branch) ** 2))
    if prob < ZERO_PROBABILITY:
        raise ZeroProbabilityError(
            f"projection ({proj.mu}, {proj.nu}) has probability {prob:.3e}")
    return branch.T / math.sqrt(prob), prob


def unconditioned_vertex_state(state: PureState) -> np.ndarray:
    """Factor ``B`` of the vertex-register density matrix ``rho = B @ B^dag``
    (walker and coin traced out): the walk state as a (2**n, 2n) matrix, so
    ``rho`` has rank at most 2n."""
    return _walk_tensor(state).reshape(2 * state.shape.dims[0], -1).T
