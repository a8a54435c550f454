"""Interacting discrete-time quantum walk on path and cycle graphs.

The total Hilbert space is position (x) coin (x) one qubit per vertex, with
subsystem ordering ``(P, C, q_0, ..., q_{n-1})`` and big-endian flat
indexing.  One walk step applies, in order: the SU(2) coin on the coin
qubit, the conditional shift of the walker, and a controlled-Z between the
coin and the vertex qubit at the walker's new position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import SubsystemShape, reduced_density

# Ceiling on the site count for dense simulation; at n = 12 one walk state
# holds 98304 amplitudes (1.5 MiB).  `evolve` and `trajectory` hold one state
# at a time; every series and sweep holds one block of register columns
# (runner._REGISTER_BLOCK) with its own sign table and start, plus stacks of
# O(T n^2) statistics per walk, and no table 2**n columns wide.  A sweep
# walks a block of coins at once, with at most 12 MiB per step array
# (runner._SWEEP_STEP_ENTRIES).
MAX_SITES = 12

GRAPH_KINDS = ("path", "cycle")


@dataclass(frozen=True)
class GraphTopology:
    """Path (L_n) or cycle (C_n) graph with ``n >= 2`` sites."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"kind must be one of {GRAPH_KINDS}, got {self.kind!r}")
        if self.n < 2:
            raise ValueError(f"need at least 2 sites, got n={self.n}")
        if self.n > MAX_SITES:
            raise ValueError(f"n={self.n} exceeds the dense-simulation ceiling "
                             f"MAX_SITES={MAX_SITES}")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Simple-graph edge list: n-1 chain edges, plus the wraparound edge
        for cycles (which collapses onto the chain edge when n=2)."""
        chain = [(i, i + 1) for i in range(self.n - 1)]
        if self.kind == "cycle" and self.n > 2:
            chain.append((self.n - 1, 0))
        return tuple(chain)


@dataclass(frozen=True)
class CoinParams:
    """Angles (theta, phi1, phi2) of the general SU(2) coin, in radians."""

    theta: float
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        for name, value in zip(("theta", "phi1", "phi2"), self.astuple()):
            if not math.isfinite(value):
                raise ValueError(f"coin angle {name} must be finite, got {value}")

    def astuple(self) -> tuple[float, float, float]:
        return (self.theta, self.phi1, self.phi2)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector together with its subsystem dimensions.

    The amplitudes are a read-only copy of the input, so a validated state
    cannot change under its holder.
    """

    amplitudes: np.ndarray
    shape: SubsystemShape

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex, order="C")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        self.shape.check_vector(amps)
        norm = np.linalg.norm(amps)
        # Written so that a NaN norm fails the check too.
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state is not normalized: ||psi|| = {norm:.12g}")

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amplitudes.reshape(self.shape.dims)

    def reduced(self, keep) -> np.ndarray:
        """Reduced density matrix on the subsystems in ``keep``."""
        return reduced_density(self.amplitudes, self.shape, keep)


def walk_shape(topology: GraphTopology) -> SubsystemShape:
    """Subsystem dims (n, 2, 2, ..., 2): position, coin, n vertex qubits."""
    return SubsystemShape((topology.n, 2) + (2,) * topology.n)


@dataclass(frozen=True)
class WalkConfig:
    """Everything needed to run a walk: graph, coin angles, step count, and
    the initial state (``None`` selects |0>_P |0>_C |+>^n)."""

    topology: GraphTopology
    coin: CoinParams
    steps: int
    initial: PureState | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.initial is not None and self.initial.shape != walk_shape(self.topology):
            raise ValueError("explicit initial state does not live on the walk's "
                             f"Hilbert space {walk_shape(self.topology).dims}")


def _standard_start(n: int, width: int) -> np.ndarray:
    """|0>_P |0>_C (x) |+>^(n) on ``width`` of its register columns, as an
    (n, 2, width) tensor: each column is 2**(-n/2) in row (p, c) = (0, 0)."""
    start = np.zeros((n, 2, width), dtype=complex)
    start[0, 0] = 2.0 ** (-n / 2)
    return start


def standard_initial_state(topology: GraphTopology) -> PureState:
    """|0>_P |0>_C (x) |+>^(n): walker at site 0, coin 0, all vertex qubits
    in the +1 eigenstate of sigma_x."""
    n = topology.n
    return PureState(_standard_start(n, 2 ** n).reshape(-1), walk_shape(topology))


def build_coin(coin: CoinParams) -> np.ndarray:
    """General SU(2) coin matrix C(theta, phi1, phi2)."""
    th, p1, p2 = coin.theta, coin.phi1, coin.phi2
    c, s = np.cos(th / 2), np.sin(th / 2)
    return np.array([
        [np.exp(-0.5j * (p1 + p2)) * c, -np.exp(0.5j * (p2 - p1)) * s],
        [np.exp(0.5j * (p1 - p2)) * s, np.exp(0.5j * (p1 + p2)) * c],
    ])


def build_shift(topology: GraphTopology) -> np.ndarray:
    """Conditional shift on H_P (x) H_C, indexed as ``p*2 + c``.

    Coin 0 moves the walker one site down, coin 1 one site up.  On the
    cycle both moves wrap around; on the path the two boundary moves
    instead keep the walker in place and flip the coin, which is what
    keeps the operator unitary.
    """
    n = topology.n
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    if topology.kind == "cycle":
        for i in range(n):
            s[((i - 1) % n) * 2 + 0, i * 2 + 0] = 1.0
            s[((i + 1) % n) * 2 + 1, i * 2 + 1] = 1.0
    else:
        for i in range(1, n):
            s[(i - 1) * 2 + 0, i * 2 + 0] = 1.0
        for i in range(n - 1):
            s[(i + 1) * 2 + 1, i * 2 + 1] = 1.0
        s[0 * 2 + 1, 0 * 2 + 0] = 1.0              # reflect at site 0, coin 0 -> 1
        s[(n - 1) * 2 + 0, (n - 1) * 2 + 1] = 1.0  # reflect at site n-1, coin 1 -> 0
    return s


def _cz_signs(topology: GraphTopology, columns: slice | np.ndarray = slice(None)) -> np.ndarray:
    """The position-controlled CZ on the register columns ``columns`` (a
    slice or index array over the 2**n basis states) as a (2n, 2 * width)
    table of +-1 signs.

    Row ``p*2 + c`` holds, for each register basis state g of the block,
    the sign that |p>_P |c>_C |g> picks up: -1 exactly when the coin is 1
    and the vertex qubit at the walker's position is 1.  Each sign appears
    twice, for the real and the imaginary part, so that the table scales
    the ``float64`` view of a (..., 2n, width) complex tensor in place.
    """
    n = topology.n
    # bits[p, j]: vertex qubit p of the block's j-th register state (big-endian).
    bits = (np.arange(2 ** n)[columns] >> np.arange(n - 1, -1, -1)[:, None]) & 1
    signs = np.ones((n, 2, bits.shape[1], 2))
    signs[:, 1] -= 2 * bits[..., None]
    return signs.reshape(2 * n, -1)


def interaction_diagonal(topology: GraphTopology) -> np.ndarray:
    """Diagonal (+-1 entries) of the position-controlled CZ, flattened in
    the walk's (P, C, q_0, ..., q_{n-1}) order: the real-part columns of
    :func:`_cz_signs`."""
    return _cz_signs(topology)[:, 0::2].reshape(-1)


def _shift_rows(topology: GraphTopology) -> np.ndarray:
    """The shift as a row gather: ``(S @ x)[r] = x[rows[r]]``, read off the
    permutation matrix :func:`build_shift`."""
    return build_shift(topology).real.argmax(axis=1)


def _apply_step(tensor: np.ndarray, coin_mat: np.ndarray, shift_rows: np.ndarray,
                cz_signs: np.ndarray) -> np.ndarray:
    """Apply the one-step propagator U = CZ . (S (x) 1_G) . (1_P (x) C (x) 1_G)
    to the state tensor of shape (..., n, 2, 2**n), factor by factor, into a
    fresh array.

    Leading axes are a batch of walks, each with its own coin from the
    matching (..., 2, 2) stack ``coin_mat``.  The coin is one batched
    ``matmul`` over the sites, the shift is the row gather
    :func:`_shift_rows`, and the CZ flips signs of the result's ``float64``
    view in place with the table :func:`_cz_signs`.
    """
    *batch, n, _, g_dim = tensor.shape
    t = np.matmul(coin_mat[..., None, :, :], tensor)
    t = np.take(t.reshape(*batch, 2 * n, g_dim), shift_rows, axis=-2)
    t.view(np.float64)[...] *= cz_signs
    return t.reshape(*batch, n, 2, g_dim)


def _walk_tensors(topology: GraphTopology, coin_mats: np.ndarray, steps: int,
                  initial: PureState | None = None, *,
                  columns: slice | np.ndarray = slice(None)) -> Iterator[np.ndarray]:
    """Yield the state tensor of shape (..., n, 2, 2**n) at t = 0..steps.

    Leading axes batch walks, one per coin of the (..., 2, 2) stack
    ``coin_mats``, all started from ``initial`` (``None`` selects
    |0>_P |0>_C |+>^n).  Each step is a fresh array, so a yielded tensor
    stays valid after the next one is produced.

    The CZ is diagonal in the register basis, so each register column g
    evolves on its own: ``columns``, a slice or index array, walks only those
    columns of the last axis, and the tensors are (..., n, 2, len(columns)).
    The sign table and the standard start are built for those columns alone.
    """
    n = topology.n
    shift_rows = _shift_rows(topology)
    cz_signs = _cz_signs(topology, columns)
    if initial is None:
        start = _standard_start(n, cz_signs.shape[1] // 2)
    else:
        start = initial.amplitudes.reshape(n, 2, -1)[..., columns]
    tensor = np.broadcast_to(start, coin_mats.shape[:-2] + start.shape)
    yield tensor
    for _ in range(steps):
        tensor = _apply_step(tensor, coin_mats, shift_rows, cz_signs)
        yield tensor


def trajectory(config: WalkConfig) -> Iterator[PureState]:
    """Lazily yield the states psi(0), ..., psi(T) of the configured walk.

    Only the current state is held; a caller that needs the whole
    trajectory keeps it, e.g. with ``list(trajectory(config))``.
    """
    shape = walk_shape(config.topology)
    for tensor in _walk_tensors(config.topology, build_coin(config.coin),
                                config.steps, config.initial):
        yield PureState(tensor.reshape(-1), shape)


def evolve(config: WalkConfig) -> PureState:
    """Run the walk for ``config.steps`` steps and return the final state.

    Applies the step operator to the state vector factor by factor (coin,
    shift, CZ) rather than ever forming its ``t``-th power.
    """
    for tensor in _walk_tensors(config.topology, build_coin(config.coin),
                                config.steps, config.initial):
        pass
    return PureState(tensor.reshape(-1), walk_shape(config.topology))
