"""Interacting discrete-time quantum walk on path and cycle graphs.

The total Hilbert space is position (x) coin (x) one qubit per vertex, with
subsystem ordering ``(P, C, q_0, ..., q_{n-1})`` and big-endian flat
indexing.  One walk step applies, in order: the SU(2) coin on the coin
qubit, the conditional shift of the walker, and a controlled-Z between the
coin and the vertex qubit at the walker's new position.

The walker hops one site per step, so on an even cycle from the standard
start it is on the sites of parity t mod 2 at step t, and the walk steps
only their (site, coin) rows, the slice of :func:`_walked_sites`; an
explicit start walks every row.  ``runner._statistics`` says which register
columns it walks.  The shift is the row gather :func:`_shift_rows`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import DENSITY_ATOL, SubsystemShape, reduced_density

# Ceiling on the site count for dense simulation; at n = 12 one walk state
# holds 98304 amplitudes (1.5 MiB).  On an even cycle from the standard
# start the walk steps the half on one sublattice at every step, and
# `evolve` and `trajectory` hold one full state at a time.
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
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
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
        # The trace contract of every metric; written so that NaN fails it too.
        if not abs(norm ** 2 - 1.0) <= DENSITY_ATOL:
            raise ValueError(f"state is not normalized: ||psi|| = {norm:.12g}")

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
        if not isinstance(self.steps, numbers.Integral) or self.steps < 0:
            raise ValueError(f"steps must be an integer >= 0, got {self.steps!r}")
        if self.initial is not None and self.initial.shape != walk_shape(self.topology):
            raise ValueError("explicit initial state does not live on the walk's "
                             f"Hilbert space {walk_shape(self.topology).dims}")


def _standard_start(n: int, width: int, sites: int) -> np.ndarray:
    """|0>_P |0>_C (x) |+>^(n) on ``width`` of its register columns and the
    first ``sites`` sites, as a (sites, 2, width) tensor: each column is
    2**(-n/2) in row (p, c) = (0, 0)."""
    start = np.zeros((sites, 2, width), dtype=complex)
    start[0, 0] = 2.0 ** (-n / 2)
    return start


def _full_rows(sites: slice, tensor: np.ndarray, n: int) -> np.ndarray:
    """The (..., n, 2, width) tensor that is the (..., k, 2, width)
    ``tensor`` on the k sites of the slice ``sites`` and 0 on every other
    site."""
    full = np.zeros(tensor.shape[:-3] + (n,) + tensor.shape[-2:], dtype=complex)
    full[..., sites, :, :] = tensor
    return full


def standard_initial_state(topology: GraphTopology) -> PureState:
    """|0>_P |0>_C (x) |+>^(n): walker at site 0, coin 0, all vertex qubits
    in the +1 eigenstate of sigma_x."""
    n = topology.n
    return PureState(_standard_start(n, 2 ** n, n).reshape(-1), walk_shape(topology))


def build_coin(coin: CoinParams) -> np.ndarray:
    """General SU(2) coin matrix C(theta, phi1, phi2)."""
    th, p1, p2 = coin.theta, coin.phi1, coin.phi2
    c, s = np.cos(th / 2), np.sin(th / 2)
    return np.array([
        [np.exp(-0.5j * (p1 + p2)) * c, -np.exp(0.5j * (p2 - p1)) * s],
        [np.exp(0.5j * (p1 - p2)) * s, np.exp(0.5j * (p1 + p2)) * c],
    ])


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
    signs[:, 1] = (1.0 - 2.0 * bits)[..., None]
    return signs.reshape(2 * n, -1)


def _shift_rows(topology: GraphTopology) -> np.ndarray:
    """The conditional shift on H_P (x) H_C, indexed as ``p*2 + c``, as a
    row gather: ``(S @ x)[r] = x[rows[r]]``.

    Coin 0 moves the walker one site down, coin 1 one site up.  On the
    cycle both moves wrap around; on the path the two boundary moves
    instead keep the walker in place and flip the coin, which is what
    keeps the operator unitary.
    """
    n = topology.n
    sites = np.arange(n)[:, None]
    # The site each (p, c) is shifted in from: p + 1 for coin 0, p - 1 for coin 1.
    source = sites + [1, -1]
    if topology.kind == "cycle":
        return (2 * (source % n) + [0, 1]).reshape(-1)
    inside = (source >= 0) & (source < n)
    # Past the path's ends the walker stays put with its coin flipped.
    return np.where(inside, 2 * source + [0, 1], 2 * sites + [1, 0]).reshape(-1)


def _apply_step(tensor: np.ndarray, coin_mat: np.ndarray, shift_rows: np.ndarray,
                cz_signs: np.ndarray) -> np.ndarray:
    """Apply the one-step propagator U = CZ . (S (x) 1_G) . (1_P (x) C (x) 1_G)
    to the state tensor of shape (..., k, 2, width) on k sites' rows, factor
    by factor, into a fresh array.

    Leading axes are a batch of walks, each with its own coin from the
    matching (..., 2, 2) stack ``coin_mat``.  The coin is one batched
    ``matmul`` over the sites, the shift is the row gather ``shift_rows``,
    and the CZ flips signs of the result's ``float64`` view, reshaped to the
    shape of the table ``cz_signs``, in place.  Both cover only the k sites
    the step lands on.  From :func:`_walk_tensors` these are every site, or
    on an even cycle one sublattice: ``shift_rows`` is then that
    sublattice's rows of :func:`_shift_rows`, renumbered into the previous
    sublattice's tensor, and ``cz_signs`` a strided half of the
    :func:`_cz_signs` table.
    """
    *batch, _, _, g_dim = tensor.shape
    t = np.matmul(coin_mat[..., None, :, :], tensor)
    t = np.take(t.reshape(*batch, -1, g_dim), shift_rows, axis=-2)
    t.view(np.float64).reshape(*batch, *cz_signs.shape)[...] *= cz_signs
    return t.reshape(*batch, -1, 2, g_dim)


def _walked_sites(topology: GraphTopology, initial: PureState | None) -> tuple[slice, ...]:
    """The sites S_t that the walk steps, S_t being entry t mod k of the k
    returned slices.  The walker hops one site per step, so on an even
    cycle from the standard start (``initial`` None) S_t is the sites of
    parity t mod 2, and the state is exactly 0 on every other site; an
    explicit start, and every other graph, walks every site."""
    if initial is None and topology.kind == "cycle" and topology.n % 2 == 0:
        return slice(0, None, 2), slice(1, None, 2)
    return (slice(None),)


def _walk_tensors(topology: GraphTopology, coin_mats: np.ndarray, steps: int,
                  initial: PureState | None = None, *,
                  columns: slice | np.ndarray = slice(None)
                  ) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield, at t = 0..steps, the slice S_t of :func:`_walked_sites` and
    the state tensor on its sites' rows, (..., |S_t|, 2, 2**n); the state
    is 0 on every other row (see :func:`_full_rows`).  From the standard
    start S_t on an even cycle is one sublattice, n/2 sites; on the path,
    odd cycles and from an explicit start it is every site.

    Leading axes batch walks, one per coin of the (..., 2, 2) stack
    ``coin_mats``, all started from ``initial`` (``None`` selects
    |0>_P |0>_C |+>^n).  Each step is a fresh array, so a yielded tensor
    stays valid after the next one is produced.

    The CZ is diagonal in the register basis, so each register column g
    evolves on its own: ``columns``, a slice or index array, walks only those
    columns of the last axis, and the tensors are (..., |S_t|, 2,
    len(columns)).  The sign table and the standard start are built for
    those columns alone, and a sublattice's table is a strided view of it.
    """
    n = topology.n
    cz_signs = _cz_signs(topology, columns).reshape(n, 2, -1)
    walked = _walked_sites(topology, initial)
    # Row p*2 + c of the whole state, p in S_t, is row (p // k)*2 + c of
    # S_t's, k = len(walked).
    source = _shift_rows(topology).reshape(n, 2)
    rows = [(source[part] // (2 * len(walked)) * 2 + source[part] % 2).reshape(-1)
            for part in walked]
    if initial is None:
        start = _standard_start(n, cz_signs.shape[-1] // 2, n // len(walked))
    else:
        start = initial.amplitudes.reshape(n, 2, -1)[..., columns]
    tensor = np.broadcast_to(start, coin_mats.shape[:-2] + start.shape)
    yield walked[0], tensor
    for t in range(1, steps + 1):
        i = t % len(walked)
        tensor = _apply_step(tensor, coin_mats, rows[i], cz_signs[walked[i]])
        yield walked[i], tensor


def trajectory(config: WalkConfig) -> Iterator[PureState]:
    """Lazily yield the states psi(0), ..., psi(T) of the configured walk.

    Only the current state is held; a caller that needs the whole
    trajectory keeps it, e.g. with ``list(trajectory(config))``.
    """
    n = config.topology.n
    shape = walk_shape(config.topology)
    for sites, tensor in _walk_tensors(config.topology, build_coin(config.coin),
                                       config.steps, config.initial):
        yield PureState(_full_rows(sites, tensor, n).reshape(-1), shape)


def evolve(config: WalkConfig) -> PureState:
    """Run the walk for ``config.steps`` steps and return the final state.

    Applies the step operator to the state vector factor by factor (coin,
    shift, CZ) rather than ever forming its ``t``-th power.
    """
    for sites, tensor in _walk_tensors(config.topology, build_coin(config.coin),
                                       config.steps, config.initial):
        pass
    return PureState(_full_rows(sites, tensor, config.topology.n).reshape(-1),
                     walk_shape(config.topology))
