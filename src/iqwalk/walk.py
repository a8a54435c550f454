"""Interacting discrete-time quantum walk on path and cycle graphs.

The total Hilbert space is position (x) coin (x) one qubit per vertex, with
subsystem ordering ``(P, C, q_0, ..., q_{n-1})`` and big-endian flat
indexing.  One walk step applies, in order: the SU(2) coin on the coin
qubit, the conditional shift of the walker, and a controlled-Z between the
coin and the vertex qubit at the walker's new position.

The walker hops one site per step, so on an even cycle, from a start on
one sublattice, it occupies one sublattice at every step, and the walk
steps only those (site, coin) rows; see :func:`_occupancy_plan`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import SubsystemShape, reduced_density

# Ceiling on the site count for dense simulation; at n = 12 one walk state
# holds 98304 amplitudes (1.5 MiB), of which the walk steps the half on one
# sublattice of an even cycle, and `evolve` and `trajectory` hold one full
# state at a time.
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


def _standard_start(n: int, width: int, sites: int) -> np.ndarray:
    """|0>_P |0>_C (x) |+>^(n) on ``width`` of its register columns and the
    first ``sites`` sites, as a (sites, 2, width) tensor: each column is
    2**(-n/2) in row (p, c) = (0, 0)."""
    start = np.zeros((sites, 2, width), dtype=complex)
    start[0, 0] = 2.0 ** (-n / 2)
    return start


def _full_rows(sites, tensor: np.ndarray, n: int) -> np.ndarray:
    """The (..., n, 2, width) tensor that is the (..., len(sites), 2, width)
    ``tensor`` on ``sites`` and 0 on every other site."""
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


def build_shift(topology: GraphTopology) -> np.ndarray:
    """The conditional shift on H_P (x) H_C as a permutation matrix; see :func:`_shift_rows`."""
    return np.eye(2 * topology.n, dtype=complex)[_shift_rows(topology)]


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
    ``matmul`` over the sites, the shift is the row gather ``shift_rows``
    (:func:`_shift_rows` on all sites), and the CZ flips signs of the
    result's ``float64`` view in place with the table ``cz_signs``
    (:func:`_cz_signs` on all sites).
    """
    *batch, _, _, g_dim = tensor.shape
    t = np.matmul(coin_mat[..., None, :, :], tensor)
    t = np.take(t.reshape(*batch, -1, g_dim), shift_rows, axis=-2)
    t.view(np.float64)[...] *= cz_signs
    return t.reshape(*batch, -1, 2, g_dim)


@functools.lru_cache(maxsize=64)
def _occupancy_plan(topology: GraphTopology, start: tuple[int, ...]) -> tuple[tuple, int]:
    """The walk's occupancy plan from the sites ``start``: the sites S_t the
    walker can occupy at t = 0..m-1, up to the first repeat S_m = S_loop,
    as (S_t, rows_t, dead_t), and loop.  The rows of every other site are
    exactly 0.  rows_t gathers the rows of S_{t+1} from those of S_t, and
    dead_t marks those whose source site is not in S_t (None if there are
    none): they are 0 too.  From one site, the walker on an even cycle
    occupies one sublattice at every step.  A walker that comes to occupy
    every site, as on the path and odd cycles, is planned on every site
    from t = 0: its light cone's narrower steps saved no time, and their
    changing array sizes cost the path memory.  The plan is cached, so its
    arrays are read-only.
    """
    n = topology.n
    source = _shift_rows(topology).reshape(n, 2)
    occupied = np.isin(np.arange(n), start)
    seen: dict = {}
    site_sets = []
    while occupied.tobytes() not in seen:
        seen[occupied.tobytes()] = len(site_sets)
        site_sets.append(np.flatnonzero(occupied))
        occupied = occupied[source // 2].any(axis=1)
    loop = seen[occupied.tobytes()]
    if len(site_sets[loop]) == n > len(site_sets[0]):
        return _occupancy_plan(topology, tuple(range(n)))
    plan = []
    for t, sites in enumerate(site_sets):
        after = source[site_sets[t + 1] if t + 1 < len(site_sets) else site_sets[loop]]
        position = np.full(n, -1)
        position[sites] = np.arange(len(sites))
        rows = 2 * position[after // 2] + after % 2
        entry = (sites, np.where(rows >= 0, rows, 0).reshape(-1), rows < 0)
        for array in entry:
            array.flags.writeable = False
        plan.append(entry if entry[2].any() else entry[:2] + (None,))
    return tuple(plan), loop


def _walk_tensors(topology: GraphTopology, coin_mats: np.ndarray, steps: int,
                  initial: PureState | None = None, *,
                  columns: slice | np.ndarray = slice(None)
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield, at t = 0..steps, the sites S_t of :func:`_occupancy_plan` and
    the state tensor on their rows, (..., len(S_t), 2, 2**n); the state is 0
    on every other row (see :func:`_full_rows`).  From the standard start,
    S_t on an even cycle is one sublattice, n/2 sites from t = n/2 - 1 on;
    on the path and odd cycles it is every site.

    Leading axes batch walks, one per coin of the (..., 2, 2) stack
    ``coin_mats``, all started from ``initial`` (``None`` selects
    |0>_P |0>_C |+>^n).  Each step is a fresh array, so a yielded tensor
    stays valid after the next one is produced.

    The CZ is diagonal in the register basis, so each register column g
    evolves on its own: ``columns``, a slice or index array, walks only those
    columns of the last axis, and the tensors are (..., len(S_t), 2,
    len(columns)).  The sign table and the standard start are built for
    those columns alone.  A step's table is a slice of it where S_{t+1} is
    a run of sites, else a copy, and the plan's repeating steps keep
    theirs.  The rows whose source site is not in S_t, at the edge of the
    light cone, are gathered from any row and then set to 0: building a
    table with zeros there would copy the signs at every such step.
    """
    n = topology.n
    cz_signs = _cz_signs(topology, columns).reshape(n, 2, -1)
    if initial is None:
        plan, loop = _occupancy_plan(topology, (0,))
        start = _standard_start(n, cz_signs.shape[-1] // 2, len(plan[0][0]))
    else:
        amplitudes = initial.amplitudes.reshape(n, 2, -1)
        plan, loop = _occupancy_plan(topology, tuple(np.flatnonzero(amplitudes.any(axis=(1, 2)))))
        start = amplitudes[plan[0][0]][..., columns]
    tensor = np.broadcast_to(start, coin_mats.shape[:-2] + start.shape)
    yield plan[0][0], tensor
    i, kept = 0, {}
    for _ in range(steps):
        _, rows, dead = plan[i]
        after = i + 1 if i + 1 < len(plan) else loop
        sites = plan[after][0]
        signs = kept.get(i)
        if signs is None:
            lo, hi = sites[0], sites[-1] + 1
            signs = cz_signs[lo:hi] if hi - lo == len(sites) else cz_signs[sites]
            signs = signs.reshape(2 * len(sites), -1)
            if i >= loop:
                kept[i] = signs
        tensor = _apply_step(tensor, coin_mats, rows, signs)
        if dead is not None:
            tensor[..., dead, :] = 0.0
        i = after
        yield sites, tensor


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
