"""Archetypal multipartite entangled states: GHZ, W, and graph states.

Graph states share the vertex-qubit ordering of the walk (qubit ``i`` is
subsystem ``i + 2`` of the full walk space), so reduced walk states can be
compared against them without any index permutation.
"""

from __future__ import annotations

import numpy as np

from .linalg import SubsystemShape
from .walk import GraphTopology, PureState


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on ``n >= 2`` qubits."""
    if n < 2:
        raise ValueError(f"GHZ state needs n >= 2 qubits, got {n}")
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = amps[-1] = 2 ** -0.5
    return PureState(amps, SubsystemShape((2,) * n))


def w_state(n: int) -> PureState:
    """Equal superposition of the n single-excitation basis states."""
    if n < 2:
        raise ValueError(f"W state needs n >= 2 qubits, got {n}")
    amps = np.zeros(2 ** n, dtype=complex)
    for i in range(n):
        amps[1 << (n - 1 - i)] = n ** -0.5
    return PureState(amps, SubsystemShape((2,) * n))


def graph_state(topology: GraphTopology) -> PureState:
    """CZ applied across every edge of the graph on |+>^n.

    Path graphs contribute n-1 edges, cycles n; CZ is symmetric so edge
    orientation is irrelevant.
    """
    n = topology.n
    basis = np.arange(2 ** n)
    phase = np.ones(2 ** n)
    for i, j in topology.edges:
        bi = (basis >> (n - 1 - i)) & 1
        bj = (basis >> (n - 1 - j)) & 1
        phase *= 1.0 - 2.0 * (bi & bj)
    amps = phase.astype(complex) * 2.0 ** (-n / 2)
    return PureState(amps, SubsystemShape((2,) * n))


def stabilizer_expectations(state: PureState, topology: GraphTopology) -> np.ndarray:
    """Expectation of each graph-state stabilizer K_i = X_i prod_{j~i} Z_j.

    For the exact graph state of ``topology`` every entry is +1; this is
    the ground-truth check used to certify constructed cluster states.
    No operator is formed: on the state as an n-axis tensor, X_i flips
    axis i and each Z_j signs the 1 half of axis j.
    """
    n = topology.n
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for i, j in topology.edges:
        neighbours[i].add(j)
        neighbours[j].add(i)

    psi = state.amplitudes.reshape((2,) * n)
    values = np.empty(n)
    for i in range(n):
        k_psi = np.flip(psi, axis=i).copy()
        for j in neighbours[i]:
            k_psi[(slice(None),) * j + (1,)] *= -1
        values[i] = np.real(np.vdot(psi, k_psi))
    return values
