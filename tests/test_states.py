from functools import reduce

import tracemalloc

import numpy as np
import pytest

from iqwalk import (
    GraphTopology,
    ghz,
    graph_state,
    n_concurrence,
    stabilizer_expectations,
    von_neumann_entropy,
    w_state,
)
from iqwalk.linalg import SubsystemShape
from iqwalk.walk import PureState
from oracles import (
    density_factor,
    graph_stabilizer_expectations,
    random_pure,
    wootters_concurrence,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def projector(state):
    return np.outer(state.amplitudes, state.amplitudes.conj())


class TestGHZ:
    def test_two_qubit_is_bell(self):
        state = ghz(2)
        want = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.abs(state.amplitudes - want).max() < 1e-15
        assert abs(wootters_concurrence(projector(state)) - 1.0) < 1e-12

    def test_single_qubit_reductions_maximally_mixed(self):
        state = ghz(4)
        for q in range(4):
            rho = state.reduced([q])
            assert abs(von_neumann_entropy(density_factor(rho)) - 1.0) < 1e-12

    def test_normalized(self):
        assert abs(np.vdot(ghz(6).amplitudes, ghz(6).amplitudes) - 1) < 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ghz(1)


class TestWState:
    def test_four_qubit_concurrence_vanishes(self):
        assert n_concurrence(density_factor(projector(w_state(4)))) < 1e-8

    def test_two_qubit_form_and_concurrence(self):
        state = w_state(2)
        want = np.array([0, 1, 1, 0]) / np.sqrt(2)
        assert np.abs(state.amplitudes - want).max() < 1e-15
        assert abs(wootters_concurrence(projector(state)) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_amplitudes_are_exactly_n_to_the_minus_half(self, n):
        # No global-phase rescaling may round them: at n = 6 the factor
        # |a| / a of the first amplitude is 0.9999999999999999 in float64.
        amps = w_state(n).amplitudes
        excited = [1 << (n - 1 - i) for i in range(n)]
        assert np.all(amps[excited] == n ** -0.5)
        assert np.count_nonzero(amps) == n

    def test_single_qubit_reduction(self):
        rho = w_state(4).reduced([1])
        assert np.abs(rho - np.diag([0.75, 0.25])).max() < 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            w_state(1)


class TestGraphState:
    def test_two_site_path_is_cz_on_plus(self):
        state = graph_state(GraphTopology("path", 2))
        want = np.array([1, 1, 1, -1]) / 2
        assert np.abs(state.amplitudes - want).max() < 1e-15
        assert abs(wootters_concurrence(projector(state)) - 1.0) < 1e-12

    def test_cycle_amplitude_signs(self):
        # sign of each basis amplitude is (-1)^(number of edges with both
        # endpoints set); spot-check a few patterns on the 4-cycle
        state = graph_state(GraphTopology("cycle", 4))
        amp = state.amplitudes * 4.0
        assert abs(amp[0b0000] - 1) < 1e-14
        assert abs(amp[0b1100] + 1) < 1e-14   # edge (0,1)
        assert abs(amp[0b1010] - 1) < 1e-14   # no edge between 0 and 2
        assert abs(amp[0b1111] - 1) < 1e-14   # all four edges fire
        assert abs(amp[0b1001] + 1) < 1e-14   # wraparound edge (3,0)

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_stabilizers(self, kind, n):
        top = GraphTopology(kind, n)
        values = stabilizer_expectations(graph_state(top), top)
        assert np.abs(values - 1.0).max() < 1e-10

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_stabilizers_match_dense_operators_on_random_states(self, kind, n):
        top = GraphTopology(kind, n)
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            psi = random_pure(2 ** n, rng)
            got = stabilizer_expectations(PureState(psi, SubsystemShape((2,) * n)), top)
            want = graph_stabilizer_expectations(psi, n, top.edges)
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_twelve_site_graph_state_without_dense_operators(self, kind):
        # One dense K_i at n = 12 would be 256 MiB; the state is 64 KiB.
        top = GraphTopology(kind, 12)
        state = graph_state(top)
        tracemalloc.start()
        try:
            values = stabilizer_expectations(state, top)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.abs(values - 1.0).max() < 1e-12
        assert peak < 2 ** 20

    def test_cycle_and_path_differ(self):
        c4 = graph_state(GraphTopology("cycle", 4))
        l4 = graph_state(GraphTopology("path", 4))
        assert abs(np.vdot(c4.amplitudes, l4.amplitudes)) < 1 - 1e-6

    def test_cycle_invariant_under_rotation(self):
        n = 6
        state = graph_state(GraphTopology("cycle", n))
        tensor = state.amplitudes.reshape((2,) * n)
        rotated = np.moveaxis(tensor, range(n), [(i + 1) % n for i in range(n)])
        overlap = abs(np.vdot(rotated.reshape(-1), state.amplitudes))
        assert abs(overlap - 1.0) < 1e-12

    def test_stabilizer_oracle_agrees(self):
        # independent check of one stabilizer on the 4-cycle: X_1 Z_0 Z_2
        state = graph_state(GraphTopology("cycle", 4))
        k1 = reduce(np.kron, [Z, X, Z, np.eye(2)])
        val = np.vdot(state.amplitudes, k1 @ state.amplitudes)
        assert abs(val - 1.0) < 1e-12


class TestPhaseConvention:
    def test_first_nonzero_amplitude_positive(self):
        for state in (ghz(3), w_state(3), graph_state(GraphTopology("cycle", 5))):
            amps = state.amplitudes
            first = amps[np.flatnonzero(np.abs(amps) > 1e-14)[0]]
            assert abs(first.imag) < 1e-15 and first.real > 0
