import numpy as np
import pytest

from iqwalk import (
    CoinProjection,
    GraphTopology,
    STANDARD_COINS,
    WalkConfig,
    ZeroProbabilityError,
    n_concurrence,
    postselect_coin,
    standard_initial_state,
    trajectory,
    unconditioned_vertex_state,
    von_neumann_entropy,
)
from oracles import concurrence_direct, partial_trace

CYCLE4 = GraphTopology("cycle", 4)
PATH4 = GraphTopology("path", 4)


def walk_states(topology, coin, steps):
    return list(trajectory(WalkConfig(topology, coin, steps)))


def density(factor):
    return factor @ factor.conj().T


def project_then_trace(state, proj):
    """The other operator ordering: project the full density matrix on the
    coin first, then trace out walker and coin."""
    ket = proj.ket()
    pi_c = np.kron(np.eye(4), np.kron(np.outer(ket, ket.conj()), np.eye(16)))
    full = np.outer(state.amplitudes, state.amplitudes.conj())
    projected = pi_c @ full @ pi_c
    p = np.trace(projected).real
    return partial_trace(projected, state.shape.dims, keep=range(2, 6)) / p, p


class TestCoinProjection:
    def test_ket(self):
        proj = CoinProjection(np.pi / 2, 0.0)
        assert np.abs(proj.ket() - [0, 1]).max() < 1e-15

    def test_range_validation(self):
        with pytest.raises(ValueError):
            CoinProjection(-0.1, 0.0)
        with pytest.raises(ValueError):
            CoinProjection(0.5, 2.0)


class TestPostselect:
    def test_coin_zero_projection_at_t0(self):
        state = standard_initial_state(CYCLE4)
        factor, p = postselect_coin(state, CoinProjection(0.0, 0.0))
        rho = density(factor)
        assert abs(p - 1.0) < 1e-12
        assert np.abs(rho - density(unconditioned_vertex_state(state))).max() < 1e-12
        plus16 = np.full(16, 0.25)
        assert np.abs(rho - np.outer(plus16, plus16)).max() < 1e-12

    def test_orthogonal_projection_fails(self):
        state = standard_initial_state(CYCLE4)
        with pytest.raises(ZeroProbabilityError):
            postselect_coin(state, CoinProjection(np.pi / 2, 0.0))

    def test_outcome_probabilities_sum_to_one(self):
        state = walk_states(PATH4, STANDARD_COINS[2], 17)[-1]
        for mu in np.linspace(0.0, np.pi / 2, 5):
            for nu in (0.0, np.pi / 4):
                total = 0.0
                for proj in (CoinProjection(mu, nu), CoinProjection(mu + np.pi / 2, nu)):
                    try:
                        total += postselect_coin(state, proj)[1]
                    except ZeroProbabilityError:
                        pass
                assert abs(total - 1.0) < 1e-10

    def test_mixture_of_outcomes_recovers_unconditioned(self):
        for t in (5, 20, 41):
            state = walk_states(CYCLE4, STANDARD_COINS[0], t)[-1]
            b0, p0 = postselect_coin(state, CoinProjection(0.0, 0.0))
            b1, p1 = postselect_coin(state, CoinProjection(np.pi / 2, 0.0))
            mix = p0 * density(b0) + p1 * density(b1)
            assert np.abs(mix - density(unconditioned_vertex_state(state))).max() < 1e-12

    def test_matches_project_then_trace_on_full_density_matrix(self):
        state = walk_states(PATH4, STANDARD_COINS[1], 9)[-1]
        proj = CoinProjection(1.1, 0.7)
        factor, p_got = postselect_coin(state, proj)
        rho_got = density(factor)
        rho_want, p_want = project_then_trace(state, proj)
        assert abs(p_got - p_want) < 1e-12
        assert np.abs(rho_got - rho_want).max() < 1e-12

    def test_factor_metrics_match_dense_conditional_state(self):
        proj = CoinProjection(0.4, 0.3)
        states = walk_states(PATH4, STANDARD_COINS[0], 53)
        for t in (7, 23, 25, 53):       # concurrence 0 at t = 7, 0.06 to 0.12 after
            state = states[t]
            factor, _ = postselect_coin(state, proj)
            assert factor.shape == (16, 4)
            rho, _ = project_then_trace(state, proj)
            # the conditional state has rank <= n = 4
            assert abs(n_concurrence(factor, 4) - concurrence_direct(rho, 4, rank=4)) < 1e-8
            vals = np.linalg.eigvalsh(rho)
            vals = vals[vals > 1e-15]
            assert abs(von_neumann_entropy(factor) + np.sum(vals * np.log2(vals))) < 1e-12

    def test_zero_probability_threshold(self):
        state = standard_initial_state(CYCLE4)
        with pytest.raises(ZeroProbabilityError):
            postselect_coin(state, CoinProjection(np.pi / 2, np.pi / 4))


class TestVertexState:
    def test_initial_product_state(self):
        rho = density(unconditioned_vertex_state(standard_initial_state(PATH4)))
        plus16 = np.full(16, 0.25)
        assert np.abs(rho - np.outer(plus16, plus16)).max() < 1e-14

    def test_purity_bounded(self):
        for t in (0, 3, 30):
            state = walk_states(CYCLE4, STANDARD_COINS[3], t)[-1]
            rho = density(unconditioned_vertex_state(state))
            purity = np.trace(rho @ rho).real
            assert purity <= 1 + 1e-12


class TestWalkConcurrencePhenomenology:
    """Where the conditional strategy pays off, verified against an
    independent dense implementation during development: the path walk's
    unconditioned register concurrence is identically zero and conditioning
    lifts it; the cycle walk shows nonzero bursts even unconditioned."""

    def test_path_unconditioned_identically_zero(self):
        for coin in STANDARD_COINS:
            values = [n_concurrence(unconditioned_vertex_state(s), 4)
                      for s in walk_states(PATH4, coin, 100)]
            assert max(values) < 1e-8

    def test_path_conditioning_creates_concurrence(self):
        for coin in STANDARD_COINS[:2]:
            best = 0.0
            for state in walk_states(PATH4, coin, 60):
                for mu in (0.0, np.pi / 2):
                    try:
                        factor, _ = postselect_coin(state, CoinProjection(mu, 0.0))
                    except ZeroProbabilityError:
                        continue
                    best = max(best, n_concurrence(factor, 4))
            assert best > 0.05

    def test_cycle_unconditioned_has_bursts(self):
        values = [n_concurrence(unconditioned_vertex_state(s), 4)
                  for s in walk_states(CYCLE4, STANDARD_COINS[0], 100)]
        assert max(values) > 0.5
