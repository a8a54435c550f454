import numpy as np
import pytest

import iqwalk.metrics
from iqwalk import (
    ContractViolationError,
    closeness,
    density_factor,
    ghz,
    log_negativity,
    n_concurrence,
    trace_distance,
    validate_density_matrix,
    von_neumann_entropy,
    w_state,
)
from oracles import (
    concurrence_direct,
    random_density,
    random_pure,
    random_unitary,
    sigma_y_all,
    wootters_concurrence,
)


def projector(state):
    amps = state.amplitudes if hasattr(state, "amplitudes") else state
    return np.outer(amps, amps.conj())


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        rng = np.random.default_rng(1)
        vals = validate_density_matrix(random_density(6, rng))
        assert vals[0] >= vals[-1]

    def test_rejects_bad_trace(self):
        with pytest.raises(ContractViolationError):
            validate_density_matrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            validate_density_matrix(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ContractViolationError):
            validate_density_matrix(rho)


class TestEntropy:
    def test_pure_state_is_zero(self):
        rng = np.random.default_rng(2)
        assert von_neumann_entropy(density_factor(projector(random_pure(8, rng)))) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(density_factor(np.eye(2) / 2)) - 1.0) < 1e-12

    def test_maximally_mixed_two_qubits(self):
        assert abs(von_neumann_entropy(density_factor(np.eye(4) / 4)) - 2.0) < 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        rho = random_density(8, rng)
        for _ in range(5):
            u = random_unitary(8, rng)
            rotated = u @ rho @ u.conj().T
            assert abs(von_neumann_entropy(density_factor(rotated))
                       - von_neumann_entropy(density_factor(rho))) < 1e-9

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for dim in (2, 4, 8):
            e = von_neumann_entropy(density_factor(random_density(dim, rng)))
            assert 0.0 <= e <= np.log2(dim) + 1e-12

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.ones(2) / np.sqrt(2))

    def test_schmidt_symmetry(self):
        # both reductions of a pure bipartite state have equal entropy
        from iqwalk import reduced_density
        rng = np.random.default_rng(5)
        for dims in ((2, 4), (3, 5), (4, 8)):
            psi = random_pure(dims[0] * dims[1], rng)
            e_a = von_neumann_entropy(density_factor(reduced_density(psi, dims, [0])))
            e_b = von_neumann_entropy(density_factor(reduced_density(psi, dims, [1])))
            assert abs(e_a - e_b) < 1e-9


class TestLogNegativity:
    def test_product_states_are_zero(self):
        rng = np.random.default_rng(6)
        rho = np.kron(random_density(2, rng), random_density(3, rng))
        assert log_negativity(density_factor(rho), (2, 3), [1]) == 0.0

    def test_separable_mixtures_are_zero(self):
        rng = np.random.default_rng(7)
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(6):
            rho += np.kron(random_density(2, rng, rank=1), random_density(2, rng, rank=1))
        rho /= np.trace(rho).real
        assert log_negativity(density_factor(rho), (2, 2), [1]) == 0.0

    def test_bell_state_is_one(self):
        assert abs(log_negativity(ghz(2).amplitudes[:, None], (2, 2), [1]) - 1.0) < 1e-12

    def test_ppt_float_noise_is_exactly_zero(self):
        # Rotated product states: their partial transposes carry rounding
        # noise of either sign, which must not leak into the result.
        for seed in range(11, 16):
            rng = np.random.default_rng(seed)
            u = np.kron(random_unitary(2, rng), random_unitary(3, rng))
            rho = np.kron(random_density(2, rng, rank=1), random_density(3, rng, rank=1))
            assert log_negativity(density_factor(u @ rho @ u.conj().T), (2, 3), [1]) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_density(8, rng)
            assert log_negativity(density_factor(rho), (2, 4), [0]) >= 0.0


class TestConcurrence:
    def test_ghz_is_one(self):
        rho = projector(ghz(4))
        assert abs(n_concurrence(density_factor(rho), 4) - 1.0) < 1e-8
        assert abs(concurrence_direct(rho, 4) - 1.0) < 1e-12

    def test_w_state_is_zero(self):
        assert n_concurrence(density_factor(projector(w_state(4))), 4) < 1e-8

    def test_bell_reduces_to_wootters(self):
        assert abs(n_concurrence(density_factor(projector(ghz(2))), 2) - 1.0) < 1e-8

    def test_separable_qubit_kills_it(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            rho = np.kron(random_density(2, rng), random_density(8, rng))
            assert n_concurrence(density_factor(rho), 4) < 1e-8
            # separable qubit in the middle, not just on the edge
            rho = np.kron(np.kron(random_density(2, rng), random_density(2, rng, rank=1)),
                          random_density(4, rng))
            assert n_concurrence(density_factor(rho), 4) < 1e-8

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_hermitian_route_matches_direct(self, num_qubits):
        rng = np.random.default_rng(10 + num_qubits)
        for _ in range(10):
            rho = random_density(2 ** num_qubits, rng)
            got = n_concurrence(density_factor(rho), num_qubits)
            want = concurrence_direct(rho, num_qubits)
            assert abs(got - want) < 1e-8

    def test_two_qubit_matches_wootters_closed_form(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            rho = random_density(4, rng)
            assert abs(n_concurrence(density_factor(rho), 2) - wootters_concurrence(rho)) < 1e-8

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_low_rank_factor_matches_direct(self, num_qubits):
        # The factor is the Gaussian matrix of the Wishart construction, never
        # a dense rho; the oracle takes sqrt of eigenvalue noise, hence 1e-8
        # as in criterion 6.
        rng = np.random.default_rng(40 + num_qubits)
        dim = 2 ** num_qubits
        for rank in (1, 2, num_qubits):
            for _ in range(4):
                b = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
                b /= np.linalg.norm(b)
                want = concurrence_direct(b @ b.conj().T, num_qubits, rank=rank)
                assert abs(n_concurrence(b, num_qubits) - want) < 1e-8

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_pure_state_closed_form(self, num_qubits):
        # |psi^T Sy psi| is the pure-state n-concurrence, with no sqrt of noise
        rng = np.random.default_rng(50 + num_qubits)
        big_sy = sigma_y_all(num_qubits)
        for _ in range(5):
            psi = random_pure(2 ** num_qubits, rng)
            want = abs(psi @ big_sy @ psi)
            assert abs(n_concurrence(psi[:, None], num_qubits) - want) < 1e-12
        assert abs(n_concurrence(ghz(num_qubits).amplitudes[:, None], num_qubits)
                   - (num_qubits % 2 == 0)) < 1e-12

    def test_rejects_non_qubit_dimension(self):
        with pytest.raises(ValueError):
            n_concurrence(density_factor(np.eye(6) / 6), 2)


class TestTraceDistance:
    def test_identical_states(self):
        rng = np.random.default_rng(30)
        rho = density_factor(random_density(5, rng))
        assert trace_distance(rho, rho) == 0.0
        assert closeness(rho, rho) == 1.0

    def test_orthogonal_pure_states(self):
        a = density_factor(projector(np.array([1, 0], dtype=complex)))
        b = density_factor(projector(np.array([0, 1], dtype=complex)))
        assert abs(trace_distance(a, b) - 1.0) < 1e-12
        assert closeness(a, b) < 1e-12

    def test_mixed_vs_pure_qubit(self):
        rho = density_factor(np.eye(2) / 2)
        sigma = density_factor(np.diag([1.0, 0.0]))
        assert abs(trace_distance(rho, sigma) - 0.5) < 1e-12

    def test_metric_properties(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            a, b, c = (density_factor(random_density(6, rng)) for _ in range(3))
            assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-10
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(32)
        a, b = random_density(6, rng), random_density(6, rng)
        u = random_unitary(6, rng)
        rotated = trace_distance(density_factor(u @ a @ u.conj().T),
                                 density_factor(u @ b @ u.conj().T))
        assert abs(rotated - trace_distance(density_factor(a), density_factor(b))) < 1e-10

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_factor_matches_dense_spectrum(self, num_qubits):
        # register-like factors (2^n x 2n) against a pure target and a mixed one
        rng = np.random.default_rng(60 + num_qubits)
        shape = (2 ** num_qubits, 2 * num_qubits)
        dim = shape[0]
        for _ in range(4):
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            b /= np.linalg.norm(b)
            rho = b @ b.conj().T
            g = random_pure(dim, rng)
            sigma = random_density(dim, rng, rank=3)
            for target, dense in ((g[:, None], np.outer(g, g.conj())),
                                  (density_factor(sigma), sigma)):
                want = 0.5 * np.abs(np.linalg.eigvalsh(rho - dense)).sum()
                assert abs(trace_distance(b, target) - want) < 1e-12
            vals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
            vals = vals[vals > 0.0]
            want = -np.sum(vals * np.log2(vals))
            assert abs(von_neumann_entropy(b) - want) < 1e-12

    def test_rejects_invalid_factor(self):
        with pytest.raises(ContractViolationError):
            trace_distance(np.eye(2), np.eye(2) / np.sqrt(2))    # trace 2
        with pytest.raises(ValueError):
            trace_distance(np.ones(2) / np.sqrt(2), np.eye(2) / np.sqrt(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(density_factor(np.eye(2) / 2), density_factor(np.eye(4) / 4))


def random_factors(rng, count, shape):
    """``count`` random factors of unit Frobenius norm (unit-trace states)."""
    b = rng.normal(size=(count,) + shape) + 1j * rng.normal(size=(count,) + shape)
    return b / np.linalg.norm(b, axis=(-2, -1), keepdims=True)


class TestStacks:
    def test_stacked_distances_are_the_scalar_distances(self):
        rng = np.random.default_rng(70)
        a = random_factors(rng, 6, (16, 8))
        pure = random_pure(16, rng)[:, None]
        mixed = random_factors(rng, 6, (16, 3))
        # one target for the whole stack, or one per member
        for b in (pure, mixed):
            dist, close = trace_distance(a, b), closeness(a, b)
            assert dist.shape == close.shape == (6,)
            for k in range(6):
                bk = b if b.ndim == 2 else b[k]
                assert abs(dist[k] - trace_distance(a[k], bk)) < 1e-14
                assert abs(close[k] - closeness(a[k], bk)) < 1e-14
        # any number of leading axes
        grid = trace_distance(a.reshape(2, 3, 16, 8), mixed.reshape(2, 3, 16, 3))
        assert np.abs(grid.reshape(-1) - trace_distance(a, mixed)).max() < 1e-14
        assert trace_distance(a[:2], a[:2]).tolist() == [0.0, 0.0]

    def test_stacked_validation_is_the_scalar_validation(self):
        rng = np.random.default_rng(71)
        rhos = np.stack([random_density(4, rng) for _ in range(5)])
        vals = validate_density_matrix(rhos)
        assert vals.shape == (5, 4)
        for k in range(5):
            assert np.abs(vals[k] - validate_density_matrix(rhos[k])).max() < 1e-14

    @pytest.mark.parametrize("shape", [(16, 8), (4, 12)])
    def test_stacked_entropies_are_the_scalar_entropies(self, shape):
        # Both Gram matrices: B^dag B for a tall factor, B B^dag for a wide one.
        b = random_factors(np.random.default_rng(73), 6, shape)
        entropies = von_neumann_entropy(b)
        assert entropies.shape == (6,)
        for k in range(6):
            single = von_neumann_entropy(b[k])
            assert isinstance(single, float)
            assert abs(entropies[k] - single) < 1e-14
        grid = von_neumann_entropy(b.reshape((2, 3) + shape))
        assert np.abs(grid.reshape(-1) - entropies).max() < 1e-14

    def test_stacked_log_negativities_are_the_scalar_ones(self):
        b = random_factors(np.random.default_rng(74), 6, (8, 5))
        values = log_negativity(b, (2, 4), [1])
        assert values.shape == (6,)
        assert values.min() > 0.0
        for k in range(6):
            single = log_negativity(b[k], (2, 4), [1])
            assert isinstance(single, float)
            assert abs(values[k] - single) < 1e-14
        grid = log_negativity(b.reshape(3, 2, 8, 5), (2, 4), [1])
        assert np.abs(grid.reshape(-1) - values).max() < 1e-14

    def test_pure_and_ppt_members_give_positive_zero(self):
        # A stacked sum over zero eigenvalues must not come out as -0.0,
        # which the CSV files would print as "-0".
        product = np.kron(random_pure(2, np.random.default_rng(75)), [1.0, 0.0])[:, None]
        stack = np.stack([product, BELL])
        entropies = von_neumann_entropy(stack)     # both pure
        logneg = log_negativity(stack, (2, 2), [1])
        assert entropies.tolist() == [0.0, 0.0] and not np.signbit(entropies).any()
        assert logneg[0] == 0.0 and not np.signbit(logneg[0])
        assert abs(logneg[1] - 1.0) < 1e-12
        assert not np.signbit(von_neumann_entropy(product))

    @pytest.mark.parametrize("metric", [von_neumann_entropy,
                                        lambda b: log_negativity(b, (2, 4), [1])],
                             ids=["entropy", "logneg"])
    def test_one_bad_member_rejects_a_metric_stack(self, metric):
        b = random_factors(np.random.default_rng(76), 5, (8, 4))
        metric(b)
        non_unit = b.copy()
        non_unit[3] *= 1.1                                   # trace 1.21
        with pytest.raises(ContractViolationError, match="trace"):
            metric(non_unit)
        with pytest.raises(ContractViolationError):
            metric(with_nan(b, (1, 2, 0)))

    def test_stacked_concurrence_keeps_the_trace_contract(self):
        # The core under n_concurrence takes M = B^T Sy B and tr(B B^dag) of
        # each member; one bad trace rejects the stack.
        b = random_factors(np.random.default_rng(77), 5, (8, 3))
        m = b.swapaxes(-1, -2) @ sigma_y_all(3) @ b
        traces = np.sum(np.abs(b) ** 2, axis=(-2, -1))
        values = iqwalk.metrics._concurrence_from_sy(m, traces)
        assert values.shape == (5,)
        assert np.abs(values - [n_concurrence(member, 3) for member in b]).max() <= 1e-12
        for bad in (1.1, np.nan):
            with pytest.raises(ContractViolationError, match="trace"):
                iqwalk.metrics._concurrence_from_sy(m, np.where(np.arange(5) == 3, bad, traces))

    def test_one_bad_member_rejects_the_stack(self):
        rng = np.random.default_rng(72)
        a = random_factors(rng, 5, (8, 4))
        g = random_pure(8, rng)[:, None]
        closeness(a, g)
        non_unit = a.copy()
        non_unit[3] *= 1.1                                   # trace 1.21
        with pytest.raises(ContractViolationError, match="trace"):
            closeness(non_unit, g)
        with pytest.raises(ContractViolationError, match="trace"):
            trace_distance(g, non_unit)
        grams = a.conj().swapaxes(-1, -2) @ a
        validate_density_matrix(grams)
        non_psd = grams.copy()
        non_psd[2] = np.diag([1.5, -0.5, 0.0, 0.0])          # trace 1
        with pytest.raises(ContractViolationError, match="eigenvalue"):
            validate_density_matrix(non_psd)
        non_hermitian = grams.copy()
        non_hermitian[4, 0, 1] += 0.3
        with pytest.raises(ContractViolationError, match="Hermitian"):
            validate_density_matrix(non_hermitian)


def with_nan(a, index):
    a = np.array(a, dtype=complex)
    a[index] = np.nan
    return a


BELL = ghz(2).amplitudes[:, None]
# Each call gets one NaN somewhere in its input; in a stack, one member only.
NAN_CALLS = {
    "entropy": lambda: von_neumann_entropy(with_nan(BELL, (3, 0))),
    "logneg": lambda: log_negativity(with_nan(BELL, (3, 0)), (2, 2), [1]),
    "entropy_stack": lambda: von_neumann_entropy(with_nan(np.stack([BELL] * 4), (2, 3, 0))),
    "logneg_stack": lambda: log_negativity(with_nan(np.stack([BELL] * 4), (2, 3, 0)),
                                           (2, 2), [1]),
    "concurrence": lambda: n_concurrence(with_nan(BELL, (3, 0)), 2),
    "concurrence_stack": lambda: iqwalk.metrics._concurrence_from_sy(
        np.zeros((4, 1, 1)), with_nan(np.ones(4), 2)),
    "closeness": lambda: closeness(BELL, with_nan(BELL, (0, 0))),
    "closeness_stack": lambda: closeness(with_nan(np.stack([BELL] * 4), (2, 3, 0)), BELL),
    "validate": lambda: validate_density_matrix(np.full((2, 2), np.nan)),
    "validate_stack": lambda: validate_density_matrix(
        with_nan(np.stack([np.eye(2) / 2] * 4), (1, 0, 1))),
    "density_factor": lambda: density_factor(
        with_nan(with_nan(np.eye(2) / 2, (0, 1)), (1, 0))),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_nan_input_violates_the_contract(call):
    with pytest.raises(ContractViolationError):
        call()


class TestSolveCounts:
    """No eigensolve runs only to validate a factor: a Gram matrix is
    Hermitian and PSD by construction, so its trace is the whole check."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        solve = iqwalk.metrics.hermitian_eig

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(iqwalk.metrics, "hermitian_eig", counted)
        return calls

    def test_closeness_of_a_stack(self, eig_calls):
        rng = np.random.default_rng(80)
        closeness(random_factors(rng, 32, (16, 8)), random_pure(16, rng)[:, None])
        assert len(eig_calls) == 1

    def test_concurrence(self, eig_calls):
        n_concurrence(random_factors(np.random.default_rng(81), 1, (16, 8))[0], 4)
        assert len(eig_calls) == 0

    def test_entropy(self, eig_calls):
        von_neumann_entropy(random_factors(np.random.default_rng(82), 1, (16, 8))[0])
        assert len(eig_calls) == 1

    def test_logneg(self, eig_calls):
        log_negativity(random_factors(np.random.default_rng(83), 1, (8, 16))[0], (2, 4), [1])
        assert len(eig_calls) == 1
