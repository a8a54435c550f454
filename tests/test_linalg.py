import itertools

import numpy as np
import pytest

from iqwalk import (
    ContractViolationError,
    SubsystemShape,
    density_factor,
    hermitian_eig,
    matrix_sqrt_psd,
    partial_transpose,
    reduced_density,
    reduction_factor,
    schatten1_norm,
)
from oracles import partial_trace, partial_trace_loops, random_density, random_pure

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
BELL_RHO = np.outer(BELL, BELL)


class TestSubsystemShape:
    def test_total(self):
        assert SubsystemShape((4, 2, 2, 2, 2, 2)).total == 128

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SubsystemShape((2, 0))
        with pytest.raises(ValueError):
            SubsystemShape(())

    def test_checks_sizes(self):
        shape = SubsystemShape((2, 3))
        shape.check_vector(np.zeros(6))
        with pytest.raises(ValueError):
            shape.check_vector(np.zeros(5))
        with pytest.raises(ValueError):
            shape.check_matrix(np.zeros((6, 5)))


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        out = partial_trace(BELL_RHO, (2, 2), keep=[0])
        assert np.abs(out - I2 / 2).max() < 1e-12

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(11)
        rho_a = random_density(3, rng)
        rho_b = random_density(4, rng)
        out = partial_trace(np.kron(rho_a, rho_b), (3, 4), keep=[0])
        assert np.abs(out - rho_a).max() < 1e-12

    def test_three_qubit_pure_vs_oracle(self):
        rng = np.random.default_rng(12)
        psi = random_pure(8, rng)
        rho = np.outer(psi, psi.conj())
        out = partial_trace(rho, (2, 2, 2), keep=[0, 2])
        assert np.abs(out - partial_trace_loops(rho, (2, 2, 2), [0, 2])).max() < 1e-12

    def test_keep_everything_is_identity_map(self):
        rng = np.random.default_rng(13)
        rho = random_density(6, rng)
        assert np.array_equal(partial_trace(rho, (2, 3), keep=[0, 1]), rho)

    def test_trace_preserved(self):
        rng = np.random.default_rng(14)
        rho = random_density(12, rng)
        for keep in ([0], [1], [2], [0, 2]):
            out = partial_trace(rho, (2, 3, 2), keep=keep)
            assert abs(np.trace(out) - 1) < 1e-12

    def test_all_small_shapes_vs_oracle(self):
        # every 2- and 3-subsystem shape with local dims in {2,3,4},
        # every nonempty keep subset
        rng = np.random.default_rng(15)
        for k in (2, 3):
            for dims in itertools.product((2, 3, 4), repeat=k):
                rho = random_density(int(np.prod(dims)), rng)
                for r in range(1, k + 1):
                    for keep in itertools.combinations(range(k), r):
                        got = partial_trace(rho, dims, keep)
                        want = partial_trace_loops(rho, dims, keep)
                        assert np.abs(got - want).max() < 1e-12, (dims, keep)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), (2, 2), keep=[0])
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), keep=[3])
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), keep=[])


class TestPartialTranspose:
    def test_all_parts_is_full_transpose(self):
        rng = np.random.default_rng(21)
        rho = random_density(6, rng)
        out = partial_transpose(rho, (2, 3), part=[0, 1])
        assert np.abs(out - rho.T).max() < 1e-14

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(22)
        rho = np.kron(random_density(2, rng), random_density(2, rng))
        pt = partial_transpose(rho, (2, 2), part=[1])
        a = np.sort(np.linalg.eigvalsh(rho))
        b = np.sort(np.linalg.eigvalsh(pt))
        assert np.abs(a - b).max() < 1e-12

    def test_bell_negative_eigenvalue(self):
        pt = partial_transpose(BELL_RHO, (2, 2), part=[1])
        vals = np.sort(np.linalg.eigvalsh(pt))
        assert np.abs(vals - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12

    def test_stack_is_transposed_member_by_member(self):
        rng = np.random.default_rng(24)
        rhos = np.stack([random_density(12, rng) for _ in range(6)]).reshape(2, 3, 12, 12)
        pts = partial_transpose(rhos, (2, 3, 2), part=[0, 2])
        assert pts.shape == rhos.shape
        for i, j in itertools.product(range(2), range(3)):
            assert np.array_equal(pts[i, j], partial_transpose(rhos[i, j], (2, 3, 2), [0, 2]))
        with pytest.raises(ValueError):
            partial_transpose(rhos, (2, 2, 2), part=[1])

    def test_involution_and_invariants(self):
        rng = np.random.default_rng(23)
        rho = random_density(12, rng)
        pt = partial_transpose(rho, (2, 3, 2), part=[1])
        assert np.abs(partial_transpose(pt, (2, 3, 2), part=[1]) - rho).max() < 1e-14
        assert abs(np.trace(pt) - 1) < 1e-12
        assert np.abs(pt - pt.conj().T).max() < 1e-12


class TestHermitianEig:
    def test_diagonal_sorted_descending(self):
        vals, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [3, 2, 1])

    def test_maximally_mixed(self):
        vals = hermitian_eig(I2 / 2, vectors=False)
        assert isinstance(vals, np.ndarray)
        assert np.allclose(vals, [0.5, 0.5])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eig(X, vectors=False), [1, -1])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        lam, v = hermitian_eig(h)
        assert abs(lam.sum() - np.trace(h).real) < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-10
        assert np.abs((v * lam) @ v.conj().T - h).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_is_solved_member_by_member(self):
        rng = np.random.default_rng(32)
        a = rng.normal(size=(2, 3, 5, 5)) + 1j * rng.normal(size=(2, 3, 5, 5))
        h = a + a.conj().swapaxes(-1, -2)
        vals, vecs = hermitian_eig(h)
        only_vals = hermitian_eig(h, vectors=False)
        assert vals.shape == only_vals.shape == (2, 3, 5) and vecs.shape == (2, 3, 5, 5)
        for i, j in itertools.product(range(2), range(3)):
            want_vals, want_vecs = hermitian_eig(h[i, j])
            assert np.abs(vals[i, j] - want_vals).max() < 1e-12
            assert np.abs(only_vals[i, j] - want_vals).max() < 1e-12
            assert np.abs(np.abs(vecs[i, j].conj().T @ want_vecs) - np.eye(5)).max() < 1e-10
        h[1, 2, 0, 3] += 1e-6
        with pytest.raises(ContractViolationError):
            hermitian_eig(h, vectors=False)


class TestMatrixSqrt:
    def test_identity(self):
        assert np.abs(matrix_sqrt_psd(np.eye(3)) - np.eye(3)).max() < 1e-12

    def test_diagonal(self):
        out = matrix_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.abs(out - np.diag([2.0, 3.0])).max() < 1e-12

    def test_projector_is_fixed_point(self):
        # sqrt amplifies eigenvalue noise eps to sqrt(eps) ~ 1e-8, so the
        # fixed-point comparison is looser than the B^2 = A contract.
        rng = np.random.default_rng(41)
        psi = random_pure(5, rng)
        proj = np.outer(psi, psi.conj())
        root = matrix_sqrt_psd(proj)
        assert np.abs(root - proj).max() < 1e-7
        assert np.abs(root @ root - proj).max() < 1e-9

    def test_square_recovers_input(self):
        rng = np.random.default_rng(42)
        rho = random_density(9, rng)
        b = matrix_sqrt_psd(rho)
        assert np.abs(b @ b - rho).max() < 1e-9
        assert np.abs(b - b.conj().T).max() < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            matrix_sqrt_psd(np.diag([1.0, -1e-6]))


class TestSchatten1:
    def test_density_matrix(self):
        rng = np.random.default_rng(51)
        assert abs(schatten1_norm(random_density(7, rng)) - 1) < 1e-12

    def test_plus_minus_diag(self):
        assert abs(schatten1_norm(np.diag([1.0, -1.0])) - 2) < 1e-12

    def test_bell_partial_transpose(self):
        pt = partial_transpose(BELL_RHO, (2, 2), part=[1])
        assert abs(schatten1_norm(pt) - 2) < 1e-12

    def test_matches_singular_values(self):
        rng = np.random.default_rng(52)
        pt = partial_transpose(random_density(12, rng), (2, 3, 2), part=[1])
        svd = np.linalg.svd(pt, compute_uv=False).sum()
        assert abs(schatten1_norm(pt) - svd) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            schatten1_norm(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            schatten1_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestReducedDensity:
    def test_matches_partial_trace_of_projector(self):
        rng = np.random.default_rng(61)
        dims = (2, 3, 2)
        psi = random_pure(12, rng)
        rho = np.outer(psi, psi.conj())
        for keep in ([0], [2], [0, 2], [1, 2]):
            got = reduced_density(psi, dims, keep)
            want = partial_trace(rho, dims, keep)
            assert np.abs(got - want).max() < 1e-12

    def test_factor_shape(self):
        rng = np.random.default_rng(62)
        psi = random_pure(12, rng)
        for keep, rows in (([0], 2), ([1, 2], 6), ([0, 2], 4)):
            f = reduction_factor(psi, (2, 3, 2), keep)
            assert f.shape == (rows, 12 // rows)
            assert np.abs(f @ f.conj().T - reduced_density(psi, (2, 3, 2), keep)).max() == 0.0


class TestDensityFactor:
    def test_reconstructs_input(self):
        rng = np.random.default_rng(71)
        for rank in (1, 3, 6):
            rho = random_density(6, rng, rank=rank)
            b = density_factor(rho)
            assert np.abs(b @ b.conj().T - rho).max() < 1e-12

    def test_clamps_noise_and_rejects_negative(self):
        b = density_factor(np.diag([1.0, -1e-13]))
        assert np.abs(b @ b.conj().T - np.diag([1.0, 0.0])).max() == 0.0
        with pytest.raises(ContractViolationError):
            density_factor(np.diag([1.0, -1e-6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            density_factor(np.array([[0.5, 0.3], [0.0, 0.5]]))

    @pytest.mark.parametrize("batch", [(3,), (2,), (2, 4)])
    def test_stack_is_factored_member_by_member(self, batch):
        # A batch of 3 3 x 3 matrices is where scaling the eigenvectors by
        # an unaligned (..., d) vector broadcasts silently wrong.
        rng = np.random.default_rng(72)
        rho = np.array([random_density(3, rng, rank=1 + i % 3)
                        for i in range(int(np.prod(batch)))]).reshape(batch + (3, 3))
        b = density_factor(rho)
        assert b.shape == rho.shape
        assert np.abs(b @ b.conj().swapaxes(-1, -2) - rho).max() < 1e-12
        for idx in np.ndindex(batch):
            assert np.array_equal(b[idx], density_factor(rho[idx]))
