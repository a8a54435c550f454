"""Scalar entanglement diagnostics of density matrices.

All four quantities the walk analysis relies on: von Neumann entropy of a
reduction (in bits), logarithmic negativity across a bipartition,
n-partite concurrence of a qubit register, and trace distance with its
complement ("closeness").
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError
from .linalg import (
    SubsystemShape,
    as_shape,
    hermitian_eig,
    matrix_sqrt_psd,
    partial_transpose,
    schatten1_norm,
)

DENSITY_ATOL = 1e-10
# Eigenvalues of the concurrence operator below this are treated as bugs,
# not float noise.
CONCURRENCE_CLIP = 1e-10


def validate_density_matrix(rho: np.ndarray, *, atol: float = DENSITY_ATOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the eigenvalues
    (descending).  Raises :class:`ContractViolationError` on violation."""
    rho = np.asarray(rho)
    vals = hermitian_eig(rho, vectors=False, atol=atol)
    tr = np.real(np.trace(rho))
    if abs(tr - 1.0) > atol:
        raise ContractViolationError(f"density matrix trace is {tr!r}, expected 1")
    if vals.min() < -atol:
        raise ContractViolationError(
            f"density matrix has eigenvalue {vals.min():.3e} < -{atol:.0e}")
    return vals


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr[rho log2 rho] in bits, with 0 log 0 = 0."""
    vals = validate_density_matrix(rho)
    vals = np.clip(vals, 0.0, 1.0)
    nz = vals[vals > 0.0]
    return float(max(0.0, -np.sum(nz * np.log2(nz))))


def log_negativity(rho: np.ndarray,
                   shape: SubsystemShape | Sequence[int],
                   transpose_part: Iterable[int]) -> float:
    """max(0, log2 ||rho^PT||_1) for the partial transpose over
    ``transpose_part``.  Zero on every PPT (in particular product) state."""
    validate_density_matrix(rho)
    pt = partial_transpose(rho, as_shape(shape), transpose_part)
    return float(max(0.0, np.log2(schatten1_norm(pt))))


def n_concurrence(rho: np.ndarray, num_qubits: int) -> float:
    """n-partite concurrence max(0, sqrt(l1) - sum_j>=2 sqrt(l_j)).

    The l's are the (descending) eigenvalues of rho Sy rho* Sy with
    Sy = sigma_y^(x n).  They are computed from the Hermitian similar
    matrix sqrt(rho) . Sy rho* Sy . sqrt(rho), which has the same spectrum
    but admits a stable Hermitian solve.  Zero whenever any qubit is
    separable from the rest; 1 on an n-qubit GHZ state.
    """
    rho = np.asarray(rho)
    dim = 2 ** num_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for {num_qubits} qubits, "
                         f"got shape {rho.shape}")
    validate_density_matrix(rho)

    sy = np.array([[0, -1j], [1j, 0]])
    big_sy = sy
    for _ in range(num_qubits - 1):
        big_sy = np.kron(big_sy, sy)

    root = matrix_sqrt_psd(rho)
    m = root @ (big_sy @ rho.conj() @ big_sy) @ root
    vals = hermitian_eig(m, vectors=False)
    if vals.min() < -CONCURRENCE_CLIP:
        raise ContractViolationError(
            f"concurrence operator eigenvalue {vals.min():.3e} < -{CONCURRENCE_CLIP:.0e}")
    lam = np.sqrt(np.clip(vals, 0.0, None))
    value = 2 * lam[0] - lam.sum()
    return float(min(1.0, max(0.0, value)))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """delta = (1/2) sum |eps_i| over the eigenvalues of rho - sigma."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    validate_density_matrix(rho)
    validate_density_matrix(sigma)
    eps = hermitian_eig(rho - sigma, vectors=False)
    return float(min(1.0, max(0.0, 0.5 * np.abs(eps).sum())))


def closeness(rho: np.ndarray, sigma: np.ndarray) -> float:
    """1 - trace_distance: 1 iff the states coincide, 0 iff orthogonal."""
    return 1.0 - trace_distance(rho, sigma)
