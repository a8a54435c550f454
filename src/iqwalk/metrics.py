"""Scalar entanglement diagnostics of density matrices.

All four quantities the walk analysis relies on: von Neumann entropy of a
reduction (in bits), logarithmic negativity across a bipartition,
n-partite concurrence of a qubit register, and trace distance with its
complement ("closeness").

Every metric takes a factor ``B`` of the state, ``rho = B @ B^dag``, not
``rho`` itself.  A pure walk state gives one directly
(:func:`~iqwalk.linalg.reduction_factor`, the conditioning module), with as
many columns as the traced-out space has dimensions: the vertex register of
an n-site walk has a (2**n, 2n) factor, so every register metric is solved
in dimension at most 2n + 1, never 2**n.  A caller holding a dense ``rho``
passes :func:`~iqwalk.linalg.density_factor`.

Such a ``rho`` is Hermitian and positive semidefinite by construction, so
the density contract of a factor is its trace ``||B||_F^2`` alone: finite
and within ``DENSITY_ATOL`` of 1.  Each metric reads that trace off a matrix
it forms anyway where it has one, and no eigensolve runs only to validate.
:func:`validate_density_matrix` checks a dense ``rho`` in full.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError
from .linalg import (
    PSD_CLIP,
    SubsystemShape,
    as_shape,
    hermitian_eig,
    partial_transpose,
)

DENSITY_ATOL = 1e-10


def _check_trace(tr: np.ndarray | float, atol: float = DENSITY_ATOL) -> None:
    """Reject any trace in ``tr``, one per stack member, that is not within
    ``atol`` of 1 (NaN and inf included).  For a factor ``B`` this is the
    whole density contract: ``||B||_F^2`` is finite only if every entry is."""
    tr = np.asarray(tr)
    bad = ~(np.abs(tr - 1.0) <= atol)
    if bad.any():
        raise ContractViolationError(
            f"density matrix trace is {tr[bad].flat[0]!r}, expected 1")


def validate_density_matrix(rho: np.ndarray, *, atol: float = DENSITY_ATOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the eigenvalues
    (descending).  Raises :class:`ContractViolationError` on violation.

    A (..., d, d) stack is checked member by member: one bad member rejects
    the stack, and the eigenvalues come back as a (..., d) array.
    """
    rho = np.asarray(rho)
    vals = hermitian_eig(rho, vectors=False, atol=atol)
    _check_trace(np.real(np.trace(rho, axis1=-2, axis2=-1)), atol)
    low = vals.min(axis=-1)
    if (low < -atol).any():
        raise ContractViolationError(
            f"density matrix has eigenvalue {low.min():.3e} < -{atol:.0e}")
    return vals


def von_neumann_entropy(factor: np.ndarray) -> float:
    """Entropy -Tr[rho log2 rho] in bits of ``rho = B @ B^dag``, with
    0 log 0 = 0, from the smaller Gram matrix (``B^dag B`` or ``B @ B^dag``):
    it has the trace and the nonzero spectrum of ``rho``."""
    b = np.asarray(factor)
    if b.ndim != 2:
        raise ValueError(f"expected a factor matrix, got shape {b.shape}")
    b_dag = b.conj().T
    gram = b_dag @ b if b.shape[1] <= b.shape[0] else b @ b_dag
    _check_trace(np.real(np.trace(gram)))
    vals = np.clip(hermitian_eig(gram, vectors=False), 0.0, 1.0)
    nz = vals[vals > 0.0]
    return float(max(0.0, -np.sum(nz * np.log2(nz))))


def log_negativity(factor: np.ndarray,
                   shape: SubsystemShape | Sequence[int],
                   transpose_part: Iterable[int]) -> float:
    """log2 ||rho^PT||_1 = log2(1 + 2N) of ``rho = B @ B^dag`` for the
    partial transpose over ``transpose_part``, N being minus the sum of its
    negative eigenvalues.  ``shape`` splits the rows of ``B``.

    Eigenvalues in ``[-PSD_CLIP, 0)`` are float noise and do not count, so
    every PPT (in particular product) state gives exactly 0.
    """
    b = np.asarray(factor)
    if b.ndim != 2:
        raise ValueError(f"expected a factor matrix, got shape {b.shape}")
    rho = b @ b.conj().T
    _check_trace(np.real(np.trace(rho)))
    pt = partial_transpose(rho, as_shape(shape), transpose_part)
    vals = hermitian_eig(pt, vectors=False)
    negativity = -vals[vals < -PSD_CLIP].sum()
    return float(np.log2(1.0 + 2.0 * negativity))


def _sigma_y_all(b: np.ndarray, num_qubits: int) -> np.ndarray:
    """sigma_y^(x n) @ b without forming the operator.

    sigma_y^(x n) |g> = i^n (-1)^popcount(g) |~g>, and ~g reverses the
    big-endian basis order.
    """
    g = np.arange(2 ** num_qubits)
    parity = np.zeros_like(g)
    for k in range(num_qubits):
        parity ^= (g >> k) & 1
    phase = 1j ** num_qubits * (1 - 2 * parity)
    return (phase[:, None] * b)[::-1]


def n_concurrence(factor: np.ndarray, num_qubits: int) -> float:
    """n-partite concurrence max(0, sqrt(l1) - sum_j>=2 sqrt(l_j)) of
    ``rho = B @ B^dag``.

    The l's are the (descending) eigenvalues of rho Sy rho* Sy with
    Sy = sigma_y^(x n).  Their square roots are the singular values of the
    small matrix B^T Sy B (Carvalho, Mintert & Buchleitner, PRL 2004): the
    nonzero spectrum of B B^dag Sy B* B^T Sy is that of M M^dag with
    M = B^T Sy B.  Zero whenever any qubit is separable from the rest; 1 on
    an n-qubit GHZ state.
    """
    b = np.asarray(factor)
    dim = 2 ** num_qubits
    if b.ndim != 2 or b.shape[0] != dim:
        raise ValueError(f"expected a factor with {dim} rows for {num_qubits} qubits, "
                         f"got shape {b.shape}")
    _check_trace(np.sum(np.abs(b) ** 2))
    lam = np.linalg.svd(b.T @ _sigma_y_all(b, num_qubits), compute_uv=False)
    value = 2 * lam[0] - lam.sum()
    return float(min(1.0, max(0.0, value)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """delta = (1/2) sum |eps_i| over the eigenvalues of rho - sigma, for
    factors ``rho = A @ A^dag`` and ``sigma = B @ B^dag`` (a pure state
    ``g`` is the one-column factor ``g[:, None]``).

    rho - sigma = W J W^dag with W = [A, B] and J = diag(1, ..., -1, ...),
    so with W = QR the eps are the eigenvalues of R J R^dag, of dimension
    at most the total column count.  Those within PSD_CLIP of zero are float
    noise of the QR and do not count: equal states give exactly 0.

    Stacks of factors, (..., D, k), broadcast against each other over their
    leading axes and give an array of distances; two matrices give a float.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-2] != b.shape[-2]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    for factor in (a, b):
        _check_trace(np.sum(np.abs(factor) ** 2, axis=(-2, -1)))
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    w = np.concatenate([np.broadcast_to(a, batch + a.shape[-2:]),
                        np.broadcast_to(b, batch + b.shape[-2:])], axis=-1)
    r = np.linalg.qr(w, mode="r")
    signs = np.concatenate([np.ones(a.shape[-1]), -np.ones(b.shape[-1])])
    eps = np.abs(hermitian_eig((r * signs) @ r.conj().swapaxes(-1, -2), vectors=False))
    distance = np.minimum(1.0, 0.5 * np.where(eps > PSD_CLIP, eps, 0.0).sum(axis=-1))
    return float(distance) if distance.ndim == 0 else distance


def closeness(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """1 - trace_distance of the states with factors ``a`` and ``b``: 1 iff
    they coincide, 0 iff orthogonal.  Takes stacks as :func:`trace_distance`
    does."""
    return 1.0 - trace_distance(a, b)
