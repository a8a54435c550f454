"""Scalar entanglement diagnostics of density matrices: von Neumann
entropy (in bits), logarithmic negativity across a bipartition, n-partite
concurrence of a qubit register, and trace distance with its complement
("closeness").

Every public metric takes a factor ``B`` of the state, ``rho = B @ B^dag``.
Each state the walk produces is pure, so each register state has its
factor by construction, and only the walk makes one: the runner's blocked
walks, or from one full state :mod:`~iqwalk.conditioning`'s (2**n, 2n)
vertex register of an n-site walk and (2**n, n) coin post-selection.
Every register metric is solved in dimension at most 2n + 1, never 2**n.
Dense matrices reach the metrics only in the tests.
Each metric forms the matrix it solves and hands it to a private core:
``_entropy_of`` and ``_log_negativity_of`` take a stack of density
matrices, ``_concurrence_from_sy`` one of B^T Sy B, and
``_trace_distance_from_r`` one of R's.  The runner hands the same cores the
statistics of its blocked walks.

Such a ``rho`` is Hermitian and positive semidefinite by construction, so
its density contract is its trace alone: finite and within ``DENSITY_ATOL``
of 1.  Whoever forms a state checks that trace once, off a matrix it has
anyway: each public metric for the factors it is given, the runner for the
states it walks.  The cores only solve, and no eigensolve runs only to
validate.  :func:`validate_density_matrix` checks a dense ``rho`` in full.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError
from .linalg import DENSITY_ATOL, PSD_CLIP, SubsystemShape, hermitian_eig, partial_transpose


def _check_trace(tr: np.ndarray | float) -> None:
    """Reject any trace in ``tr``, one per stack member, that is not within
    ``DENSITY_ATOL`` of 1 (NaN and inf included).  For a factor ``B`` this is
    the whole density contract: ``||B||_F^2`` is finite only if every entry is."""
    tr = np.asarray(tr)
    bad = ~(np.abs(tr - 1.0) <= DENSITY_ATOL)
    if bad.any():
        raise ContractViolationError(
            f"density matrix trace is {float(tr[bad].flat[0])!r}, expected 1")


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the eigenvalues
    (descending).  Raises :class:`ContractViolationError` on violation.

    A (..., d, d) stack is checked member by member: one bad member rejects
    the stack, and the eigenvalues come back as a (..., d) array.
    """
    rho = np.asarray(rho)
    vals = hermitian_eig(rho, vectors=False)
    _check_trace(np.real(np.trace(rho, axis1=-2, axis2=-1)))
    low = vals.min(axis=-1)
    if (low < -DENSITY_ATOL).any():
        raise ContractViolationError(
            f"density matrix has eigenvalue {low.min():.3e} < -{DENSITY_ATOL:.0e}")
    return vals


def _factor(factor: np.ndarray) -> np.ndarray:
    b = np.asarray(factor)
    if b.ndim < 2:
        raise ValueError(f"expected a factor matrix or a stack of them, got shape {b.shape}")
    return b


def _scalar_or_stack(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def _entropy_of(rho: np.ndarray) -> np.ndarray:
    """:func:`von_neumann_entropy` of a (..., d, d) stack of density matrices."""
    vals = np.clip(hermitian_eig(rho, vectors=False), 0.0, 1.0)
    total = -np.sum(vals * np.log2(np.where(vals > 0.0, vals, 1.0)), axis=-1)
    # Not np.maximum, which keeps the -0.0 of an all-zero sum.
    return np.where(total > 0.0, total, 0.0)


def von_neumann_entropy(factor: np.ndarray) -> float | np.ndarray:
    """Entropy -Tr[rho log2 rho] in bits of ``rho = B @ B^dag``, with
    0 log 0 = 0, from the smaller Gram matrix (``B^dag B`` or ``B @ B^dag``):
    it has the trace and the nonzero spectrum of ``rho``.

    A (..., d, k) stack of factors gives an array of entropies in one
    stacked eigensolve, and one bad member rejects the stack; a matrix
    gives a float.
    """
    b = _factor(factor)
    b_dag = b.conj().swapaxes(-1, -2)
    gram = b_dag @ b if b.shape[-1] <= b.shape[-2] else b @ b_dag
    _check_trace(np.real(np.trace(gram, axis1=-2, axis2=-1)))
    return _scalar_or_stack(_entropy_of(gram))


def _log_negativity_of(rho: np.ndarray, shape: SubsystemShape | Sequence[int],
                       part: Iterable[int]) -> np.ndarray:
    """:func:`log_negativity` of a (..., d, d) stack of density matrices."""
    vals = hermitian_eig(partial_transpose(rho, shape, part), vectors=False)
    negativity = -np.sum(np.where(vals < -PSD_CLIP, vals, 0.0), axis=-1)
    return np.log2(1.0 + 2.0 * negativity)


def log_negativity(factor: np.ndarray,
                   shape: SubsystemShape | Sequence[int],
                   transpose_part: Iterable[int]) -> float | np.ndarray:
    """log2 ||rho^PT||_1 = log2(1 + 2N) of ``rho = B @ B^dag`` for the
    partial transpose over ``transpose_part``, N being minus the sum of its
    negative eigenvalues.  ``shape`` splits the rows of ``B``.

    Eigenvalues in ``[-PSD_CLIP, 0)`` are float noise and do not count, so
    every PPT (in particular product) state gives exactly 0.  Takes stacks
    as :func:`von_neumann_entropy` does.
    """
    b = _factor(factor)
    rho = b @ b.conj().swapaxes(-1, -2)
    _check_trace(np.real(np.trace(rho, axis1=-2, axis2=-1)))
    return _scalar_or_stack(_log_negativity_of(rho, shape, transpose_part))


def _sigma_y_phase(num_qubits: int) -> np.ndarray:
    """phase[g] = i^n (-1)^popcount(g) of sigma_y^(x n) |g> = phase[g] |~g>.
    ~g reverses the big-endian basis order, so sigma_y^(x n) @ b is
    ``(phase[:, None] * b)[::-1]`` without forming the operator."""
    parity = ((np.arange(2 ** num_qubits)[:, None] >> np.arange(num_qubits)) & 1).sum(axis=1) % 2
    return 1j ** num_qubits * (1 - 2 * parity)


def _concurrence_from_sy(m: np.ndarray) -> np.ndarray:
    """:func:`n_concurrence` of a (..., k, k) stack of M = B^T Sy B."""
    lam = np.linalg.svd(m, compute_uv=False)
    value = 2 * lam[..., 0] - lam.sum(axis=-1)
    return np.where(value > 0.0, np.minimum(value, 1.0), 0.0)


def n_concurrence(factor: np.ndarray) -> float:
    """n-partite concurrence max(0, sqrt(l1) - sum_j>=2 sqrt(l_j)) of
    ``rho = B @ B^dag``, for a factor ``B`` with 2**n rows, n >= 1: the
    row count gives the qubit count, and any other raises :class:`ValueError`.

    The l's are the (descending) eigenvalues of rho Sy rho* Sy with
    Sy = sigma_y^(x n).  Their square roots are the singular values of the
    small matrix B^T Sy B (Carvalho, Mintert & Buchleitner, PRL 2004): the
    nonzero spectrum of B B^dag Sy B* B^T Sy is that of M M^dag with
    M = B^T Sy B.  Zero whenever any qubit is separable from the rest; 1 on
    an n-qubit GHZ state at even n.  At odd n, Sy^T = -Sy, so Theta = Sy K
    has Theta^2 = -1, <psi|Theta psi> = 0 for every psi and M^T = -M: the
    singular values of an antisymmetric M pair up (Youla form U (+)_j s_j
    [[0, 1], [-1, 0]] U^T), s1 = s2, and the value is 0 for every state.
    """
    b = np.asarray(factor)
    num_qubits = b.shape[0].bit_length() - 1 if b.ndim == 2 else 0
    if num_qubits < 1 or b.shape[0] != 2 ** num_qubits:
        raise ValueError(f"expected a factor with 2**n rows, n >= 1, got shape {b.shape}")
    _check_trace(np.sum(np.abs(b) ** 2))
    if num_qubits % 2:
        return 0.0
    sy_b = (_sigma_y_phase(num_qubits)[:, None] * b)[::-1]
    return float(_concurrence_from_sy(b.T @ sy_b))


def _trace_distance_from_r(r: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """:func:`trace_distance` from a stack of R's of W = [A, B] = QR, with
    J = diag(``signs``): +1 on A's columns, then -1 on B's."""
    eps = np.abs(hermitian_eig((r * signs) @ r.conj().swapaxes(-1, -2), vectors=False))
    return np.minimum(1.0, 0.5 * np.where(eps > PSD_CLIP, eps, 0.0).sum(axis=-1))


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
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    w = np.concatenate([np.broadcast_to(a, batch + a.shape[-2:]),
                        np.broadcast_to(b, batch + b.shape[-2:])], axis=-1)
    signs = np.concatenate([np.ones(a.shape[-1]), -np.ones(b.shape[-1])])
    r = np.linalg.qr(w, mode="r")
    # As R^dag R = W^dag W, R holds both traces.
    for part in (r[..., :a.shape[-1]], r[..., a.shape[-1]:]):
        _check_trace(np.sum(np.abs(part) ** 2, axis=(-2, -1)))
    return _scalar_or_stack(_trace_distance_from_r(r, signs))


def closeness(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """1 - trace_distance of the states with factors ``a`` and ``b``: 1 iff
    they coincide, 0 iff orthogonal.  Takes stacks as :func:`trace_distance`
    does."""
    return 1.0 - trace_distance(a, b)
