"""Dense complex linear algebra over multipartite Hilbert spaces.

Everything here works on plain ``numpy`` arrays: state vectors are 1-d
complex arrays, operators are 2-d complex arrays.  A
:class:`SubsystemShape` records how a flat index decomposes into local
subsystem indices.  The convention throughout the package is row-major
(big-endian) composite indexing: the *leftmost* subsystem is the most
significant digit of the flat index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError

# Tolerance below which an operator is accepted as Hermitian.
HERMITIAN_ATOL = 1e-10
# Eigenvalues in [-PSD_CLIP, 0) are treated as float noise and clamped to 0.
PSD_CLIP = 1e-12


@dataclass(frozen=True)
class SubsystemShape:
    """Ordered local dimensions of a multipartite Hilbert space.

    ``dims[k]`` is the dimension of subsystem ``k``; the total dimension is
    their product.  For the interacting walk on ``n`` sites the shape is
    ``(n, 2, 2, ..., 2)``: position, coin, then one qubit per vertex.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.dims}")

    @property
    def total(self) -> int:
        return int(np.prod(self.dims))

    def __len__(self) -> int:
        return len(self.dims)

    def check_vector(self, vec: np.ndarray) -> None:
        if vec.shape != (self.total,):
            raise ValueError(f"vector of shape {vec.shape} does not match subsystem dims "
                             f"{self.dims} (total {self.total})")

    def check_matrix(self, mat: np.ndarray) -> None:
        """Check a matrix, or each member of a (..., d, d) stack."""
        if mat.shape[-2:] != (self.total, self.total):
            raise ValueError(f"matrix of shape {mat.shape} does not match subsystem dims "
                             f"{self.dims} (total {self.total})")


def as_shape(shape: SubsystemShape | Sequence[int]) -> SubsystemShape:
    """Coerce a plain dimension sequence into a :class:`SubsystemShape`."""
    if isinstance(shape, SubsystemShape):
        return shape
    return SubsystemShape(tuple(shape))


def _normalize_subset(subset: Iterable[int], num_subsystems: int, name: str) -> tuple[int, ...]:
    idx = sorted({int(i) for i in subset})
    if not idx:
        raise ValueError(f"{name} must select at least one subsystem")
    if idx[0] < 0 or idx[-1] >= num_subsystems:
        raise ValueError(f"{name} {idx} out of range for {num_subsystems} subsystems")
    return tuple(idx)


def partial_transpose(rho: np.ndarray,
                      shape: SubsystemShape | Sequence[int],
                      part: Iterable[int]) -> np.ndarray:
    """Transpose the indices of the subsystems listed in ``part``.

    Hermiticity and trace of the input are preserved; the output has the
    same shape as ``rho``.  A (..., d, d) stack is transposed member by
    member.
    """
    shape = as_shape(shape)
    rho = np.asarray(rho)
    shape.check_matrix(rho)
    k = len(shape)
    part_idx = _normalize_subset(part, k, "part")

    batch = rho.shape[:-2]
    tensor = rho.reshape(batch + shape.dims + shape.dims)
    perm = list(range(len(batch) + 2 * k))
    for i in part_idx:
        i += len(batch)
        perm[i], perm[k + i] = perm[k + i], perm[i]
    return tensor.transpose(perm).reshape(rho.shape)


def reduction_factor(amplitudes: np.ndarray,
                     shape: SubsystemShape | Sequence[int],
                     keep: Iterable[int]) -> np.ndarray:
    """Factor ``F`` of the reduced density matrix of a pure state,
    ``rho_keep = F @ F^dag``.

    ``F`` is the amplitude tensor with the kept subsystems moved to the row
    index and the traced-out ones to the column index, so ``rho_keep`` has
    rank at most ``min(F.shape)``: a metric of ``rho_keep`` can be solved on
    the smaller of the Gram matrices ``F^dag F`` and ``F F^dag``.
    """
    shape = as_shape(shape)
    psi = np.asarray(amplitudes)
    shape.check_vector(psi)
    k = len(shape)
    keep_idx = _normalize_subset(keep, k, "keep")
    rest = [i for i in range(k) if i not in keep_idx]

    tensor = psi.reshape(shape.dims)
    d_keep = int(np.prod([shape.dims[i] for i in keep_idx]))
    return tensor.transpose(list(keep_idx) + rest).reshape(d_keep, -1)


def reduced_density(amplitudes: np.ndarray,
                    shape: SubsystemShape | Sequence[int],
                    keep: Iterable[int]) -> np.ndarray:
    """Reduced density matrix of a pure state without forming the full
    projector.

    Equivalent to tracing the subsystems outside ``keep`` out of
    ``outer(psi, psi.conj())``, but works directly on the amplitude vector.
    It is the dense reference behind :meth:`PureState.reduced`: no series
    or sweep calls it, since they reduce each block of register columns to
    O(n^2) statistics instead of forming a register density matrix.
    """
    f = reduction_factor(amplitudes, shape, keep)
    return f @ f.conj().T


def hermitian_eig(a: np.ndarray, *, vectors: bool = True,
                  atol: float = HERMITIAN_ATOL) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with the eigenvectors as
    columns, or only the eigenvalues when ``vectors=False``.  The input is
    symmetrized as ``(A + A^dag)/2`` before solving; inputs whose
    anti-Hermitian part exceeds ``atol`` entrywise, or is NaN, are
    rejected.  A (..., d, d) stack is solved member by member in one call,
    and one non-Hermitian member rejects the stack.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a_dag = a.conj().swapaxes(-1, -2)
    defect = np.abs(a - a_dag).max() if a.size else 0.0
    if not defect <= atol:
        raise ContractViolationError(
            f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e} > {atol:.0e}")
    h = (a + a_dag) / 2
    if vectors:
        vals, vecs = np.linalg.eigh(h)
        return vals[..., ::-1].copy(), vecs[..., ::-1].copy()
    return np.linalg.eigvalsh(h)[..., ::-1].copy()


def _psd_eig(a: np.ndarray, clip: float) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = hermitian_eig(a)
    if vals.size and vals.min() < -clip:
        raise ContractViolationError(
            f"matrix is not PSD: smallest eigenvalue {vals.min():.3e} < -{clip:.0e}")
    return np.clip(vals, 0.0, None), vecs


def matrix_sqrt_psd(a: np.ndarray, *, clip: float = PSD_CLIP) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[-clip, 0)`` are clamped to zero as float noise; an
    eigenvalue below ``-clip`` raises :class:`ContractViolationError`.
    """
    vals, vecs = _psd_eig(a, clip)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return (root + root.conj().T) / 2


def density_factor(rho: np.ndarray) -> np.ndarray:
    """Factor ``B`` with ``rho = B @ B^dag`` of a dense positive
    semidefinite matrix: its eigenvectors scaled by the square roots of
    their eigenvalues.

    This is how a caller holding a dense density matrix reaches the metrics,
    which all take a factor.  ``rho`` must be Hermitian; eigenvalues in
    ``[-PSD_CLIP, 0)`` are clamped to zero as float noise and a more
    negative one raises :class:`ContractViolationError`.  A (..., d, d)
    stack gives a (..., d, d) stack of factors.
    """
    vals, vecs = _psd_eig(rho, PSD_CLIP)
    return vecs * np.sqrt(vals)[..., None, :]


def schatten1_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: the sum of |eigenvalues|, which
    equals the sum of singular values.

    Raises :class:`ContractViolationError` when ``a`` is not Hermitian (the
    package's only operand is the partial transpose of a density matrix).
    """
    return float(np.abs(hermitian_eig(a, vectors=False)).sum())
