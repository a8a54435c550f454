"""Independent brute-force reference implementations used to pin the
library's linear algebra and entanglement measures.

Everything here shares no code with the package internals it checks, and
is written the slow, obvious way (explicit index loops, non-Hermitian
eigensolves, exact integer arithmetic), except :func:`partial_trace`: the
one-contraction partial trace that tests use to build dense references,
itself pinned against :func:`partial_trace_loops`; and
:func:`density_factor`, the ``eigh`` factor through which dense test states
reach the metrics, which take factors only.
"""

from __future__ import annotations

import numpy as np

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def partial_trace_loops(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit summation over multi-indices.

    rho[(i_0..i_{k-1}), (j_0..j_{k-1})] is summed over the traced
    subsystems with i_s = j_s, for every combination of kept indices.
    """
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(keep))
    k = len(dims)
    traced = [s for s in range(k) if s not in keep]

    def flat(multi):
        idx = 0
        for s in range(k):
            idx = idx * dims[s] + multi[s]
        return idx

    keep_dims = [dims[s] for s in keep]
    trace_dims = [dims[s] for s in traced]
    d_out = int(np.prod(keep_dims))
    out = np.zeros((d_out, d_out), dtype=complex)

    for a, row_keep in enumerate(np.ndindex(*keep_dims)):
        for b, col_keep in enumerate(np.ndindex(*keep_dims)):
            acc = 0.0 + 0.0j
            for shared in np.ndindex(*trace_dims) if trace_dims else [()]:
                row = [0] * k
                col = [0] * k
                for s, v in zip(keep, row_keep):
                    row[s] = v
                for s, v in zip(keep, col_keep):
                    col[s] = v
                for s, v in zip(traced, shared):
                    row[s] = v
                    col[s] = v
                acc += rho[flat(row), flat(col)]
            out[a, b] = acc
    return out


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep`` with one einsum
    contraction; the kept subsystems keep their relative order."""
    dims = tuple(int(d) for d in dims)
    keep = sorted({int(i) for i in keep})
    k = len(dims)
    total = int(np.prod(dims))
    if np.shape(rho) != (total, total):
        raise ValueError(f"matrix of shape {np.shape(rho)} does not match dims {dims}")
    if not keep or keep[0] < 0 or keep[-1] >= k:
        raise ValueError(f"keep {keep} must select some of the {k} subsystems")

    tensor = np.asarray(rho).reshape(dims + dims)
    row = list(range(k))
    # Traced subsystems reuse the row label on the column axis; kept ones
    # get a fresh label so they survive the contraction.
    col = [k + i if i in keep else i for i in range(k)]
    d_keep = int(np.prod([dims[i] for i in keep]))
    return np.einsum(tensor, row + col, keep + [k + i for i in keep]).reshape(d_keep, d_keep)


def cz_diagonal(num_sites: int) -> np.ndarray:
    """Diagonal of the walk's position-controlled CZ in the flat
    (P, C, q_0, ..., q_{n-1}) basis, one basis state at a time:
    |p>|c>|q_0 ... q_{n-1}> picks up -1 exactly when c = 1 and q_p = 1."""
    n = num_sites
    diag = np.ones(n * 2 * 2 ** n)
    for index in range(diag.size):
        position, rest = divmod(index, 2 * 2 ** n)
        coin, register = divmod(rest, 2 ** n)
        qubits = format(register, f"0{n}b")
        if coin == 1 and qubits[position] == "1":
            diag[index] = -1.0
    return diag


def shift_matrix(kind: str, num_sites: int) -> np.ndarray:
    """The walk's conditional shift on H_P (x) H_C (index p*2 + c), one move
    at a time: coin 0 steps down, coin 1 up; the cycle wraps, and at the
    path's ends the walker stays and its coin flips."""
    n = num_sites
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    for site in range(n):
        for coin, target in ((0, site - 1), (1, site + 1)):
            if kind == "cycle":
                s[(target % n) * 2 + coin, site * 2 + coin] = 1.0
            elif 0 <= target < n:
                s[target * 2 + coin, site * 2 + coin] = 1.0
            else:
                s[site * 2 + 1 - coin, site * 2 + coin] = 1.0
    return s


# The cluster coin, doubled, as its real and imaginary parts: C(theta, phi1,
# phi2) = [[e^{-i(phi1+phi2)/2} c, -e^{i(phi2-phi1)/2} s], [e^{i(phi1-phi2)/2} s,
# e^{i(phi1+phi2)/2} c]] at (pi/2, 0, pi/2), where c = s = 1/sqrt(2), gives
# 2C = [[1 - i, -1 - i], [1 - i, 1 + i]].
_CLUSTER_COIN_X2 = (np.array([[1, -1], [1, 1]]), np.array([[-1, -1], [-1, 1]]))


def gaussian_cluster_walk(kind: str, num_sites: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The walk with the cluster coin (pi/2, 0, pi/2) from |0>_P |0>_C |+>^n,
    exactly, in Gaussian integers.

    Returns ``(re, im)``, int64 arrays of shape (2n, 2**n), row p*2 + c and
    column g, with re + i im = 2**steps * 2**(n/2) * psi(steps): the start
    is all ones on row (0, 0), and each step applies 2C to the coin, then
    :func:`shift_matrix` and :func:`cz_diagonal` as integer matrices.
    Entries stay below 2**(steps + n/2) in modulus.
    """
    n = num_sites
    shift = shift_matrix(kind, n).real.astype(np.int64)
    cz = cz_diagonal(n).astype(np.int64).reshape(2 * n, 2 ** n)
    a, b = _CLUSTER_COIN_X2
    re = np.zeros((2 * n, 2 ** n), dtype=np.int64)
    im = np.zeros_like(re)
    re[0] = 1
    for _ in range(steps):
        x, y = re.reshape(n, 2, -1), im.reshape(n, 2, -1)
        # (a + ib)(x + iy) = (ax - by) + i(ay + bx) on each site's coin pair.
        re, im = (a @ x - b @ y).reshape(2 * n, -1), (a @ y + b @ x).reshape(2 * n, -1)
        re, im = cz * (shift @ re), cz * (shift @ im)
    return re, im


def density_factor(rho: np.ndarray) -> np.ndarray:
    """Factor ``B`` with ``rho = B @ B^dag`` of a dense density matrix, or of
    each member of a (..., d, d) stack: its ``eigh`` eigenvectors scaled by
    the square roots of their eigenvalues, the rounding negatives set to 0."""
    vals, vecs = np.linalg.eigh(rho)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


def sigma_y_all(num_qubits: int) -> np.ndarray:
    """sigma_y^(x n) as a dense Kronecker product."""
    big_sy = _SIGMA_Y
    for _ in range(num_qubits - 1):
        big_sy = np.kron(big_sy, _SIGMA_Y)
    return big_sy


def graph_stabilizer_expectations(psi: np.ndarray, num_qubits: int, edges) -> np.ndarray:
    """<psi| K_i |psi> for each graph-state stabilizer K_i = X_i prod_{j~i}
    Z_j of the graph ``edges``, each K_i a dense 2^n x 2^n Kronecker chain."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    values = np.empty(num_qubits)
    for i in range(num_qubits):
        ops = [np.eye(2, dtype=complex)] * num_qubits
        ops[i] = x
        for a, b in edges:
            if i in (a, b):
                ops[b if a == i else a] = z
        k_i = ops[0]
        for op in ops[1:]:
            k_i = np.kron(k_i, op)
        values[i] = np.real(np.vdot(psi, k_i @ psi))
    return values


def concurrence_direct(rho: np.ndarray, num_qubits: int, rank: int | None = None) -> float:
    """n-concurrence via direct (non-Hermitian) diagonalization of the
    operator rho . Sy rho* Sy.

    With ``rank`` (the rank of rho), only the ``rank`` largest eigenvalues
    count: the operator has at most that many nonzero ones, and the square
    roots of the others' ~1e-16 rounding noise would add ~1e-8 each.
    """
    big_sy = sigma_y_all(num_qubits)
    rho_tilde = rho @ big_sy @ rho.conj() @ big_sy
    vals = np.linalg.eigvals(rho_tilde).real
    lam = np.sqrt(np.clip(vals, 0.0, None))
    lam[::-1].sort()
    lam = lam[:rank]
    return float(max(0.0, 2 * lam[0] - lam.sum()))


def wootters_concurrence(rho: np.ndarray) -> float:
    """Closed-form two-qubit concurrence max(0, l1 - l2 - l3 - l4), the
    l's being the sorted square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy)."""
    syy = np.kron(_SIGMA_Y, _SIGMA_Y)
    vals = np.linalg.eigvals(rho @ syy @ rho.conj() @ syy).real
    lam = np.sort(np.sqrt(np.clip(vals, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full- or fixed-rank density matrix (Wishart construction)."""
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))
