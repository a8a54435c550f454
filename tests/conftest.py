import numpy as np
import pytest

from iqwalk import build_coin
from iqwalk.walk import _apply_step, _cz_signs, _shift_rows

# Basis columns pushed through the kernel per batched call.
_COLUMN_BLOCK = 256


@pytest.fixture
def dense_step():
    """Materialize the one-step propagator from the matrix-free kernel that
    ``evolve`` runs: each block of identity columns is one batched step."""

    def build(config):
        top = config.topology
        coin, shift_rows, signs = build_coin(config.coin), _shift_rows(top), _cz_signs(top)
        dim = top.n * 2 * 2 ** top.n
        u = np.empty((dim, dim), dtype=complex)
        for start in range(0, dim, _COLUMN_BLOCK):
            stop = min(start + _COLUMN_BLOCK, dim)
            basis = np.zeros((stop - start, dim), dtype=complex)
            basis[:, start:stop] = np.eye(stop - start)
            out = _apply_step(basis.reshape(-1, top.n, 2, 2 ** top.n), coin, shift_rows, signs)
            u[:, start:stop] = out.reshape(-1, dim).T
        return u

    return build
