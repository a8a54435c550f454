import numpy as np
import pytest

from iqwalk import build_coin
from iqwalk.walk import _apply_step, _shift_rows, interaction_diagonal


@pytest.fixture
def dense_step():
    """Materialize the one-step propagator from the matrix-free kernel that
    ``evolve`` runs, one basis column at a time."""

    def build(config):
        top = config.topology
        coin, shift_rows = build_coin(config.coin), _shift_rows(top)
        diag = interaction_diagonal(top)
        dim = top.n * 2 * 2 ** top.n
        u = np.empty((dim, dim), dtype=complex)
        for j in range(dim):
            column = np.zeros((top.n, 2, 2 ** top.n), dtype=complex)
            column.flat[j] = 1.0
            u[:, j] = _apply_step(column, coin, shift_rows, diag).reshape(-1)
        return u

    return build
