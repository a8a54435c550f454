import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from iqwalk import build_coin, standard_initial_state
from iqwalk.walk import _apply_step, _cz_signs, _shift_rows

# Basis columns pushed through the kernel per batched call.
_COLUMN_BLOCK = 256


# Hypothesis caches the constants of local modules in its home directory,
# ``.hypothesis/`` by default, while it collects, whatever the example
# database; a temporary home for the session keeps that out of the tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _HYPOTHESIS_HOME.cleanup()


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


@pytest.fixture
def full_row_walk():
    """The walk on all 2n (site, coin) rows at every step, with the
    signature and the (sites, tensor) yield of ``walk._walk_tensors``: the
    reference that the walk on the occupied rows must match."""

    def walk(topology, coin_mats, steps, initial=None, *, columns=slice(None)):
        n = topology.n
        start = standard_initial_state(topology) if initial is None else initial
        start = start.amplitudes.reshape(n, 2, -1)[..., columns]
        tensor = np.broadcast_to(start, coin_mats.shape[:-2] + start.shape)
        shift_rows, signs = _shift_rows(topology), _cz_signs(topology, columns)
        yield slice(None), tensor
        for _ in range(steps):
            tensor = _apply_step(tensor, coin_mats, shift_rows, signs)
            yield slice(None), tensor

    return walk
