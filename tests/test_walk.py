import itertools
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iqwalk import (
    BEST_CLUSTER_COINS,
    CoinParams,
    GraphTopology,
    PureState,
    STANDARD_COINS,
    WalkConfig,
    build_coin,
    evolve,
    standard_initial_state,
    trajectory,
    von_neumann_entropy,
    walk_shape,
)
import iqwalk.runner as runner
import iqwalk.walk as walk_module
from iqwalk.conditioning import unconditioned_vertex_state
from iqwalk.walk import MAX_SITES, _apply_step, _cz_signs, _full_rows, _shift_rows
from oracles import _CLUSTER_COIN_X2, cz_diagonal, random_pure, shift_matrix


def random_coins(count, seed=2024):
    rng = np.random.default_rng(seed)
    return [CoinParams(*angles)
            for angles in zip(rng.uniform(0, np.pi, count),
                              rng.uniform(0, 2 * np.pi, count),
                              rng.uniform(0, 2 * np.pi, count))]


def unitarity_defect(u):
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()


def package_cz(topology):
    """The package's CZ diagonal in the flat (P, C, G) order: the real-part
    columns of the kernel's sign table."""
    return _cz_signs(topology)[:, 0::2].reshape(-1)


def basis_state(topology, pos, coin, bits):
    n = topology.n
    amps = np.zeros(n * 2 * 2 ** n, dtype=complex)
    g = int("".join(str(b) for b in bits), 2)
    amps[(pos * 2 + coin) * 2 ** n + g] = 1.0
    return PureState(amps, walk_shape(topology))


class TestGraphTopology:
    def test_validation(self):
        with pytest.raises(ValueError):
            GraphTopology("triangle", 4)
        with pytest.raises(ValueError):
            GraphTopology("path", 1)
        with pytest.raises(ValueError):
            GraphTopology("cycle", MAX_SITES + 1)

    def test_rejects_non_integral_n(self):
        # Where the graph is built, not as a TypeError inside the walk.
        for n in (4.0, 2.5, "4", None):
            with pytest.raises(ValueError,
                               match=re.escape(f"n must be an integer >= 2, got {n!r}")):
                GraphTopology("cycle", n)
        assert GraphTopology("cycle", np.int64(4)) == GraphTopology("cycle", 4)

    def test_edges(self):
        assert GraphTopology("path", 4).edges == ((0, 1), (1, 2), (2, 3))
        assert GraphTopology("cycle", 4).edges == ((0, 1), (1, 2), (2, 3), (3, 0))
        # the 2-site "cycle" degenerates to a single edge
        assert GraphTopology("cycle", 2).edges == ((0, 1),)


class TestCoin:
    def test_zero_angles_is_identity(self):
        assert np.abs(build_coin(CoinParams(0, 0, 0)) - np.eye(2)).max() < 1e-15

    def test_balanced_real_coin(self):
        want = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        assert np.abs(build_coin(CoinParams(np.pi / 2, 0, 0)) - want).max() < 1e-15

    def test_cluster_coin_entries(self):
        c = build_coin(CoinParams(np.pi / 2, 0, np.pi / 2))
        e = np.exp(1j * np.pi / 4)
        want = np.array([[e.conj(), -e], [e.conj(), e]]) / np.sqrt(2)
        assert np.abs(c - want).max() < 1e-15

    def test_unitary_for_random_angles(self):
        for coin in random_coins(50):
            assert unitarity_defect(build_coin(coin)) < 1e-12


class TestShift:
    def test_cycle_moves(self):
        s = shift_matrix("cycle", 4)
        # |0>_P|1>_C -> |1>_P|1>_C
        assert s[1 * 2 + 1, 0 * 2 + 1] == 1
        # |0>_P|0>_C -> |3>_P|0>_C
        assert s[3 * 2 + 0, 0 * 2 + 0] == 1

    def test_path_boundary_reflects_with_coin_flip(self):
        s = shift_matrix("path", 4)
        # |0>_P|0>_C -> |0>_P|1>_C
        assert s[0 * 2 + 1, 0 * 2 + 0] == 1
        # |3>_P|1>_C -> |3>_P|0>_C
        assert s[3 * 2 + 0, 3 * 2 + 1] == 1
        # interior: |2>_P|0>_C -> |1>_P|0>_C and |1>_P|1>_C -> |2>_P|1>_C
        assert s[1 * 2 + 0, 2 * 2 + 0] == 1
        assert s[2 * 2 + 1, 1 * 2 + 1] == 1

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_unitary_permutation(self, kind, n):
        s = shift_matrix(kind, n)
        assert unitarity_defect(s) < 1e-12
        # one 1 per row and column, everything else 0
        assert np.array_equal(np.sort(np.abs(s), axis=0)[-1], np.ones(2 * n))
        assert np.count_nonzero(s) == 2 * n

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", range(2, MAX_SITES + 1))
    def test_matches_the_move_by_move_oracle(self, kind, n):
        top = GraphTopology(kind, n)
        rows = _shift_rows(top)
        assert rows.dtype == np.intp
        assert np.array_equal(np.eye(2 * n)[rows], shift_matrix(kind, n))

    def test_cycle_translation_invariance(self):
        n = 5
        s = shift_matrix("cycle", n)
        rot = np.zeros((n, n))
        for i in range(n):
            rot[(i + 1) % n, i] = 1
        r = np.kron(rot, np.eye(2))
        assert np.abs(r @ s - s @ r).max() < 1e-14


class TestInteraction:
    def test_diagonal_signs(self):
        diag = package_cz(GraphTopology("cycle", 4))
        assert diag.dtype == np.float64
        assert set(np.unique(diag)) == {-1.0, 1.0}

    def test_coin_zero_never_fires(self):
        top = GraphTopology("cycle", 4)
        diag = package_cz(top)
        for pos in range(4):
            for bits in ([0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0]):
                psi = basis_state(top, pos, 0, bits).amplitudes
                assert np.array_equal(diag * psi, psi)

    def test_phase_on_matching_qubit(self):
        top = GraphTopology("cycle", 4)
        diag = package_cz(top)
        hit = basis_state(top, 2, 1, [0, 0, 1, 0]).amplitudes
        assert np.array_equal(diag * hit, -hit)
        miss = basis_state(top, 2, 1, [0, 1, 0, 0]).amplitudes
        assert np.array_equal(diag * miss, miss)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_diagonal_is_the_sign_table(self, n):
        # The kernel's table holds each entry of the CZ diagonal twice, for
        # the real and the imaginary part, and that diagonal is the
        # per-basis-state oracle's.
        for kind in ("path", "cycle"):
            top = GraphTopology(kind, n)
            signs = _cz_signs(top)
            assert signs.shape == (2 * n, 2 * 2 ** n)
            assert np.array_equal(signs[:, 1::2], signs[:, 0::2])
            assert np.array_equal(package_cz(top), cz_diagonal(n))


class TestStep:
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_dense_step_is_the_column_loop(self, kind, dense_step):
        # The fixture pushes blocks of basis columns (here 256, then 64)
        # through one batched step; the reference pushes them one at a time.
        top = GraphTopology(kind, 5)
        cfg = WalkConfig(top, STANDARD_COINS[0], 1)
        coin, rows, signs = build_coin(cfg.coin), _shift_rows(top), _cz_signs(top)
        u = dense_step(cfg)
        for j in range(u.shape[1]):
            column = np.zeros((5, 2, 2 ** 5), dtype=complex)
            column.flat[j] = 1.0
            assert np.array_equal(u[:, j], _apply_step(column, coin, rows, signs).reshape(-1))

    @pytest.mark.parametrize("coin", STANDARD_COINS)
    def test_unitary(self, coin, dense_step):
        u = dense_step(WalkConfig(GraphTopology("cycle", 4), coin, 1))
        assert unitarity_defect(u) < 1e-12

    def test_identity_coin_circulates_walker(self):
        # theta=0 keeps the coin |0>, so the walker circulates 0->3->2->1->0
        # and the CZ never fires: the register stays exactly |+>^4.
        top = GraphTopology("cycle", 4)
        cfg = WalkConfig(top, CoinParams(0, 0, 0), 1)
        state = standard_initial_state(top)
        expected_positions = [3, 2, 1, 0]
        plus = np.full(16, 0.25)
        for pos in expected_positions:
            state = evolve(WalkConfig(top, cfg.coin, 1, initial=state))
            want = np.zeros(128, dtype=complex)
            want[(pos * 2 + 0) * 16: (pos * 2 + 0) * 16 + 16] = plus
            assert np.abs(state.amplitudes - want).max() < 1e-12

    def test_single_step_hand_computed(self):
        # From |0>_P |0>_C |+>^4 one step gives
        # c00 |3>|0>|++++> + c10 |1>|1>|+,-,+,+>  (CZ acts on qubit 1).
        top = GraphTopology("cycle", 4)
        coin = CoinParams(*STANDARD_COINS[0].astuple())
        c = build_coin(coin)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        e = np.eye(4)
        want = (c[0, 0] * reduce(np.kron, [e[3], [1, 0], plus, plus, plus, plus])
                + c[1, 0] * reduce(np.kron, [e[1], [0, 1], plus, minus, plus, plus]))
        got = evolve(WalkConfig(top, coin, 1)).amplitudes
        assert np.abs(got - want).max() < 1e-12


    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
    def test_shift_gather_is_the_matmul_bitwise(self, kind, n):
        top = GraphTopology(kind, n)
        shift, rows = shift_matrix(kind, n), _shift_rows(top)
        coin = build_coin(STANDARD_COINS[2])
        diag, signs = cz_diagonal(n), _cz_signs(top)
        tensor = standard_initial_state(top).amplitudes.reshape(n, 2, -1)
        for _ in range(24):
            mixed = np.matmul(coin, tensor).reshape(2 * n, -1)
            want = ((shift @ mixed).reshape(-1) * diag).reshape(n, 2, -1)
            tensor = _apply_step(tensor, coin, rows, signs)
            assert np.array_equal(tensor, want)

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_kernel_matches_einsum_formulation(self, kind, batched):
        # The kernel's matmul rounds differently from an einsum over the
        # coin index; over 24 steps at n = 12 the two walks stay within
        # 1e-14 of each other in every amplitude.
        n = 12
        top = GraphTopology(kind, n)
        rows, diag, signs = _shift_rows(top), cz_diagonal(n), _cz_signs(top)
        coins = np.stack([build_coin(c) for c in STANDARD_COINS[:2]])
        if not batched:
            coins = coins[0]
        start = standard_initial_state(top).amplitudes.reshape(n, 2, -1)
        tensor = want = np.broadcast_to(start, coins.shape[:-2] + start.shape)
        batch = coins.shape[:-2]
        for _ in range(24):
            mixed = np.einsum("...cd,...pdg->...pcg", coins, want)
            want = mixed.reshape(*batch, 2 * n, -1)[..., rows, :].reshape(*batch, -1) * diag
            want = want.reshape(*batch, n, 2, -1)
            tensor = _apply_step(tensor, coins, rows, signs)
            assert np.abs(tensor - want).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_batched_step_is_separate_steps(self, kind):
        top = GraphTopology(kind, 5)
        rows, signs = _shift_rows(top), _cz_signs(top)
        coins = np.stack([build_coin(c) for c in random_coins(6)]).reshape(2, 3, 2, 2)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(2, 3, 5, 2, 32)) + 1j * rng.normal(size=(2, 3, 5, 2, 32))
        singles = [[batch[i, j] for j in range(3)] for i in range(2)]
        for _ in range(10):
            batch = _apply_step(batch, coins, rows, signs)
            for i in range(2):
                for j in range(3):
                    singles[i][j] = _apply_step(singles[i][j], coins[i, j], rows, signs)
                    assert np.array_equal(batch[i, j], singles[i][j])


class TestEvolve:
    def test_zero_steps_returns_initial(self):
        top = GraphTopology("path", 4)
        out = evolve(WalkConfig(top, STANDARD_COINS[0], 0))
        assert np.array_equal(out.amplitudes, standard_initial_state(top).amplitudes)

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_norm_preserved_100_steps(self, kind):
        for coin in STANDARD_COINS:
            final = evolve(WalkConfig(GraphTopology(kind, 4), coin, 100))
            assert abs(np.linalg.norm(final.amplitudes) - 1) < 1e-10

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_matches_dense_power(self, kind):
        top = GraphTopology(kind, 3)
        coin = CoinParams(0.7, 0.3, 1.1)
        cfg = WalkConfig(top, coin, 5)
        # Independent dense reference: U = CZ . (S (x) 1_G) . (1_P (x) C (x) 1_G).
        walker = shift_matrix(kind, 3) @ np.kron(np.eye(3), build_coin(coin))
        u = cz_diagonal(3)[:, None] * np.kron(walker, np.eye(2 ** 3))
        psi = standard_initial_state(top).amplitudes
        for state in list(trajectory(cfg))[1:]:
            psi = u @ psi
            assert np.abs(state.amplitudes - psi).max() < 1e-10

    def test_trajectory_layout(self):
        traj = list(trajectory(WalkConfig(GraphTopology("cycle", 4), STANDARD_COINS[1], 7)))
        assert len(traj) == 8
        assert all(isinstance(s, PureState) for s in traj)

    @pytest.mark.parametrize("steps", [0, 1, 9])
    @pytest.mark.parametrize("start", ["standard", "explicit"])
    def test_evolve_is_last_trajectory_state_bitwise(self, steps, start):
        top = GraphTopology("path", 5)
        initial = None
        if start == "explicit":
            initial = evolve(WalkConfig(top, STANDARD_COINS[3], 4))
        cfg = WalkConfig(top, STANDARD_COINS[2], steps, initial=initial)
        states = list(trajectory(cfg))
        assert len(states) == steps + 1
        first = initial if initial is not None else standard_initial_state(top)
        assert np.array_equal(states[0].amplitudes, first.amplitudes)
        assert np.array_equal(evolve(cfg).amplitudes, states[-1].amplitudes)

    def test_held_trajectory_states_stay_valid(self):
        # Each step is a fresh array: after the walk has ended, every held
        # state still equals a step-by-step recomputation from copies.
        top = GraphTopology("cycle", 5)
        cfg = WalkConfig(top, STANDARD_COINS[1], 12)
        states = list(trajectory(cfg))
        coin, rows, signs = build_coin(cfg.coin), _shift_rows(top), _cz_signs(top)
        tensor = standard_initial_state(top).amplitudes.reshape(5, 2, -1)
        want = [tensor.copy()]
        for _ in range(cfg.steps):
            tensor = _apply_step(tensor, coin, rows, signs)
            want.append(tensor.copy())
        assert len(states) == len(want)
        for state, amplitudes in zip(states, want):
            assert np.array_equal(state.amplitudes, amplitudes.reshape(-1))

    def test_trajectory_is_lazy(self, monkeypatch):
        # A billion steps never finish if the states are made up front; the
        # step counter stops such a walk at once instead.
        cfg = WalkConfig(GraphTopology("cycle", 4), STANDARD_COINS[0], 10 ** 9)
        want = evolve(WalkConfig(cfg.topology, cfg.coin, 2)).amplitudes
        steps_taken = []

        def counted_step(*args):
            steps_taken.append(1)
            assert len(steps_taken) <= 2, "trajectory stepped ahead of its consumer"
            return _apply_step(*args)

        monkeypatch.setattr(walk_module, "_apply_step", counted_step)
        states = list(itertools.islice(trajectory(cfg), 3))
        assert len(states) == 3 and len(steps_taken) == 2
        assert np.array_equal(states[2].amplitudes, want)

    def test_identity_coin_keeps_register_plus(self):
        # On the cycle the coin never leaves |0>, so the CZ control stays
        # off; path boundaries would flip the coin instead.
        top = GraphTopology("cycle", 5)
        for state in trajectory(WalkConfig(top, CoinParams(0, 0, 0), 12)):
            rho = state.reduced(range(2, 7))
            plus = np.full(32, 2.0 ** -2.5)
            assert np.abs(rho - np.outer(plus, plus)).max() < 1e-12


class TestColumnBlocks:
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("start", ["standard", "explicit"])
    @pytest.mark.parametrize("register_block", [8, 6])
    def test_block_walk_is_the_full_walks_columns(self, kind, n, start, register_block,
                                                  monkeypatch):
        # A block builds its own sign table and, from the standard start,
        # its own start columns.  Blocks as runner._column_walks builds
        # them, [lo, lo+h) with its mirror, plus a strided slice; one coin
        # and a (2, 3) coin stack.  The table and the start equal the full
        # walk's columns bitwise, and so does every step of a block whose
        # width is a multiple of 4, as every runner block is.
        # The coin matmul rounds the last width % 4 columns of a narrower
        # block on another path of the BLAS kernel, a few ulp apart.
        top = GraphTopology(kind, n)
        initial = None
        if start == "explicit":
            initial = PureState(random_pure(n * 2 * 2 ** n, np.random.default_rng(n)),
                                walk_shape(top))
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", register_block)
        stack = np.stack([build_coin(c) for c in random_coins(6)]).reshape(2, 3, 2, 2)
        table = _cz_signs(top).reshape(2 * n, -1, 2)
        for coin_mats in (stack[0, 0], stack):
            full = [_full_rows(sites, tensor, n) for sites, tensor in
                    walk_module._walk_tensors(top, coin_mats, 8, initial)]
            blocks = [columns for columns, _ in runner._column_walks(top, coin_mats, 8, initial)]
            assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(2 ** n))
            strided = slice(1, None, register_block // 2)
            for columns in blocks + [strided]:
                signs = _cz_signs(top, columns)
                assert np.array_equal(signs, table[:, columns].reshape(2 * n, -1))
                walked = [_full_rows(sites, tensor, n) for sites, tensor in
                          walk_module._walk_tensors(top, coin_mats, 8, initial,
                                                    columns=columns)]
                assert len(walked) == len(full) == 9
                assert np.array_equal(walked[0], full[0][..., columns])
                bitwise = signs.shape[1] // 2 % 4 == 0
                for block, whole in zip(walked[1:], full[1:]):
                    if bitwise:
                        assert np.array_equal(block, whole[..., columns])
                    else:
                        assert np.abs(block - whole[..., columns]).max() <= 1e-15

    @pytest.mark.parametrize("n", range(2, MAX_SITES + 1))
    def test_runner_blocks_are_multiples_of_four(self, n):
        # The rule above that keeps a block's columns bitwise those of the
        # full walk, at the runner's own block size.
        top = GraphTopology("cycle", n)
        widths = [len(columns) for columns, _ in
                  runner._column_walks(top, build_coin(CoinParams(0.3)), 1, None)]
        assert sum(widths) == 2 ** n
        assert all(width % 4 == 0 for width in widths)


class TestOccupancyPlan:
    """The walk's plan is the rule of ``walk._walked_sites``: it steps only
    the (site, coin) rows of the sites of parity t mod 2 on an even cycle
    from the standard start, and of every site elsewhere and from every
    explicit start.  The full-row walk is exactly 0 on every other row."""

    @staticmethod
    def support(topology, tensor):
        """Sites of ``tensor`` (n, 2, width) with a nonzero amplitude."""
        return np.flatnonzero(np.abs(tensor).reshape(topology.n, -1).max(axis=1))

    @staticmethod
    def reachable(topology, steps, start):
        """Sites the walker can reach at t = 0..steps from ``start``, one
        move of oracles.shift_matrix at a time."""
        shift = shift_matrix(topology.kind, topology.n) != 0
        rows = np.zeros(2 * topology.n, dtype=bool)
        rows[2 * np.asarray(start)] = rows[2 * np.asarray(start) + 1] = True
        sites = []
        for _ in range(steps + 1):
            occupied = rows.reshape(-1, 2).any(axis=1)
            sites.append(np.flatnonzero(occupied))
            rows = shift @ np.repeat(occupied, 2) > 0
        return sites

    @staticmethod
    def initial(topology, start):
        """A random state on the sites ``start``."""
        n = topology.n
        amplitudes = np.zeros((n, 2, 2 ** n), dtype=complex)
        amplitudes[start] = random_pure(len(start) * 2 * 2 ** n,
                                        np.random.default_rng(n)).reshape(len(start), 2, -1)
        return PureState(amplitudes.reshape(-1), walk_shape(topology))

    def check_walk(self, top, steps, start, initial, full_row_walk):
        """The walk from ``initial`` (on the sites ``start``) against the
        full-row walk and the sites that shift_matrix reaches; returns the
        walked sites per step."""
        n = top.n
        coin = build_coin(CoinParams(0.7, 0.3, 1.1))
        walked = list(walk_module._walk_tensors(top, coin, steps, initial))
        full = [tensor for _, tensor in full_row_walk(top, coin, steps, initial)]
        reachable = self.reachable(top, steps, start)
        assert len(walked) == len(full) == steps + 1
        sites = [list(range(n)[part]) for part, _ in walked]
        for t, ((part, tensor), whole) in enumerate(zip(walked, full)):
            assert np.array_equal(self.support(top, whole), reachable[t]), t
            assert np.isin(reachable[t], sites[t]).all(), t
            assert np.array_equal(_full_rows(part, tensor, n), whole), t
        return sites

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", range(2, MAX_SITES + 1))
    def test_rows_outside_the_plan_are_zero(self, kind, n, full_row_walk):
        # From the standard start with a generic coin: the full-row walk is
        # nonzero on exactly the sites shift_matrix reaches; they lie in the
        # walked sites, which are the sublattice of parity t mod 2 on an
        # even cycle and every site elsewhere; and the walk on the walked
        # rows is the full-row walk bitwise.
        top = GraphTopology(kind, n)
        sites = self.check_walk(top, 2 * n + 2, [0], None, full_row_walk)
        for t, walked in enumerate(sites):
            if kind == "cycle" and n % 2 == 0:
                assert walked == list(range(t % 2, n, 2)), t
            else:
                assert walked == list(range(n)), t

    def test_even_cycle_walks_one_sublattice(self):
        # From t = 0: the walker reaches all six sites of its sublattice
        # only at t = 5, and the rows it has not reached are walked as 0.
        walked = walk_module._walk_tensors(GraphTopology("cycle", 12), build_coin(CoinParams(0.7)),
                                           26, columns=slice(0, 4))
        for t, (sites, tensor) in enumerate(walked):
            assert list(range(12)[sites]) == list(range(t % 2, 12, 2))
            assert tensor.shape == (6, 2, 4)

    def test_path_walks_every_site(self):
        # The path's walker covers all 12 sites only from t = 11 on; the
        # walk holds every site from the start.
        top = GraphTopology("path", 12)
        assert [len(sites) for sites in self.reachable(top, 26, [0])][10:12] == [11, 12]
        walked = walk_module._walk_tensors(top, build_coin(CoinParams(0.7)), 26,
                                           columns=slice(0, 4))
        assert all(list(range(12)[sites]) == list(range(12)) for sites, _ in walked)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_initial_on_one_parity_walks_a_sublattice(self, parity, full_row_walk):
        # Sites 1 and 3, or 0 and 4, of C_6: the walker's amplitude lies on
        # the sublattice of parity (s0 + t) mod 2 from t = 0, while the walk
        # of this explicit start steps every site and is 0 off the sublattice.
        top = GraphTopology("cycle", 6)
        start = [1, 3] if parity else [0, 4]
        for t, occupied in enumerate(self.reachable(top, 14, start)):
            assert np.isin(occupied, range((parity + t) % 2, 6, 2)).all(), t
        sites = self.check_walk(top, 14, start, self.initial(top, start), full_row_walk)
        assert sites == [list(range(6))] * 15

    def test_every_explicit_start_walks_every_site(self, full_row_walk):
        # On C_6 the sublattice is the standard start's alone: a start on
        # sites 1 and 3, on 0 and 4 (one parity each), on 0 and 3 (both),
        # and the standard state passed explicitly all walk every site.
        top = GraphTopology("cycle", 6)
        for start in ([1, 3], [0, 4], [0, 3]):
            sites = self.check_walk(top, 14, start, self.initial(top, start), full_row_walk)
            assert sites == [list(range(6))] * 15, start
        sites = self.check_walk(top, 14, [0], standard_initial_state(top), full_row_walk)
        assert sites == [list(range(6))] * 15

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_initial_on_both_parities_gets_every_site(self, kind, full_row_walk):
        # Sites 0 and 3 of C_6 or L_6: every site from t = 0.
        top = GraphTopology(kind, 6)
        sites = self.check_walk(top, 14, [0, 3], self.initial(top, [0, 3]), full_row_walk)
        assert sites == [list(range(6))] * 15

    def test_sublattice_tables_are_views_of_the_block_table(self, monkeypatch):
        # Each step scales by a strided view cz_signs[s::2] of the block's
        # (n, 2, 2 * width) table, never by a gathered copy.
        tables, used = [], []
        cz_signs, apply_step = walk_module._cz_signs, walk_module._apply_step
        monkeypatch.setattr(walk_module, "_cz_signs",
                            lambda *args: tables.append(cz_signs(*args)) or tables[-1])
        monkeypatch.setattr(walk_module, "_apply_step",
                            lambda *args: used.append(args[3]) or apply_step(*args))
        n = 12
        for _ in walk_module._walk_tensors(GraphTopology("cycle", n), build_coin(CoinParams(0.7)),
                                           4, columns=slice(0, 8)):
            pass
        assert len(tables) == 1 and len(used) == 4
        for t, signs in enumerate(used, start=1):
            assert np.shares_memory(signs, tables[0])
            assert np.array_equal(signs, tables[0].reshape(n, 2, -1)[t % 2::2])

    def test_even_cycle_statistics_walk_peak(self, monkeypatch):
        # One C_12 walk of the Grams at T = 24: the (25, 24, 24) stack, the
        # block's sign table and a few step arrays of 12 rows, 1390 KiB in
        # all.  Gathered sublattice tables and rows of the full width would
        # push it past 1600 KiB.
        config = WalkConfig(GraphTopology("cycle", 12), STANDARD_COINS[0], 24)
        monkeypatch.setattr(runner, "_last_walk", [None, set(), None])
        tracemalloc.start()
        try:
            runner._statistics(config, "entropy(G)")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1450 * 2 ** 10


class TestComplementSymmetry:
    """From the standard start on C_n with 4 | n, register column ~g = 2**n
    - 1 - g of psi(t) is Lambda_t times column g, Lambda_t[p, c] = (-1)^(((p
    + t) mod n) / 2): the relation by which ``runner._statistics`` walks
    only g < 2**(n-1) there.  On no other graph tried does any sign per
    (site, coin) row relate the two columns."""

    @staticmethod
    def columns(topology, full_row_walk, coin=STANDARD_COINS[1]):
        """(t, column ~g of psi(t), column g) over t <= 3n, all g at once."""
        for t, (_, tensor) in enumerate(full_row_walk(topology, build_coin(coin),
                                                      3 * topology.n)):
            yield t, tensor[..., ::-1], tensor

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_cycles_of_four_k_sites(self, n, full_row_walk):
        # Exact equality: for all eight coins of the figures, on C_4, C_8 and
        # C_12 up to t = 3n, the two columns were measured equal bit for bit,
        # both here and in the mirrored column blocks of the runner's walk.
        sites = np.arange(n)
        for coin in STANDARD_COINS + BEST_CLUSTER_COINS:
            for t, mirrored, tensor in self.columns(GraphTopology("cycle", n), full_row_walk,
                                                    coin):
                lam = (-1.0) ** ((sites + t) % n // 2)
                assert np.array_equal(mirrored, lam[:, None, None] * tensor), (coin, t)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.sampled_from([4, 8]),
           angles=st.tuples(*[st.floats(-2 * np.pi, 2 * np.pi)] * 3))
    def test_any_coin(self, n, angles, full_row_walk):
        # The relation holds bit for bit for every coin, not only the figures'.
        sites = np.arange(n)
        for t, mirrored, tensor in self.columns(GraphTopology("cycle", n), full_row_walk,
                                                CoinParams(*angles)):
            lam = (-1.0) ** ((sites + t) % n // 2)
            assert np.array_equal(mirrored, lam[:, None, None] * tensor), t

    @pytest.mark.parametrize("kind, n", [("cycle", 6), ("cycle", 10), ("cycle", 5),
                                         ("path", 4)])
    def test_no_row_sign_elsewhere(self, kind, n, full_row_walk):
        # Per row, the smaller of max_g |psi_~g - psi_g| and |psi_~g + psi_g|.
        defect = max(np.minimum(np.abs(mirrored - tensor).max(axis=-1),
                                np.abs(mirrored + tensor).max(axis=-1)).max()
                     for _, mirrored, tensor in self.columns(GraphTopology(kind, n),
                                                             full_row_walk))
        assert defect > 1e-3


class TestWalkConfig:
    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            WalkConfig(GraphTopology("path", 4), CoinParams(0), -1)

    def test_rejects_non_integral_steps(self):
        top = GraphTopology("path", 4)
        for steps in (2.5, 3.0):
            with pytest.raises(ValueError,
                               match=re.escape(f"steps must be an integer >= 0, got {steps!r}")):
                WalkConfig(top, CoinParams(0), steps)
        assert WalkConfig(top, CoinParams(0), np.int32(3)) == WalkConfig(top, CoinParams(0), 3)

    def test_rejects_mismatched_initial(self):
        top4, top5 = GraphTopology("cycle", 4), GraphTopology("cycle", 5)
        with pytest.raises(ValueError):
            WalkConfig(top5, CoinParams(0), 1, initial=standard_initial_state(top4))

    def test_state_does_not_alias_a_writeable_input(self):
        # Zeroing the caller's array afterwards leaves the validated state
        # as it was, and the state's own amplitudes cannot be written.
        shape = walk_shape(GraphTopology("cycle", 4))
        a = standard_initial_state(GraphTopology("cycle", 4)).amplitudes.copy()
        state = PureState(a, shape)
        a[:] = 0
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0

    def test_state_does_not_alias_a_read_only_view_of_a_writeable_array(self):
        a = standard_initial_state(GraphTopology("cycle", 4)).amplitudes.copy()
        v = a.view()
        v.flags.writeable = False
        state = PureState(v, walk_shape(GraphTopology("cycle", 4)))
        a[:] = 0
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_read_only_input_is_copied(self):
        a = standard_initial_state(GraphTopology("cycle", 4)).amplitudes
        assert not a.flags.writeable
        state = PureState(a, walk_shape(GraphTopology("cycle", 4)))
        assert not np.shares_memory(state.amplitudes, a)
        assert np.array_equal(state.amplitudes, a)

    def test_rejects_unnormalized_state(self):
        for amps in (np.ones(128), np.full(128, np.nan)):
            with pytest.raises(ValueError):
                PureState(amps, walk_shape(GraphTopology("cycle", 4)))

    def test_norm_tolerance_is_the_metrics_trace_contract(self):
        # ||psi|| - 1 = 8e-11 puts ||psi||^2, the trace every metric checks,
        # 1.6e-10 from 1: the state is rejected where it is built, not by
        # the first metric.  At 4e-11 both the state and its metrics pass.
        topology = GraphTopology("path", 4)
        amps = standard_initial_state(topology).amplitudes
        with pytest.raises(ValueError, match="state is not normalized"):
            PureState((1 + 8e-11) * amps, walk_shape(topology))
        state = PureState((1 + 4e-11) * amps, walk_shape(topology))
        assert von_neumann_entropy(unconditioned_vertex_state(state)) == 0.0


class TestClusterMechanism:
    """Why the cycle C_4 with the coin (pi/2, 0, pi/2) holds the cluster
    state at t = 24.  The CZ is diagonal in the register basis, so each
    register column g walks alone under the 8 x 8 step U_g = D_g S (1 (x) C),
    D_g being the CZ signs of g.  Every U_g^24 is a phase phi_g times the
    identity, and phi_g / phi_0 are the graph state's signs: the walker and
    coin return to |0>|0> and leave the register in the C_4 cluster state."""

    TOPOLOGY = GraphTopology("cycle", 4)
    COIN = CoinParams(np.pi / 2, 0.0, np.pi / 2)

    def test_every_column_step_has_order_24_up_to_the_graph_signs(self):
        n = self.TOPOLOGY.n
        step = shift_matrix("cycle", n) @ np.kron(np.eye(n), build_coin(self.COIN))
        signs = _cz_signs(self.TOPOLOGY)[:, 0::2]
        phases = []
        for g in range(2 ** n):
            power = np.linalg.matrix_power(signs[:, g, None] * step, 24)
            phases.append(power[0, 0])
            assert np.abs(power - phases[-1] * np.eye(2 * n)).max() <= 1e-12
        # The graph state's sign of g: (-1) to the number of edges with
        # both ends 1.
        bits = [[(g >> (n - 1 - i)) & 1 for i in range(n)] for g in range(2 ** n)]
        graph_signs = [(-1) ** sum(b[i] * b[j] for i, j in self.TOPOLOGY.edges) for b in bits]
        assert np.abs(np.array(phases) / phases[0] - graph_signs).max() <= 1e-12

    def test_every_column_step_has_order_24_exactly(self):
        # 2U_g = D_g S (1 (x) 2C) has Gaussian-integer entries, as int64 real
        # and imaginary parts, so (2U_g)^24 = 2^24 phi_g 1 holds exactly:
        # phi_0 = +1 and phi_g the graph state's sign of g.
        n = self.TOPOLOGY.n
        shift = shift_matrix("cycle", n).real.astype(np.int64)
        coin_re, coin_im = (np.kron(np.eye(n, dtype=np.int64), part) for part in _CLUSTER_COIN_X2)
        signs = cz_diagonal(n).astype(np.int64).reshape(2 * n, 2 ** n)
        identity = np.eye(2 * n, dtype=np.int64)
        for g in range(2 ** n):
            step_re = signs[:, g, None] * (shift @ coin_re)
            step_im = signs[:, g, None] * (shift @ coin_im)
            re, im = identity, np.zeros_like(identity)
            for _ in range(24):
                re, im = step_re @ re - step_im @ im, step_re @ im + step_im @ re
            bits = [(g >> (n - 1 - i)) & 1 for i in range(n)]
            sign = (-1) ** sum(bits[i] * bits[j] for i, j in self.TOPOLOGY.edges)
            assert np.array_equal(re, sign * 2 ** 24 * identity), g
            assert not im.any(), g

    def test_register_is_pure_and_the_cluster_state_at_the_predicted_steps(self):
        config = WalkConfig(self.TOPOLOGY, self.COIN, 120)
        entropy = np.array(runner.run_metric_series(config, "entropy(G)").values)
        closeness = np.array(runner.run_metric_series(config, "closeness(graph)").values)
        assert np.flatnonzero(entropy <= 1e-9).tolist() == [0, 23, 24, 47, 48, 71, 72, 95, 96,
                                                             119, 120]
        assert np.flatnonzero(closeness >= 1 - 1e-9).tolist() == [23, 24, 71, 72, 119, 120]

    def test_only_c4_decouples_on_the_grid(self):
        # theta = k pi/20 (0 < theta < pi), phi1 = 0, phi2 = k pi/20, T = 48:
        # the register is pure (the walker decoupled) at some t >= 1 only on
        # C_4 with theta = pi/2 and phi2 in {0, pi/2, pi}, first at t = 23,
        # and the cluster state at t = 24 only for the coin (pi/2, 0, pi/2).
        grid = np.arange(21) * np.pi / 20
        coins = [CoinParams(theta, 0.0, phi2) for theta in grid[1:-1] for phi2 in grid]
        decoupled = {}
        for kind in ("cycle", "path"):
            topology = GraphTopology(kind, 4)
            for coin in coins:
                entropy = runner.run_metric_series(WalkConfig(topology, coin, 48), "entropy(G)")
                pure = np.flatnonzero(np.array(entropy.values[1:]) <= 1e-9)
                if pure.size:
                    decoupled[kind, coin] = 1 + pure[0]
        assert decoupled == {("cycle", CoinParams(np.pi / 2, 0.0, phi2)): 23
                             for phi2 in (0.0, np.pi / 2, np.pi)}
        coin_mats = np.stack([build_coin(coin) for coin in coins])
        for kind in ("cycle", "path"):
            closeness = runner._closeness_values(GraphTopology(kind, 4), coin_mats, 24, None,
                                                 ("graph",))[0, :, 24]
            cluster = [coins[i] for i in np.flatnonzero(closeness >= 1 - 1e-9)]
            assert cluster == ([self.COIN] if kind == "cycle" else [])

    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    @pytest.mark.parametrize("kind", ["cycle", "path"])
    def test_no_coin_decouples_at_other_sizes(self, kind, n):
        # The grid and T of test_only_c4_decouples_on_the_grid, as one
        # batched walk: the walker-coin purity ||G_t||_F^2, G_t = F F^dag,
        # stays below 1 - 1e-9 at every t >= 1, so the register is never pure.
        grid = np.arange(21) * np.pi / 20
        coin_mats = np.stack([build_coin(CoinParams(theta, 0.0, phi2))
                              for theta in grid[1:-1] for phi2 in grid])
        tensors = walk_module._walk_tensors(GraphTopology(kind, n), coin_mats, 48)
        next(tensors)
        for sites, tensor in tensors:
            f = _full_rows(sites, tensor, n).reshape(len(coin_mats), 2 * n, -1)
            purity = np.sum(np.abs(f @ f.conj().swapaxes(-1, -2)) ** 2, axis=(-2, -1))
            assert purity.max() < 1 - 1e-9
