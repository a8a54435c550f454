import itertools
from functools import reduce

import numpy as np
import pytest

from iqwalk import (
    CoinParams,
    GraphTopology,
    PureState,
    STANDARD_COINS,
    WalkConfig,
    build_coin,
    build_shift,
    evolve,
    standard_initial_state,
    trajectory,
    walk_shape,
)
import iqwalk.runner as runner
import iqwalk.walk as walk_module
from iqwalk.walk import MAX_SITES, _apply_step, _cz_signs, _shift_rows, interaction_diagonal
from oracles import random_pure


def random_coins(count, seed=2024):
    rng = np.random.default_rng(seed)
    return [CoinParams(*angles)
            for angles in zip(rng.uniform(0, np.pi, count),
                              rng.uniform(0, 2 * np.pi, count),
                              rng.uniform(0, 2 * np.pi, count))]


def unitarity_defect(u):
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()


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
        s = build_shift(GraphTopology("cycle", 4))
        # |0>_P|1>_C -> |1>_P|1>_C
        assert s[1 * 2 + 1, 0 * 2 + 1] == 1
        # |0>_P|0>_C -> |3>_P|0>_C
        assert s[3 * 2 + 0, 0 * 2 + 0] == 1

    def test_path_boundary_reflects_with_coin_flip(self):
        s = build_shift(GraphTopology("path", 4))
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
        s = build_shift(GraphTopology(kind, n))
        assert unitarity_defect(s) < 1e-12
        # one 1 per row and column, everything else 0
        assert np.array_equal(np.sort(np.abs(s), axis=0)[-1], np.ones(2 * n))
        assert np.count_nonzero(s) == 2 * n

    def test_cycle_translation_invariance(self):
        n = 5
        s = build_shift(GraphTopology("cycle", n))
        rot = np.zeros((n, n))
        for i in range(n):
            rot[(i + 1) % n, i] = 1
        r = np.kron(rot, np.eye(2))
        assert np.abs(r @ s - s @ r).max() < 1e-14


class TestInteraction:
    def test_diagonal_signs(self):
        diag = interaction_diagonal(GraphTopology("cycle", 4))
        assert set(np.unique(diag.real)) == {-1.0, 1.0}
        assert np.abs(diag.imag).max() == 0

    def test_coin_zero_never_fires(self):
        top = GraphTopology("cycle", 4)
        diag = interaction_diagonal(top)
        for pos in range(4):
            for bits in ([0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0]):
                psi = basis_state(top, pos, 0, bits).amplitudes
                assert np.array_equal(diag * psi, psi)

    def test_phase_on_matching_qubit(self):
        top = GraphTopology("cycle", 4)
        diag = interaction_diagonal(top)
        hit = basis_state(top, 2, 1, [0, 0, 1, 0]).amplitudes
        assert np.array_equal(diag * hit, -hit)
        miss = basis_state(top, 2, 1, [0, 1, 0, 0]).amplitudes
        assert np.array_equal(diag * miss, miss)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_diagonal_is_the_sign_table(self, n):
        # One CZ definition: the kernel's table holds each diagonal entry
        # twice, for the real and the imaginary part.
        for kind in ("path", "cycle"):
            top = GraphTopology(kind, n)
            signs = _cz_signs(top)
            assert signs.shape == (2 * n, 2 * 2 ** n)
            assert np.array_equal(signs[:, 1::2], signs[:, 0::2])
            assert np.array_equal(interaction_diagonal(top), signs[:, 0::2].reshape(-1))


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
        shift, rows = build_shift(top), _shift_rows(top)
        coin = build_coin(STANDARD_COINS[2])
        diag, signs = interaction_diagonal(top), _cz_signs(top)
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
        rows, diag, signs = _shift_rows(top), interaction_diagonal(top), _cz_signs(top)
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
        walker = build_shift(top) @ np.kron(np.eye(3), build_coin(coin))
        u = interaction_diagonal(top)[:, None] * np.kron(walker, np.eye(2 ** 3))
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
            full = list(walk_module._walk_tensors(top, coin_mats, 8, initial))
            blocks = [columns for columns, _ in runner._column_walks(top, coin_mats, 8, initial)]
            assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(2 ** n))
            strided = slice(1, None, register_block // 2)
            for columns in blocks + [strided]:
                signs = _cz_signs(top, columns)
                assert np.array_equal(signs, table[:, columns].reshape(2 * n, -1))
                walked = list(walk_module._walk_tensors(top, coin_mats, 8, initial,
                                                        columns=columns))
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


class TestWalkConfig:
    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            WalkConfig(GraphTopology("path", 4), CoinParams(0), -1)

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
