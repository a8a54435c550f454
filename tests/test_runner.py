import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from iqwalk import (
    CoinParams,
    GraphTopology,
    STANDARD_COINS,
    SweepSpec,
    WalkConfig,
    default_angle_grid,
    evolve,
    graph_state,
    parse_angle,
    reproduce_figure,
    run_metric_series,
    run_sweep,
    series_csv,
    series_json,
)
from iqwalk import runner
from iqwalk import walk as walk_module
from iqwalk.cli import main
from iqwalk.conditioning import CoinProjection, postselect_coin, unconditioned_vertex_state
from iqwalk.errors import ContractViolationError, ZeroProbabilityError
from iqwalk.linalg import PSD_CLIP, reduction_factor
from iqwalk.metrics import closeness, log_negativity, n_concurrence, von_neumann_entropy
from iqwalk.walk import PureState, build_coin, standard_initial_state, trajectory, walk_shape
from oracles import random_pure

CYCLE4 = GraphTopology("cycle", 4)
PATH4 = GraphTopology("path", 4)
CLUSTER_COIN = CoinParams(math.pi / 2, 0.0, math.pi / 2)

# Every series value of fig2-fig5 and fig7 at T = 100, keyed by CSV name
# (tests/data/make_figures_golden.py wrote it).
GOLDEN = json.loads((Path(__file__).parent / "data" / "figures_golden.json").read_text())
# Both concurrences take sqrt of ~1e-16 eigenvalue noise in the register's
# zero eigenvalues, so their low digits depend on the BLAS; the other
# metrics are stable to float64 rounding.
GOLDEN_ATOL = {"entropy": 1e-10, "logneg": 1e-10, "closeness": 1e-10,
               "concurrence": 1e-7, "concurrence_postselected": 1e-7}


class TestParseAngle:
    @pytest.mark.parametrize("token,value", [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("3*pi/20", 3 * math.pi / 20),
        ("3pi/20", 3 * math.pi / 20),
        ("0.5*pi", math.pi / 2),
        ("-pi/4", -math.pi / 4),
        ("0", 0.0),
        ("1.25", 1.25),
        (2.0, 2.0),
    ])
    def test_tokens(self, token, value):
        assert parse_angle(token) == pytest.approx(value, abs=1e-15)

    def test_rejects_garbage(self):
        for bad in ("two*pi", "pi/0", "1,2", ""):
            with pytest.raises(ValueError):
                parse_angle(bad)


class TestMetricSeries:
    def test_coin_entropy_bounded_by_one(self):
        series = run_metric_series(WalkConfig(CYCLE4, CoinParams(0.7, 0, 1.1), 50),
                                   "entropy(C)")
        assert series.metric == "entropy(C)"
        assert len(series.values) == 51
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in series.values)

    def test_entropy_labels_normalized(self):
        series = run_metric_series(WalkConfig(CYCLE4, CoinParams(0.7), 3), "entropy(CP)")
        assert series.metric == "entropy(PC)"

    def test_cluster_closeness_hits_one(self):
        series = run_metric_series(WalkConfig(CYCLE4, CLUSTER_COIN, 30), "closeness(graph)")
        assert series.values[24] >= 1 - 1e-9
        assert all(0.0 <= v <= 1.0 for v in series.values)

    def test_initial_closeness_value(self):
        # |<C4|+^4>| = 1/2 by direct sign counting (12 plus, 4 minus
        # amplitudes), so the pure-state trace distance at t=0 is
        # sqrt(1 - 1/4) and the closeness 1 - sqrt(3)/2.
        series = run_metric_series(WalkConfig(CYCLE4, CLUSTER_COIN, 1), "closeness(graph)")
        assert series.values[0] == pytest.approx(1 - math.sqrt(3) / 2, abs=1e-12)

    def test_postselected_metric_name(self):
        series = run_metric_series(WalkConfig(PATH4, CoinParams(0.7), 5),
                                   "concurrence_postselected(pi/2,0)")
        assert series.metric.startswith("concurrence_postselected(1.570796")
        assert series.provenance["mu"] == pytest.approx(math.pi / 2)

    def test_register_metrics_at_twelve_sites(self):
        # The register factor is 4096 x 24: every metric is solved in
        # dimension <= 25, never 4096.
        topology = GraphTopology("path", 12)
        cfg = WalkConfig(topology, CoinParams(math.pi / 4, 0.0, 2 * math.pi / 5), 2)
        plus = np.full(2 ** 12, 2.0 ** -6)
        overlap = abs(np.vdot(plus, graph_state(topology).amplitudes))
        series = {m: run_metric_series(cfg, m).values
                  for m in ("concurrence", "concurrence_postselected(pi/2,0)",
                            "closeness(graph)", "entropy(G)")}
        # t = 0 is the pure product |+>^12
        assert series["concurrence"][0] == 0.0
        assert series["entropy(G)"][0] == 0.0
        assert series["closeness(graph)"][0] == pytest.approx(
            1 - math.sqrt(1 - overlap ** 2), abs=1e-12)
        for name, values in series.items():
            hi = math.log2(24) if name == "entropy(G)" else 1.0
            assert all(0.0 <= v <= hi + 1e-12 for v in values[1:]), name
        assert series["entropy(G)"][2] > 0.1

    @pytest.mark.parametrize("metric", ["entropy(G)", "logneg(PC)", "concurrence",
                                        "closeness(graph)"])
    def test_series_starts_from_config_initial(self, metric):
        # A series started from psi(3) is the tail of the series from t = 0.
        coin = CoinParams(0.7, 0.3, 1.1)
        full = run_metric_series(WalkConfig(PATH4, coin, 8), metric)
        start = evolve(WalkConfig(PATH4, coin, 3))
        tail = run_metric_series(WalkConfig(PATH4, coin, 5, initial=start), metric)
        assert tail.times == tuple(range(6))
        assert tail.values == full.values[3:]

    def test_unknown_metric(self):
        cfg = WalkConfig(CYCLE4, CoinParams(0.7), 2)
        for bad in ("magic", "entropy(Q)", "entropy(PCG)", "closeness(bell)",
                    "logneg(CG)", "concurrence(0)"):
            with pytest.raises(ValueError):
                run_metric_series(cfg, bad)

    def test_nonnegative_entropy_series(self):
        series = run_metric_series(WalkConfig(PATH4, CoinParams(1.0, 0.2, 0.4), 40),
                                   "entropy(G)")
        assert min(series.values) >= 0.0


WALKER_METRICS = tuple(f"entropy({x})" for x in ("P", "C", "G", "PC", "PG", "CG")) \
    + ("logneg(PC)",)


def full_state_series(cfg, metric):
    """A walker-side metric from the full walk states: the reduction
    factor of each psi(t), as the metric takes it."""
    n = cfg.topology.n
    groups = {"P": (0,), "C": (1,), "G": tuple(range(2, n + 2))}
    values = []
    for s in trajectory(cfg):
        if metric == "logneg(PC)":
            factor = reduction_factor(s.amplitudes, s.shape, (0, 1))
            values.append(log_negativity(factor, (n, 2), (1,)))
        else:
            label = metric[len("entropy("):-1]
            keep = sum((groups[ch] for ch in label), ())
            values.append(von_neumann_entropy(reduction_factor(s.amplitudes, s.shape, keep)))
    return values


def assert_walker_series_match_oracle(cfg):
    for metric in WALKER_METRICS:
        values = run_metric_series(cfg, metric).values
        assert np.abs(np.subtract(values, full_state_series(cfg, metric))).max() <= 1e-12, metric


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty memo of the last walk: statistics walked by another test, or
    with another block size, must not stand in for the ones under test."""
    monkeypatch.setattr(runner, "_last_walk", [None, set(), None])


@pytest.fixture
def walk_count(monkeypatch, fresh_memo):
    """Counts the walks of a config started through ``walk._walk_tensors``,
    under each name the runner and the walk module call it by, from an
    empty memo.  A walk in column blocks counts once: only its first block,
    the one from column 0, is counted."""
    walks = []
    original = walk_module._walk_tensors

    def counted(*args, columns=slice(None), **kwargs):
        if isinstance(columns, slice) or columns[0] == 0:
            walks.append(1)
        return original(*args, columns=columns, **kwargs)

    for module in (walk_module, runner):
        monkeypatch.setattr(module, "_walk_tensors", counted)
    return walks


@pytest.mark.usefixtures("fresh_memo")
class TestWalkerSeries:

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_matches_full_state_oracle(self, kind, n):
        cfg = WalkConfig(GraphTopology(kind, n), CoinParams(0.7, 0.3, 1.1), 4 if n == 12 else 9)
        assert_walker_series_match_oracle(cfg)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_column_blocks_match_full_state_oracle(self, kind, n, monkeypatch):
        # Blocks of 4 register columns: up to 16 blocks, each walked through
        # all steps on its own, sum to the same Grams.
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", 4)
        cfg = WalkConfig(GraphTopology(kind, n), CoinParams(0.7, 0.3, 1.1), 9)
        assert_walker_series_match_oracle(cfg)

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_column_blocks_from_an_entangled_initial_state(self, kind, monkeypatch):
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", 4)
        topology = GraphTopology(kind, 5)
        initial = PureState(random_pure(5 * 2 * 2 ** 5, np.random.default_rng(90)),
                            walk_shape(topology))
        cfg = WalkConfig(topology, STANDARD_COINS[3], 9, initial=initial)
        assert_walker_series_match_oracle(cfg)
        assert run_metric_series(cfg, "entropy(G)").values[0] > 0.5

    def test_twelve_sites_in_full_blocks_match_full_state_oracle(self):
        # 4 blocks of runner._REGISTER_BLOCK = 1024 columns, T = 24.
        cfg = WalkConfig(GraphTopology("cycle", 12), STANDARD_COINS[2], 24)
        assert 2 ** 12 // runner._REGISTER_BLOCK == 4
        assert_walker_series_match_oracle(cfg)

    def test_factors_never_hold_a_full_state_per_step(self, monkeypatch):
        # A walk state at n = 12 is 1.5 MiB, as is a sign table or a start
        # state 2**12 columns wide, and 25 states are 37.5 MiB.  Each blocked
        # series holds one block and its statistics, about 2.1-2.7 MiB.
        cfg = WalkConfig(GraphTopology("cycle", 12), STANDARD_COINS[0], 24)
        for metric in ("entropy(G)", "concurrence", "closeness(graph)"):
            monkeypatch.setattr(runner, "_last_walk", [None, set(), None])
            tracemalloc.start()
            try:
                run_metric_series(cfg, metric)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2 ** 20, metric

    def test_unnormalized_initial_state_is_rejected(self):
        # The statistics read ||psi(t)||^2 off each Gram's trace, and the
        # closeness reads ||B||_F^2 off each R.
        initial = standard_initial_state(PATH4)
        object.__setattr__(initial, "amplitudes", 1.1 * initial.amplitudes)
        cfg = WalkConfig(PATH4, STANDARD_COINS[0], 3, initial=initial)
        for metric in ("entropy(G)", "concurrence"):
            with pytest.raises(ValueError, match="not normalized"):
                run_metric_series(cfg, metric)
        with pytest.raises(ContractViolationError, match="density matrix trace"):
            run_metric_series(cfg, "closeness(graph)")

    def test_one_walk_for_consecutive_walker_series(self, walk_count):
        cfg = WalkConfig(PATH4, STANDARD_COINS[1], 6)
        for metric in ("entropy(PC)", "entropy(C)", "entropy(P)", "logneg(PC)"):
            run_metric_series(cfg, metric)
        assert len(walk_count) == 1
        # The first series that needs M walks again, and the walk serves
        # the register and walker-side series that follow it.
        for metric in ("concurrence", "concurrence_postselected(0,0)",
                       "concurrence_postselected(pi/2,0)", "entropy(G)"):
            run_metric_series(cfg, metric)
        assert len(walk_count) == 2
        # Closeness walks with its target on its own.
        run_metric_series(cfg, "closeness(graph)")
        assert len(walk_count) == 3

    def test_register_n8_series_run_twice_walk_equally_often(self, walk_count):
        # The register_n8 benchmark's list: a series already served walks
        # again, so the second round repeats the first, walk for walk.
        cfg = WalkConfig(GraphTopology("path", 8), STANDARD_COINS[2], 24)
        rounds = []
        for _ in range(2):
            before = len(walk_count)
            values = [run_metric_series(cfg, metric).values for metric in REGISTER_N8_METRICS]
            rounds.append((len(walk_count) - before, values))
        assert rounds[0] == rounds[1]
        assert rounds[0][0] == 2   # the statistics, and the closeness walk

    def test_second_config_evicts_the_first(self, walk_count):
        first = WalkConfig(PATH4, STANDARD_COINS[1], 6)
        second = WalkConfig(CYCLE4, STANDARD_COINS[1], 6)
        for cfg in (first, second, first):
            run_metric_series(cfg, "entropy(C)")
        assert len(walk_count) == 3
        run_metric_series(first, "entropy(P)")
        assert len(walk_count) == 3
        run_metric_series(second, "entropy(P)")
        assert len(walk_count) == 4

    def test_memo_never_sees_a_changed_initial_state(self, walk_count):
        # The memo keys on the initial state's identity; the state copies
        # its caller's array, so changing that array changes nothing, in a
        # new walk or in the memo.
        amps = evolve(WalkConfig(PATH4, STANDARD_COINS[0], 3)).amplitudes.copy()
        cfg = WalkConfig(PATH4, STANDARD_COINS[1], 5, initial=PureState(amps, walk_shape(PATH4)))
        before = run_metric_series(cfg, "entropy(G)").values
        amps[:] = standard_initial_state(PATH4).amplitudes
        walks = len(walk_count)
        assert run_metric_series(cfg, "entropy(G)").values == before
        assert run_metric_series(cfg, "logneg(PC)").values \
            == pytest.approx(full_state_series(cfg, "logneg(PC)"), abs=1e-12)
        assert len(walk_count) == walks + 2  # entropy(G) again, and the oracle


REGISTER_N8_METRICS = ("concurrence", "concurrence_postselected(0,0)",
                       "concurrence_postselected(pi/2,0)", "closeness(graph)", "entropy(G)")
REGISTER_METRICS = ("concurrence", "concurrence_postselected(0,0)",
                    "concurrence_postselected(pi/2,0)", "concurrence_postselected(pi/3,pi/5)",
                    "closeness(ghz)", "closeness(w)", "closeness(graph)")


def register_oracle(cfg, metric):
    """A register metric from the full walk states, through the conditioning
    functions, one metric call per state."""
    n = cfg.topology.n
    values = []
    for s in trajectory(cfg):
        if metric == "concurrence":
            values.append(n_concurrence(unconditioned_vertex_state(s), n))
        elif metric.startswith("concurrence_postselected"):
            mu, nu = runner.parse_angles(metric[len("concurrence_postselected("):-1], 2)
            try:
                factor, _ = postselect_coin(s, CoinProjection(mu, nu))
            except ZeroProbabilityError:
                values.append(0.0)
                continue
            values.append(n_concurrence(factor, n))
        else:
            target = runner._reference_state(metric[len("closeness("):-1], cfg.topology)
            values.append(closeness(unconditioned_vertex_state(s), target.amplitudes[:, None]))
    return values


def assert_register_series_match_oracle(cfg):
    for metric in REGISTER_METRICS:
        values = run_metric_series(cfg, metric).values
        assert np.abs(np.subtract(values, register_oracle(cfg, metric))).max() <= 1e-12, metric


@pytest.mark.usefixtures("fresh_memo")
class TestRegisterSeries:
    @pytest.mark.parametrize("block", [1024, 2, 6], ids=["one-block", "pairs", "six"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_column_blocks_match_full_state_oracle(self, kind, n, block, monkeypatch):
        # Blocks of 2 are every mirror pair (g, ~g) on its own; with blocks
        # of 6 the last block is the one whose mirror range meets column
        # 2**(n-1), and with 1024 all columns are one block.
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", block)
        cfg = WalkConfig(GraphTopology(kind, n), CoinParams(0.7, 0.3, 1.1), 9)
        assert_register_series_match_oracle(cfg)

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_column_blocks_from_an_entangled_initial_state(self, kind, monkeypatch):
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", 4)
        topology = GraphTopology(kind, 5)
        initial = PureState(random_pure(5 * 2 * 2 ** 5, np.random.default_rng(91)),
                            walk_shape(topology))
        cfg = WalkConfig(topology, STANDARD_COINS[3], 9, initial=initial)
        assert_register_series_match_oracle(cfg)
        assert run_metric_series(cfg, "entropy(G)").values[0] > 0.5

    def test_zero_probability_step_is_exactly_zero(self):
        # At t = 0 the coin is |0>: the outcome mu = pi/2 (|1>) is impossible.
        cfg = WalkConfig(PATH4, STANDARD_COINS[1], 4)
        with pytest.raises(ZeroProbabilityError):
            postselect_coin(standard_initial_state(PATH4), CoinProjection(math.pi / 2))
        values = run_metric_series(cfg, "concurrence_postselected(pi/2,0)").values
        assert values[0] == 0.0 and not math.copysign(1.0, values[0]) < 0
        oracle = register_oracle(cfg, "concurrence_postselected(pi/2,0)")
        assert oracle[0] == 0.0
        assert np.abs(np.subtract(values, oracle)).max() <= 1e-12

    def test_twelve_sites_in_full_blocks_match_full_state_oracle(self):
        # 4 blocks of runner._REGISTER_BLOCK = 1024 columns.
        cfg = WalkConfig(GraphTopology("cycle", 12), STANDARD_COINS[2], 4)
        assert 2 ** 12 // runner._REGISTER_BLOCK == 4
        assert_register_series_match_oracle(cfg)


def assert_sweep_matches_per_coin_series(spec, result):
    """Each table row is the tie rule applied to the coin's closeness series."""
    for coin, (theta, phi1, phi2, t, value) in zip(spec.coins(), result.table):
        assert (theta, phi1, phi2) == coin.astuple()
        values = run_metric_series(WalkConfig(spec.topology, coin, spec.steps),
                                   f"closeness({spec.target})").values
        tied = np.asarray(values) >= max(values) - runner.TIE_ATOL
        want_t = int(np.argmax(tied))
        while want_t + 1 < len(values) and tied[want_t + 1]:
            want_t += 1
        assert t == want_t
        assert abs(value - values[want_t]) < 1e-12


def sweep_blocks_of(coins, n, monkeypatch):
    """Cap a sweep block's step array at ``coins`` coins of an n-site walk."""
    per_coin = 2 * n * min(2 ** n, runner._REGISTER_BLOCK)
    monkeypatch.setattr(runner, "_SWEEP_STEP_ENTRIES", coins * per_coin)


@pytest.fixture
def pools(monkeypatch):
    """Runs a sweep's process pool in this process on a 2-CPU host and
    records each pool's (max_workers, tasks)."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            started.append((self.max_workers, len(tasks)))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return started


class TestSweep:
    def test_degenerate_single_point(self):
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9,), phi2s=(0.4,), steps=1)
        result = run_sweep(spec)
        series = run_metric_series(WalkConfig(CYCLE4, CoinParams(0.9, 0.0, 0.4), 1),
                                   "closeness(graph)")
        assert result.best_value == max(series.values)
        assert result.best_t == int(np.argmax(series.values))

    def test_finds_cluster_coin_on_coarse_grid(self):
        grid = tuple(k * math.pi / 4 for k in range(5))
        spec = SweepSpec(CYCLE4, "graph", thetas=grid, phi2s=grid, steps=30)
        result = run_sweep(spec)
        assert result.best_value >= 1 - 1e-9
        assert result.best_coin.theta == pytest.approx(math.pi / 2)
        assert result.best_coin.phi2 == pytest.approx(math.pi / 2)
        assert result.best_t == 24

    def test_parallel_matches_serial(self):
        grid = tuple(k * math.pi / 5 for k in range(4))
        spec = SweepSpec(PATH4, "ghz", thetas=grid, phi2s=grid, steps=12)
        serial = run_sweep(spec, jobs=1, keep_table=True)
        parallel = run_sweep(spec, jobs=2, keep_table=True)
        assert serial == parallel

    @staticmethod
    def _tie_rule(spec, table):
        """The sweep's choice over made-up closeness series per coin (zeros
        for other coins)."""
        coins = spec.coins()
        values = [table.get(coin.astuple(), (0.0,) * (spec.steps + 1)) for coin in coins]
        return runner._best_of(coins, np.array(values), keep_table=False)

    def test_ties_across_t_end_the_first_run(self):
        eps = 1e-13
        table = {
            (0.9, 0.0, 0.4): (0.1, 0.5 - eps, 0.5 + eps, 0.5, 0.2, 0.5 + 2 * eps),
            (1.2, 0.0, 0.4): (0.1, 0.3, 0.3 + 1e-11, 0.3, 0.2, 0.1),
        }
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9,), phi2s=(0.4,), steps=5)
        result = self._tie_rule(spec, table)
        assert (result.best_t, result.best_value) == (3, 0.5)
        # 1e-11 is above the tie tolerance: a strict maximum
        spec = SweepSpec(CYCLE4, "graph", thetas=(1.2,), phi2s=(0.4,), steps=5)
        assert self._tie_rule(spec, table).best_t == 2

    def test_ties_across_coins_take_earliest_t_then_smallest_coin(self):
        eps = 1e-13
        table = {
            (0.3, 0.0, 0.9): (0.1, 0.2, 0.7 + eps),      # the maximum, t = 2
            (0.6, 0.0, 0.2): (0.1, 0.7, 0.2),            # tied, t = 1
            (0.6, 0.0, 0.1): (0.1, 0.7 - eps, 0.2),      # tied, t = 1, smaller coin
            (0.2, 0.0, 0.5): (0.7 - 1e-11, 0.1, 0.1),    # t = 0, not tied
        }
        # grid order differs from lexicographic order on phi2
        for phi2s in ((0.9, 0.2, 0.1, 0.5), (0.5, 0.1, 0.2, 0.9)):
            spec = SweepSpec(CYCLE4, "graph", thetas=(0.6, 0.3, 0.2), phi2s=phi2s, steps=2)
            result = self._tie_rule(spec, table)
            assert result.best_coin == CoinParams(0.6, 0.0, 0.1)
            assert (result.best_t, result.best_value) == (1, 0.7 - eps)

    @pytest.mark.parametrize("target", ["ghz", "w", "graph"])
    @pytest.mark.parametrize("topology", [CYCLE4, PATH4], ids=["cycle", "path"])
    def test_blocks_match_per_coin_series(self, topology, target, monkeypatch):
        # 40 coins: one full block of 32 and an uneven last one
        sweep_blocks_of(32, topology.n, monkeypatch)
        spec = SweepSpec(topology, target, thetas=tuple(k * math.pi / 5 for k in range(5)),
                         phi2s=tuple(k * math.pi / 7 for k in range(8)), steps=12)
        result = run_sweep(spec, keep_table=True)
        assert len(result.table) == 40
        assert_sweep_matches_per_coin_series(spec, result)
        assert run_sweep(spec, jobs=2, keep_table=True) == result

    def test_non_finite_closeness_raises(self, monkeypatch):
        distances = runner._trace_distance_from_r

        def poisoned(r, signs):
            values = distances(r, signs)
            values[-1] = np.nan
            return values

        monkeypatch.setattr(runner, "_trace_distance_from_r", poisoned)
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9, 1.2), phi2s=(0.4,), steps=2)
        with pytest.raises(ValueError, match="finite"):
            run_sweep(spec)

    def test_import_leaves_the_process_pool_out(self):
        # Only a sweep with jobs > 1 imports concurrent.futures.
        code = ("import sys, iqwalk, iqwalk.cli; "
                "print(any(m.startswith('concurrent') for m in sys.modules))")
        src = str(Path(runner.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"

    def test_default_grid(self):
        assert len(default_angle_grid()) == 21
        spec = SweepSpec(CYCLE4, "graph")
        assert len(spec.coins()) == 441

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            SweepSpec(CYCLE4, "bell")

    def test_rejects_nonpositive_jobs(self):
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9,), phi2s=(0.4,), steps=1)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                run_sweep(spec, jobs=jobs)

    def test_jobs_capped_at_cpu_count(self, pools):
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9, 1.2), phi2s=(0.4,), steps=2)
        assert run_sweep(spec, jobs=64) == run_sweep(spec)
        assert pools == [(2, 2)]

    def test_no_more_workers_than_blocks(self, pools):
        # One coin is one block: no pool.  Three coins in two shares of at
        # most two coins are two blocks, one per worker.
        single = SweepSpec(CYCLE4, "graph", thetas=(0.9,), phi2s=(0.4,), steps=2)
        assert run_sweep(single, jobs=2) == run_sweep(single)
        assert pools == []
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9, 1.2, 1.5), phi2s=(0.4,), steps=2)
        assert run_sweep(spec, jobs=2, keep_table=True) == run_sweep(spec, keep_table=True)
        assert pools == [(2, 2)]


# The paper's fig6 grid at every other point, as the fig6 benchmark sweeps it.
FIG6_GRID = tuple(k * math.pi / 10 for k in range(11))


@pytest.fixture
def solved_members(monkeypatch):
    """Counts the (coin, t) members whose closeness is solved, i.e. passed
    to ``runner._trace_distance_from_r``."""
    solved = []
    original = runner._trace_distance_from_r

    def counted(r, signs):
        solved.append(math.prod(r.shape[:-2]))
        return original(r, signs)

    monkeypatch.setattr(runner, "_trace_distance_from_r", counted)
    return solved


class TestUntiedSkip:
    """A sweep skips the solve of every (coin, t) whose fidelity
    F = ||B^dag g||^2 proves it cannot tie with the coin's maximum."""

    @staticmethod
    def slack(n):
        return (2 * n + 1) * PSD_CLIP

    @staticmethod
    def assert_skips_untied(exact, swept, slack):
        # Members that differ from the exact values were skipped: untied,
        # and the stored value bounds the exact one.
        skipped = swept != exact
        line = np.broadcast_to(exact.max(axis=-1, keepdims=True) - runner.TIE_ATOL, exact.shape)
        assert (exact[skipped] < line[skipped]).all()
        assert (exact[skipped] <= swept[skipped] + slack).all()

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_fidelity_bounds_closeness(self, kind, n):
        # 1 - D <= F, up to the eigenvalues within PSD_CLIP of 0 that the
        # trace distance drops: random register factors of rank 2n and 1,
        # and states within 1e-13 of the target, where sweeps tie.
        topology = GraphTopology(kind, n)
        rng = np.random.default_rng(n)
        dim, rows = 2 ** n, 2 * n
        for target in runner.TARGET_KINDS:
            g = runner._reference_state(target, topology).amplitudes
            pure = np.zeros((dim, rows), dtype=complex)
            pure[:, 0] = g + 1e-13 * random_pure(dim, rng)
            mixed = np.zeros((dim, rows), dtype=complex)
            mixed[:, 0] = g
            mixed[:, 1] = 1e-13 ** 0.5 * random_pure(dim, rng)
            factors = [random_pure(dim * rows, rng).reshape(dim, rows) for _ in range(4)]
            factors += [np.outer(random_pure(dim, rng), random_pure(rows, rng)), pure, mixed]
            for b in factors:
                b = b / np.linalg.norm(b)
                fidelity = np.sum(np.abs(b.conj().T @ g) ** 2)
                assert closeness(b, g[:, None]) <= fidelity + self.slack(n) / 2 + 1e-15

    @pytest.mark.parametrize("topology", [CYCLE4, PATH4], ids=["cycle", "path"])
    def test_skipped_steps_are_untied(self, topology):
        # Solved members are bitwise the exact values; every other member is
        # untied in the exact values and holds an upper bound of them.
        spec = SweepSpec(topology, "graph", thetas=FIG6_GRID, phi2s=FIG6_GRID, steps=24)
        coin_mats = np.stack([build_coin(coin) for coin in spec.coins()])
        exact = runner._closeness_values(topology, coin_mats, 24, None, runner.TARGET_KINDS)
        swept = runner._closeness_values(topology, coin_mats, 24, None, runner.TARGET_KINDS,
                                         skip_untied=True)
        assert (swept != exact).sum() > exact.size // 3
        self.assert_skips_untied(exact, swept, self.slack(4))

    @pytest.mark.parametrize("target", ["ghz", "w", "graph"])
    def test_steps_within_the_slack_are_solved(self, target, monkeypatch):
        # B_t = sqrt(1 - e) g e_0^T + sqrt(e) h e_1^T with h orthogonal to g
        # has F = 1 - e and D = e.  For e < PSD_CLIP the trace distance
        # clips both eigenvalues +-e, so the exact value is 1 while F sits
        # below it by e: these steps tie, and only the slack keeps them.
        g = runner._reference_state(target, CYCLE4).amplitudes
        h = random_pure(16, np.random.default_rng(4))
        h -= np.vdot(g, h) * g
        h /= np.linalg.norm(h)
        eps = (0.5, 4e-13, 3e-13, 0.1, 2e-13, 1e-13)
        tensors = []
        for e in eps:
            b = np.zeros((16, 8), dtype=complex)
            b[:, 0], b[:, 1] = (1 - e) ** 0.5 * g, e ** 0.5 * h
            tensors.append(b.T.reshape(1, 4, 2, 16))
        monkeypatch.setattr(runner, "_column_walks",
                            lambda *args: iter([(np.arange(16), iter(tensors))]))
        coin_mats = np.eye(2)[None]
        exact = runner._closeness_values(CYCLE4, coin_mats, 5, None, (target,))
        swept = runner._closeness_values(CYCLE4, coin_mats, 5, None, (target,),
                                         skip_untied=True)
        assert (exact[0, 0, [1, 2, 4, 5]] == 1.0).all()
        self.assert_skips_untied(exact, swept, self.slack(4))

    @pytest.mark.parametrize("target", ["ghz", "w", "graph"])
    def test_bound_counts_the_trace_defect(self, target, monkeypatch):
        # B_t = sqrt(1 - 8e-11) g e_0^T at t = 0 and 1 keeps the trace
        # contract with tr rho = 1 - 8e-11 = F, and D = 4e-11: both steps
        # tie at 1 - 4e-11.  F alone sits 4e-11 below that, more than the
        # slack; the bound F - (tr rho - 1) / 2 does not.
        g = runner._reference_state(target, CYCLE4).amplitudes
        b = np.zeros((16, 8), dtype=complex)
        b[:, 0] = (1 - 8e-11) ** 0.5 * g
        tensors = [b.T.reshape(1, 4, 2, 16)] * 2
        monkeypatch.setattr(runner, "_column_walks",
                            lambda *args: iter([(np.arange(16), iter(tensors))]))
        coin_mats = np.eye(2)[None]
        exact = runner._closeness_values(CYCLE4, coin_mats, 1, None, (target,))
        swept = runner._closeness_values(CYCLE4, coin_mats, 1, None, (target,),
                                         skip_untied=True)
        coins = [CLUSTER_COIN]
        assert runner._best_of(coins, exact[0], False).best_t == 1
        assert runner._best_of(coins, swept[0], False) == runner._best_of(coins, exact[0], False)
        self.assert_skips_untied(exact, swept, self.slack(4))

    def test_fig6_grid_solves_at_most_half(self, solved_members):
        # The six (target, graph) sweeps of the fig6 benchmark.
        for topology in (CYCLE4, PATH4):
            for target in runner.TARGET_KINDS:
                run_sweep(SweepSpec(topology, target, thetas=FIG6_GRID, phi2s=FIG6_GRID,
                                    steps=24))
        assert sum(solved_members) <= 6 * 121 * 25 // 2
        # A series solves every step.
        solved_members.clear()
        run_metric_series(WalkConfig(CYCLE4, CLUSTER_COIN, 24), "closeness(ghz)")
        assert sum(solved_members) == 25

    @pytest.mark.parametrize("target", ["ghz", "graph"])
    def test_several_blocks_match_per_coin_series(self, target, monkeypatch, solved_members):
        # n = 5 in four column blocks of 8: the earlier blocks' R's are kept
        # for every coin, and only the last block's solves are skipped.
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", 8)
        grid = tuple(k * math.pi / 4 for k in range(5))
        spec = SweepSpec(GraphTopology("cycle", 5), target, thetas=grid, phi2s=grid, steps=16)
        result = run_sweep(spec, keep_table=True)
        assert sum(solved_members) < 25 * 17
        assert_sweep_matches_per_coin_series(spec, result)

    def test_skipped_step_keeps_the_trace_contract(self, monkeypatch):
        # Scale one coin's state off-norm at a step the sweep skips, with a
        # margin that keeps it skipped: the sweep must still reject it.
        grid = tuple(k * math.pi / 4 for k in range(5))
        spec = SweepSpec(CYCLE4, "graph", thetas=grid, phi2s=grid, steps=24)
        coin_mats = np.stack([build_coin(coin) for coin in spec.coins()])
        exact = runner._closeness_values(CYCLE4, coin_mats, 24, None, ("graph",))[0]
        swept = runner._closeness_values(CYCLE4, coin_mats, 24, None, ("graph",),
                                         skip_untied=True)[0]
        margin = np.where(swept != exact, exact.max(axis=1, keepdims=True) - swept, -np.inf)
        coin, step = np.unravel_index(margin.argmax(), margin.shape)
        assert margin[coin, step] > 1e-3
        original = runner._column_walks

        def off_norm(tensors):
            for t, tensor in enumerate(tensors):
                if t == step:
                    tensor = tensor.copy()
                    tensor[coin] *= 1 + 1e-6
                yield tensor

        def walks(*args):
            for columns, tensors in original(*args):
                yield columns, off_norm(tensors)

        monkeypatch.setattr(runner, "_column_walks", walks)
        with pytest.raises(ContractViolationError, match="trace"):
            run_sweep(spec)


class TestSweepBlocks:
    """A sweep walks each worker's share of the grid as one block, cut only
    where a block's step array would outgrow ``_SWEEP_STEP_ENTRIES``."""

    @pytest.mark.parametrize("topology", [CYCLE4, PATH4, GraphTopology("cycle", 5)],
                             ids=["cycle", "path", "cycle5"])
    def test_block_size_moves_no_bit(self, topology, monkeypatch):
        # n = 5 walks in four register blocks of 8 columns.
        if topology.n == 5:
            monkeypatch.setattr(runner, "_REGISTER_BLOCK", 8)
        grid = tuple(k * math.pi / 5 for k in range(5))
        spec = SweepSpec(topology, "graph", thetas=grid,
                         phi2s=tuple(k * math.pi / 7 for k in range(8)), steps=12)
        coins = spec.coins()
        whole = runner._closeness_values(topology, np.stack([build_coin(c) for c in coins]),
                                         12, None, runner.TARGET_KINDS, skip_untied=True)
        tables = set()
        for size in (1, 7, 32, len(coins)):
            sweep_blocks_of(size, topology.n, monkeypatch)
            assert len(runner._sweep_blocks(len(coins), topology.n, 1)) == -(-len(coins) // size)
            grid_values = runner._closeness_grid(topology, runner.TARGET_KINDS, coins, 12, 1)
            assert np.array_equal(grid_values, whole)
            tables.add(run_sweep(spec, keep_table=True))
        assert len(tables) == 1

    def test_one_block_per_worker_share(self):
        for count in (1, 2, 121, 441):
            for workers in (1, 2, 3):
                blocks = runner._sweep_blocks(count, 4, workers)
                assert len(blocks) == min(count, workers)
                assert [i for block in blocks for i in range(count)[block]] == list(range(count))

    def test_twelve_sites_keep_blocks_within_the_cap(self):
        # The cap is 32 coins of an n = 12 walk: 12 MiB per step array.
        assert runner._SWEEP_STEP_ENTRIES * 16 == 12 * 2 ** 20
        columns = min(2 ** 12, runner._REGISTER_BLOCK)
        for count in (1, 33, 441):
            for workers in (1, 2):
                blocks = runner._sweep_blocks(count, 12, workers)
                sizes = [len(range(count)[block]) for block in blocks]
                assert max(sizes) * 24 * columns <= runner._SWEEP_STEP_ENTRIES
                assert sum(sizes) == count
        assert len(runner._sweep_blocks(441, 12, 1)) == 14

    def test_one_column_block_holds_no_step_statistics(self):
        # 121 coins at n = 4, T = 24 and 240: only the (3, 121, T+1) values
        # grow with T.  Held per-step overlaps alone would grow by 5 MiB.
        coin_mats = np.stack([build_coin(coin) for coin in
                              SweepSpec(CYCLE4, "graph", thetas=FIG6_GRID,
                                        phi2s=FIG6_GRID).coins()])
        peaks = []
        for steps in (24, 240):
            tracemalloc.start()
            try:
                runner._closeness_values(CYCLE4, coin_mats, steps, None, runner.TARGET_KINDS,
                                         skip_untied=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 3 * 121 * 216 * 8

    def test_fig6_grid_is_one_solve_per_step(self, solved_members):
        run_sweep(SweepSpec(CYCLE4, "graph", thetas=FIG6_GRID, phi2s=FIG6_GRID, steps=24))
        assert len(solved_members) <= 25


class TestSerialization:
    def test_csv_layout(self):
        series = run_metric_series(WalkConfig(CYCLE4, CLUSTER_COIN, 3), "entropy(G)")
        text = series_csv(series)
        lines = text.splitlines()
        assert lines[0] == ("# iqwalk v1, metric=entropy(G), graph=cycle, n=4, "
                            "theta=1.57079632679, phi1=0, phi2=1.57079632679")
        assert lines[1] == "t,value"
        assert len(lines) == 2 + 4
        assert lines[2].startswith("0,")

    def test_json_round_trip(self):
        series = run_metric_series(WalkConfig(PATH4, CoinParams(0.3), 4), "concurrence")
        data = json.loads(series_json(series))
        assert data["metric"] == "concurrence"
        assert data["times"] == [0, 1, 2, 3, 4]
        assert len(data["values"]) == 5

    def test_rerun_byte_identical(self):
        cfg = WalkConfig(CYCLE4, CoinParams(0.7, 0, 0.9), 20)
        a = series_csv(run_metric_series(cfg, "logneg(PC)"))
        b = series_csv(run_metric_series(cfg, "logneg(PC)"))
        assert a == b


class TestReproduceFigure:
    def test_fig4_files(self, tmp_path):
        written = reproduce_figure("fig4", tmp_path, steps=10)
        names = sorted(p.name for p in written)
        assert names == [
            "fig4_manifest.json",
            "fig4_path_coin1_concurrence.csv",
            "fig4_path_coin2_concurrence.csv",
            "fig4_path_coin3_concurrence.csv",
            "fig4_path_coin4_concurrence.csv",
        ]
        body = (tmp_path / "fig4_path_coin1_concurrence.csv").read_text()
        assert len(body.splitlines()) == 2 + 11  # header + t,value + rows
        manifest = json.loads((tmp_path / "fig4_manifest.json").read_text())
        assert manifest["figure"] == "fig4"
        assert len(manifest["files"]) == 4

    def test_fig2_panel_count(self, tmp_path):
        written = reproduce_figure("fig2", tmp_path, steps=4)
        assert len(written) == 24 + 1

    def test_fig5_projections(self, tmp_path):
        written = reproduce_figure("fig5", tmp_path, steps=6)
        names = {p.name for p in written}
        assert "fig5_path_coin1_concurrence_mu0.csv" in names
        assert "fig5_path_coin1_concurrence_muhalfpi.csv" in names

    def test_rerun_byte_identical(self, tmp_path):
        reproduce_figure("fig7", tmp_path / "a", steps=8)
        reproduce_figure("fig7", tmp_path / "b", steps=8)
        for name in ("fig7_cycle_coin2_closeness_graph.csv", "fig7_manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("fig", ["fig2", "fig3"])
    def test_no_value_prints_as_negative_zero(self, fig, tmp_path):
        # t = 0 is a product state: every entropy and the log negativity
        # are 0, and must print as "0", not "-0".
        for path in reproduce_figure(fig, tmp_path, steps=3):
            if path.suffix == ".csv":
                rows = path.read_text().splitlines()[2:]
                assert rows[0] == "0,0", path.name
                assert not any(row.split(",")[1].startswith("-") for row in rows), path.name

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_figure("fig1", tmp_path)

    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"])
    def test_rejects_nonpositive_jobs(self, fig, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            reproduce_figure(fig, tmp_path / "out", steps=2, jobs=0)
        assert not (tmp_path / "out").exists()

    def test_fig7_cluster_row(self, tmp_path):
        reproduce_figure("fig7", tmp_path, steps=30)
        body = (tmp_path / "fig7_cycle_coin2_closeness_graph.csv").read_text()
        assert "\n24,1\n" in body

    def test_fig6_evolves_each_coin_once_for_all_targets(self, tmp_path, monkeypatch):
        walked = []
        original = runner._walk_tensors

        def counted(topology, coin_mats, steps, initial=None, **kwargs):
            walked.append(len(coin_mats))
            return original(topology, coin_mats, steps, initial, **kwargs)

        monkeypatch.setattr(runner, "_walk_tensors", counted)
        reproduce_figure("fig6", tmp_path, steps=3)
        assert sum(walked) == 2 * 21 * 21
        # Each row is what a one-target sweep reports.
        rows = (tmp_path / "fig6_sweep_summary.csv").read_text().splitlines()
        want = ["target,graph,delta_tilde,theta,phi1,phi2,t"]
        for target in ("ghz", "graph", "w"):
            for topology in (CYCLE4, PATH4):
                res = run_sweep(SweepSpec(topology, target, steps=3))
                want.append(",".join([target, topology.kind] + [
                    runner._fmt(x) for x in (res.best_value, *res.best_coin.astuple())]
                    + [str(res.best_t)]))
        assert rows == want

    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4", "fig5", "fig7"])
    def test_matches_golden(self, fig, tmp_path):
        files = reproduce_figure(fig, tmp_path)[:-1]
        golden = {name: entry for name, entry in GOLDEN.items()
                  if name.startswith(fig + "_")}
        assert sorted(f.name for f in files) == sorted(golden)
        for f in files:
            entry = golden[f.name]
            values = np.loadtxt(f, delimiter=",", skiprows=2)[:, 1]
            atol = GOLDEN_ATOL[entry["metric"].split("(")[0]]
            assert np.abs(values - entry["values"]).max() <= atol, f.name


class TestCli:
    def test_metric_to_stdout(self, capsys):
        rc = main(["metric", "--graph", "cycle", "--sites", "4",
                   "--coin", "pi/2,0,pi/2", "--steps", "5",
                   "--metric", "entropy(G)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# iqwalk v1, metric=entropy(G), graph=cycle")
        assert len(out.splitlines()) == 8

    def test_metric_with_target_flag(self, capsys):
        rc = main(["metric", "--coin", "pi/2,0,pi/2", "--steps", "3",
                   "--metric", "closeness", "--target", "graph", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metric"] == "closeness(graph)"

    def test_postselect_flag(self, capsys):
        rc = main(["metric", "--graph", "path", "--coin", "pi/4,0,2*pi/5",
                   "--steps", "3", "--metric", "concurrence_postselected",
                   "--postselect", "pi/2,0"])
        assert rc == 0
        assert "concurrence_postselected" in capsys.readouterr().out

    def test_evolve_json(self, capsys):
        rc = main(["evolve", "--coin", "0,0,0", "--steps", "2", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dims"] == [4, 2, 2, 2, 2, 2]
        norm = sum(re * re + im * im for re, im in data["amplitudes"])
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_sweep_json(self, capsys):
        rc = main(["sweep", "--graph", "cycle", "--target", "graph",
                   "--theta-grid", "pi/2", "--phi2-grid", "pi/2", "--steps", "25"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["delta_tilde"] >= 1 - 1e-9
        assert data["argmax"]["t"] == 24

    def test_sweep_csv_table(self, capsys):
        rc = main(["sweep", "--theta-grid", "0,pi/2", "--phi2-grid", "0",
                   "--steps", "4", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theta,phi1,phi2,t,value"
        assert len(lines) == 3

    def test_figure_command(self, tmp_path, capsys):
        rc = main(["figure", "fig4", "--out", str(tmp_path), "--steps", "4"])
        assert rc == 0
        assert (tmp_path / "fig4_manifest.json").exists()

    def test_output_file(self, tmp_path):
        out = tmp_path / "series.csv"
        rc = main(["metric", "--coin", "pi/5,0,pi/5", "--steps", "4",
                   "--metric", "concurrence", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("# iqwalk v1")

    def test_config_file_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "graph": "cycle", "sites": 4, "coin": "pi/2,0,pi/2",
            "steps": 3, "metric": "entropy(C)"}))
        rc = main(["metric", "--config", str(config)])
        assert rc == 0
        assert "metric=entropy(C)" in capsys.readouterr().out

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"coin": "0,0,0", "steps": 2,
                                      "metric": "entropy(C)"}))
        rc = main(["metric", "--config", str(config), "--metric", "entropy(P)"])
        assert rc == 0
        assert "metric=entropy(P)" in capsys.readouterr().out

    @pytest.mark.parametrize("command,values", [
        ("metric", {"steps": 2.7, "sites": 4.9}),
        ("metric", {"steps": True}),
        ("metric", {"sites": "4.5"}),
        ("metric", {"steps": None}),
        ("metric", {"format": "xml"}),
        ("evolve", {"format": "xml"}),
        ("sweep", {"jobs": 1.5}),
        ("figure", {"steps": 2.5}),
    ])
    def test_config_values_pass_the_flag_checks(self, command, values, tmp_path, capsys):
        # Each value fails as its flag does (--steps 2.7, --format xml): exit 1
        # and no output, rather than a truncated or defaulted run.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"coin": "pi/5,0,pi/5", "metric": "entropy(C)",
                                      "steps": 2, "theta_grid": "0", "phi2_grid": "0",
                                      **values}))
        argv = [command, "--config", str(config)]
        if command == "figure":
            argv = ["figure", "fig7", "--config", str(config), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "iqwalk: error: config" in captured.err

    @pytest.mark.parametrize("command,values", [
        ("sweep", {"table": "false"}),
        ("sweep", {"table": 0}),
        ("metric", {"out": 5}),
        ("metric", {"metric": 5}),
        ("metric", {"coin": None}),
        ("metric", {"graph": ["cycle"]}),
        ("metric", {"postselect": 0.5}),
        ("metric", {"target": True}),
        ("evolve", {"out": ["a.csv"]}),
        ("sweep", {"theta_grid": 0.5}),
        ("sweep", {"phi2_grid": {"k": 1}}),
        ("figure", {"out": 5}),
    ])
    def test_config_values_have_their_flag_types(self, command, values, tmp_path,
                                                 monkeypatch, capsys):
        # A value of the wrong JSON type exits 1 before any walk runs: no
        # "false" that reads as a true --table, no traceback after the walk,
        # and no file written.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"coin": "pi/5,0,pi/5", "metric": "entropy(C)",
                                      "steps": 2, "theta_grid": "0", "phi2_grid": "0",
                                      **values}))
        argv = [command, "--config", str(config)]
        if command == "figure":
            argv = ["figure", "fig7", "--config", str(config)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "iqwalk: error: config" in captured.err
        assert list(tmp_path.iterdir()) == [config]

    def test_config_grid_list_and_table_flag(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta_grid": [0, "pi/2"], "phi2_grid": "0",
                                      "steps": 2, "table": True}))
        assert main(["sweep", "--config", str(config)]) == 0
        assert len(json.loads(capsys.readouterr().out)["table"]) == 2

    @pytest.mark.parametrize("key", ["theta_grid", "phi1_grid", "phi2_grid"])
    def test_empty_grid_exits_one(self, key, tmp_path, capsys):
        # An empty grid list fails as the empty flag does, rather than
        # sweeping the default grid.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta_grid": "0", "phi2_grid": "0", "steps": 2,
                                      key: []}))
        assert main(["sweep", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"iqwalk: error: config {key}" in captured.err
        flag = "--" + key.replace("_", "-")
        assert main(["sweep", "--theta-grid", "0", "--phi2-grid", "0", "--steps", "2",
                     flag, ""]) == 1
        assert capsys.readouterr().out == ""

    def test_figure_out_from_config(self, tmp_path, monkeypatch, capsys):
        # The config's out is the default for --out, as for every flag;
        # an explicit --out still wins.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out": "data", "steps": 2}))
        assert main(["figure", "fig7", "--config", str(config)]) == 0
        assert (tmp_path / "data" / "fig7_manifest.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.json"]
        assert main(["figure", "fig7", "--config", str(config), "--out", "flag"]) == 0
        assert (tmp_path / "flag" / "fig7_manifest.json").exists()
        capsys.readouterr()

    def test_usage_error_exit_code(self, capsys):
        assert main(["metric", "--coin", "pi/2,0,pi/2", "--steps", "2",
                     "--metric", "nonsense"]) == 1
        assert main(["metric", "--steps", "2", "--metric", "entropy(G)"]) == 1
        assert main(["sweep", "--theta-grid", "0", "--phi2-grid", "0",
                     "--steps", "1", "--jobs", "0"]) == 1

    def test_figure_jobs_zero_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["figure", "fig7", "--jobs", "0", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["evolve", "metric"])
    @pytest.mark.parametrize("coin,angle", [("nan,0,0", "theta"), ("0,inf,0", "phi1"),
                                            ("0,0,-inf", "phi2")])
    def test_non_finite_coin_exits_one(self, command, coin, angle, capsys):
        argv = [command, "--coin", coin, "--steps", "2"]
        if command == "metric":
            argv += ["--metric", "closeness(graph)"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"coin angle {angle} must be finite" in captured.err

    def test_argparse_usage_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["metric", "--graph", "hexagon", "--coin", "0,0,0",
                  "--metric", "entropy(G)"])
        assert err.value.code == 1

    def test_unwritable_output_path(self, capsys):
        rc = main(["metric", "--coin", "0,0,0", "--steps", "2",
                   "--metric", "entropy(G)", "--out", "/proc/nonexistent/x.csv"])
        assert rc == 1

    def test_contract_violation_exit_code(self, monkeypatch, capsys):
        from iqwalk.errors import ContractViolationError
        import iqwalk.cli as cli

        def boom(*args, **kwargs):
            raise ContractViolationError("synthetic")

        monkeypatch.setattr(cli, "run_metric_series", boom)
        assert main(["metric", "--coin", "0,0,0", "--metric", "entropy(G)"]) == 2
