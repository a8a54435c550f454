import concurrent.futures
import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from iqwalk import (
    CoinParams,
    GraphTopology,
    MetricSeries,
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
from iqwalk import metrics as metrics_module
from iqwalk import runner
from iqwalk import walk as walk_module
from iqwalk.cli import _build_parser, main
from iqwalk.conditioning import CoinProjection, postselect_coin, unconditioned_vertex_state
from iqwalk.errors import ContractViolationError, ZeroProbabilityError
from iqwalk.linalg import PSD_CLIP
from iqwalk.metrics import closeness, log_negativity, n_concurrence, von_neumann_entropy
from iqwalk.walk import PureState, build_coin, standard_initial_state, trajectory, walk_shape
from oracles import density_factor, random_pure

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
        for bad in ("two*pi", "pi/0", "1,2", "", True, False):
            with pytest.raises(ValueError):
                parse_angle(bad)

    @pytest.mark.parametrize("text", ["0,pi", "0,pi/2,pi,0", "pi"])
    def test_angle_list_needs_its_count(self, text):
        with pytest.raises(ValueError, match=f"expected 3 comma-separated angles, got '{text}'"):
            runner.parse_angles(text, 3)


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

    def test_unknown_metric(self, walk_count):
        # Every bad name fails before its walk starts.
        cfg = WalkConfig(CYCLE4, CoinParams(0.7), 2)
        for bad in ("magic", "entropy(Q)", "entropy(PCG)", "entropy(GG)", "entropy(PP)",
                    "entropy(GCP)", "closeness(bell)", "logneg(CG)", "concurrence(0)",
                    "entropy()", "closeness()", "concurrence_postselected(0)",
                    "concurrence_postselected(4,0)"):
            with pytest.raises(ValueError):
                run_metric_series(cfg, bad)
        assert walk_count == []

    @pytest.mark.parametrize("bad,message", [
        ("entropy(G", "cannot parse metric name 'entropy(G'"),
        ("concurrence_postselected", "concurrence_postselected needs (mu,nu)"),
        ("concurrence_postselected()", "concurrence_postselected needs (mu,nu)"),
    ])
    def test_bad_metric_message(self, walk_count, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_metric_series(WalkConfig(CYCLE4, CoinParams(0.7), 2), bad)
        assert walk_count == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_series_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^metric values must be finite$"):
            MetricSeries("entropy(G)", (0.0, bad, 1.0), {})

    def test_nonnegative_entropy_series(self):
        series = run_metric_series(WalkConfig(PATH4, CoinParams(1.0, 0.2, 0.4), 40),
                                   "entropy(G)")
        assert min(series.values) >= 0.0


WALKER_METRICS = tuple(f"entropy({x})" for x in ("P", "C", "G", "PC", "PG", "CG")) \
    + ("logneg(PC)",)


# The walker subsystems (P, C) reduced for each entropy label: psi(t) is
# pure, so a label and its complement share their nonzero spectrum.
WALKER_SIDE = {"P": (0,), "C": (1,), "PC": (0, 1), "G": (0, 1), "CG": (0,), "PG": (1,)}


def full_state_series(cfg, metric):
    """A walker-side metric from the full walk states: the dense reduction
    of each psi(t) to the walker side of the label, at most 2n x 2n, passed
    to the metric through its ``density_factor``."""
    n = cfg.topology.n
    values = []
    for s in trajectory(cfg):
        if metric == "logneg(PC)":
            values.append(log_negativity(density_factor(s.reduced((0, 1))), (n, 2), (1,)))
        else:
            keep = WALKER_SIDE[metric[len("entropy("):-1]]
            values.append(von_neumann_entropy(density_factor(s.reduced(keep))))
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

    @pytest.mark.parametrize("metric,dim", [
        ("entropy(C)", 2), ("entropy(PG)", 2), ("entropy(P)", 5), ("entropy(CG)", 5),
        ("entropy(G)", 10), ("entropy(PC)", 10), ("logneg(PC)", 10)])
    def test_one_eigenvalue_solve_of_the_walker_part(self, metric, dim, monkeypatch):
        # The Gram stack G_t = rho_PC(t) is PSD by construction: a walker-side
        # series solves it, or its partial trace, for eigenvalues only, in
        # one stacked call, and factors nothing.
        solves = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _solve=solve, **kwargs):
                solves.append((_name, np.shape(a)))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        run_metric_series(WalkConfig(GraphTopology("path", 5), STANDARD_COINS[0], 6), metric)
        assert solves == [("eigvalsh", (7, dim, dim))]

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
        # closeness reads ||B||_F^2 off each R: one density contract, one
        # error type (CLI exit 2) for every series.
        initial = standard_initial_state(PATH4)
        object.__setattr__(initial, "amplitudes", 1.1 * initial.amplitudes)
        cfg = WalkConfig(PATH4, STANDARD_COINS[0], 3, initial=initial)
        for metric in ("entropy(G)", "concurrence", "closeness(graph)"):
            with pytest.raises(ContractViolationError, match="density matrix trace"):
                run_metric_series(cfg, metric)

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
            values.append(n_concurrence(unconditioned_vertex_state(s)))
        elif metric.startswith("concurrence_postselected"):
            mu, nu = runner.parse_angles(metric[len("concurrence_postselected("):-1], 2)
            try:
                factor, _ = postselect_coin(s, CoinProjection(mu, nu))
            except ZeroProbabilityError:
                values.append(0.0)
                continue
            values.append(n_concurrence(factor))
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

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_concurrence_vanishes_at_odd_n(self, kind, n):
        # At odd n sigma_y^(x n) is antisymmetric, so M = B^T Sy B is too:
        # its singular values pair up, and max(0, s1 - sum_j>=2 s_j) is 0
        # for every register state, conditioned or not.
        rng = np.random.default_rng(n)
        for _ in range(3):
            config = WalkConfig(GraphTopology(kind, n),
                                CoinParams(*rng.uniform(0, 2 * math.pi, 3)), 30)
            mu, nu = rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2)
            for metric in ("concurrence", f"concurrence_postselected({mu!r},{nu!r})"):
                assert max(run_metric_series(config, metric).values) == 0.0, metric

    def test_odd_n_concurrence_walks_g_alone(self, walk_count, monkeypatch):
        # The odd-n zeros need no M and no SVD; the concurrences share the
        # walk of G with the walker-side series, and still check its trace.
        monkeypatch.setattr(runner, "_concurrence_from_sy", None)
        topology = GraphTopology("cycle", 5)
        cfg = WalkConfig(topology, STANDARD_COINS[1], 6)
        for metric in ("entropy(G)", "concurrence", "concurrence_postselected(pi/3,pi/5)"):
            run_metric_series(cfg, metric)
        assert len(walk_count) == 1
        assert runner._last_walk[2][1] is None
        initial = standard_initial_state(topology)
        object.__setattr__(initial, "amplitudes", 1.1 * initial.amplitudes)
        for metric in ("concurrence", "concurrence_postselected(0,0)"):
            with pytest.raises(ContractViolationError, match="density matrix trace"):
                run_metric_series(WalkConfig(topology, STANDARD_COINS[1], 3, initial=initial),
                                  metric)

    def test_concurrence_on_the_four_cycle_is_not_null(self):
        # The control for the odd-n null: C_4 with the first standard coin.
        config = WalkConfig(CYCLE4, STANDARD_COINS[0], 100)
        assert max(run_metric_series(config, "concurrence").values) == pytest.approx(0.752,
                                                                                     abs=1e-3)


class TestCoinPhaseSymmetry:
    """On the cycle the coin phase D = diag(1, e^{i beta}) commutes with the
    shift and the CZ and fixes the initial coin |0>, and D C(theta, phi1,
    phi2) D^dag = C(theta, phi1 + beta, phi2 - beta).  So the walk of the
    shifted coin is D on the coin times the original walk: register
    quantities do not change, walker-side ones only by a local unitary on
    the coin, and a coin projection <Sigma(mu, nu)| of the shifted walk is
    <Sigma(mu, nu + beta)| of the original.  The path's reflecting ends
    flip the coin and break D."""

    METRICS = ("entropy(G)", "entropy(C)", "entropy(P)", "entropy(PC)", "logneg(PC)",
               "concurrence", "concurrence_postselected(0,0)", "concurrence_postselected(pi/2,0)",
               "closeness(graph)", "closeness(ghz)", "closeness(w)")
    STEPS = 60
    MU, NU = 1.1, 0.7

    def series(self, topology, coin, metric):
        return np.array(run_metric_series(WalkConfig(topology, coin, self.STEPS), metric).values)

    @staticmethod
    def shifted_coins(rng, count=3):
        """(coin, its phase-shifted twin, beta) with NU + beta <= pi/2."""
        for _ in range(count):
            theta, phi1, phi2 = rng.uniform(0, math.pi), *rng.uniform(0, 2 * math.pi, 2)
            beta = rng.uniform(0.1, 0.6)
            yield CoinParams(theta, phi1, phi2), CoinParams(theta, phi1 + beta, phi2 - beta), beta

    @pytest.mark.parametrize("n", [4, 5])
    def test_cycle_series_depend_on_phi1_plus_phi2(self, n):
        topology = GraphTopology("cycle", n)
        for coin, shifted, beta in self.shifted_coins(np.random.default_rng(n)):
            for metric in self.METRICS:
                diff = np.abs(self.series(topology, coin, metric)
                              - self.series(topology, shifted, metric)).max()
                assert diff <= 1e-12, metric
            moved = self.series(topology, coin, f"concurrence_postselected({self.MU},"
                                                f"{self.NU + beta})")
            same = self.series(topology, shifted, f"concurrence_postselected({self.MU},{self.NU})")
            assert np.abs(moved - same).max() <= 1e-12

    def test_projection_phase_moves_one_way(self):
        # nu - beta is not the projection of the shifted walk: at n = 4 the
        # conditional concurrence is not zero, so the direction shows.
        coin, shifted, beta = next(self.shifted_coins(np.random.default_rng(4)))
        wrong = self.series(CYCLE4, coin, f"concurrence_postselected({self.MU},"
                                          f"{self.NU - beta})")
        same = self.series(CYCLE4, shifted, f"concurrence_postselected({self.MU},{self.NU})")
        assert np.abs(wrong - same).max() > 1e-2

    def test_path_breaks_the_symmetry(self):
        coin, shifted, _ = next(self.shifted_coins(np.random.default_rng(4)))
        diff = np.abs(self.series(PATH4, coin, "entropy(G)")
                      - self.series(PATH4, shifted, "entropy(G)")).max()
        assert diff > 1e-2


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


def walked_rows(topology):
    """The (site, coin) rows a step walks: one sublattice's on an even
    cycle, every site's elsewhere."""
    n = topology.n
    return n if topology.kind == "cycle" and n % 2 == 0 else 2 * n


def sweep_blocks_of(coins, topology, steps, targets, monkeypatch):
    """Cap a sweep block at ``coins`` coins of a walk on ``topology`` of T =
    ``steps`` with ``targets`` targets: its step array, or over several
    register column blocks the R's it holds."""
    n, rows = topology.n, walked_rows(topology)
    per_coin = rows * min(2 ** n, runner._REGISTER_BLOCK)
    if 2 ** n > runner._REGISTER_BLOCK:
        per_coin = max(per_coin, (steps + 1) * targets * (rows + 1) ** 2)
    monkeypatch.setattr(runner, "_SWEEP_STEP_ENTRIES", coins * per_coin)


@pytest.fixture
def pools(monkeypatch):
    """Runs a sweep's process pool in this process on a 2-CPU host and
    records each pool's (max_workers, tasks)."""
    started = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            # Not run: it would set this process's BLAS threads.
            assert initializer is runner._one_blas_thread
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
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert serial == parallel

    def test_parallel_agrees_with_serial_at_ten_sites(self):
        # A worker's single OpenBLAS thread rounds the QRs of n >= 10 a few
        # ulp off the serial run's: here two table rows print differently
        # in the 12th digit, while the argmax, best t and delta_tilde agree.
        grid = tuple(k * math.pi / 5 for k in (1, 2, 3))
        spec = SweepSpec(GraphTopology("path", 10), "graph", thetas=grid, phi2s=grid, steps=6)
        serial, parallel = run_sweep(spec, jobs=1), run_sweep(spec, jobs=2)
        assert (serial.best_coin, serial.best_t) == (parallel.best_coin, parallel.best_t)
        assert runner._fmt(serial.best_value) == runner._fmt(parallel.best_value)
        assert [row[:4] for row in serial.table] == [row[:4] for row in parallel.table]
        assert max(abs(a[4] - b[4]) for a, b in zip(serial.table, parallel.table)) <= 1e-14

    @staticmethod
    def _tie_rule(spec, table):
        """The sweep's choice over made-up closeness series per coin (zeros
        for other coins)."""
        coins = spec.coins()
        values = [table.get(coin.astuple(), (0.0,) * (spec.steps + 1)) for coin in coins]
        return runner._best_of(coins, np.array(values))

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
        sweep_blocks_of(32, topology, 12, 1, monkeypatch)
        spec = SweepSpec(topology, target, thetas=tuple(k * math.pi / 5 for k in range(5)),
                         phi2s=tuple(k * math.pi / 7 for k in range(8)), steps=12)
        result = run_sweep(spec)
        assert len(result.table) == 40
        assert_sweep_matches_per_coin_series(spec, result)
        assert run_sweep(spec, jobs=2) == result

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

    @pytest.mark.parametrize("grid", ["thetas", "phi1s", "phi2s"])
    def test_only_an_omitted_grid_is_the_default(self, grid):
        # An empty grid raises, rather than sweeping the default grid.
        with pytest.raises(ValueError, match=f"grid {grid} must not be empty"):
            SweepSpec(CYCLE4, "graph", **{grid: ()})
        assert SweepSpec(CYCLE4, "graph", **{grid: None}) == SweepSpec(CYCLE4, "graph")
        assert SweepSpec(CYCLE4, "graph").phi1s == (0.0,)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            SweepSpec(CYCLE4, "bell")

    def test_rejects_non_integral_steps(self):
        # Where the spec is built, not as a TypeError inside the walk.
        with pytest.raises(ValueError, match=re.escape("steps must be an integer, got 2.5")):
            SweepSpec(CYCLE4, "graph", steps=2.5)
        assert SweepSpec(CYCLE4, "graph", steps=np.int64(3)) == SweepSpec(CYCLE4, "graph", steps=3)

    def test_rejects_nonpositive_jobs(self):
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9,), phi2s=(0.4,), steps=1)
        for jobs in (0, -3, 2.5):
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
        assert run_sweep(spec, jobs=2) == run_sweep(spec)
        assert pools == [(2, 2)]

    def test_jobs_capped_at_the_affinity_mask(self, pools, monkeypatch):
        # A process pinned to one of the host's two CPUs starts no pool.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9, 1.2), phi2s=(0.4,), steps=2)
        assert run_sweep(spec, jobs=2) == run_sweep(spec)
        assert pools == []

    def test_jobs_capped_at_cpu_count_without_an_affinity_mask(self, monkeypatch):
        # Where os has no sched_getaffinity, os.cpu_count() caps the
        # workers, and an unknown count (None) allows one.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [runner._check_jobs(jobs) for jobs in (1, 2, 8)] == [1, 2, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert runner._check_jobs(4) == 1

    def test_pool_worker_runs_one_blas_thread(self, tmp_path):
        _, worker = run_blas_probe(tmp_path)
        assert worker == "1"

    def test_one_blas_thread_without_a_setter_does_nothing(self, tmp_path):
        before, after = run_blas_probe(tmp_path, "missing")
        assert after == before


# Prints numpy's OpenBLAS thread count here and in the worker of a pool
# started with runner._one_blas_thread; with the argument "missing", before
# and after calling it here with no setter name that exists.
BLAS_PROBE = """
import concurrent.futures, ctypes, sys
from pathlib import Path
import numpy as np
from iqwalk import runner

def threads():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()

if __name__ == "__main__":
    if sys.argv[1:] == ["missing"]:
        before = threads()
        runner._BLAS_THREAD_SETTERS = ("no_such_symbol",)
        runner._one_blas_thread()
        print(before, threads())
    else:
        with concurrent.futures.ProcessPoolExecutor(1, initializer=runner._one_blas_thread) as pool:
            print(threads(), pool.submit(threads).result())
"""


def run_blas_probe(tmp_path, *args):
    probe = tmp_path / "blas_probe.py"
    probe.write_text(BLAS_PROBE)
    src = str(Path(runner.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, str(probe), *args], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    first, second = out.stdout.split()
    if first == "None":
        pytest.skip("numpy ships no OpenBLAS with a known thread getter")
    return first, second


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

    @staticmethod
    def parts(b, g, split=None):
        """The rows the sweep's bound reads for the register factor ``b``
        and target ``g``: one register block or, at ``split``, the held R
        of the rows above it and the rows below."""
        column = g[:, None]
        if split is None:
            return [(b, column)]
        r = np.linalg.qr(np.concatenate([b[:split], column[:split]], axis=1), mode="r")
        return [(r[:, :-1], r[:, -1:]), (b[split:], column[split:])]

    def ritz_bound(self, b, g, split=None):
        return runner._ritz_bound(self.parts(b, g, split))[0]

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_ritz_bound_bounds_closeness(self, kind, n):
        # closeness <= min(F - d/2, 1 - d/2 + lam + sigma) up to the
        # eigenvalues within PSD_CLIP of 0 that the trace distance drops.
        # Rank-1 states make the Ritz value exact, so a bound without its
        # slack sigma, or below it, fails there.
        topology = GraphTopology(kind, n)
        rng = np.random.default_rng(100 + n)
        dim, rows = 2 ** n, 2 * n
        for target in runner.TARGET_KINDS:
            g = runner._reference_state(target, topology).amplitudes
            h, h2 = (random_pure(dim, rng) for _ in range(2))
            h -= np.vdot(g, h) * g
            h /= np.linalg.norm(h)
            h2 -= np.vdot(g, h2) * g + np.vdot(h, h2) * h
            h2 /= np.linalg.norm(h2)

            def columns(*vectors):
                b = np.zeros((dim, rows), dtype=complex)
                for j, vector in enumerate(vectors):
                    b[:, j] = vector
                return b

            factors = [random_pure(dim * rows, rng).reshape(dim, rows) for _ in range(3)]
            factors += [np.outer(random_pure(dim, rng), random_pure(rows, rng)) for _ in range(3)]
            factors += [
                columns(g + 1e-13 * random_pure(dim, rng)),         # within 1e-13 of g
                columns(g, 1e-13 ** 0.5 * random_pure(dim, rng)),
                columns(g),                                          # rho = gg^dag: e = 0
                columns(g + 1e-9 * h),                               # rho g ~ g to 1e-9
                columns(g + 1e-9 * h, 1e-5 * h2),
                # A rank-2 mixture with a11 = -2e-8 and a22 = 1e-8, both far
                # below a12 = 1e-4, where lam leans on a22 as much as on a11.
                columns((1 - 1e-8) ** 0.5 * ((1 - 1e-8) ** 0.5 * g + 1e-4 * h), 1e-4 * h2),
            ]
            for b in factors:
                b = b / np.linalg.norm(b)
                for defect in (0.0, 8e-11, -8e-11):
                    scaled = b * (1 + defect) ** 0.5
                    value = closeness(scaled, g[:, None])
                    for split in (None, dim // 2):
                        parts = self.parts(scaled, g, split)
                        bound = runner._ritz_bound(parts)[0]
                        assert value <= bound + self.slack(n) / 2, (target, split, defect)
                        # F and d of the rows the bound reads: with a split,
                        # the held R's, not the rows of b.
                        overlaps = sum((z.conj().T @ y)[0] for y, z in parts)
                        fidelity = np.sum(np.abs(overlaps) ** 2)
                        trace = sum(np.sum(np.abs(y) ** 2) for y, _ in parts)
                        assert bound <= fidelity - 0.5 * (trace - 1.0)

    def test_ritz_bound_is_tighter_than_the_fidelity(self):
        # The pure state (g + h) / sqrt(2), h orthogonal to g: F = 1/2 bounds
        # its closeness 1 - 1/sqrt(2) loosely, the Ritz value on span{g, h}
        # exactly.
        g = runner._reference_state("graph", CYCLE4).amplitudes
        h = random_pure(16, np.random.default_rng(4))
        h -= np.vdot(g, h) * g
        h /= np.linalg.norm(h)
        b = np.zeros((16, 8), dtype=complex)
        b[:, 0] = (g + h) / 2 ** 0.5
        value = closeness(b, g[:, None])
        assert value == pytest.approx(1 - 0.5 ** 0.5, abs=1e-14)
        assert self.ritz_bound(b, g) - value == pytest.approx(runner._RITZ_SLACK, abs=1e-14)

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
            tensors.append((slice(None), b.T.reshape(1, 4, 2, 16)))
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
        tensors = [(slice(None), b.T.reshape(1, 4, 2, 16))] * 2
        monkeypatch.setattr(runner, "_column_walks",
                            lambda *args: iter([(np.arange(16), iter(tensors))]))
        coin_mats = np.eye(2)[None]
        exact = runner._closeness_values(CYCLE4, coin_mats, 1, None, (target,))
        swept = runner._closeness_values(CYCLE4, coin_mats, 1, None, (target,),
                                         skip_untied=True)
        coins = [CLUSTER_COIN]
        assert runner._best_of(coins, exact[0]).best_t == 1
        assert runner._best_of(coins, swept[0]) == runner._best_of(coins, exact[0])
        self.assert_skips_untied(exact, swept, self.slack(4))

    def test_fig6_grid_solves_at_most_half(self, solved_members):
        # The six (target, graph) sweeps of the fig6 benchmark: 8604 members
        # of 18150 with the fidelity bound alone, 5307 with the Ritz bound.
        for topology in (CYCLE4, PATH4):
            for target in runner.TARGET_KINDS:
                run_sweep(SweepSpec(topology, target, thetas=FIG6_GRID, phi2s=FIG6_GRID,
                                    steps=24))
        assert sum(solved_members) <= 0.65 * 8604
        assert sum(solved_members) == 5307
        # A series solves every step.
        solved_members.clear()
        run_metric_series(WalkConfig(CYCLE4, CLUSTER_COIN, 24), "closeness(ghz)")
        assert sum(solved_members) == 25

    @pytest.mark.parametrize("target", ["ghz", "graph", "w"])
    @pytest.mark.parametrize("topology", [CYCLE4, PATH4], ids=["cycle", "path"])
    def test_fig6_sweeps_match_the_record(self, topology, target):
        # tests/data/fig6_<target>_<graph>.json records `iqwalk sweep --table`
        # for the six fig6 benchmark sweeps (FIG6_GRID, T = 24), as
        # tests/data/make_fig6_tables.py writes them.  A change to how sweeps
        # solve or skip steps must move no argmax, and no table value by more
        # than 1e-12.
        record = json.loads((Path(__file__).parent / "data" /
                             f"fig6_{target}_{topology.kind}.json").read_text())
        spec = SweepSpec(topology, target, thetas=FIG6_GRID, phi2s=FIG6_GRID, steps=24)
        result = run_sweep(spec)
        written = json.loads(runner.sweep_json(spec, result, table=True))
        assert written["argmax"] == record["argmax"]
        assert [row | {"value": 0} for row in written["table"]] \
            == [row | {"value": 0} for row in record["table"]]
        values = np.array([value for *_, value in result.table])
        assert np.abs(values - [row["value"] for row in record["table"]]).max() <= 1e-12

    def test_graph_closeness_series_solves_every_step(self, solved_members):
        run_metric_series(WalkConfig(CYCLE4, CLUSTER_COIN, 30), "closeness(graph)")
        assert sum(solved_members) == 31

    def test_ritz_bound_runs_only_in_sweeps(self, monkeypatch):
        # Series, the walker and register statistics and unskipped closeness
        # never reach the bound.
        def refuse(*args):
            raise AssertionError("the Ritz bound ran outside a sweep")

        monkeypatch.setattr(runner, "_ritz_bound", refuse)
        config = WalkConfig(PATH4, CoinParams(0.7, 0.0, 0.3), 12)
        for metric in ("closeness(graph)", "closeness(ghz)", "entropy(G)", "logneg(PC)",
                       "concurrence", "concurrence_postselected(pi/2,0)"):
            run_metric_series(config, metric)
        coin_mats = np.stack([build_coin(CLUSTER_COIN), build_coin(config.coin)])
        runner._closeness_values(CYCLE4, coin_mats, 24, None, runner.TARGET_KINDS)
        with pytest.raises(AssertionError, match="outside a sweep"):
            run_sweep(SweepSpec(CYCLE4, "graph", thetas=FIG6_GRID, phi2s=(0.0,), steps=24))

    @pytest.mark.parametrize("block", [16, 8])
    def test_six_sites_in_column_blocks_match_the_exact_sweep(self, block, monkeypatch):
        # n = 6 in 64 / block register blocks: the Ritz bound reads the held
        # R of the earlier blocks, and the sweep still picks what solving
        # every step picks.
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", block)
        grid = tuple(k * math.pi / 4 for k in range(5))
        spec = SweepSpec(GraphTopology("cycle", 6), "graph", thetas=grid, phi2s=grid, steps=16)
        coins = spec.coins()
        coin_mats = np.stack([build_coin(coin) for coin in coins])
        exact = runner._closeness_values(spec.topology, coin_mats, 16, None, runner.TARGET_KINDS)
        swept = runner._closeness_values(spec.topology, coin_mats, 16, None, runner.TARGET_KINDS,
                                         skip_untied=True)
        assert (swept != exact).sum() > exact.size // 3
        self.assert_skips_untied(exact, swept, self.slack(6))
        for target, row in zip(runner.TARGET_KINDS, exact):
            spec = SweepSpec(spec.topology, target, thetas=grid, phi2s=grid, steps=16)
            assert run_sweep(spec) == runner._best_of(coins, row)

    @pytest.mark.parametrize("kind, count", [("cycle", 2791), ("path", 2823)])
    def test_six_sites_solve_the_same_members_in_any_block(self, kind, count, monkeypatch,
                                                           solved_members):
        # The fig6 grid at n = 6 in 1, 4 and 8 register blocks: the bound
        # reads the held R of the earlier blocks, so the last block alone
        # would skip other members.  A member is solved where its bound
        # reaches the best value of its earlier steps, which skipped steps
        # never raise.
        topology = GraphTopology(kind, 6)
        spec = SweepSpec(topology, "graph", thetas=FIG6_GRID, phi2s=FIG6_GRID, steps=24)
        coin_mats = np.stack([build_coin(coin) for coin in spec.coins()])
        bounds = []
        original = runner._ritz_bound

        def recorded(parts):
            bound, trace = original(parts)
            bounds.append(bound)
            return bound, trace

        monkeypatch.setattr(runner, "_ritz_bound", recorded)
        masks = []
        for block in (1024, 16, 8):
            monkeypatch.setattr(runner, "_REGISTER_BLOCK", block)
            bounds.clear()
            solved_members.clear()
            swept = runner._closeness_values(topology, coin_mats, 24, None, runner.TARGET_KINDS,
                                             skip_untied=True)
            best = np.maximum.accumulate(swept, axis=-1)[..., :-1]
            best = np.concatenate([np.full(best.shape[:-1] + (1,), -np.inf), best], axis=-1)
            masks.append(np.stack(bounds, axis=-1) >= best - runner.TIE_ATOL - self.slack(6))
            assert sum(solved_members) == masks[-1].sum() == count, block
        assert all(np.array_equal(mask, masks[0]) for mask in masks[1:])

    @pytest.mark.parametrize("target", ["ghz", "graph"])
    def test_several_blocks_match_per_coin_series(self, target, monkeypatch, solved_members):
        # n = 5 in four column blocks of 8: the earlier blocks' R's are kept
        # for every coin, and only the last block's solves are skipped.
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", 8)
        grid = tuple(k * math.pi / 4 for k in range(5))
        spec = SweepSpec(GraphTopology("cycle", 5), target, thetas=grid, phi2s=grid, steps=16)
        result = run_sweep(spec)
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
            for t, (sites, tensor) in enumerate(tensors):
                if t == step:
                    tensor = tensor.copy()
                    tensor[coin] *= 1 + 1e-6
                yield sites, tensor

        def walks(*args):
            for columns, tensors in original(*args):
                yield columns, off_norm(tensors)

        monkeypatch.setattr(runner, "_column_walks", walks)
        with pytest.raises(ContractViolationError, match="trace"):
            run_sweep(spec)


class TestTraceCheckedOnce:
    """Each state's density trace is checked once, where it is formed: in
    the runner's statistics and closeness walks, not again in the cores."""

    STEPS = 6

    @pytest.fixture
    def trace_checks(self, monkeypatch, fresh_memo):
        checks = []
        original = runner._check_trace

        def counted(tr):
            checks.append(1)
            return original(tr)

        for module in (metrics_module, runner):
            monkeypatch.setattr(module, "_check_trace", counted)
        return checks

    @pytest.mark.parametrize("metric", ["entropy(G)", "logneg(PC)", "concurrence",
                                        "concurrence_postselected(0,0)"])
    def test_statistics_series_check_once(self, metric, trace_checks):
        run_metric_series(WalkConfig(PATH4, STANDARD_COINS[0], self.STEPS), metric)
        assert len(trace_checks) == 1

    def test_closeness_series_checks_each_step_once(self, trace_checks):
        run_metric_series(WalkConfig(PATH4, STANDARD_COINS[0], self.STEPS), "closeness(graph)")
        assert len(trace_checks) == self.STEPS + 1

    @pytest.mark.parametrize("block", [1024, 4], ids=["one-block", "four-blocks"])
    def test_sweep_checks_each_step_of_its_last_block_once(self, block, trace_checks,
                                                           monkeypatch):
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", block)
        run_sweep(SweepSpec(CYCLE4, "graph", thetas=(0.9, math.pi / 2), phi2s=(0.4, math.pi / 2),
                            steps=self.STEPS))
        assert len(trace_checks) == self.STEPS + 1


class TestOccupiedRows:
    """The walk steps only the rows its walker occupies; every statistic,
    series and sweep value is within 1e-13 of the walk on all 2n rows,
    ``full_row_walk`` patched in as ``runner._walk_tensors``."""

    GRAPHS = [GraphTopology("cycle", 4), GraphTopology("cycle", 5), GraphTopology("cycle", 6),
              GraphTopology("path", 6)]
    STEPS = 30
    METRICS = ("entropy(G)", "entropy(P)", "entropy(C)", "logneg(PC)", "concurrence",
               "concurrence_postselected(0,0)", "concurrence_postselected(pi/2,0)",
               "closeness(graph)", "closeness(ghz)", "closeness(w)")

    @staticmethod
    def initial(topology, start):
        """None, or a random state on sites 1 and 3: one sublattice of an
        even cycle, and a light cone from two sites elsewhere."""
        if start == "standard":
            return None
        n = topology.n
        amplitudes = np.zeros((n, 2, 2 ** n), dtype=complex)
        amplitudes[[1, 3]] = random_pure(4 * 2 ** n, np.random.default_rng(n)).reshape(2, 2, -1)
        return PureState(amplitudes.reshape(-1), walk_shape(topology))

    @staticmethod
    def both_ways(compute, monkeypatch, full_row_walk):
        """``compute()`` on the occupied rows, then on all rows, each from
        an empty memo of the last walk."""
        runner._last_walk[:] = [None, set(), None]
        occupied = compute()
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_walk_tensors", full_row_walk)
            runner._last_walk[:] = [None, set(), None]
            full = compute()
        return occupied, full

    @pytest.mark.parametrize("start", ["standard", "explicit"])
    @pytest.mark.parametrize("topology", GRAPHS, ids=lambda top: f"{top.kind}{top.n}")
    def test_statistics_stacks(self, topology, start, monkeypatch, full_row_walk, fresh_memo):
        config = WalkConfig(topology, STANDARD_COINS[1], self.STEPS, self.initial(topology, start))
        (grams, sy), (full_grams, full_sy) = self.both_ways(
            lambda: runner._statistics(config, "concurrence", with_sy=True),
            monkeypatch, full_row_walk)
        assert np.abs(grams - full_grams).max() <= 1e-13
        assert np.abs(sy - full_sy).max() <= 1e-13

    @pytest.mark.parametrize("start", ["standard", "explicit"])
    @pytest.mark.parametrize("topology", GRAPHS, ids=lambda top: f"{top.kind}{top.n}")
    def test_every_series(self, topology, start, monkeypatch, full_row_walk, fresh_memo):
        config = WalkConfig(topology, STANDARD_COINS[2], self.STEPS, self.initial(topology, start))
        for metric in self.METRICS:
            occupied, full = self.both_ways(lambda: run_metric_series(config, metric).values,
                                            monkeypatch, full_row_walk)
            assert np.abs(np.subtract(occupied, full)).max() <= 1e-13, metric

    @pytest.mark.parametrize("blocks", [1, 4])
    @pytest.mark.parametrize("start", ["standard", "explicit"])
    @pytest.mark.parametrize("topology", GRAPHS, ids=lambda top: f"{top.kind}{top.n}")
    def test_skipped_sweep_block(self, topology, start, blocks, monkeypatch, full_row_walk,
                                 fresh_memo):
        # A (5, 5) coin batch and every target, as a sweep solves them.
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", 2 ** topology.n // blocks)
        grid = [k * math.pi / 4 for k in range(5)]
        coin_mats = np.stack([[build_coin(CoinParams(theta, 0.0, phi2)) for phi2 in grid]
                              for theta in grid])
        initial = self.initial(topology, start)
        occupied, full = self.both_ways(
            lambda: runner._closeness_values(topology, coin_mats, self.STEPS, initial,
                                             runner.TARGET_KINDS, skip_untied=True),
            monkeypatch, full_row_walk)
        assert occupied.shape == (3, 5, 5, self.STEPS + 1)
        assert np.abs(occupied - full).max() <= 1e-13


class TestHalvedRegister:
    """On C_n with 4 | n from the standard start, ``runner._statistics``
    walks the columns g < 2**(n-1) alone and forms the ~g half from the
    complement symmetry; every stack matches the walk of all 2**n columns
    on all 2n rows at 1e-13, in any block size."""

    @staticmethod
    def all_columns(config, full_row_walk):
        """(G, M) stacks of every psi(t), all columns in one matrix F."""
        n = config.topology.n
        phase = (1j ** n) * (-1.0) ** np.array([bin(g).count("1") for g in range(2 ** n)])
        grams, sy = [], []
        for _, tensor in full_row_walk(config.topology, build_coin(config.coin), config.steps,
                                       config.initial):
            f = tensor.reshape(2 * n, -1)
            grams.append(f @ f.conj().T)
            sy.append(f @ (phase[:, None] * f.T)[::-1])
        return np.array(grams), np.array(sy)

    @staticmethod
    def walked_columns(monkeypatch):
        """The columns of every walk the runner starts, in order."""
        walked = []
        original = runner._walk_tensors

        def recorded(*args, columns=slice(None), **kwargs):
            walked.append(columns)
            return original(*args, columns=columns, **kwargs)

        monkeypatch.setattr(runner, "_walk_tensors", recorded)
        return walked

    @pytest.mark.parametrize("block", [1024, 2, 4, 6])
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_statistics_match_all_columns(self, n, block, monkeypatch, full_row_walk,
                                          fresh_memo):
        # Blocks of 6 end the lower half with a shorter block: 6 + 2 columns at n = 4.
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", block)
        config = WalkConfig(GraphTopology("cycle", n), STANDARD_COINS[1], 2 * n)
        walked = self.walked_columns(monkeypatch)
        grams, sy = runner._statistics(config, "concurrence", with_sy=True)
        assert np.array_equal(np.concatenate(walked), np.arange(2 ** (n - 1)))
        assert max(len(columns) for columns in walked) == min(block, 2 ** (n - 1))
        full_grams, full_sy = self.all_columns(config, full_row_walk)
        assert np.abs(grams - full_grams).max() <= 1e-13
        assert np.abs(sy - full_sy).max() <= 1e-13

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_cross_sector_entries_are_exact_zeros(self, n, fresh_memo):
        # lam_r = (-1)^((p + t)/2) on the rows r = 2p + c with p + t even.
        config = WalkConfig(GraphTopology("cycle", n), STANDARD_COINS[0], 3 * n)
        grams, sy = runner._statistics(config, "concurrence", with_sy=True)
        for t in range(config.steps + 1):
            p = np.repeat(np.arange(n), 2)
            lam = np.where((p + t) % 2 == 0, (-1.0) ** ((p + t) // 2), 0.0)
            assert (grams[t][lam[:, None] * lam < 0] == 0).all(), t
            assert (sy[t][(lam[:, None] != 0) & (lam[:, None] + lam == 0)] == 0).all(), t
            assert np.abs(grams[t][lam[:, None] * lam > 0]).max() > 0, t

    @pytest.mark.parametrize("start", ["random", "standard"])
    def test_explicit_initial_walks_every_column(self, start, monkeypatch, full_row_walk,
                                                 fresh_memo):
        # An explicit start keeps the mirrored blocks of all 2**n columns,
        # and its stacks match their oracle, the standard start's too.
        topology = GraphTopology("cycle", 8)
        initial = standard_initial_state(topology) if start == "standard" else PureState(
            random_pure(8 * 2 * 2 ** 8, np.random.default_rng(8)), walk_shape(topology))
        config = WalkConfig(topology, STANDARD_COINS[2], 20, initial)
        walked = self.walked_columns(monkeypatch)
        grams, sy = runner._statistics(config, "concurrence", with_sy=True)
        assert sorted(np.concatenate(walked)) == list(range(2 ** 8))
        full_grams, full_sy = self.all_columns(config, full_row_walk)
        assert np.abs(grams - full_grams).max() <= 1e-13
        assert np.abs(sy - full_sy).max() <= 1e-13

    @pytest.mark.parametrize("topology", [GraphTopology("cycle", 6), GraphTopology("path", 8)],
                             ids=["cycle6", "path8"])
    def test_other_graphs_walk_every_column(self, topology, monkeypatch, fresh_memo):
        walked = self.walked_columns(monkeypatch)
        runner._statistics(WalkConfig(topology, STANDARD_COINS[2], 4), "entropy(G)")
        assert sorted(np.concatenate(walked)) == list(range(2 ** topology.n))

    def test_one_walk_for_consecutive_series(self, walk_count):
        config = WalkConfig(GraphTopology("cycle", 12), STANDARD_COINS[3], 6)
        for metric in ("entropy(PC)", "entropy(C)", "entropy(P)", "logneg(PC)"):
            run_metric_series(config, metric)
        assert len(walk_count) == 1
        run_metric_series(config, "concurrence")
        assert len(walk_count) == 2


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
        coin_mats = np.stack([build_coin(c) for c in coins])
        whole = runner._closeness_values(topology, coin_mats, 12, None, runner.TARGET_KINDS,
                                         skip_untied=True)
        # Each target's row is the single-target call's, skipped or not.
        exact = runner._closeness_values(topology, coin_mats, 12, None, runner.TARGET_KINDS)
        for skip, rows in ((False, exact), (True, whole)):
            for target, row in zip(runner.TARGET_KINDS, rows):
                alone = runner._closeness_values(topology, coin_mats, 12, None, (target,),
                                                 skip_untied=skip)
                assert np.array_equal(alone[0], row)
        # What the sweep of all three targets scores, block by block.
        scored = []
        best_of = runner._best_of
        monkeypatch.setattr(runner, "_best_of",
                            lambda coins, values: scored.append(values) or best_of(coins, values))
        tables = set()
        for size in (1, 7, 32, len(coins)):
            sweep_blocks_of(size, topology, 12, 3, monkeypatch)
            blocks = runner._sweep_blocks(len(coins), topology, 12, 3, 1)
            assert len(blocks) == -(-len(coins) // size)
            scored.clear()
            results = runner._sweep_results(topology, runner.TARGET_KINDS, coins, 12, 1)
            assert np.array_equal(np.stack(scored), whole)
            assert results == [best_of(coins, row) for row in whole]
            tables.add(run_sweep(spec))
        assert len(tables) == 1

    def test_one_block_per_worker_share(self):
        for count in (1, 2, 121, 441):
            for workers in (1, 2, 3):
                blocks = runner._sweep_blocks(count, CYCLE4, 24, 3, workers)
                assert len(blocks) == min(count, workers)
                assert [i for block in blocks for i in range(count)[block]] == list(range(count))

    def test_twelve_sites_keep_blocks_within_the_cap(self):
        # The cap is 32 coins of an L_12 walk: 12 MiB per step array, and
        # as much for the R's of (rows + 1)^2 entries held per step and
        # target.  C_12 walks one sublattice, 12 rows, so its blocks take up
        # to twice the coins: 64 and 46 per block at T = 24 and 100 with
        # one target, against 32 and 12 on L_12.
        assert runner._SWEEP_STEP_ENTRIES * 16 == 12 * 2 ** 20
        columns = min(2 ** 12, runner._REGISTER_BLOCK)
        for kind, rows, counts in (("path", 24, (14, 37)), ("cycle", 12, (7, 10))):
            topology = GraphTopology(kind, 12)
            for count in (1, 33, 441):
                for workers in (1, 2):
                    for steps, targets in ((24, 1), (24, 3), (100, 1), (240, 3)):
                        blocks = runner._sweep_blocks(count, topology, steps, targets, workers)
                        sizes = [len(range(count)[block]) for block in blocks]
                        assert max(sizes) * rows * columns <= runner._SWEEP_STEP_ENTRIES
                        assert max(sizes) * (steps + 1) * targets * (rows + 1) ** 2 \
                            <= runner._SWEEP_STEP_ENTRIES
                        assert sum(sizes) == count
            assert len(runner._sweep_blocks(441, topology, 24, 1, 1)) == counts[0]
            assert len(runner._sweep_blocks(441, topology, 100, 1, 1)) == counts[1]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_one_register_block_is_cut_by_its_step_array_alone(self, n):
        # Up to n = 10 a walk is one register column block, which holds no
        # R from step to step: T and the targets move no block.
        for kind in ("path", "cycle"):
            topology = GraphTopology(kind, n)
            size = min(441, runner._SWEEP_STEP_ENTRIES // (walked_rows(topology) * 2 ** n))
            for steps, targets in ((1, 1), (24, 3), (1000, 3)):
                blocks = runner._sweep_blocks(441, topology, steps, targets, 1)
                sizes = [len(range(441)[block]) for block in blocks[:-1]]
                assert sizes == [size] * (len(blocks) - 1)
                assert len(blocks) == -(-441 // size)

    def test_held_factors_stay_within_the_cap(self, monkeypatch):
        # n = 6 in two register blocks of 32 columns: the first block's R of
        # every step, 7 x 7 on C_6's sublattice, is held until the last
        # block reaches it.  With the cap at four coins' R's at T = 240, the
        # sweep's peak grows by less than the cap from T = 24 to T = 240;
        # all 16 coins in one block would hold 3 MiB at T = 240.
        monkeypatch.setattr(runner, "_REGISTER_BLOCK", 32)
        cap = 4 * 241 * 7 ** 2
        monkeypatch.setattr(runner, "_SWEEP_STEP_ENTRIES", cap)
        topology = GraphTopology("cycle", 6)
        grid = tuple(k * math.pi / 4 for k in range(1, 5))
        coins = SweepSpec(topology, "graph", thetas=grid, phi2s=grid).coins()
        assert len(runner._sweep_blocks(len(coins), topology, 24, 1, 1)) == 1
        assert len(runner._sweep_blocks(len(coins), topology, 240, 1, 1)) == 4
        peaks = []
        for steps in (24, 240):
            tracemalloc.start()
            try:
                runner._sweep_results(topology, ("graph",), coins, steps, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < cap * 16

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
        spec = SweepSpec(CYCLE4, "graph", thetas=FIG6_GRID, phi2s=FIG6_GRID, steps=24)
        run_sweep(spec)
        assert len(solved_members) <= 25
        # The three targets of figure fig6 share each step's solve.
        solved_members.clear()
        runner._sweep_results(CYCLE4, runner.TARGET_KINDS, spec.coins(), 24, 1)
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
        # The curve is the path's: the cycle's is not null (criterion 2).
        assert "3e-17" in manifest["note"] and "criterion 2 is open" in manifest["note"]

    def test_fig2_panel_count(self, tmp_path):
        written = reproduce_figure("fig2", tmp_path, steps=4)
        assert len(written) == 24 + 1

    def test_fig5_projections(self, tmp_path):
        written = reproduce_figure("fig5", tmp_path, steps=6)
        names = {p.name for p in written}
        assert "fig5_path_coin1_concurrence_mu0.csv" in names
        assert "fig5_path_coin1_concurrence_muhalfpi.csv" in names
        assert "note" not in json.loads((tmp_path / "fig5_manifest.json").read_text())

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

    @pytest.mark.parametrize("flag,value", [("target", "graph"), ("postselect", "pi/2,0")])
    def test_metric_argument_flags_are_unknown(self, flag, value, tmp_path, capsys):
        # The metric name carries its argument, as in --metric
        # "closeness(graph)": a --target or --postselect flag, or the same
        # config key, is unknown to metric and exits 1 before any walk.
        argv = ["metric", "--coin", "pi/4,0,2*pi/5", "--steps", "2", "--metric", "closeness"]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--" + flag, value])
        assert err.value.code == 1
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
        config = tmp_path / "run.json"
        config.write_text(json.dumps({flag: value}))
        assert main(argv + ["--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config {config} has keys no metric flag takes: '{flag}'" in captured.err

    def test_evolve_json(self, capsys):
        rc = main(["evolve", "--coin", "0,0,0", "--steps", "2", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dims"] == [4, 2, 2, 2, 2, 2]
        norm = sum(re * re + im * im for re, im in data["amplitudes"])
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_evolve_csv_default(self, capsys):
        # Without --format, evolve writes its CSV: the provenance header,
        # the column names, and one row per amplitude of the final state.
        assert main(["evolve", "--coin", "pi/2,0,pi/2", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("# iqwalk v1, metric=state, graph=cycle, n=4, "
                            "theta=1.57079632679, phi1=0, phi2=1.57079632679")
        assert lines[1] == "index,re,im"
        amplitudes = evolve(WalkConfig(CYCLE4, CLUSTER_COIN, 3)).amplitudes
        assert len(lines) == 2 + len(amplitudes) == 2 + 4 * 2 * 2 ** 4
        for i, (line, a) in enumerate(zip(lines[2:], amplitudes)):
            assert line == f"{i},{a.real + 0.0:.12g},{a.imag + 0.0:.12g}"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_evolve_prints_no_negative_zero(self, fmt, capsys):
        # The CZ flips the sign of amplitudes that are exactly 0 at t = 3,
        # which must print as 0, not -0.
        assert main(["evolve", "--coin", "pi/2,0,pi/2", "--steps", "3",
                     "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            values = [v for row in out.splitlines()[2:] for v in row.split(",")[1:]]
            assert "0" in values and "-0" not in values
        else:
            values = [v for pair in json.loads(out)["amplitudes"] for v in pair]
            assert 0.0 in values and all(math.copysign(1, v) > 0 for v in values if v == 0)

    def test_contract_violation_prints_the_trace_as_a_number(self, monkeypatch, capsys):
        # A start 1.5 times too long has trace 2.25 at t = 0, exactly.
        start = walk_module._standard_start
        monkeypatch.setattr(walk_module, "_standard_start", lambda *args: 1.5 * start(*args))
        assert main(["metric", "--graph", "path", "--sites", "4", "--coin", "pi/3,0,pi/7",
                     "--steps", "2", "--metric", "entropy(G)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("iqwalk: numeric contract violation: "
                                "density matrix trace is 2.25, expected 1\n")

    def test_module_entry_point(self):
        # `python -m iqwalk` runs __main__.py, and its exit code is main()'s.
        src = str(Path(runner.__file__).resolve().parents[1])

        def run(*flags):
            return subprocess.run([sys.executable, "-m", "iqwalk", "metric", "--coin",
                                   "pi/2,0,pi/2", "--steps", "1", "--metric", "entropy(G)",
                                   *flags], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src})

        ok = run()
        assert ok.returncode == 0
        assert ok.stdout.splitlines()[:2] == [
            "# iqwalk v1, metric=entropy(G), graph=cycle, n=4, theta=1.57079632679, phi1=0, "
            "phi2=1.57079632679", "t,value"]
        too_many = run("--sites", "13")
        assert too_many.returncode == 1
        assert too_many.stdout == ""
        assert too_many.stderr == ("iqwalk: error: n=13 exceeds the dense-simulation ceiling "
                                   "MAX_SITES=12\n")

    def test_metric_needs_a_metric(self, capsys):
        assert main(["metric", "--coin", "0,0,0", "--steps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a metric is required: --metric NAME" in captured.err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["metric", "--config", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"iqwalk: error: cannot read config {missing}" in captured.err

    def test_config_list_exits_one(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(["coin", "pi/2,0,pi/2"]))
        assert main(["sweep", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"iqwalk: error: config {config} must hold a JSON object" in captured.err

    def test_sweep_zero_steps_exits_one(self, capsys):
        assert main(["sweep", "--theta-grid", "0", "--phi2-grid", "0", "--steps", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "iqwalk: error: sweep needs steps >= 1" in captured.err

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

    @pytest.mark.parametrize("command,config,flags", [
        (["evolve"], {"graph": "path", "coin": "pi/5,0,pi/5", "steps": 2},
         ["--graph", "cycle", "--coin", "pi/2,0,pi/2", "--steps", "3"]),
        (["metric"], {"coin": "0,0,0", "steps": 2, "metric": "entropy(C)", "format": "json"},
         ["--metric", "entropy(P)", "--steps", "4", "--format", "csv"]),
        (["sweep"], {"theta_grid": [0, "pi/2"], "phi2_grid": "0", "steps": 2, "table": False},
         ["--theta-grid", "pi/4,pi/2", "--table", "--graph", "path"]),
        (["figure", "fig7"], {"steps": 2, "out": "config"}, ["--steps", "3", "--out", "flag"]),
    ], ids=["evolve", "metric", "sweep", "figure"])
    def test_cli_flag_overrides_config(self, command, config, flags, tmp_path, monkeypatch,
                                       capsys):
        # A config writes the same bytes as its values given as flags, and a
        # flag wins over the config whether it comes before or after --config.
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        as_flags = []
        for key, value in config.items():
            if value is not False:
                as_flags.append("--" + key.replace("_", "-"))
            if not isinstance(value, bool):
                as_flags.append(",".join(map(str, value)) if isinstance(value, list)
                                else str(value))
        runs = iter(range(10))

        def run(*args):
            cwd = tmp_path / str(next(runs))
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert main([*command, *args]) == 0
            return capsys.readouterr().out, {p.relative_to(cwd): p.read_bytes()
                                             for p in cwd.rglob("*") if p.is_file()}

        assert run("--config", str(path)) == run(*as_flags)
        overridden = run(*as_flags, *flags)
        assert overridden != run(*as_flags)
        assert run(*flags, "--config", str(path)) == overridden
        assert run("--config", str(path), *flags) == overridden

    def test_parser_is_built_once_and_not_at_import(self):
        assert _build_parser() is _build_parser()
        code = ("import argparse, gc, iqwalk.cli; "
                "print(sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects()))")
        src = str(Path(runner.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "0"

    @pytest.mark.parametrize("with_config", [False, True])
    def test_main_leaves_no_cyclic_garbage(self, with_config, tmp_path):
        # A call through main() builds no parser, so with the GC disabled a
        # warm metric call leaves nothing for it to collect.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"coin": "pi/2,0,pi/2", "steps": 3}))
        argv = ["metric", "--metric", "entropy(G)", "--out", str(tmp_path / "x.csv")]
        argv += (["--config", str(config)] if with_config
                 else ["--coin", "pi/2,0,pi/2", "--steps", "3"])
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_config_leaves_the_parser_unchanged(self, tmp_path, capsys):
        # The shared parser keeps its declared defaults after a --config call,
        # so the next call without one sees them again.
        command = _build_parser()[1]["metric"]
        declared = {action.dest: action.default for action in command._actions}
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"graph": "path", "sites": 3, "steps": 2,
                                      "format": "json"}))
        argv = ["metric", "--coin", "pi/2,0,pi/2", "--metric", "entropy(G)"]
        assert main(argv + ["--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["graph"] == "path"
        assert {action.dest: action.default for action in command._actions} == declared
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# iqwalk v1, metric=entropy(G), graph=cycle, n=4,")
        assert len(lines) == 2 + 101

    # Keys each command takes besides the one under test, so that a config
    # fails on the value under test and not on a key its command lacks.
    CONFIG_BASE = {
        "evolve": {"coin": "pi/5,0,pi/5", "steps": 2},
        "metric": {"coin": "pi/5,0,pi/5", "metric": "entropy(C)", "steps": 2},
        "sweep": {"theta_grid": "0", "phi2_grid": "0", "steps": 2},
        "figure": {"steps": 2},
    }

    @pytest.mark.parametrize("command,values", [
        ("metric", {"steps": 2.7, "sites": 4.9}),
        ("metric", {"steps": True}),
        ("metric", {"sites": "4.5"}),
        ("metric", {"steps": None}),
        ("metric", {"format": "xml"}),
        ("evolve", {"format": "xml"}),
        ("sweep", {"jobs": 1.5}),
        ("figure", {"steps": 2.5}),
        ("metric", {"graph": "hexagon"}),
        ("sweep", {"target": "bell"}),
    ])
    def test_config_values_pass_the_flag_checks(self, command, values, tmp_path, capsys):
        # Each value fails as its flag does (--steps 2.7, --format xml): exit 1
        # and no output, rather than a truncated or defaulted run.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**self.CONFIG_BASE[command], **values}))
        argv = [command, "--config", str(config)]
        if command == "figure":
            argv = ["figure", "fig7", "--config", str(config), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert any(f"iqwalk: error: config {key} " in captured.err for key in values)

    @pytest.mark.parametrize("command,values", [
        ("sweep", {"table": "false"}),
        ("sweep", {"table": 0}),
        ("metric", {"out": 5}),
        ("metric", {"metric": 5}),
        ("metric", {"coin": None}),
        ("metric", {"graph": ["cycle"]}),
        ("metric", {"format": 5}),
        ("metric", {"sites": [4]}),
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
        config.write_text(json.dumps({**self.CONFIG_BASE[command], **values}))
        argv = [command, "--config", str(config)]
        if command == "figure":
            argv = ["figure", "fig7", "--config", str(config)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert any(f"iqwalk: error: config {key} " in captured.err for key in values)
        assert list(tmp_path.iterdir()) == [config]

    def test_config_grid_bool_exits_one(self, tmp_path, capsys):
        # JSON true is no angle, though Python's bool is an int.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta_grid": [True], "phi2_grid": "0", "steps": 2}))
        assert main(["sweep", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot parse angle True" in captured.err

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

    @pytest.mark.parametrize("command,values,bad", [
        ("metric", {"sites": 6, "stesp": 3, "coin": "pi/2,0,pi/2", "metric": "entropy(G)"},
         "stesp"),
        ("sweep", {"theta-grid": "0,pi/2"}, "theta-grid"),
    ])
    def test_config_key_no_flag_takes_exits_one(self, command, values, bad, tmp_path, capsys):
        # A misspelt key fails by name rather than leaving its flag at the
        # default (T = 100 for "stesp", the full grid for "theta-grid").
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        assert main([command, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config {config} has keys no {command} flag takes: '{bad}'" in captured.err

    def test_readme_command_lines_parse(self):
        # Every iqwalk line of README's "Command line" block names only flags
        # and values the parser takes (parsed, not run).
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("iqwalk ")]
        assert commands
        parser, _ = _build_parser()
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]

    def test_readme_quick_start_runs(self, capsys):
        # README's Python quick start runs as printed: the series reaches the
        # cluster state at t = 23 and the sweep reports the cluster coin at 24.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```python", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        first, second = capsys.readouterr().out.splitlines()
        assert first == "1.0 23"
        assert "theta=1.5707963267948966" in second
        assert "phi2=1.5707963267948966" in second
        assert second.endswith(" 24")

    def test_sweep_help_names_its_default_format(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--help"])
        assert err.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--format {csv,json} output format (default json)" in help_text

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
