import json
import math
import os
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
from iqwalk.linalg import reduction_factor
from iqwalk.metrics import log_negativity, von_neumann_entropy
from iqwalk.walk import PureState, standard_initial_state, trajectory, walk_shape

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


@pytest.fixture
def walk_count(monkeypatch):
    """Counts the walks started through ``walk._walk_tensors``, with the
    walker-side memo emptied first."""
    runner._walker_factors.cache_clear()
    walks = []
    original = walk_module._walk_tensors

    def counted(*args):
        walks.append(1)
        return original(*args)

    monkeypatch.setattr(walk_module, "_walk_tensors", counted)
    yield walks
    runner._walker_factors.cache_clear()


class TestWalkerSeries:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_matches_full_state_oracle(self, kind, n):
        cfg = WalkConfig(GraphTopology(kind, n), CoinParams(0.7, 0.3, 1.1), 4 if n == 12 else 9)
        for metric in WALKER_METRICS:
            values = run_metric_series(cfg, metric).values
            assert np.abs(np.subtract(values, full_state_series(cfg, metric))).max() <= 1e-12, \
                metric

    def test_one_walk_for_consecutive_walker_series(self, walk_count):
        cfg = WalkConfig(PATH4, STANDARD_COINS[1], 6)
        for metric in ("entropy(PC)", "entropy(C)", "entropy(P)", "logneg(PC)"):
            run_metric_series(cfg, metric)
        assert len(walk_count) == 1
        # A register series walks the full states itself.
        run_metric_series(cfg, "concurrence")
        assert len(walk_count) == 2

    def test_register_series_clears_the_memo(self, walk_count):
        # Only consecutive walker-side series share a walk, so running the
        # same list of series twice repeats the same work.
        cfg = WalkConfig(PATH4, STANDARD_COINS[1], 6)
        for _ in range(2):
            run_metric_series(cfg, "concurrence")
            run_metric_series(cfg, "entropy(G)")
        assert len(walk_count) == 4

    def test_second_config_evicts_the_first(self, walk_count):
        first = WalkConfig(PATH4, STANDARD_COINS[1], 6)
        second = WalkConfig(CYCLE4, STANDARD_COINS[1], 6)
        for cfg in (first, second, first):
            run_metric_series(cfg, "entropy(C)")
        assert len(walk_count) == 3
        factors = runner._walker_factors(first)
        assert len(walk_count) == 3
        assert factors.shape == (7, 8, 8)
        assert not factors.flags.writeable
        with pytest.raises(ValueError):
            factors[0, 0, 0] = 0

    def test_memo_never_sees_a_changed_initial_state(self, walk_count):
        # The memo keys on the initial state's identity; the state copies
        # its caller's array, so changing that array changes nothing.
        amps = evolve(WalkConfig(PATH4, STANDARD_COINS[0], 3)).amplitudes.copy()
        cfg = WalkConfig(PATH4, STANDARD_COINS[1], 5, initial=PureState(amps, walk_shape(PATH4)))
        before = run_metric_series(cfg, "entropy(G)").values
        amps[:] = standard_initial_state(PATH4).amplitudes
        walks = len(walk_count)
        assert run_metric_series(cfg, "entropy(G)").values == before
        assert run_metric_series(cfg, "logneg(PC)").values \
            == pytest.approx(full_state_series(cfg, "logneg(PC)"), abs=1e-12)
        assert len(walk_count) == walks + 1  # the oracle's walk alone


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
    def test_blocks_match_per_coin_series(self, topology, target):
        # 40 coins: one full block and an uneven last one
        spec = SweepSpec(topology, target, thetas=tuple(k * math.pi / 5 for k in range(5)),
                         phi2s=tuple(k * math.pi / 7 for k in range(8)), steps=12)
        result = run_sweep(spec, keep_table=True)
        assert len(result.table) == 40
        for coin, (theta, phi1, phi2, t, value) in zip(spec.coins(), result.table):
            assert (theta, phi1, phi2) == coin.astuple()
            values = run_metric_series(WalkConfig(topology, coin, spec.steps),
                                       f"closeness({target})").values
            tied = np.asarray(values) >= max(values) - runner.TIE_ATOL
            want_t = int(np.argmax(tied))
            while want_t + 1 < len(values) and tied[want_t + 1]:
                want_t += 1
            assert t == want_t
            assert abs(value - values[want_t]) < 1e-12
        assert run_sweep(spec, jobs=2, keep_table=True) == result

    def test_non_finite_closeness_raises(self, monkeypatch):
        scalar_closeness = runner.closeness

        def poisoned(a, b):
            values = scalar_closeness(a, b)
            values[-1] = np.nan
            return values

        monkeypatch.setattr(runner, "closeness", poisoned)
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9, 1.2), phi2s=(0.4,), steps=2)
        with pytest.raises(ValueError, match="finite"):
            run_sweep(spec)

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

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = SweepSpec(CYCLE4, "graph", thetas=(0.9, 1.2), phi2s=(0.4,), steps=2)
        assert run_sweep(spec, jobs=64) == run_sweep(spec)
        assert workers == [2]


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

        def counted(topology, coin_mats, steps, initial=None):
            walked.append(len(coin_mats))
            return original(topology, coin_mats, steps, initial)

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
