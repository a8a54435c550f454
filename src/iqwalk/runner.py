"""Experiment harness: metric time series, coin-grid sweeps, figure data.

The harness turns walk configurations into reproducible data files.  Metric
names are compact strings such as ``entropy(G)``, ``logneg(PC)``,
``concurrence``, ``concurrence_postselected(pi/2,0)`` or
``closeness(graph)``; angles inside them accept the same ``k*pi/m`` tokens
as the command line.  All emitted CSV/JSON files are byte-identical across
reruns.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .conditioning import CoinProjection, postselect_coin, unconditioned_vertex_state
from .errors import ZeroProbabilityError
from .linalg import SubsystemShape, density_factor, reduction_factor
from .metrics import closeness, log_negativity, n_concurrence, von_neumann_entropy
from .states import ghz, graph_state, w_state
from .walk import (
    CoinParams,
    GraphTopology,
    PureState,
    WalkConfig,
    _walk_tensors,
    build_coin,
    trajectory,
)

# The four coin parameter sets used by every time-series figure dataset
# (fig2 through fig5).
STANDARD_COINS = (
    CoinParams(3 * math.pi / 20, 0.0, 7 * math.pi / 20),
    CoinParams(math.pi / 5, 0.0, math.pi / 5),
    CoinParams(math.pi / 4, 0.0, 2 * math.pi / 5),
    CoinParams(2 * math.pi / 5, 0.0, 3 * math.pi / 10),
)

# The four best-performing coin sets for cluster-state closeness on the
# four-site cycle (fig7).
BEST_CLUSTER_COINS = (
    CoinParams(math.pi / 10, 0.0, 0.0),
    CoinParams(math.pi / 2, 0.0, math.pi / 2),
    CoinParams(math.pi / 20, 0.0, 0.0),
    CoinParams(7 * math.pi / 20, 0.0, 0.0),
)

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

TARGET_KINDS = ("ghz", "w", "graph")

# Sweep values closer than this are ties: only float rounding separates them.
TIE_ATOL = 1e-12

_ANGLE_RE = re.compile(
    r"^(?P<sign>[+-])?\s*(?P<k>\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*"
    r"(?:/\s*(?P<d>\d+(?:\.\d*)?))?$",
    re.IGNORECASE,
)


def parse_angle(token: str | float) -> float:
    """Parse an angle given as a float or an exact multiple of pi.

    Accepts plain numbers ("1.57"), "pi", "pi/2", "3*pi/20", "3pi/20",
    "-pi/4", "0.5*pi".
    """
    if isinstance(token, (int, float)):
        return float(token)
    text = str(token).strip()
    m = _ANGLE_RE.match(text)
    if m:
        k = float(m.group("k")) if m.group("k") else 1.0
        if m.group("sign") == "-":
            k = -k
        d = float(m.group("d")) if m.group("d") else 1.0
        if d == 0:
            raise ValueError(f"zero denominator in angle token {token!r}")
        return k * math.pi / d
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse angle {token!r}; use a float or a "
                         "'k*pi/m' token") from None


def parse_angles(text: str, count: int) -> tuple[float, ...]:
    """Parse ``count`` comma-separated angle tokens."""
    parts = str(text).split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated angles, got {text!r}")
    return tuple(parse_angle(p) for p in parts)


def _fmt(x: float) -> str:
    """12 significant digits, no trailing noise: the file format's number."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class MetricSeries:
    """A metric evaluated at every step t = 0..T of one walk."""

    metric: str
    times: tuple[int, ...]
    values: tuple[float, ...]
    provenance: dict

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("metric values must be finite")


def _subsystem_indices(label: str) -> tuple[int, ...]:
    """Subsystems of ``label`` in the compressed (P, C, ancilla) state of
    :func:`_walker_states`, where the ancilla stands in for G."""
    groups = {"P": (0,), "C": (1,), "G": (2,)}
    letters = list(label)
    if not letters or len(set(letters)) != len(letters) \
            or any(ch not in groups for ch in letters):
        raise ValueError(f"bad subsystem label {label!r}; use letters from P, C, G")
    if set(letters) == {"P", "C", "G"}:
        raise ValueError("bipartition must be a proper subset of the subsystems")
    idx: tuple[int, ...] = ()
    for ch in sorted(set(letters), key="PCG".index):
        idx += groups[ch]
    return idx


def _reference_state(kind: str, topology: GraphTopology) -> PureState:
    if kind == "ghz":
        return ghz(topology.n)
    if kind == "w":
        return w_state(topology.n)
    if kind == "graph":
        return graph_state(topology)
    raise ValueError(f"unknown reference state {kind!r}; pick from {TARGET_KINDS}")


def reference_density(kind: str, topology: GraphTopology) -> np.ndarray:
    """Density matrix of the named reference state on ``topology.n`` qubits."""
    amps = _reference_state(kind, topology).amplitudes
    return np.outer(amps, amps.conj())


@functools.lru_cache(maxsize=1)
def _walker_factors(config: WalkConfig) -> np.ndarray:
    """The read-only (T+1, 2n, 2n) stack of factors B_t with
    B_t B_t^dag = rho_PC(t), the walker-coin reduction at each step.

    The walk runs once; at each step rho_PC is the Gram matrix F F^dag of
    the state as a (2n, 2**n) matrix F, and one stacked
    :func:`density_factor` turns the Grams into factors.  Memoized for one
    config at a time, so consecutive walker-side series on a config walk it
    once.
    """
    rows = 2 * config.topology.n
    grams = []
    for state in trajectory(config):
        f = state.amplitudes.reshape(rows, -1)
        grams.append(f @ f.conj().T)
    factors = density_factor(np.stack(grams))
    factors.flags.writeable = False
    return factors


def _walker_states(config: WalkConfig) -> Iterator[PureState]:
    """The walk compressed for the walker-side metrics: each B_t of
    :func:`_walker_factors` read as a pure state of dims (n, 2, 2n).

    It purifies rho_PC(t) with a 2n-dimensional ancilla in place of the
    register G.  A pure state's reductions to complementary parts share
    their nonzero spectrum, so every entropy and the walker-coin log
    negativity of this state are those of the walk state.
    """
    n = config.topology.n
    shape = SubsystemShape((n, 2, 2 * n))
    for b in _walker_factors(config):
        yield PureState(b.reshape(-1), shape)


def _register_states(config: WalkConfig) -> Iterator[PureState]:
    """The walk's full states, for the register metrics.

    This walk clears the walker-side memo: only consecutive walker-side
    series share it, so a series list run twice (perfbench repeats its
    body, and traces it twice) does the same work each time.
    """
    _walker_factors.cache_clear()
    return trajectory(config)


def _parse_metric(metric: str, topology: GraphTopology) \
        -> tuple[str, Callable[[WalkConfig], Iterable[PureState]],
                 Callable[[PureState], float], dict]:
    """Resolve a metric name to (canonical name, the states it reads,
    per-state evaluator, extras).  The walker-side metrics, entropies and
    logneg(PC), read :func:`_walker_states`; the register metrics read the
    full states."""
    m = re.match(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$", metric)
    if not m:
        raise ValueError(f"cannot parse metric name {metric!r}")
    head, arg = m.group(1), (m.group(2) or "").strip()
    n = topology.n

    if head == "entropy":
        if not arg:
            raise ValueError("entropy needs a subsystem label, e.g. entropy(G)")
        keep = _subsystem_indices(arg)
        label = "".join(sorted(set(arg), key="PCG".index))
        return (f"entropy({label})", _walker_states,
                lambda s: von_neumann_entropy(reduction_factor(s.amplitudes, s.shape, keep)),
                {})

    if head == "logneg":
        if arg not in ("", "PC"):
            raise ValueError("only the walker-coin bipartition logneg(PC) is supported")
        return ("logneg(PC)", _walker_states,
                lambda s: log_negativity(reduction_factor(s.amplitudes, s.shape, (0, 1)),
                                         (n, 2), (1,)),
                {})

    if head == "concurrence":
        if arg:
            raise ValueError("concurrence takes no arguments; use "
                             "concurrence_postselected(mu,nu) for conditioning")
        return ("concurrence", _register_states,
                lambda s: n_concurrence(unconditioned_vertex_state(s), n), {})

    if head == "concurrence_postselected":
        if not arg:
            raise ValueError("concurrence_postselected needs (mu,nu)")
        mu, nu = parse_angles(arg, 2)
        proj = CoinProjection(mu, nu)

        def postselected(s: PureState) -> float:
            # A (numerically) impossible outcome contributes no conditional
            # state; the series records 0 there.
            try:
                factor, _ = postselect_coin(s, proj)
            except ZeroProbabilityError:
                return 0.0
            return n_concurrence(factor, n)

        return (f"concurrence_postselected({_fmt(mu)},{_fmt(nu)})", _register_states,
                postselected, {"mu": mu, "nu": nu})

    if head == "closeness":
        if not arg:
            raise ValueError("closeness needs a reference state, e.g. closeness(graph)")
        # The target is pure: its factor is its (norm-checked) amplitude column.
        target = _reference_state(arg, topology).amplitudes[:, None]
        return (f"closeness({arg})", _register_states,
                lambda s: closeness(unconditioned_vertex_state(s), target),
                {"target": arg})

    raise ValueError(f"unknown metric {metric!r}")


def run_metric_series(config: WalkConfig, metric: str) -> MetricSeries:
    """Evaluate one metric at every step of the configured walk.

    Register metrics take each state as the walk produces it.  The
    walker-side metrics read the walk's memoized compressed factors, so a
    run of them on one config walks it once.
    """
    name, states, evaluate, extras = _parse_metric(metric, config.topology)
    values = tuple(float(evaluate(s)) for s in states(config))
    provenance = {
        "metric": name,
        "graph": config.topology.kind,
        "n": config.topology.n,
        "theta": config.coin.theta,
        "phi1": config.coin.phi1,
        "phi2": config.coin.phi2,
        **extras,
    }
    return MetricSeries(name, tuple(range(len(values))), values, provenance)


def default_angle_grid() -> tuple[float, ...]:
    """k*pi/20 for k = 0..20: every angle the figure datasets use."""
    return tuple(k * math.pi / 20 for k in range(21))


@dataclass(frozen=True)
class SweepSpec:
    """Exhaustive (theta, phi1, phi2, t) closeness maximization target."""

    topology: GraphTopology
    target: str
    thetas: tuple[float, ...] = ()
    phi1s: tuple[float, ...] = (0.0,)
    phi2s: tuple[float, ...] = ()
    steps: int = 100

    def __post_init__(self):
        if self.target not in TARGET_KINDS:
            raise ValueError(f"target must be one of {TARGET_KINDS}, got {self.target!r}")
        if self.steps < 1:
            raise ValueError("sweep needs steps >= 1")
        if not self.thetas:
            object.__setattr__(self, "thetas", default_angle_grid())
        if not self.phi2s:
            object.__setattr__(self, "phi2s", default_angle_grid())
        if not self.phi1s:
            object.__setattr__(self, "phi1s", (0.0,))

    def coins(self) -> list[CoinParams]:
        """Grid points in lexicographic (theta, phi1, phi2) order."""
        return [CoinParams(th, p1, p2)
                for th in self.thetas for p1 in self.phi1s for p2 in self.phi2s]


@dataclass(frozen=True)
class SweepResult:
    best_value: float
    best_coin: CoinParams
    best_t: int
    table: tuple[tuple[float, float, float, int, float], ...] | None = None


# Coins evolved together as one (K, n, 2, 2**n) tensor by a sweep: enough to
# amortize the per-call overhead of the stacked solves, few enough that a
# block's states stay small next to the rest of the process.
_SWEEP_BLOCK = 32


def _block_closeness(task: tuple[GraphTopology, tuple[str, ...], int, list[CoinParams]]) \
        -> np.ndarray:
    """Closeness to each target at every step t = 0..T of every coin in one
    block, as a (targets, K, T+1) array.  The block is evolved together
    once for all targets, and each step scores all K register states with
    one stacked :func:`closeness` per target; only the current step's
    states are held."""
    topology, targets, steps, coins = task
    coin_mats = np.stack([build_coin(coin) for coin in coins])
    # A target is pure: its factor is its (norm-checked) amplitude column.
    target_factors = [_reference_state(target, topology).amplitudes[:, None]
                      for target in targets]
    values = np.empty((len(targets), len(coins), steps + 1))
    for t, tensor in enumerate(_walk_tensors(topology, coin_mats, steps)):
        # Each member's register factor, as unconditioned_vertex_state gives it.
        register = tensor.reshape(len(coins), 2 * topology.n, -1).swapaxes(1, 2)
        for i, target_factor in enumerate(target_factors):
            values[i, :, t] = closeness(register, target_factor)
    return values


def _closeness_grid(topology: GraphTopology, targets: tuple[str, ...], coins: list[CoinParams],
                    steps: int, jobs: int) -> np.ndarray:
    """Closeness to each target at every step of every coin, as a
    (targets, K, T+1) array: the coins are evolved in blocks, and ``jobs``
    worker processes share the blocks, at most one per CPU."""
    workers = _check_jobs(jobs)
    tasks = [(topology, targets, steps, coins[i:i + _SWEEP_BLOCK])
             for i in range(0, len(coins), _SWEEP_BLOCK)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_block_closeness, tasks))
    else:
        blocks = [_block_closeness(task) for task in tasks]
    return np.concatenate(blocks, axis=1)


def _best_of(coins: list[CoinParams], values: np.ndarray, keep_table: bool) -> SweepResult:
    """The sweep's tie rule over the (K, T+1) closeness ``values`` of
    ``coins``; see :func:`run_sweep`."""
    if not np.isfinite(values).all():
        raise ValueError("metric values must be finite")
    tied = values >= values.max(axis=1, keepdims=True) - TIE_ATOL
    # Per coin: the last step of the first run of tied steps.
    steps = np.arange(values.shape[1])
    first = tied.argmax(axis=1)
    run_ended = ~tied & (steps > first[:, None])
    per_t = np.where(run_ended.any(axis=1), run_ended.argmax(axis=1) - 1, steps[-1])
    per_value = values[np.arange(len(coins)), per_t]

    top = per_value.max()
    _, _, best = min((int(t), coin.astuple(), i)
                     for i, (coin, value, t) in enumerate(zip(coins, per_value, per_t))
                     if value >= top - TIE_ATOL)
    table = tuple((coin.theta, coin.phi1, coin.phi2, int(t), float(value))
                  for coin, value, t in zip(coins, per_value, per_t))
    return SweepResult(float(per_value[best]), coins[best], int(per_t[best]),
                       table if keep_table else None)


def _check_jobs(jobs: int) -> int:
    """Worker count for ``jobs``: at most one per CPU; ``jobs < 1`` raises."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def run_sweep(spec: SweepSpec, *, jobs: int = 1, keep_table: bool = False) -> SweepResult:
    """Exhaustive grid maximization of closeness to the target state.

    Values within ``TIE_ATOL`` (1e-12) of each other are ties, so the result
    does not depend on rounding.  Per coin, the reported t is the last step
    of the first run of consecutive steps tied with the coin's maximum: the
    cluster coin holds the cycle's cluster state over steps 23-24 (and again
    71-72), which reports t = 24.  Across coins, every coin tied with the best
    value is a candidate, and the earliest t wins, then the lexicographically
    smallest (theta, phi1, phi2).  The result is independent of evaluation
    order.  Coins are evolved and scored in blocks of stacked states;
    ``jobs`` worker processes share the blocks, at most one per CPU.
    """
    coins = spec.coins()
    values = _closeness_grid(spec.topology, (spec.target,), coins, spec.steps, jobs)
    return _best_of(coins, values[0], keep_table)


# ---------------------------------------------------------------------------
# File output

def series_csv(series: MetricSeries) -> str:
    p = series.provenance
    lines = [
        f"# iqwalk v1, metric={p['metric']}, graph={p['graph']}, n={p['n']}, "
        f"theta={_fmt(p['theta'])}, phi1={_fmt(p['phi1'])}, phi2={_fmt(p['phi2'])}",
        "t,value",
    ]
    lines += [f"{t},{_fmt(v)}" for t, v in zip(series.times, series.values)]
    return "\n".join(lines) + "\n"


def series_json(series: MetricSeries) -> str:
    payload = dict(series.provenance)
    payload["times"] = list(series.times)
    payload["values"] = [float(_fmt(v)) for v in series.values]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sweep_json(spec: SweepSpec, result: SweepResult) -> str:
    payload = {
        "target": spec.target,
        "graph": spec.topology.kind,
        "n": spec.topology.n,
        "steps": spec.steps,
        "grid_size": len(spec.thetas) * len(spec.phi1s) * len(spec.phi2s),
        "delta_tilde": float(_fmt(result.best_value)),
        "argmax": {
            "theta": float(_fmt(result.best_coin.theta)),
            "phi1": float(_fmt(result.best_coin.phi1)),
            "phi2": float(_fmt(result.best_coin.phi2)),
            "t": result.best_t,
        },
    }
    if result.table is not None:
        payload["table"] = [
            {"theta": float(_fmt(th)), "phi1": float(_fmt(p1)), "phi2": float(_fmt(p2)),
             "t": t, "value": float(_fmt(v))}
            for th, p1, p2, t, v in result.table
        ]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# The time-series figures: graphs, coins, and the (file suffix, metric) of
# each curve, one CSV per (graph, coin, curve).
_SERIES_FIGURES = {
    "fig2": (("cycle", "path"), STANDARD_COINS,
             tuple((f"entropy_{x}", f"entropy({x})") for x in "GCP")),
    "fig3": (("cycle", "path"), STANDARD_COINS, (("logneg_PC", "logneg(PC)"),)),
    "fig4": (("path",), STANDARD_COINS, (("concurrence", "concurrence"),)),
    "fig5": (("path",), STANDARD_COINS,
             (("concurrence_mu0", "concurrence_postselected(0,0)"),
              ("concurrence_muhalfpi", "concurrence_postselected(pi/2,0)"))),
    "fig7": (("cycle",), BEST_CLUSTER_COINS, (("closeness_graph", "closeness(graph)"),)),
}


def reproduce_figure(fig_id: str, out_dir: str | Path, *,
                     steps: int = 100, jobs: int = 1) -> list[Path]:
    """Write the CSV curves and JSON manifest for one figure dataset.

    fig2: entropy of the vertex, coin, and walker reductions, both graphs,
    four standard coins.  fig3: walker-coin log negativity, both graphs.
    fig4: vertex concurrence on the path graph (the cycle series is the
    degenerate all-zero one).  fig5: conditional vertex concurrence on the
    path graph for the two computational-basis coin projections.  fig6:
    grid-sweep closeness maxima for every target and both graphs.  fig7:
    cluster-state closeness on the cycle for the four best coins.
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {fig_id!r}; pick from {FIGURE_IDS}")
    _check_jobs(jobs)
    out = Path(out_dir)
    n = 4
    files: list[Path] = []
    manifest: dict = {"figure": fig_id, "n": n, "steps": steps}

    if fig_id == "fig6":
        # Each graph's coins are evolved once for all three targets.
        targets = ("ghz", "graph", "w")
        results = {}
        graphs = ("cycle", "path")
        for kind in graphs:
            spec = SweepSpec(GraphTopology(kind, n), targets[0], steps=steps)
            coins = spec.coins()
            values = _closeness_grid(spec.topology, targets, coins, steps, jobs)
            for target, target_values in zip(targets, values):
                results[target, kind] = _best_of(coins, target_values, False)
        rows = ["target,graph,delta_tilde,theta,phi1,phi2,t"]
        summary = []
        for target in targets:
            for kind in graphs:
                res = results[target, kind]
                rows.append(f"{target},{kind},{_fmt(res.best_value)},"
                            f"{_fmt(res.best_coin.theta)},{_fmt(res.best_coin.phi1)},"
                            f"{_fmt(res.best_coin.phi2)},{res.best_t}")
                summary.append({"target": target, "graph": kind,
                                "delta_tilde": float(_fmt(res.best_value))})
        files.append(_write(out / "fig6_sweep_summary.csv", "\n".join(rows) + "\n"))
        manifest["sweeps"] = summary
    else:
        graphs, coins, curves = _SERIES_FIGURES[fig_id]
        for kind in graphs:
            for i, coin in enumerate(coins, start=1):
                cfg = WalkConfig(GraphTopology(kind, n), coin, steps)
                for suffix, metric in curves:
                    series = run_metric_series(cfg, metric)
                    files.append(_write(out / f"{fig_id}_{kind}_coin{i}_{suffix}.csv",
                                        series_csv(series)))

    manifest["files"] = sorted(f.name for f in files)
    manifest_path = _write(out / f"{fig_id}_manifest.json",
                           json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return files + [manifest_path]
