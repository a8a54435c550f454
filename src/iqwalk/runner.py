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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .conditioning import ZERO_PROBABILITY, CoinProjection
from .linalg import PSD_CLIP, density_factor
from .metrics import _check_trace, _concurrence_from_sy, _sigma_y_phase, _trace_distance_from_r
from .metrics import log_negativity, von_neumann_entropy
from .states import ghz, graph_state, w_state
from .walk import (
    MAX_SITES,
    CoinParams,
    GraphTopology,
    PureState,
    WalkConfig,
    _walk_tensors,
    build_coin,
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
    :func:`_walker_reduction`, where the ancilla stands in for G."""
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


# Register columns walked together: at n = 12 a block's (2n, 1024) step
# tensor (384 KiB) stays in cache through all T steps; n <= 10 is one block.
# Every block's width must be a multiple of 4: the coin matmul rounds a
# row's last width % 4 columns on another BLAS path, so other widths would
# move values in the last bits with the block size.
_REGISTER_BLOCK = 1024


def _column_walks(topology: GraphTopology, coin_mats: np.ndarray, steps: int,
                  initial: PureState | None) -> Iterator[tuple[np.ndarray, Iterator[np.ndarray]]]:
    """Per register column block [lo, lo+h) + [2**n-lo-h, 2**n-lo), 2h =
    ``_REGISTER_BLOCK``, its columns and walk tensors at t = 0..T.  Reversing
    a block maps each g to ~g = 2**n-1-g: sigma_y^(x n) stays in it."""
    size = 2 ** topology.n
    half = max(1, _REGISTER_BLOCK // 2)
    for lo in range(0, size // 2, half):
        hi = min(lo + half, size // 2)
        columns = np.r_[lo:hi, size - hi:size - lo]
        yield columns, _walk_tensors(topology, coin_mats, steps, initial, columns=columns)


# The config, the series served and the statistics of the last walk.
_last_walk: list = [None, set(), None]


def _statistics(config: WalkConfig, series: str, with_sy: bool = False) -> tuple:
    """(T+1, 2n, 2n) stacks of factors of G_t = F F^dag = rho_PC(t), of G_t,
    and with ``with_sy`` of M_t = B^T Sy B (B = F^T), F being psi(t) as a
    (2n, 2**n) matrix: sums over column blocks, tr G_t = ||psi(t)||^2
    checked.  Consecutive distinct series on a config share a walk; a
    series already served walks again, as does one needing a missing M."""
    config_walked, served, stats = _last_walk
    if config == config_walked and series not in served and (stats[2] is not None or not with_sy):
        served.add(series)
        return stats
    topology = config.topology
    rows = 2 * topology.n
    grams = np.zeros((config.steps + 1, rows, rows), dtype=complex)
    sy = np.zeros_like(grams) if with_sy else None
    phase = _sigma_y_phase(topology.n) if with_sy else None
    for columns, tensors in _column_walks(topology, build_coin(config.coin), config.steps,
                                          config.initial):
        for t, tensor in enumerate(tensors):
            f = tensor.reshape(rows, -1)
            grams[t] += f @ f.conj().T
            if with_sy:
                sy[t] += f @ (f * phase[columns])[:, ::-1].T
    norms = np.sqrt(np.trace(grams, axis1=1, axis2=2).real)
    # Written so that a NaN norm fails the check too.
    bad = ~(np.abs(norms - 1.0) <= 1e-10)
    if bad.any():
        raise ValueError(f"state is not normalized: ||psi|| = {norms[bad][0]:.12g}")
    _last_walk[:] = config, {series}, (density_factor(grams), grams, sy)
    return _last_walk[2]


def _closeness_values(topology: GraphTopology, coin_mats: np.ndarray, steps: int,
                      initial: PureState | None, targets: tuple[str, ...], *,
                      skip_untied: bool = False) -> np.ndarray:
    """Closeness to each target at t = 0..T of the walks of the (..., 2, 2)
    coins ``coin_mats``, as a (targets, ..., T+1) array, from one blocked
    walk: per target and step, R of W = [B, g] is built as
    R <- qr([R; W_block]) and solved for all walks in the last block.  A
    step's sums over the earlier blocks are dropped once it is solved, so a
    walk in one column block holds no statistics from step to step.

    ``skip_untied`` is for sweeps, which need exact values only where a step
    can tie with its walk's maximum.  With the fidelity F = ||B^dag g||^2
    and the trace defect d = ||B||_F^2 - 1, closeness is at most F - d/2:
    gg^dag - rho has trace -d, so D = max_P tr P(gg^dag - rho) + d/2, and
    P = gg^dag gives D >= 1 - F + d/2 (Fuchs-van de Graaf at d = 0).
    Clipping eigenvalues within ``PSD_CLIP`` of 0 raises a computed value by
    at most slack / 2, slack = (2n+1) ``PSD_CLIP``.  A step whose bound is
    below its walk's best value so far minus ``TIE_ATOL`` and slack is
    provably untied: its last-block QR and eigensolve are skipped and the
    array holds the bound there, which never ties.  Every step's density
    trace is still checked.
    """
    rows = 2 * topology.n
    batch = coin_mats.shape[:-2]
    # A target is pure: its factor is its (norm-checked) amplitude column.
    amplitudes = [_reference_state(target, topology).amplitudes for target in targets]
    signs = np.concatenate([np.ones(rows), [-1.0]])
    values = np.empty((len(targets),) + batch + (steps + 1,))
    best = np.full((len(targets),) + batch, -np.inf)
    slack = (rows + 1) * PSD_CLIP
    # Per step, sums over the blocks walked so far: ||B||_F^2, and per target
    # g^dag B (B^dag g conjugated, so B is never conjugated) and the R.
    earlier: list = [None] * (steps + 1)
    blocks = list(_column_walks(topology, coin_mats, steps, initial))
    for b, (columns, tensors) in enumerate(blocks, start=1):
        last = b == len(blocks)
        block_targets = [(amps[columns, None], amps[columns].conj()) for amps in amplitudes]
        for t, tensor in enumerate(tensors):
            register = tensor.reshape(batch + (rows, -1)).swapaxes(-1, -2)
            trace, overlaps, held = earlier[t] or (0.0, [0.0] * len(targets),
                                                   [None] * len(targets))
            earlier[t] = None
            if skip_untied:
                trace = trace + np.sum(np.abs(register) ** 2, axis=(-2, -1))
                if last:
                    _check_trace(trace)
            for i, (column, conj) in enumerate(block_targets):
                keep = ...
                if skip_untied:
                    overlaps[i] = overlaps[i] + conj @ register
                    if last:
                        fidelity = np.sum(np.abs(overlaps[i]) ** 2, axis=-1)
                        bound = fidelity - 0.5 * (trace - 1.0)
                        # Written so that a NaN bound is not kept.
                        keep = bound >= best[i] - TIE_ATOL - slack
                        values[i, ..., t] = bound
                        if not keep.any():
                            continue
                w = register[keep]
                w = np.concatenate([w, np.broadcast_to(column, w.shape[:-1] + (1,))], axis=-1)
                if held[i] is not None:
                    w = np.concatenate([held[i][keep], w], axis=-2)
                r = np.linalg.qr(w, mode="r")
                if not last:
                    held[i] = r
                    continue
                value = 1.0 - _trace_distance_from_r(r, signs)
                values[i, ..., t][keep] = value
                if skip_untied:
                    best[i][keep] = np.maximum(best[i][keep], value)
            if not last:
                earlier[t] = trace, overlaps, held
    return values


def _walker_reduction(factors: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Factors of the reductions to ``keep`` of the states whose (T+1, 2n,
    2n) factor stack is ``factors``, each B_t read as a pure state of dims
    (n, 2, 2n).

    That state purifies rho_PC(t) with a 2n-dimensional ancilla in place of
    the register G.  A pure state's reductions to complementary parts share
    their nonzero spectrum, so every entropy and the walker-coin log
    negativity of this state are those of the walk state.
    """
    count, rows, _ = factors.shape
    dims = (rows // 2, 2, rows)
    rest = tuple(i for i in range(3) if i not in keep)
    tensor = factors.reshape((count,) + dims).transpose((0,) + tuple(1 + i for i in keep + rest))
    return tensor.reshape(count, math.prod(dims[i] for i in keep), -1)


def _parse_metric(metric: str, topology: GraphTopology) \
        -> tuple[str, Callable[[WalkConfig], Iterable[float]], dict]:
    """Resolve a metric name to (canonical name, the function from a config
    to the series' values, extras).  Every metric but closeness is one
    stacked call on the walk's :func:`_statistics`; closeness walks with
    the target by :func:`_closeness_values`."""
    m = re.match(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$", metric)
    if not m:
        raise ValueError(f"cannot parse metric name {metric!r}")
    head, arg = m.group(1), (m.group(2) or "").strip()
    n = topology.n

    if head == "entropy":
        if not arg:
            raise ValueError("entropy needs a subsystem label, e.g. entropy(G)")
        keep = _subsystem_indices(arg)
        name = "entropy({})".format("".join(sorted(set(arg), key="PCG".index)))
        return (name, lambda config: von_neumann_entropy(
                    _walker_reduction(_statistics(config, name)[0], keep)), {})

    if head == "logneg":
        if arg not in ("", "PC"):
            raise ValueError("only the walker-coin bipartition logneg(PC) is supported")
        return ("logneg(PC)", lambda config: log_negativity(
                    _statistics(config, "logneg(PC)")[0], (n, 2), (1,)), {})

    if head == "concurrence":
        if arg:
            raise ValueError("concurrence takes no arguments; use "
                             "concurrence_postselected(mu,nu) for conditioning")

        def unconditioned(config: WalkConfig) -> np.ndarray:
            _, grams, sy = _statistics(config, "concurrence", with_sy=True)
            return _concurrence_from_sy(sy, np.trace(grams, axis1=1, axis2=2).real)

        return "concurrence", unconditioned, {}

    if head == "concurrence_postselected":
        if not arg:
            raise ValueError("concurrence_postselected needs (mu,nu)")
        mu, nu = parse_angles(arg, 2)
        name = f"concurrence_postselected({_fmt(mu)},{_fmt(nu)})"
        # Pi = 1_n (x) <Sigma| projects the coin of the (P, C) rows.
        proj = np.kron(np.eye(n), CoinProjection(mu, nu).ket().conj())

        def postselected(config: WalkConfig) -> np.ndarray:
            _, grams, sy = _statistics(config, name, with_sy=True)
            prob = np.einsum("ij,tjk,ik->t", proj, grams, proj.conj()).real
            # A (numerically) impossible outcome has no conditional state; the
            # series records 0 there.  Elsewhere its trace is tr(Pi G Pi^dag) / p.
            # Projecting the unprojected statistics and then dividing by p
            # loses relative precision as eps / p, where projecting the
            # amplitudes first (postselect_coin) loses eps / sqrt(p): the two
            # differ by 1.3e-13 at p = 1e-4, 4.0e-9 at p = 1e-8 and 3.2e-5 at
            # p = 1e-12.  The standard and grid coins keep p >= 4.7e-5.
            kept = ~(prob < ZERO_PROBABILITY)
            values = np.zeros(len(prob))
            values[kept] = _concurrence_from_sy(proj @ sy[kept] @ proj.T / prob[kept, None, None],
                                                prob[kept] / prob[kept])
            return values

        return name, postselected, {"mu": mu, "nu": nu}

    if head == "closeness":
        if not arg:
            raise ValueError("closeness needs a reference state, e.g. closeness(graph)")
        return (f"closeness({arg})",
                lambda config: _closeness_values(topology, build_coin(config.coin), config.steps,
                                                 config.initial, (arg,))[0],
                {"target": arg})

    raise ValueError(f"unknown metric {metric!r}")


def run_metric_series(config: WalkConfig, metric: str) -> MetricSeries:
    """Evaluate one metric at every step of the configured walk.

    The walk runs in blocks of register columns and holds no full state;
    consecutive distinct series on one config share it (closeness walks on
    its own), and each series solves all its steps in one stacked call."""
    name, series, extras = _parse_metric(metric, config.topology)
    values = tuple(float(v) for v in series(config))
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


# Complex entries of the largest step array a sweep block may walk: 32
# coins of an n = MAX_SITES walk in full register column blocks (12 MiB).
_SWEEP_STEP_ENTRIES = 32 * 2 * MAX_SITES * _REGISTER_BLOCK


def _sweep_blocks(coin_count: int, n: int, workers: int) -> list[slice]:
    """The coin ranges a sweep walks as one block each: every worker's
    contiguous share of the grid, ceil(K / ``workers``) coins, cut further
    only where a block's (coins, 2n, columns) step array would have more
    than ``_SWEEP_STEP_ENTRIES`` entries.  An n = 4 grid is one block per
    worker; n = 12 keeps blocks of 32 coins."""
    per_coin = 2 * n * min(2 ** n, _REGISTER_BLOCK)
    size = max(1, min(-(-coin_count // workers), _SWEEP_STEP_ENTRIES // per_coin))
    return [slice(lo, lo + size) for lo in range(0, coin_count, size)]


def _closeness_grid(topology: GraphTopology, targets: tuple[str, ...], coins: list[CoinParams],
                    steps: int, jobs: int) -> np.ndarray:
    """Closeness to each target at every step of every coin, as a
    (targets, K, T+1) array, with an upper bound at the steps that provably
    cannot tie (see :func:`_closeness_values`).  The coins are walked in the
    blocks of :func:`_sweep_blocks`, one stacked solve per step, target and
    block; ``jobs`` worker processes, at most one per CPU and one per block,
    share the blocks, and a single block runs in this process."""
    workers = _check_jobs(jobs)
    coin_mats = np.stack([build_coin(coin) for coin in coins])
    coin_blocks = [coin_mats[block] for block in _sweep_blocks(len(coins), topology.n, workers)]
    block_values = functools.partial(_closeness_values, topology, steps=steps, initial=None,
                                     targets=targets, skip_untied=True)
    workers = min(workers, len(coin_blocks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(block_values, coin_blocks))
    else:
        blocks = [block_values(block) for block in coin_blocks]
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
    order.  Coins are evolved and scored as blocks of stacked states, one
    block per worker's share of the grid unless a block's step array would
    outgrow that of 32 coins at n = 12 (see :func:`_sweep_blocks`);
    ``jobs`` worker processes share the blocks, at most one per CPU and one
    per block.

    Only steps that can tie are solved exactly: where a coin's fidelity to
    the target and its trace prove a step untied with the coin's maximum,
    the sweep's value at that step is their upper bound, which never ties
    or wins (see :func:`_closeness_values`), so the result is unchanged.
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
    fig4: vertex concurrence on the path graph, which is float noise (at
    most 3e-17 at T = 100; the cycle's reaches about 0.75).  fig5:
    conditional vertex concurrence on the path graph for the two
    computational-basis coin projections.  fig6: grid-sweep closeness maxima
    for every target and both graphs.  fig7: cluster-state closeness on the
    cycle for the four best coins.
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
