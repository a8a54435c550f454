"""Experiment harness: metric time series, coin-grid sweeps, figure data.

The harness turns walk configurations into reproducible data files.  Metric
names are compact strings such as ``entropy(G)``, ``logneg(PC)``,
``concurrence``, ``concurrence_postselected(pi/2,0)`` or
``closeness(graph)``; angles inside them accept the same ``k*pi/m`` tokens
as the command line.  All emitted CSV/JSON files are byte-identical across
reruns with the same ``jobs``.  A sweep's workers run one BLAS thread,
whose QRs round differently: at n >= 10 a table value under ``jobs`` > 1
can differ from the serial one in the 12th digit; the argmax, best t and
delta_tilde agreed in every case tried.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .conditioning import ZERO_PROBABILITY, CoinProjection
from .linalg import PSD_CLIP
from .metrics import _check_trace, _concurrence_from_sy, _entropy_of, _log_negativity_of
from .metrics import _sigma_y_phase, _trace_distance_from_r
from .states import ghz, graph_state, w_state
from .walk import (
    MAX_SITES,
    CoinParams,
    GraphTopology,
    PureState,
    WalkConfig,
    _walk_tensors,
    _walked_sites,
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
    if isinstance(token, (int, float)) and not isinstance(token, bool):
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
    """12 significant digits, no trailing noise: the file format's number.
    Adding 0.0 turns -0.0 into 0.0, so no value prints as "-0"."""
    return format(float(x) + 0.0, ".12g")


@dataclass(frozen=True)
class MetricSeries:
    """A metric evaluated at every step t = 0..T of one walk."""

    metric: str
    values: tuple[float, ...]
    provenance: dict

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("metric values must be finite")

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(range(len(self.values)))


# The part of the walker (P, C) whose entropy is each label's: the walk state
# is pure, so a label and its complement in (P, C, G) share their entropy.
_ENTROPY_PARTS = {"PC": "PC", "G": "PC", "P": "P", "CG": "P", "C": "C", "PG": "C"}


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


# Register columns walked together: at n = 12 a block's step tensor, at
# most 384 KiB, stays in cache through all T steps; n <= 10 is one block.
# Every block's width must be a multiple of 4: the coin matmul rounds a
# row's last width % 4 columns on another BLAS path, so other widths would
# move values in the last bits with the block size.
_REGISTER_BLOCK = 1024


def _column_walks(topology: GraphTopology, coin_mats: np.ndarray, steps: int,
                  initial: PureState | None, halved: bool = False
                  ) -> Iterator[tuple[np.ndarray, Iterator]]:
    """Per register column block, its columns and walk (sites, tensor)s at
    t = 0..T.  The blocks are [lo, lo+h) + [2**n-lo-h, 2**n-lo), 2h =
    ``_REGISTER_BLOCK``: reversing a block maps each g to ~g = 2**n-1-g,
    so sigma_y^(x n) stays in it.  ``halved`` walks the columns g <
    2**(n-1) alone, in blocks [lo, lo + ``_REGISTER_BLOCK``), for the
    complement symmetry of :func:`_statistics`."""
    size = 2 ** topology.n
    width = _REGISTER_BLOCK if halved else max(1, _REGISTER_BLOCK // 2)
    for lo in range(0, size // 2, width):
        hi = min(lo + width, size // 2)
        columns = np.r_[lo:hi] if halved else np.r_[lo:hi, size - hi:size - lo]
        yield columns, _walk_tensors(topology, coin_mats, steps, initial, columns=columns)


# The config, the series served and the statistics of the last walk.
_last_walk: list = [None, set(), None]


def _statistics(config: WalkConfig, series: str, with_sy: bool = False) -> tuple:
    """(T+1, 2n, 2n) stacks (G, M) of G_t = F F^dag = rho_PC(t), PSD by
    construction, and with ``with_sy`` of M_t = B^T Sy B (B = F^T), F being
    psi(t) as a (2n, 2**n) matrix: sums over column blocks, tr G_t =
    ||psi(t)||^2 checked, F's unwalked rows being 0.  Consecutive distinct
    series on a config share a walk; one served walks again, as does one
    needing M.

    On C_n with 4 | n from the standard start, where the walk steps one
    sublattice (see :func:`_walked_sites`), only the columns g < 2**(n-1)
    are walked.  The CZ signs of ~g = 2**n-1-g are those of g times
    (-1)^c, c being the coin after the shift: -1 once per up-move on the
    cycle.  At site p after t steps from site 0 a path of U up-moves
    has 2U = p + t + kn, and kn/2 is even when 4 | n, so F[r, ~g] = lam_r
    F[r, g] with lam_r = (-1)^((p+t)/2) on the rows r = 2p + c.  With H = f
    f^dag and N = f (f * phase)^T summed over all blocks' walked columns f,
    and phase[~g] = phase[g] at even n, G_t = (1 + lam_r lam_s) H_rs and M_t
    = (lam_r + lam_s) N_rs, weights 0 or +-2 that scale the sums exactly."""
    config_walked, served, stats = _last_walk
    if config == config_walked and series not in served and (stats[1] is not None or not with_sy):
        served.add(series)
        return stats
    topology, n = config.topology, config.topology.n
    grams = np.zeros((config.steps + 1, 2 * n, 2 * n), dtype=complex)
    sy = np.zeros_like(grams) if with_sy else None
    phase = _sigma_y_phase(n) if with_sy else None
    halved = n % 4 == 0 and len(_walked_sites(topology, config.initial)) == 2
    # Pairs each column with itself in N, or with its mirror ~g in M.
    partner = slice(None) if halved else slice(None, None, -1)
    for columns, tensors in _column_walks(topology, build_coin(config.coin), config.steps,
                                          config.initial, halved=halved):
        block_phase = phase[columns] if with_sy else None
        for t, (sites, tensor) in enumerate(tensors):
            k = tensor.shape[-3]
            f = tensor.reshape(2 * k, -1)
            # The walked rows' (k, 2, k, 2) block of G_t and M_t, in place.
            walked = (sites, slice(None), sites)
            grams[t].reshape(n, 2, n, 2)[walked] += (f @ f.conj().T).reshape(k, 2, k, 2)
            if with_sy:
                sy[t].reshape(n, 2, n, 2)[walked] += (
                    f @ (f * block_phase)[:, partner].T).reshape(k, 2, k, 2)
    if halved:
        lam = np.repeat(1 - ((np.arange(config.steps + 1)[:, None] + np.arange(n)) & 2), 2, axis=1)
        grams *= 1 + lam[:, :, None] * lam[:, None]
        if with_sy:
            sy *= lam[:, :, None] + lam[:, None]
    _check_trace(np.trace(grams, axis1=1, axis2=2).real)
    _last_walk[:] = config, {series}, (grams, sy)
    return _last_walk[2]


# The Ritz bound's rounding slack and the ||v||^2 at or below which it falls
# back to F - d/2; see _closeness_values.
_RITZ_SLACK = 1e-10
_RITZ_MIN_RESIDUAL = 1e-6


def _ritz_bound(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """(bound, tr rho) per member of the state rho = Y Y^dag, g = z, over
    the rows of all ``parts``, (Y, z) pairs of (..., m, k) and (..., m, 1)
    arrays.  The bound is min(F - d/2, 1 - d/2 + lam + ``_RITZ_SLACK``),
    with d = tr rho - 1 = ||Y||_F^2 - 1, F = ||c||^2, c = Y^dag z, and lam
    the smaller Ritz value of A = rho - gg^dag on span{g, v}, v = rho g -
    F g, or F - 1 (its Ritz value on g) where ||v||^2 <=
    ``_RITZ_MIN_RESIDUAL``; see :func:`_closeness_values`."""
    # Each part's g^dag, so that Y is never conjugated.
    parts = [(y_rows, z, z.conj().swapaxes(-1, -2)) for y_rows, z in parts]
    trace = overlaps = 0.0
    for y_rows, _, zh in parts:
        trace = trace + np.sum(np.abs(y_rows) ** 2, axis=(-2, -1))
        overlaps = overlaps + (zh @ y_rows)[..., 0, :]
    c = overlaps.conj()[..., None]
    fidelity = np.sum(np.abs(overlaps) ** 2, axis=-1)
    e = s = yh = 0.0
    for y_rows, z, zh in parts:
        v = y_rows @ c - fidelity[..., None, None] * z
        e = e + np.sum(np.abs(v) ** 2, axis=(-2, -1))
        s = s + (zh @ v)[..., 0, 0]
        yh = yh + v.conj().swapaxes(-1, -2) @ y_rows
    # g^dag A v and v^dag A v; then the same for w = v - g s, which is
    # orthogonal to g up to the rounding of s = g^dag v.
    p = (yh @ c)[..., 0, 0].conj() - s
    q = np.sum(np.abs(yh) ** 2, axis=(-2, -1)) - np.abs(s) ** 2
    a11 = fidelity - 1.0
    solvable = e > _RITZ_MIN_RESIDUAL
    norm2 = np.where(solvable, e - np.abs(s) ** 2, 1.0)
    a12 = np.abs(p - s * a11) / np.sqrt(norm2)
    a22 = (q - 2.0 * (s.conj() * p).real + np.abs(s) ** 2 * a11) / norm2
    low = np.where(solvable, 0.5 * (a11 + a22) - np.hypot(0.5 * (a11 - a22), a12), a11)
    half_defect = 0.5 * (trace - 1.0)
    return np.minimum(fidelity - half_defect, 1.0 - half_defect + low + _RITZ_SLACK), trace


def _closeness_values(topology: GraphTopology, coin_mats: np.ndarray, steps: int,
                      initial: PureState | None, targets: tuple[str, ...], *,
                      skip_untied: bool = False) -> np.ndarray:
    """Closeness to each target at t = 0..T of the walks of the (..., 2, 2)
    coins ``coin_mats``, as a (targets, ..., T+1) array, from one blocked
    walk.  Each (target, walk) pair is one member of a (targets, ...)
    stack: per step, R of W = [B, g] is built for every member as R <-
    qr([R; W_block]) in one stacked call per register block, and all
    members are solved in one call in the last block.  B's columns are the
    walked rows of psi(t) alone: psi(t) is 0 on the others, so rho = B
    B^dag is the same without them.  A step's R is dropped once it is
    solved, so a walk in one column block holds no statistics from step to
    step.

    ``skip_untied`` is for sweeps, which need exact values only where a step
    can tie with its walk's maximum.  The test reads the state the solve
    factors: Y = B and z = g in one register block, Y = [R[:, :-1]; B] and
    z = [R[:, -1]; g] over several, R being the held factor of the earlier
    blocks' [B, g], so [Y, z] has the Gram matrix of [B, g].  Let d =
    ||Y||_F^2 - 1 be the trace defect and l the least eigenvalue of A = rho
    - gg^dag, rho = Y Y^dag.  A is PSD minus rank one, so only l can be
    negative, sum |eig A| = d - 2 min(l, 0) and closeness is 1 - d/2 +
    min(l, 0).  Every Ritz value of A bounds l from above.  On span{g} it
    is F - 1, F = ||c||^2 being the fidelity and c = Y^dag z, which gives
    the bound F - d/2 (Fuchs-van de Graaf at d = 0).  On span{g, v}, v =
    rho g - F g, it is the smaller eigenvalue lam of A's 2 x 2 matrix on
    the orthonormal basis {g, w/||w||}, w = v - g (g^dag v), and the bound
    is min(F - d/2, 1 - d/2 + lam + ``_RITZ_SLACK``), from matvecs on the
    rows of [Y, z] (see :func:`_ritz_bound`).  Where ||v||^2 <=
    ``_RITZ_MIN_RESIDUAL``, g is nearly an eigenvector of rho, w would be
    mostly rounding, and the bound is F - d/2.

    Why ``_RITZ_SLACK`` = 1e-10 covers the rounding, with u = 2**-53, m <=
    2n + 1 + ``_REGISTER_BLOCK`` rows and ||Y||_F^2 = 1 + d:

    - v may be any vector: only w must be orthogonal to g.  The computed
      g^dag v is off by at most m u ||v||, so |g^dag w| / ||w|| <= 1.1 m u,
      and lam is within that times ||A|| <= 1 + |d| of a Ritz value.
      |g^dag v| itself is rounding, below 1e-10, so above ||v||^2 = 1e-6
      ||w||^2 = ||v||^2 - |g^dag v|^2 does not cancel.
    - a12 and a22 are inner products of length m and 2n over ||w|| and
      ||w||^2, each off by at most 3 m u.  The 2 x 2 eigenvalue moves by at
      most the sum of its entries' errors (Weyl), and its formula adds a
      few u: lam is within 9 m u <= 1.1e-12 of a Ritz value of the state
      [Y, z] at n <= 12.
    - The solve reads the R of qr([Y, z]), not [Y, z] itself.  Householder
      QR is backward stable, so the two states' closeness, F and d/2
      differ by at most about (2n+1) m u <= 3e-12, whatever the number of
      blocks.

    Together these stay below ``_RITZ_SLACK`` up to ``MAX_SITES``.

    Clipping eigenvalues within ``PSD_CLIP`` of 0 raises a computed value by
    at most slack / 2, slack = (2n+1) ``PSD_CLIP``.  A step whose bound is
    below its walk's best value so far minus ``TIE_ATOL`` and slack is
    provably untied: its last-block QR and eigensolve are skipped and the
    array holds the bound there, which never ties.  Kept steps are solved
    from the same matrices as without the bound, so every solved value is
    unchanged.  Each step's density trace is checked once, in the last
    block: off the bound's ||Y||_F^2 in a sweep, off R's state columns in a
    series.  A target's norm is checked by its :class:`PureState`.
    """
    shape = (len(targets),) + coin_mats.shape[:-2]
    # A target is pure: its factor is its (norm-checked) amplitude column,
    # here a (1, 2**n) row per target that broadcasts over the walks.
    amplitudes = np.stack([_reference_state(target, topology).amplitudes for target in targets])
    amplitudes = amplitudes.reshape(shape[:1] + (1,) * (len(shape) - 1) + (1, -1))
    signs = np.concatenate([np.ones(2 * topology.n), [-1.0]])
    values = np.empty(shape + (steps + 1,))
    best = np.full(shape, -np.inf)
    slack = len(signs) * PSD_CLIP
    # Per step, the R of the blocks walked so far.
    earlier: list = [None] * (steps + 1)
    blocks = list(_column_walks(topology, coin_mats, steps, initial))
    for b, (columns, tensors) in enumerate(blocks, start=1):
        last = b == len(blocks)
        # Contiguous, so that the matmuls of the Ritz bound take one BLAS
        # path, and round alike, whatever the number of targets.
        column = np.ascontiguousarray(amplitudes[..., columns]).swapaxes(-1, -2)
        for t, (_, tensor) in enumerate(tensors):
            rows = 2 * tensor.shape[-3]
            register = tensor.reshape(shape[1:] + (rows, -1)).swapaxes(-1, -2)
            held, earlier[t] = earlier[t], None
            keep = ...
            if skip_untied and last:
                parts = [] if held is None else [(held[..., :rows], held[..., rows:])]
                bound, trace = _ritz_bound(parts + [(register, column)])
                _check_trace(trace)
                values[..., t] = bound
                # Written so that a NaN bound is not kept.
                keep = bound >= best - TIE_ATOL - slack
                if not keep.any():
                    continue
            width = register.shape[-2]
            w = np.concatenate([np.broadcast_to(register, shape + (width, rows))[keep],
                                np.broadcast_to(column, shape + (width, 1))[keep]], axis=-1)
            if held is not None:
                w = np.concatenate([held[keep], w], axis=-2)
            r = np.linalg.qr(w, mode="r")
            if not last:
                earlier[t] = r
                continue
            if not skip_untied:
                _check_trace(np.sum(np.abs(r[..., :rows]) ** 2, axis=(-2, -1)))
            value = 1.0 - _trace_distance_from_r(r, signs[-rows - 1:])
            values[..., t][keep] = value
            if skip_untied:
                best[keep] = np.maximum(best[keep], value)
    return values


def _walker_density(grams: np.ndarray, part: str) -> np.ndarray:
    """rho_part(t), ``part`` being "PC", "P" or "C", from a stack of G_t = rho_PC(t)."""
    if part == "PC":
        return grams
    count, rows, _ = grams.shape
    tensor = grams.reshape(count, rows // 2, 2, rows // 2, 2)
    return np.einsum("tpcqc->tpq" if part == "P" else "tpcpd->tcd", tensor)


def run_metric_series(config: WalkConfig, metric: str) -> MetricSeries:
    """Evaluate one metric at every step of the configured walk.

    The name is parsed and checked before the walk starts.  Every metric
    but closeness is one stacked call on the walk's :func:`_statistics`,
    which runs in blocks of register columns and holds no full state;
    consecutive distinct series on one config share that walk.  Closeness
    walks with its target in :func:`_closeness_values`."""
    m = re.match(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$", metric)
    if not m:
        raise ValueError(f"cannot parse metric name {metric!r}")
    head, arg = m.group(1), (m.group(2) or "").strip()
    n = config.topology.n
    extras: dict = {}

    if head == "entropy":
        if not arg:
            raise ValueError("entropy needs a subsystem label, e.g. entropy(G)")
        label = "".join(sorted(arg, key="PCG".find))
        if label not in _ENTROPY_PARTS:
            raise ValueError(f"bad subsystem label {arg!r}; use a proper subset of P, C, G")
        name = f"entropy({label})"
        values = _entropy_of(_walker_density(_statistics(config, name)[0], _ENTROPY_PARTS[label]))

    elif head == "logneg":
        if arg not in ("", "PC"):
            raise ValueError("only the walker-coin bipartition logneg(PC) is supported")
        name = "logneg(PC)"
        values = _log_negativity_of(_statistics(config, name)[0], (n, 2), (1,))

    elif head == "concurrence":
        if arg:
            raise ValueError("concurrence takes no arguments; use "
                             "concurrence_postselected(mu,nu) for conditioning")
        name = "concurrence"
        values = _concurrence_from_sy(_statistics(config, name, with_sy=True)[1])

    elif head == "concurrence_postselected":
        if not arg:
            raise ValueError("concurrence_postselected needs (mu,nu)")
        mu, nu = parse_angles(arg, 2)
        name = f"concurrence_postselected({_fmt(mu)},{_fmt(nu)})"
        extras = {"mu": mu, "nu": nu}
        # Pi = 1_n (x) <Sigma| projects the coin of the (P, C) rows.
        proj = np.kron(np.eye(n), CoinProjection(mu, nu).ket().conj())
        grams, sy = _statistics(config, name, with_sy=True)
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
        values[kept] = _concurrence_from_sy(proj @ sy[kept] @ proj.T / prob[kept, None, None])

    elif head == "closeness":
        if not arg:
            raise ValueError("closeness needs a reference state, e.g. closeness(graph)")
        name = f"closeness({arg})"
        extras = {"target": arg}
        values = _closeness_values(config.topology, build_coin(config.coin), config.steps,
                                   config.initial, (arg,))[0]

    else:
        raise ValueError(f"unknown metric {metric!r}")
    return MetricSeries(name, tuple(float(v) for v in values),
                        {**_provenance(name, config), **extras})


def _provenance(metric: str, config: WalkConfig) -> dict:
    return {"metric": metric, "graph": config.topology.kind, "n": config.topology.n,
            "theta": config.coin.theta, "phi1": config.coin.phi1, "phi2": config.coin.phi2}


def default_angle_grid() -> tuple[float, ...]:
    """k*pi/20 for k = 0..20: every angle the figure datasets use."""
    return tuple(k * math.pi / 20 for k in range(21))


@dataclass(frozen=True)
class SweepSpec:
    """Exhaustive (theta, phi1, phi2, t) closeness maximization target.  A
    grid left at None is the default (k*pi/20; phi1 = 0); an empty one raises."""

    topology: GraphTopology
    target: str
    thetas: tuple[float, ...] | None = None
    phi1s: tuple[float, ...] | None = None
    phi2s: tuple[float, ...] | None = None
    steps: int = 100

    def __post_init__(self):
        if self.target not in TARGET_KINDS:
            raise ValueError(f"target must be one of {TARGET_KINDS}, got {self.target!r}")
        if self.steps < 1:
            raise ValueError("sweep needs steps >= 1")
        for name, default in (("thetas", default_angle_grid()), ("phi1s", (0.0,)),
                              ("phi2s", default_angle_grid())):
            grid = getattr(self, name)
            if grid is None:
                object.__setattr__(self, name, default)
            elif len(grid) == 0:
                raise ValueError(f"sweep grid {name} must not be empty")

    def coins(self) -> list[CoinParams]:
        """Grid points in lexicographic (theta, phi1, phi2) order."""
        return [CoinParams(th, p1, p2)
                for th in self.thetas for p1 in self.phi1s for p2 in self.phi2s]


@dataclass(frozen=True)
class SweepResult:
    best_value: float
    best_coin: CoinParams
    best_t: int
    table: tuple[tuple[float, float, float, int, float], ...]


# Complex entries of the largest step array a sweep block may walk: 32
# coins of an n = MAX_SITES walk on every site, in full register column
# blocks (12 MiB).
_SWEEP_STEP_ENTRIES = 32 * 2 * MAX_SITES * _REGISTER_BLOCK


def _sweep_blocks(coin_count: int, topology: GraphTopology, steps: int, targets: int,
                  workers: int) -> list[slice]:
    """The coin ranges a sweep walks as one block each: every worker's
    contiguous share of the grid, ceil(K / ``workers``) coins, cut further
    only where a block's (coins, 2|S|, columns) step array, or the (T+1) x
    ``targets`` R's of (2|S|+1)^2 entries per coin that several register
    column blocks hold (see :func:`_closeness_values`), would have more
    than ``_SWEEP_STEP_ENTRIES`` entries, S being the sites walked at a
    step (see :func:`_walked_sites`).  An n = 4 grid is one block per
    worker; C_12 at T = 24 with one target keeps blocks of 64 coins, L_12
    of 32."""
    n = topology.n
    rows = 2 * n // len(_walked_sites(topology, None))
    held = (steps + 1) * targets * (rows + 1) ** 2 if 2 ** n > _REGISTER_BLOCK else 0
    per_coin = max(rows * min(2 ** n, _REGISTER_BLOCK), held)
    size = max(1, min(-(-coin_count // workers), _SWEEP_STEP_ENTRIES // per_coin))
    return [slice(lo, lo + size) for lo in range(0, coin_count, size)]


def _sweep_results(topology: GraphTopology, targets: tuple[str, ...], coins: list[CoinParams],
                   steps: int, jobs: int) -> list[SweepResult]:
    """One :class:`SweepResult` per target: the tie rule of :func:`run_sweep`
    over the closeness at every step of every coin, an upper bound at the
    steps that provably cannot tie (see :func:`_closeness_values`).  The
    coins are walked in the blocks of :func:`_sweep_blocks`, one stacked
    solve per step and block for every target; ``jobs`` worker processes,
    at most one per usable CPU and one per block, share the blocks, and a
    single block runs in this process."""
    workers = _check_jobs(jobs)
    coin_mats = np.stack([build_coin(coin) for coin in coins])
    coin_blocks = [coin_mats[block] for block in
                   _sweep_blocks(len(coins), topology, steps, len(targets), workers)]
    block_values = functools.partial(_closeness_values, topology, steps=steps, initial=None,
                                     targets=targets, skip_untied=True)
    workers = min(workers, len(coin_blocks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            blocks = list(pool.map(block_values, coin_blocks))
    else:
        blocks = [block_values(block) for block in coin_blocks]
    return [_best_of(coins, values) for values in np.concatenate(blocks, axis=1)]


def _best_of(coins: list[CoinParams], values: np.ndarray) -> SweepResult:
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
    return SweepResult(float(per_value[best]), coins[best], int(per_t[best]),
                       tuple((coin.theta, coin.phi1, coin.phi2, int(t), float(value))
                             for coin, value, t in zip(coins, per_value, per_t)))


def _check_jobs(jobs: int) -> int:
    """Worker count for ``jobs``: at most one per CPU this process may run
    on (its affinity mask, where the OS has one); ``jobs < 1`` raises."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)


# OpenBLAS's thread-count setters, under the names numpy's wheels export.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Pool initializer: give a sweep worker one OpenBLAS thread.  A worker
    would otherwise run as many as its parent, one per CPU, so ``jobs``
    workers would oversubscribe the CPUs ``jobs`` times over.  Does nothing
    where numpy ships no OpenBLAS with one of ``_BLAS_THREAD_SETTERS``."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SETTERS:
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def run_sweep(spec: SweepSpec, *, jobs: int = 1) -> SweepResult:
    """Exhaustive grid maximization of closeness to the target state.  The
    result's ``table`` holds each coin's best (theta, phi1, phi2, t, value).

    Values within ``TIE_ATOL`` (1e-12) of each other are ties, so the result
    does not depend on rounding.  Per coin, the reported t is the last step
    of the first run of consecutive steps tied with the coin's maximum: the
    cluster coin holds the cycle's cluster state over steps 23-24 (and again
    71-72), which reports t = 24.  Across coins, every coin tied with the best
    value is a candidate, and the earliest t wins, then the lexicographically
    smallest (theta, phi1, phi2).  The result is independent of evaluation
    order.  Coins are evolved and scored as blocks of stacked states, one
    block per worker's share of the grid, cut where a block would hold more
    than the step array of 32 coins of L_12 (see :func:`_sweep_blocks`);
    ``jobs`` worker processes share the blocks, at most one per usable CPU
    and one per block, each with one OpenBLAS thread.

    Only steps that can tie are solved exactly: where an upper bound on a
    step's closeness, from the coin's fidelity to the target, its trace and
    a Ritz value of rho - gg^dag on span{g, rho g}, proves the step untied
    with the coin's maximum, the sweep's value at that step is the bound,
    which never ties or wins (see :func:`_closeness_values`), so the result
    is unchanged.  The six fig6 sweeps of 11 x 11 coins at T = 24 solve 5307
    of their 18150 (coin, t) steps.

    On the default grid with 0 < theta < pi, up to T = 48 and for n = 3..7
    on both graphs, only C_4 decouples the walker (a pure register at some
    t >= 1): theta = pi/2 with phi2 in {0, pi/2, pi}, first at t = 23.
    """
    return _sweep_results(spec.topology, (spec.target,), spec.coins(), spec.steps, jobs)[0]


# ---------------------------------------------------------------------------
# File output

def _csv_header(p: dict) -> str:
    """The first line of every per-walk CSV: the walk's provenance."""
    return (f"# iqwalk v1, metric={p['metric']}, graph={p['graph']}, n={p['n']}, "
            f"theta={_fmt(p['theta'])}, phi1={_fmt(p['phi1'])}, phi2={_fmt(p['phi2'])}")


def series_csv(series: MetricSeries) -> str:
    lines = [_csv_header(series.provenance), "t,value"]
    lines += [f"{t},{_fmt(v)}" for t, v in zip(series.times, series.values)]
    return "\n".join(lines) + "\n"


def series_json(series: MetricSeries) -> str:
    payload = dict(series.provenance)
    payload["times"] = list(series.times)
    payload["values"] = [float(_fmt(v)) for v in series.values]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def state_csv(config: WalkConfig, state: PureState) -> str:
    lines = [_csv_header(_provenance("state", config)), "index,re,im"]
    lines += [f"{i},{_fmt(a.real)},{_fmt(a.imag)}" for i, a in enumerate(state.amplitudes)]
    return "\n".join(lines) + "\n"


def state_json(config: WalkConfig, state: PureState) -> str:
    # Adding 0.0 turns the -0.0 of a CZ sign flip on a zero amplitude into 0.0.
    amplitudes = state.amplitudes + 0.0
    payload = {
        "graph": config.topology.kind, "n": config.topology.n, "steps": config.steps,
        "theta": config.coin.theta, "phi1": config.coin.phi1, "phi2": config.coin.phi2,
        "dims": list(state.shape.dims),
        "amplitudes": [[a.real, a.imag] for a in amplitudes],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sweep_csv(result: SweepResult) -> str:
    """The per-coin best table, one ``theta,phi1,phi2,t,value`` row per coin."""
    rows = ["theta,phi1,phi2,t,value"]
    rows += [f"{_fmt(th)},{_fmt(p1)},{_fmt(p2)},{t},{_fmt(v)}"
             for th, p1, p2, t, v in result.table]
    return "\n".join(rows) + "\n"


def sweep_json(spec: SweepSpec, result: SweepResult, *, table: bool = False) -> str:
    """The sweep's argmax, and with ``table`` its per-coin best table."""
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
    if table:
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
        targets, graphs = ("ghz", "graph", "w"), ("cycle", "path")
        coins = SweepSpec(GraphTopology("cycle", n), targets[0], steps=steps).coins()
        results = {kind: _sweep_results(GraphTopology(kind, n), targets, coins, steps, jobs)
                   for kind in graphs}
        rows = ["target,graph,delta_tilde,theta,phi1,phi2,t"]
        summary = []
        for i, target in enumerate(targets):
            for kind in graphs:
                res = results[kind][i]
                values = (res.best_value, *res.best_coin.astuple())
                rows.append(",".join([target, kind, *map(_fmt, values), str(res.best_t)]))
                summary.append({"target": target, "graph": kind,
                                "delta_tilde": float(_fmt(res.best_value))})
        files.append(_write(out / "fig6_sweep_summary.csv", "\n".join(rows) + "\n"))
        manifest["sweeps"] = summary
    else:
        graphs, coins, curves = _SERIES_FIGURES[fig_id]
        if fig_id == "fig4":
            manifest["note"] = ("the path's concurrence, float noise (at most 3e-17 at T = 100);"
                                " the cycle's reaches about 0.75: criterion 2 is open")
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
