"""The benchmark's workloads: inputs made from a seed, the timed body, and
the checks on what the body produced.

Each workload exposes ``build(seed, out_dir)`` (the set-up a user pays
before the first call), ``body(inputs)`` (the timed part), and
``check(inputs, raw, reference)``, which returns the number of operations
attempted and a ``{operation: [problem, ...]}`` dict of the ones that
failed.  An operation is one sweep (fig6) or one metric series.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import iqwalk
import iqwalk.cli

DEFAULT_SEED = 0
# Seeds whose outputs are stored in snapshot/ and compared value by value.
SNAPSHOT_SEEDS = tuple(range(11))
SNAPSHOT_ATOL = 1e-6
# Slack on the physical range checks.
RANGE_EPS = 1e-9
# Walk steps of every workload: the headline's t, the shortest walk that
# still reaches it.
STEPS = 24

# The headline of the paper: the 4-cycle register passes exactly through the
# cluster state at t = 24 for the coin (pi/2, 0, pi/2).
HEADLINE = ("graph", "cycle")
HEADLINE_ARGMAX = (math.pi / 2, 0.0, math.pi / 2, 24)
EXACT = 1 - 1e-9
FIG6_ROWS = [(target, graph) for target in ("ghz", "graph", "w") for graph in ("cycle", "path")]


def grid_coin(rng: random.Random) -> iqwalk.CoinParams:
    """A coin from the k*pi/20 grid with phi1 = 0.  theta is kept off 0 and
    pi: there the coin never mixes |0> and |1>, every coin post-selection of
    one outcome has zero probability and the run skips most of its work,
    which would make run time depend on the seed."""
    theta = rng.randint(1, 19) * math.pi / 20
    phi2 = rng.randint(0, 20) * math.pi / 20
    return iqwalk.CoinParams(theta, 0.0, phi2)


class Fig6:
    name = "fig6"
    seeded = False
    why = ("The paper's six fig6 grid sweeps through the CLI: tens of thousands "
           "of tiny eigensolves at n = 4, so per-call overhead, repeated "
           "validation and re-evolution dominate.")

    def build(self, seed: int, out_dir: Path) -> dict[str, list[str]]:
        """One ``iqwalk sweep`` command line per (target, graph) row of fig6.

        The fixed coin grid is the point of this workload, so the seed does
        not change it.  The grid is every other point of the paper's k*pi/20
        grid (11 x 11 coins, the same floats) and T = STEPS, the headline's
        t: this keeps all six rows and the headline while one pass takes a
        few seconds, so a run can repeat it.
        """
        grid = ",".join(f"{k}*pi/20" for k in range(0, 21, 2))
        return {f"{target}/{graph}": [
                    "sweep", "--target", target, "--graph", graph, "--steps", str(STEPS),
                    "--theta-grid", grid, "--phi2-grid", grid,
                    "--out", str(out_dir / "fig6" / f"{target}_{graph}.json")]
                for target, graph in FIG6_ROWS}

    def coins(self, seed: int) -> list:
        return []

    def reset(self, inputs) -> None:
        for argv in inputs.values():
            Path(argv[-1]).unlink(missing_ok=True)

    def body(self, inputs) -> dict[str, int]:
        return {key: iqwalk.cli.main(argv) for key, argv in inputs.items()}

    def extract(self, inputs, raw) -> dict:
        """The JSON result of each sweep that exited with 0."""
        rows = {}
        for key, argv in inputs.items():
            path = Path(argv[-1])
            if raw[key] == 0 and path.exists():
                payload = json.loads(path.read_text())
                rows[key] = {"delta_tilde": payload["delta_tilde"], **payload["argmax"]}
        return rows

    def snapshot(self, inputs, raw) -> dict:
        return {key: row["delta_tilde"] for key, row in self.extract(inputs, raw).items()}

    def check(self, inputs, raw, reference) -> tuple[int, dict]:
        rows = self.extract(inputs, raw)
        problems: dict = {}
        for key in inputs:
            p = []
            row = rows.get(key)
            if row is None:
                p.append(f"no sweep result (CLI exit code {raw[key]})")
            else:
                delta = row["delta_tilde"]
                if not 0.0 <= delta <= 1.0:
                    p.append(f"delta_tilde {delta} outside [0, 1]")
                if key == "/".join(HEADLINE):
                    argmax = (row["theta"], row["phi1"], row["phi2"], row["t"])
                    if delta < EXACT:
                        p.append(f"headline delta_tilde {delta} < 1 - 1e-9")
                    if any(abs(a - b) > 1e-9 for a, b in zip(argmax[:3], HEADLINE_ARGMAX[:3])) \
                            or argmax[3] != HEADLINE_ARGMAX[3]:
                        p.append(f"headline argmax {argmax} != (pi/2, 0, pi/2, 24)")
                elif delta >= EXACT:
                    p.append(f"delta_tilde {delta} reaches 1 off the headline row")
                # The argmax of the other rows is not checked: it can tie to
                # print precision between neighbouring t.
                if reference is not None and abs(delta - reference[key]) > SNAPSHOT_ATOL:
                    p.append(f"delta_tilde {delta} differs from snapshot {reference[key]}")
            if p:
                problems[key] = p
        return len(inputs), problems


@dataclass(frozen=True)
class SeriesOp:
    key: str
    config: iqwalk.WalkConfig
    metric: str


def _bounds(metric: str, n: int) -> tuple[float, float]:
    """Physical range of each metric, valid for every coin."""
    if metric == "entropy(C)":
        return 0.0, 1.0
    if metric == "entropy(P)":
        return 0.0, math.log2(n)
    if metric in ("entropy(PC)", "entropy(G)"):
        # Schmidt rank across PC | G is at most dim(PC) = 2n.
        return 0.0, math.log2(2 * n)
    if metric == "logneg(PC)":
        # At most log2 of the smaller side, the coin qubit.
        return 0.0, 1.0
    # concurrence, concurrence_postselected(...), closeness(...)
    return 0.0, 1.0


class Series:
    """``run_metric_series`` plus ``series_csv`` for every (graph, coin,
    metric) combination."""

    seeded = True

    def __init__(self, name: str, why: str, graphs: tuple[str, ...], n: int,
                 metrics: tuple[str, ...], default_coins: tuple):
        self.name, self.why = name, why
        self.graphs, self.n, self.metrics = graphs, n, metrics
        self.default_coins = default_coins

    def coins(self, seed: int) -> list:
        if seed == DEFAULT_SEED:
            return list(self.default_coins)
        rng = random.Random(f"{self.name}:{seed}")
        return [grid_coin(rng) for _ in self.default_coins]

    def build(self, seed: int, out_dir: Path) -> list[SeriesOp]:
        ops = []
        for graph in self.graphs:
            topology = iqwalk.GraphTopology(graph, self.n)
            for i, coin in enumerate(self.coins(seed), start=1):
                config = iqwalk.WalkConfig(topology, coin, STEPS)
                ops += [SeriesOp(f"{graph}/coin{i}/{metric}", config, metric)
                        for metric in self.metrics]
        return ops

    def reset(self, inputs) -> None:
        pass

    def body(self, inputs: list[SeriesOp]) -> dict:
        out = {}
        for op in inputs:
            try:
                out[op.key] = iqwalk.series_csv(iqwalk.run_metric_series(op.config, op.metric))
            except Exception as exc:  # reported as a failed operation by check()
                out[op.key] = exc
        return out

    def extract(self, inputs, raw) -> dict:
        """Values of each series, parsed back from its CSV text."""
        values = {}
        for op in inputs:
            text = raw[op.key]
            if isinstance(text, Exception):
                continue
            rows = text.splitlines()[2:]
            parsed = [row.split(",") for row in rows]
            if [int(t) for t, _ in parsed] == list(range(STEPS + 1)):
                values[op.key] = [float(v) for _, v in parsed]
        return values

    def snapshot(self, inputs, raw) -> dict:
        return self.extract(inputs, raw)

    def check(self, inputs, raw, reference) -> tuple[int, dict]:
        values = self.extract(inputs, raw)
        problems: dict = {}
        for op in inputs:
            p = []
            if isinstance(raw[op.key], Exception):
                p.append(f"raised {raw[op.key]!r}")
            elif op.key not in values:
                p.append("CSV rows are not t = 0..T")
            else:
                lo, hi = _bounds(op.metric, self.n)
                bad = [(t, v) for t, v in enumerate(values[op.key])
                       if not lo - RANGE_EPS <= v <= hi + RANGE_EPS]
                if bad:
                    p.append(f"{len(bad)} values outside [{lo}, {hi}], first {bad[0]}")
                if reference is not None:
                    ref = reference[op.key]
                    diff = max(abs(a - b) for a, b in zip(values[op.key], ref))
                    if diff > SNAPSHOT_ATOL:
                        p.append(f"differs from snapshot by {diff:.3e}")
            if p:
                problems[op.key] = p
        return len(inputs), problems


WORKLOADS = {
    "fig6": Fig6(),
    "register_n8": Series(
        "register_n8",
        "fig4/5/7-style register metrics on the 8-site path: 256 x 256 dense "
        "eigensolves are most of the time, the walk almost none.",
        ("path",), 8,
        ("concurrence", "concurrence_postselected(0,0)", "concurrence_postselected(pi/2,0)",
         "closeness(graph)", "entropy(G)"),
        (iqwalk.STANDARD_COINS[2],)),
    "walker_n12": Series(
        "walker_n12",
        "Walker and coin reductions at n = 12 on both graphs: few calls on large "
        "states, so the step kernel and the held trajectories dominate.",
        ("path", "cycle"), 12,
        ("entropy(PC)", "entropy(C)", "entropy(P)", "logneg(PC)"),
        iqwalk.STANDARD_COINS),
}
