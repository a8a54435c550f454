"""Command-line interface: evolve, metric, sweep, figure.

Exit codes: 0 on success, 1 on a usage problem (bad flag, unknown metric,
unparseable angle, unwritable path), 2 on a numeric contract violation.

Angles anywhere on the command line accept floats or exact ``k*pi/m``
tokens.  An optional ``--config file.json`` supplies defaults for any flag
of the subcommand (same names as the long options, with ``_`` for ``-``);
explicit flags win, and a key no flag takes is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ContractViolationError
from .runner import (
    FIGURE_IDS,
    SweepSpec,
    TARGET_KINDS,
    _fmt,
    parse_angle,
    parse_angles,
    reproduce_figure,
    run_metric_series,
    run_sweep,
    series_csv,
    series_json,
    sweep_json,
)
from .walk import CoinParams, GraphTopology, WalkConfig, evolve

_FORMATS = ("csv", "json")
_INT_KEYS = ("sites", "steps", "jobs")
_STR_KEYS = ("graph", "coin", "metric", "postselect", "target", "out")
_GRID_KEYS = ("theta_grid", "phi1_grid", "phi2_grid")
# The flags several subcommands share, declared once.
_SHARED_FLAGS = {
    "graph": dict(choices=("path", "cycle"), help="graph kind (default cycle)"),
    "sites": dict(type=int, help="site count n (default 4)"),
    "coin": dict(metavar="THETA,PHI1,PHI2", help="coin angles, floats or k*pi/m tokens"),
    "steps": dict(type=int, help="walk steps T (default 100)"),
    "jobs": dict(type=int, help="parallel workers (default 1)"),
    "config": dict(metavar="FILE.json", help="JSON file with default values for these flags"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this CLI reserves 2 for
    numeric contract violations, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="iqwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, *names):
        for name in names:
            p.add_argument("--" + name, default=None, **_SHARED_FLAGS[name])

    def add_output_flags(p, default_format="csv"):
        p.add_argument("--out", default=None, metavar="PATH",
                       help="output file (default: stdout)")
        p.add_argument("--format", choices=_FORMATS, default=None,
                       help=f"output format (default {default_format})")

    p = sub.add_parser("evolve", help="run a walk and emit the final state vector")
    add_flags(p, "graph", "sites", "coin", "steps", "config")
    add_output_flags(p)

    p = sub.add_parser("metric", help="evaluate a metric at every step t = 0..T")
    add_flags(p, "graph", "sites", "coin", "steps", "config")
    p.add_argument("--metric", default=None, metavar="NAME",
                   help="entropy(G|C|P|..), logneg(PC), concurrence, "
                        "concurrence_postselected(mu,nu), closeness(ghz|w|graph)")
    p.add_argument("--postselect", default=None, metavar="MU,NU",
                   help="coin projection angles for concurrence_postselected")
    p.add_argument("--target", choices=TARGET_KINDS, default=None,
                   help="reference state for closeness")
    add_output_flags(p)

    p = sub.add_parser("sweep", help="maximize closeness over a (theta,phi1,phi2,t) grid")
    add_flags(p, "graph", "sites", "steps", "config")
    p.add_argument("--target", choices=TARGET_KINDS, default=None,
                   help="reference state to approach (default graph)")
    p.add_argument("--theta-grid", default=None, metavar="A,B,...",
                   help="theta grid values (default k*pi/20, k=0..20)")
    p.add_argument("--phi1-grid", default=None, metavar="A,B,...",
                   help="phi1 grid values (default 0)")
    p.add_argument("--phi2-grid", default=None, metavar="A,B,...",
                   help="phi2 grid values (default k*pi/20, k=0..20)")
    add_flags(p, "jobs")
    p.add_argument("--table", action="store_true",
                   help="include the per-coin best table in JSON output")
    add_output_flags(p, default_format="json")

    p = sub.add_parser("figure", help="write the data files behind one figure")
    p.add_argument("fig_id", choices=FIGURE_IDS, metavar="FIG",
                   help="one of " + ", ".join(FIGURE_IDS))
    p.add_argument("--out", default=None, metavar="DIR", help="output directory (default .)")
    add_flags(p, "steps", "jobs", "config")
    return parser


def _load_config(args: argparse.Namespace) -> dict:
    path = args.config
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    # Values for the typed flags pass those flags' checks: int() of the text
    # (so 2.7 and true fail, as --steps 2.7 does) and the --format choices.
    for key in _INT_KEYS:
        if key in data:
            try:
                data[key] = int(str(data[key]))
            except ValueError:
                raise ValueError(f"config {key} must be an integer, "
                                 f"got {data[key]!r}") from None
    if "format" in data and data["format"] not in _FORMATS:
        raise ValueError(f"config format must be one of {_FORMATS}, got {data['format']!r}")
    # The other values must have their flag's JSON type, so that "false"
    # is not a true --table and a number fails here, not after the walk.
    if "table" in data and not isinstance(data["table"], bool):
        raise ValueError(f"config table must be true or false, got {data['table']!r}")
    for key in _STR_KEYS:
        if key in data and not isinstance(data[key], str):
            raise ValueError(f"config {key} must be a string, got {data[key]!r}")
    for key in _GRID_KEYS:
        if key in data and not isinstance(data[key], (str, list)):
            raise ValueError(f"config {key} must be a string or a list, got {data[key]!r}")
        # An empty grid fails as --theta-grid "" does, not as the default grid.
        if data.get(key) == []:
            raise ValueError(f"config {key} must not be empty")
    # A misspelt key must not leave its flag at the default without a word.
    allowed = set(vars(args)) - {"command", "config", "fig_id"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"config {path} has keys no {args.command} flag takes: "
                         f"{', '.join(map(repr, unknown))}")
    return data


def _resolve(args: argparse.Namespace, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    return value


def _walk_config(args, config) -> WalkConfig:
    graph = _resolve(args, config, "graph", "cycle")
    sites = _resolve(args, config, "sites", 4)
    steps = _resolve(args, config, "steps", 100)
    coin_text = _resolve(args, config, "coin")
    if coin_text is None:
        raise ValueError("a coin is required: --coin THETA,PHI1,PHI2")
    coin = CoinParams(*parse_angles(coin_text, 3))
    return WalkConfig(GraphTopology(graph, sites), coin, steps)


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        path = Path(out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _cmd_evolve(args) -> int:
    config = _load_config(args)
    walk = _walk_config(args, config)
    final = evolve(walk)
    fmt = _resolve(args, config, "format", "csv")
    p = walk.topology
    if fmt == "json":
        payload = {
            "graph": p.kind, "n": p.n, "steps": walk.steps,
            "theta": walk.coin.theta, "phi1": walk.coin.phi1, "phi2": walk.coin.phi2,
            "dims": list(final.shape.dims),
            "amplitudes": [[a.real, a.imag] for a in final.amplitudes],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        header = (f"# iqwalk v1, metric=state, graph={p.kind}, n={p.n}, "
                  f"theta={_fmt(walk.coin.theta)}, phi1={_fmt(walk.coin.phi1)}, "
                  f"phi2={_fmt(walk.coin.phi2)}")
        rows = [f"{i},{_fmt(a.real)},{_fmt(a.imag)}"
                for i, a in enumerate(final.amplitudes)]
        text = "\n".join([header, "index,re,im"] + rows) + "\n"
    _emit(text, _resolve(args, config, "out"))
    return 0


def _cmd_metric(args) -> int:
    config = _load_config(args)
    walk = _walk_config(args, config)
    metric = _resolve(args, config, "metric")
    if metric is None:
        raise ValueError("a metric is required: --metric NAME")
    # Bare names can take their argument from the dedicated flags.
    if "(" not in metric:
        postselect = _resolve(args, config, "postselect")
        target = _resolve(args, config, "target")
        if metric == "concurrence_postselected" and postselect:
            metric = f"concurrence_postselected({postselect})"
        elif metric == "closeness" and target:
            metric = f"closeness({target})"
    series = run_metric_series(walk, metric)
    fmt = _resolve(args, config, "format", "csv")
    text = series_json(series) if fmt == "json" else series_csv(series)
    _emit(text, _resolve(args, config, "out"))
    return 0


def _grid(args, config, key: str) -> tuple[float, ...]:
    text = _resolve(args, config, key)
    if text is None:
        return ()
    if isinstance(text, (list, tuple)):
        return tuple(parse_angle(v) for v in text)
    return tuple(parse_angle(v) for v in str(text).split(","))


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    graph = _resolve(args, config, "graph", "cycle")
    sites = _resolve(args, config, "sites", 4)
    steps = _resolve(args, config, "steps", 100)
    target = _resolve(args, config, "target", "graph")
    jobs = _resolve(args, config, "jobs", 1)
    keep_table = args.table or config.get("table", False)
    fmt = _resolve(args, config, "format", "json")

    spec = SweepSpec(GraphTopology(graph, sites), target,
                     thetas=_grid(args, config, "theta_grid"),
                     phi1s=_grid(args, config, "phi1_grid"),
                     phi2s=_grid(args, config, "phi2_grid"),
                     steps=steps)
    result = run_sweep(spec, jobs=jobs, keep_table=keep_table or fmt == "csv")
    if fmt == "csv":
        rows = ["theta,phi1,phi2,t,value"]
        rows += [f"{_fmt(th)},{_fmt(p1)},{_fmt(p2)},{t},{_fmt(v)}"
                 for th, p1, p2, t, v in result.table]
        text = "\n".join(rows) + "\n"
    else:
        text = sweep_json(spec, result)
    _emit(text, _resolve(args, config, "out"))
    return 0


def _cmd_figure(args) -> int:
    config = _load_config(args)
    steps = _resolve(args, config, "steps", 100)
    jobs = _resolve(args, config, "jobs", 1)
    out = _resolve(args, config, "out", ".")
    written = reproduce_figure(args.fig_id, out, steps=steps, jobs=jobs)
    for path in written:
        print(path)
    return 0


_COMMANDS = {
    "evolve": _cmd_evolve,
    "metric": _cmd_metric,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ContractViolationError as exc:
        print(f"iqwalk: numeric contract violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"iqwalk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
