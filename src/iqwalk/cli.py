"""Command-line interface: evolve, metric, sweep, figure.

Exit codes: 0 on success, 1 on a usage problem (bad flag, unknown metric,
unparseable angle, unwritable path), 2 on a numeric contract violation.

Angles anywhere on the command line accept floats or exact ``k*pi/m``
tokens.  Each flag is declared once, with its type, choices and default.
An optional ``--config file.json`` seeds the subcommand's namespace (keys
are the long options with ``_`` for ``-``); its parser then fills it from
the command line, so explicit flags win.  Each value passes its flag's own
type and choices, and a key no flag takes is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import ContractViolationError
from .runner import (
    FIGURE_IDS,
    SweepSpec,
    TARGET_KINDS,
    _write,
    parse_angle,
    parse_angles,
    reproduce_figure,
    run_metric_series,
    run_sweep,
    series_csv,
    series_json,
    state_csv,
    state_json,
    sweep_csv,
    sweep_json,
)
from .walk import GRAPH_KINDS, CoinParams, GraphTopology, WalkConfig, evolve

# The flags several subcommands share, declared once.
_SHARED_FLAGS = {
    "graph": dict(choices=GRAPH_KINDS, default="cycle",
                  help="graph kind (default %(default)s)"),
    "sites": dict(type=int, default=4, help="site count n (default %(default)s)"),
    "coin": dict(metavar="THETA,PHI1,PHI2", help="coin angles, floats or k*pi/m tokens"),
    "steps": dict(type=int, default=100, help="walk steps T (default %(default)s)"),
    "jobs": dict(type=int, default=1, help="parallel workers (default %(default)s)"),
    "config": dict(metavar="FILE.json", help="JSON file with default values for these flags"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this CLI reserves 2 for
    numeric contract violations, so usage errors exit 1 instead.

    ``flag`` declares ``--name`` and keeps its Action in ``flags``, so that
    a --config value passes the same type and choices as the flag."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.flags: dict[str, argparse.Action] = {}

    def flag(self, name: str, **kwargs) -> None:
        self.flags[name] = self.add_argument("--" + name.replace("_", "-"), **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The iqwalk parser and its subcommand parsers by name, built once."""
    parser = _Parser(prog="iqwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, *names):
        for name in names:
            p.flag(name, **_SHARED_FLAGS[name])

    def add_output_flags(p, default_format="csv"):
        p.flag("out", metavar="PATH", help="output file (default: stdout)")
        p.flag("format", choices=("csv", "json"), default=default_format,
               help="output format (default %(default)s)")

    p = sub.add_parser("evolve", help="run a walk and emit the final state vector")
    p.set_defaults(run=_cmd_evolve)
    add_flags(p, "graph", "sites", "coin", "steps", "config")
    add_output_flags(p)

    p = sub.add_parser("metric", help="evaluate a metric at every step t = 0..T")
    p.set_defaults(run=_cmd_metric)
    add_flags(p, "graph", "sites", "coin", "steps", "config")
    p.flag("metric", metavar="NAME",
           help="entropy(G|C|P|..), logneg(PC), concurrence, "
                "concurrence_postselected(mu,nu), closeness(ghz|w|graph)")
    add_output_flags(p)

    p = sub.add_parser("sweep", help="maximize closeness over a (theta,phi1,phi2,t) grid")
    p.set_defaults(run=_cmd_sweep)
    add_flags(p, "graph", "sites", "steps", "config")
    p.flag("target", choices=TARGET_KINDS, default="graph",
           help="reference state to approach (default %(default)s)")
    p.flag("theta_grid", metavar="A,B,...", help="theta grid values (default k*pi/20, k=0..20)")
    p.flag("phi1_grid", metavar="A,B,...", help="phi1 grid values (default 0)")
    p.flag("phi2_grid", metavar="A,B,...", help="phi2 grid values (default k*pi/20, k=0..20)")
    add_flags(p, "jobs")
    p.flag("table", action="store_true",
           help="include the per-coin best table in JSON output")
    add_output_flags(p, default_format="json")

    p = sub.add_parser("figure", help="write the data files behind one figure")
    p.set_defaults(run=_cmd_figure)
    p.add_argument("fig_id", choices=FIGURE_IDS, metavar="FIG",
                   help="one of " + ", ".join(FIGURE_IDS))
    p.flag("out", default=".", metavar="DIR", help="output directory (default %(default)s)")
    add_flags(p, "steps", "jobs", "config")
    return parser, sub.choices


def _read_config(command: str, parser: _Parser, path: str) -> argparse.Namespace:
    """The values of a --config file, each converted and checked by its flag."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    # A misspelt key must not leave its flag at the default without a word.
    unknown = sorted(set(data) - (parser.flags.keys() - {"config"}))
    if unknown:
        raise ValueError(f"config {path} has keys no {command} flag takes: "
                         f"{', '.join(map(repr, unknown))}")
    return argparse.Namespace(**{k: _config_value(parser.flags[k], v) for k, v in data.items()})


def _config_value(action: argparse.Action, value):
    # Each value fails as its flag would, before any walk runs: int() of the
    # text (so 2.7 and true fail, as --steps 2.7 does), no "false" that reads
    # as a true switch, and no empty grid that reads as the default grid.
    key = action.dest
    if action.type is int:
        try:
            value = int(str(value))
        except ValueError:
            raise ValueError(f"config {key} must be an integer, got {value!r}") from None
    elif action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"config {key} must be true or false, got {value!r}")
    elif key.endswith("_grid"):
        if not isinstance(value, (str, list)):
            raise ValueError(f"config {key} must be a string or a list, got {value!r}")
        if value == []:
            raise ValueError(f"config {key} must not be empty")
    elif not isinstance(value, str):
        raise ValueError(f"config {key} must be a string, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config {key} must be one of {action.choices}, got {value!r}")
    return value


def _walk_config(args) -> WalkConfig:
    if args.coin is None:
        raise ValueError("a coin is required: --coin THETA,PHI1,PHI2")
    coin = CoinParams(*parse_angles(args.coin, 3))
    return WalkConfig(GraphTopology(args.graph, args.sites), coin, args.steps)


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        _write(Path(out), text)


def _cmd_evolve(args) -> int:
    walk = _walk_config(args)
    final = evolve(walk)
    text = state_json(walk, final) if args.format == "json" else state_csv(walk, final)
    _emit(text, args.out)
    return 0


def _cmd_metric(args) -> int:
    walk = _walk_config(args)
    if args.metric is None:
        raise ValueError("a metric is required: --metric NAME")
    series = run_metric_series(walk, args.metric)
    _emit(series_json(series) if args.format == "json" else series_csv(series), args.out)
    return 0


def _grid(value: str | list | None) -> tuple[float, ...] | None:
    if value is None:
        return None
    if isinstance(value, list):
        return tuple(parse_angle(v) for v in value)
    return tuple(parse_angle(v) for v in value.split(","))


def _cmd_sweep(args) -> int:
    spec = SweepSpec(GraphTopology(args.graph, args.sites), args.target,
                     thetas=_grid(args.theta_grid),
                     phi1s=_grid(args.phi1_grid),
                     phi2s=_grid(args.phi2_grid),
                     steps=args.steps)
    result = run_sweep(spec, jobs=args.jobs)
    _emit(sweep_csv(result) if args.format == "csv"
          else sweep_json(spec, result, table=args.table), args.out)
    return 0


def _cmd_figure(args) -> int:
    for path in reproduce_figure(args.fig_id, args.out, steps=args.steps, jobs=args.jobs):
        print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The config's values seed the namespace, and the subcommand's
            # parser fills it from its arguments: a flag given there wins.
            command = commands[args.command]
            config = _read_config(args.command, command, args.config)
            args = command.parse_args(argv[argv.index(args.command) + 1:], config)
        return args.run(args)
    except ContractViolationError as exc:
        print(f"iqwalk: numeric contract violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"iqwalk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
