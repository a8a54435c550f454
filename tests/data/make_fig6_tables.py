"""Regenerate fig6_<target>_<graph>.json: the six fig6 sweeps with their tables.

Run from a checkout as ``PYTHONPATH=src python tests/data/make_fig6_tables.py``.
Each file is what ``iqwalk sweep --table`` writes for one (target, graph) row
of fig6 on the benchmark's grid: every other point of the paper's k*pi/20
grid for theta and phi2 (11 x 11 coins), phi1 = 0 and T = 24.  The files pin
each sweep's argmax and per-coin table, so regenerate them only when a
change of the physics is intended.
"""

import sys
from pathlib import Path

from iqwalk.cli import main
from iqwalk.runner import TARGET_KINDS
from iqwalk.walk import GRAPH_KINDS

GRID = ",".join(f"{k}*pi/20" for k in range(0, 21, 2))

if __name__ == "__main__":
    for target in TARGET_KINDS:
        for graph in GRAPH_KINDS:
            path = Path(__file__).with_name(f"fig6_{target}_{graph}.json")
            argv = ["sweep", "--target", target, "--graph", graph, "--steps", "24",
                    "--theta-grid", GRID, "--phi2-grid", GRID, "--table", "--out", str(path)]
            if main(argv):
                sys.exit(f"iqwalk {' '.join(argv)} failed")
            print(f"wrote {path}", file=sys.stderr)
