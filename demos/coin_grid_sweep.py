"""Which coin brings the register closest to a target entangled state?

Sweeps the coin angles over a (theta, phi2) grid (phi1 = 0) and reports
the best closeness 1 - (trace distance) achieved within the first 100
steps, for GHZ, W and graph-state targets on both graphs.  The cycle +
graph-state combination is the only one that reaches 1 exactly.

Pass --full to use the full 21x21 production grid; the default is a
coarser 11x11 grid that still contains the optimum.
"""

import math
import sys

from iqwalk import GraphTopology, SweepSpec, run_sweep

full = "--full" in sys.argv
grid = tuple(k * math.pi / 20 for k in range(21)) if full \
    else tuple(k * math.pi / 10 for k in range(11))
print(f"grid: {len(grid)} values of theta x {len(grid)} of phi2, phi1 = 0\n")

print(f"{'target':8s} {'graph':6s} {'best':>10s}   argmax")
for target in ("graph", "ghz", "w"):
    for kind in ("cycle", "path"):
        spec = SweepSpec(GraphTopology(kind, 4), target,
                         thetas=grid, phi2s=grid, steps=100)
        res = run_sweep(spec)
        coin = res.best_coin
        print(f"{target:8s} {kind:6s} {res.best_value:10.6f}   "
              f"theta={coin.theta:.4f} phi2={coin.phi2:.4f} t={res.best_t}")

print("\nThe graph-state target on the cycle hits closeness 1.0 at "
      "(pi/2, 0, pi/2), t=24; GHZ and W are never approached.")
