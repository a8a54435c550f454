"""Acceptance gate: every criterion as one test, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are pinned here; nothing is deferred to later calibration.
"""

import itertools
import math
import time

import numpy as np

from iqwalk import (
    CoinParams,
    CoinProjection,
    GraphTopology,
    STANDARD_COINS,
    SweepSpec,
    WalkConfig,
    ZeroProbabilityError,
    build_coin,
    build_shift,
    density_factor,
    evolve,
    graph_state,
    n_concurrence,
    postselect_coin,
    reference_density,
    run_sweep,
    stabilizer_expectations,
    trace_distance,
    trajectory,
    unconditioned_vertex_state,
    von_neumann_entropy,
)
from iqwalk.walk import interaction_diagonal
from oracles import (
    concurrence_direct,
    partial_trace,
    partial_trace_loops,
    random_density,
    wootters_concurrence,
)

CYCLE4 = GraphTopology("cycle", 4)
PATH4 = GraphTopology("path", 4)
CLUSTER_COIN = CoinParams(math.pi / 2, 0.0, math.pi / 2)


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def _trajectory(topology, coin, steps=100):
    return list(trajectory(WalkConfig(topology, coin, steps)))


def test_criterion_1_perfect_cluster_state():
    """Cycle C4, coin (pi/2, 0, pi/2), 24 steps: the register is exactly the
    4-cycle cluster state, trace distance <= 1e-9, in under a second."""
    start = time.perf_counter()
    final = evolve(WalkConfig(CYCLE4, CLUSTER_COIN, 24))
    delta = trace_distance(unconditioned_vertex_state(final),
                           density_factor(reference_density("graph", CYCLE4)))
    elapsed = time.perf_counter() - start
    _report(1, "perfect cluster state at t=24",
            delta <= 1e-9 and elapsed < 1.0,
            f"trace distance {delta:.3e}, {elapsed:.3f} s")


def test_criterion_2_cycle_concurrence_null():
    """Cycle C4, all four standard coins: unconditioned register
    4-concurrence <= 1e-9 at every t in [0, 100].

    Known red.  Under the operator definitions pinned by criterion 1, the
    cyclic walk's unconditioned 4-concurrence is nonzero at isolated
    instants (first burst near t=6, peaks 0.63..0.75 for these coins).
    This was cross-checked against an independent dense implementation and
    is invariant under every step-ordering and shift-direction convention,
    and under a delocalized initial walker.  The identically-null series
    occurs on the path graph instead (see test_conditioning.py), whose
    conditional gains criterion 3 verifies.  The bound is asserted anyway
    so the discrepancy stays visible.
    """
    start = time.perf_counter()
    worst = 0.0
    for coin in STANDARD_COINS:
        values = [n_concurrence(unconditioned_vertex_state(s), 4)
                  for s in _trajectory(CYCLE4, coin)]
        worst = max(worst, max(values))
    elapsed = time.perf_counter() - start
    _report(2, "cycle concurrence identically null",
            worst <= 1e-9 and elapsed < 30.0,
            f"max concurrence {worst:.3e}, {elapsed:.1f} s")


def test_criterion_3_postselection_gain_on_path():
    """Path L4, each standard coin: the best conditional concurrence under
    each computational-basis coin projection strictly exceeds the
    unconditioned maximum, and the two projections behave alike (their
    maxima agree within a factor of two)."""
    ok = True
    details = []
    for coin in STANDARD_COINS:
        states = _trajectory(PATH4, coin)
        unconditioned = max(n_concurrence(unconditioned_vertex_state(s), 4)
                            for s in states)
        best = {}
        for mu in (0.0, math.pi / 2):
            values = []
            for state in states:
                try:
                    factor, _ = postselect_coin(state, CoinProjection(mu, 0.0))
                    values.append(n_concurrence(factor, 4))
                except ZeroProbabilityError:
                    values.append(0.0)
            best[mu] = max(values)
        gain = all(best[mu] > unconditioned + 1e-6 for mu in best)
        ratio = max(best.values()) / min(best.values())
        ok = ok and gain and ratio <= 2.0
        details.append(f"uncond {unconditioned:.3f} vs mu=0 {best[0.0]:.3f} / "
                       f"mu=pi/2 {best[math.pi / 2]:.3f}")
    _report(3, "conditioning gain on the path", ok, "; ".join(details))


def test_criterion_4_sweep_argmax():
    """Default pi/20 grid, T=100.  Targeting the cycle graph state finds
    delta-tilde = 1 at coin (pi/2, 0, pi/2), t = 24; GHZ and W targets stay
    strictly below 1 on both topologies.  Single-threaded under 10 min."""
    start = time.perf_counter()
    cluster = run_sweep(SweepSpec(CYCLE4, "graph"))
    hit = (cluster.best_value >= 1 - 1e-9
           and abs(cluster.best_coin.theta - math.pi / 2) < 1e-12
           and abs(cluster.best_coin.phi1) < 1e-12
           and abs(cluster.best_coin.phi2 - math.pi / 2) < 1e-12
           and cluster.best_t == 24)
    below = {}
    for target in ("ghz", "w"):
        for topology in (CYCLE4, PATH4):
            res = run_sweep(SweepSpec(topology, target))
            below[(target, topology.kind)] = res.best_value
    elapsed = time.perf_counter() - start
    others_ok = all(v < 1 - 1e-9 for v in below.values())
    _report(4, "grid sweep argmax",
            hit and others_ok and elapsed < 600.0,
            f"cluster {cluster.best_value:.12f} at "
            f"(theta={cluster.best_coin.theta:.6f}, phi2={cluster.best_coin.phi2:.6f}, "
            f"t={cluster.best_t}); ghz/w maxima "
            + ", ".join(f"{k}={v:.3f}" for k, v in below.items())
            + f"; {elapsed:.0f} s")


def test_criterion_5_entropy_bounds_and_schmidt_symmetry():
    """All standard-coin runs on both graphs: coin entropy <= 1, walker
    <= 2, register <= 3 (all +1e-9), and every reduction's entropy matches
    its complement's to 1e-9 at every step."""
    bounds = {(1,): 1.0, (0,): 2.0, (2, 3, 4, 5): 3.0}
    worst_excess, worst_asym = -1.0, 0.0
    for topology in (CYCLE4, PATH4):
        for coin in STANDARD_COINS:
            for state in _trajectory(topology, coin):
                for keep, bound in bounds.items():
                    e = von_neumann_entropy(density_factor(state.reduced(keep)))
                    complement = tuple(i for i in range(6) if i not in keep)
                    e_c = von_neumann_entropy(density_factor(state.reduced(complement)))
                    worst_excess = max(worst_excess, e - bound)
                    worst_asym = max(worst_asym, abs(e - e_c))
    _report(5, "entropy bounds and Schmidt symmetry",
            worst_excess <= 1e-9 and worst_asym <= 1e-9,
            f"max bound excess {worst_excess:.2e}, max asymmetry {worst_asym:.2e}")


def test_criterion_6_oracle_suites():
    """Brute-force cross-checks: partial trace against explicit index
    summation (1e-12, every 2/3-subsystem shape with local dims 2..4),
    the concurrence's factor route against direct diagonalization of
    rho.Sy.rho*.Sy (1e-8), and the two-qubit case against the closed-form
    concurrence (1e-8, 20 states)."""
    rng = np.random.default_rng(606)
    worst_pt = 0.0
    for k in (2, 3):
        for dims in itertools.product((2, 3, 4), repeat=k):
            rho = random_density(int(np.prod(dims)), rng)
            for r in range(1, k + 1):
                for keep in itertools.combinations(range(k), r):
                    diff = np.abs(partial_trace(rho, dims, keep)
                                  - partial_trace_loops(rho, dims, keep)).max()
                    worst_pt = max(worst_pt, diff)

    worst_conc = 0.0
    for num_qubits in (2, 3, 4):
        for _ in range(10):
            rho = random_density(2 ** num_qubits, rng)
            worst_conc = max(worst_conc, abs(n_concurrence(density_factor(rho), num_qubits)
                                             - concurrence_direct(rho, num_qubits)))

    worst_wootters = 0.0
    for _ in range(20):
        rho = random_density(4, rng)
        worst_wootters = max(worst_wootters,
                             abs(n_concurrence(density_factor(rho), 2)
                                 - wootters_concurrence(rho)))

    _report(6, "oracle suites",
            worst_pt <= 1e-12 and worst_conc <= 1e-8 and worst_wootters <= 1e-8,
            f"partial trace {worst_pt:.2e}, concurrence {worst_conc:.2e}, "
            f"wootters {worst_wootters:.2e}")


def _random_coins(count, seed=777):
    rng = np.random.default_rng(seed)
    return [CoinParams(*a) for a in zip(rng.uniform(0, math.pi, count),
                                        rng.uniform(0, 2 * math.pi, count),
                                        rng.uniform(0, 2 * math.pi, count))]


def _two_sparse_unitarity_defect(u):
    """max |U^dag U - 1| for a U with at most two nonzeros per row and
    column, summed from each row's pair of entries (no dense product)."""
    nonzero = u != 0
    assert nonzero.sum(axis=0).max() <= 2 and nonzero.sum(axis=1).max() <= 2
    rows, cols = np.nonzero(nonzero)         # row-major: a row's entries adjacent
    vals = u[rows, cols]
    gram_diag = np.bincount(cols, weights=np.abs(vals) ** 2, minlength=u.shape[1])
    # Each row holding two entries (a < b) adds conj(U_ra) U_rb to G[a, b].
    pair = rows[:-1] == rows[1:]
    keys, slot = np.unique(cols[:-1][pair] * u.shape[1] + cols[1:][pair], return_inverse=True)
    gram_off = np.zeros(len(keys), dtype=complex)
    np.add.at(gram_off, slot, vals[:-1][pair].conj() * vals[1:][pair])
    return max(np.abs(gram_diag - 1).max(), np.abs(gram_off).max(initial=0.0))


def test_criterion_7_structural_invariants(dense_step):
    """Unitarity of coin, shift, interaction and the full step to 1e-12 for
    n = 2..8 on both graphs with 50 random coins; norm drift <= 1e-10 over
    100 steps; every graph state satisfies its stabilizers to 1e-10.

    The full step is the matrix materialized from the kernel ``evolve``
    runs; the interaction is diagonal, so |diag| = 1 is its unitarity.
    The step has at most two nonzeros in every row and column (asserted),
    so U^dag U is summed from each row's pair of entries.

    The 50 coins are spread over the (n, graph) combinations
    deterministically: four coins each for n <= 6, three for n = 7, two
    for n = 8 (50 total, every combination covered).  The coin matrix
    itself is checked for all 50 coins.
    """
    coins = _random_coins(50)
    worst_coin = max(np.abs(build_coin(c).conj().T @ build_coin(c) - np.eye(2)).max()
                     for c in coins)

    per_n = {2: 4, 3: 4, 4: 4, 5: 4, 6: 4, 7: 3, 8: 2}
    assert sum(per_n.values()) * 2 == 50
    queue = iter(coins)
    worst_shift = worst_inter = worst_step = 0.0
    for n in range(2, 9):
        for kind in ("path", "cycle"):
            topology = GraphTopology(kind, n)
            shift = build_shift(topology)
            worst_shift = max(worst_shift, np.abs(
                shift.conj().T @ shift - np.eye(2 * n)).max())
            diag = interaction_diagonal(topology)
            worst_inter = max(worst_inter, np.abs(np.abs(diag) - 1.0).max())
            for coin in itertools.islice(queue, per_n[n]):
                u = dense_step(WalkConfig(topology, coin, 1))
                worst_step = max(worst_step, _two_sparse_unitarity_defect(u))

    worst_drift = 0.0
    for topology in (CYCLE4, PATH4):
        for coin in STANDARD_COINS:
            final = evolve(WalkConfig(topology, coin, 100))
            worst_drift = max(worst_drift, abs(np.linalg.norm(final.amplitudes) - 1))

    worst_stab = 0.0
    for n in range(2, 9):
        for kind in ("path", "cycle"):
            topology = GraphTopology(kind, n)
            values = stabilizer_expectations(graph_state(topology), topology)
            worst_stab = max(worst_stab, np.abs(values - 1.0).max())

    _report(7, "structural invariants",
            worst_coin <= 1e-12 and worst_shift <= 1e-12 and worst_inter <= 1e-12
            and worst_step <= 1e-12 and worst_drift <= 1e-10 and worst_stab <= 1e-10,
            f"coin {worst_coin:.2e}, shift {worst_shift:.2e}, "
            f"interaction {worst_inter:.2e}, step {worst_step:.2e}, "
            f"drift {worst_drift:.2e}, stabilizers {worst_stab:.2e}")
