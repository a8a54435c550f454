"""Write the reference snapshot the benchmark compares outputs against.

    python3 perfbench/make_snapshot.py

Runs every workload once per snapshot seed (fig6 once: it ignores the seed),
requires the range and headline checks to pass, and stores the output values
in ``perfbench/snapshot/<workload>.json``.  Run it only on a commit whose
numbers are trusted; later commits are checked against these values within
``workloads.SNAPSHOT_ATOL``.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    iqwalk = run.import_program()
    import workloads

    run.SNAPSHOT_DIR.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        seeds = workloads.SNAPSHOT_SEEDS if workload.seeded else (workloads.DEFAULT_SEED,)
        entries = {}
        for seed in seeds:
            inputs = workload.build(seed, run.OUT)
            workload.reset(inputs)
            raw = workload.body(inputs)
            _, problems = workload.check(inputs, raw, None)
            if problems:
                print(f"{workload.name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            values = workload.snapshot(inputs, raw)
            # 1e-10 is far below the 1e-6 comparison tolerance.
            values = {k: round(v, 10) if isinstance(v, float) else [round(x, 10) for x in v]
                      for k, v in values.items()}
            entries[str(seed) if workload.seeded else "any"] = {
                "coins": [[c.theta, c.phi1, c.phi2] for c in workload.coins(seed)],
                "values": values,
            }
            print(f"{workload.name} seed {seed}: {len(values)} operations", flush=True)
        payload = {"workload": workload.name, "iqwalk": iqwalk.__version__,
                   "git_sha": run.git_sha(), "atol": workloads.SNAPSHOT_ATOL,
                   "seeds": entries}
        path = run.SNAPSHOT_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
