"""Write every output that a byte-identity check between two trees compares,
and print one ``sha256  name`` line per file, names relative to OUT_DIR.

    python tools/output_digest.py OUT_DIR [--figure-steps T]

The outputs are the 55 files of ``reproduce_figure`` fig2-fig7 at T = 100
(``--figure-steps`` sets T), the seed-0 ``series_csv`` text of every series
of the benchmark's walker_n12 and register_n8 workloads (37 files) and the
JSON of its six fig6 sweeps.  The series and sweeps come from
``perfbench/workloads.py``, so they follow the benchmark's definitions.  The
package and the workloads are imported from the tree this script is in: run
it in two trees and diff the listings; equal lines mean byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from iqwalk.runner import FIGURE_IDS, reproduce_figure  # noqa: E402


def write_outputs(out: Path, figure_steps: int) -> list[Path]:
    """Write every output under ``out`` and return the paths written.  A
    workload operation that fails the benchmark's own check raises."""
    files = [path for fig_id in FIGURE_IDS
             for path in reproduce_figure(fig_id, out / "figures", steps=figure_steps)]
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.build(workloads.DEFAULT_SEED, out)
        raw = workload.body(inputs)
        _, problems = workload.check(inputs, raw, None)
        if problems:
            raise RuntimeError(f"{name}: {problems}")
        if isinstance(workload, workloads.Series):
            (out / name).mkdir(parents=True, exist_ok=True)
            for key, text in raw.items():
                path = out / name / (re.sub(r"[^\w.,()-]+", "_", key) + ".csv")
                path.write_text(text)
                files.append(path)
        else:
            files += [Path(argv[-1]) for argv in inputs.values()]
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--figure-steps", type=int, default=100,
                        help="walk steps of the figure datasets (default: 100)")
    args = parser.parse_args(argv)
    files = write_outputs(args.out_dir, args.figure_steps)
    for name in sorted(path.relative_to(args.out_dir).as_posix() for path in files):
        print(f"{hashlib.sha256((args.out_dir / name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
