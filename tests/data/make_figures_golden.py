"""Regenerate figures_golden.json: every series value of fig2-fig5 and fig7.

Run from a checkout as ``PYTHONPATH=src python tests/data/make_figures_golden.py``.
The values are the full-precision floats behind each figure CSV, keyed by the
CSV file name.  The golden file pins the numbers of one numerical route, so
regenerate it only when a change of the physics is intended.
"""

import json
import sys
import tempfile
from pathlib import Path

from iqwalk import runner

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig7")


def golden() -> dict:
    recorded = []
    compute = runner.run_metric_series

    def record(config, metric):
        series = compute(config, metric)
        recorded.append(series)
        return series

    runner.run_metric_series = record
    try:
        out = {}
        with tempfile.TemporaryDirectory() as tmp:
            for fig in FIGURES:
                del recorded[:]
                files = runner.reproduce_figure(fig, Path(tmp))[:-1]
                for path, series in zip(files, recorded):
                    out[path.name] = {"metric": series.metric, "values": list(series.values)}
        return out
    finally:
        runner.run_metric_series = compute


if __name__ == "__main__":
    target = Path(__file__).with_name("figures_golden.json")
    rows = [f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
            for name, entry in sorted(golden().items())]
    target.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {target}", file=sys.stderr)
