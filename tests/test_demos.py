"""Every script in demos/ runs to completion, in-process and without
arguments, as the README shows it."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = ("cluster_state_generation", "coin_grid_sweep", "concurrence_conditioning",
           "entropy_bipartitions", "walker_coin_negativity")


@pytest.mark.parametrize("name", SCRIPTS)
def test_demo_runs(name, monkeypatch, capsys):
    script = str(DEMOS / f"{name}.py")
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(script, run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if name == "cluster_state_generation":
        assert "perfect cluster state" in out
