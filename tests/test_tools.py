"""The scripts under ``tools/``, run as a user runs them."""

import hashlib
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_output_digest_lists_every_output_it_writes(tmp_path):
    # 55 figure files at a short T, 37 benchmark series and 6 fig6 sweeps.
    out = subprocess.run([sys.executable, str(TOOLS / "output_digest.py"), str(tmp_path),
                          "--figure-steps", "2"],
                         capture_output=True, text=True, timeout=120, check=True)
    names = sorted(path.relative_to(tmp_path).as_posix()
                   for path in tmp_path.rglob("*") if path.is_file())
    assert len(names) == 98
    assert out.stdout.splitlines() == [
        f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}" for name in names]
