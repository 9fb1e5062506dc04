"""Every demo runs to the end: each ``demos/0N_*.py`` exits 0 in a fresh process."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[0-9]_*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    # 01 also dumps its scans with --out; they go to tmp_path, as does anything else a
    # demo writes to its working directory.
    args = ["--out", str(tmp_path / "out")] if demo.name.startswith("01_") else []
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    if args:
        assert (tmp_path / "out" / "clean.bin").is_file()
