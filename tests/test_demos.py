"""Every demo, and the README's quick start, runs to the end: each exits 0 in a
fresh process."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[0-9]_*.py"))


def run_python(args, cwd):
    """``python args`` in cwd, as a fresh process that imports the checkout's derainkit."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    # 01 also dumps its scans with --out; they go to tmp_path, as does anything else a
    # demo writes to its working directory.
    args = ["--out", str(tmp_path / "out")] if demo.name.startswith("01_") else []
    proc = run_python([str(demo), *args], tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    if args:
        assert (tmp_path / "out" / "clean.bin").is_file()


def test_readme_quick_start_exits_zero(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "MetricReport(" in proc.stdout
