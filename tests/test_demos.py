"""The demos, run as scripts, print exactly their golden output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
# files a demo writes into its working directory -> golden file
WRITES = {"densify_staircase": {"staircase.csv": "densify_staircase.csv"}}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_golden(demo, tmp_path):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{demo}.stdout").read_text(encoding="utf-8")
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(WRITES.get(demo, {}))
    for name, golden in WRITES.get(demo, {}).items():
        assert (tmp_path / name).read_text(encoding="utf-8") == (GOLDEN / golden).read_text(
            encoding="utf-8"
        )
