"""Each demo script, and README's library quickstart, runs to completion
from a source checkout, with every warning raised as an error."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md"]


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_demo_runs(script, tmp_path):
    if script.suffix == ".md":  # the README's one python block
        (block,) = re.findall(r"^```python\n(.*?)^```", script.read_text(), re.M | re.S)
        script = tmp_path / "quickstart.py"
        script.write_text(block)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
