"""Smoke test: every narrative script in ``demos/`` and the README's library quickstart run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(argv, cwd):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    proc = run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_prints_its_optimum(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library quickstart\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert block, "README.md has no Library quickstart python block"
    proc = run_python(["-c", block[1]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "((0, 1),) 0.6599456527174018 26\n"
