"""Smoke test: every quick demo script runs to completion, warnings as errors.

Demo 07 is left out: it runs whole benchmark scenarios (about a minute) and
uses only ``scenario``/``run_scenario``, which tests/test_bench.py covers.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-6]_*.py"))


def test_all_quick_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, "-W", "error", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
