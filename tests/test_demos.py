"""The quick demos run clean: exit 0 and no numpy RuntimeWarning.

Each demo runs as its own process, as a reader would start it.  Demo 03
trains a detector for about half a minute, so only CI runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_probability_maps", "02_balanced_sampling",
                                  "04_distillation_merge", "05_evaluation_harness"])
def test_demo_runs_without_runtime_warnings(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr
