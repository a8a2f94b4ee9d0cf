"""The benchmark's smoke run, as part of the test suite.

``perfbench/tracer.py`` patches reuseloop functions by name, so renaming or
deleting a traced layer fails this test rather than only the benchmark.
No wall-clock figure is asserted.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
