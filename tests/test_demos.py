"""Every demo script runs to completion against the package in ``src/`` and
prints exactly its pinned output."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. The output does not depend on PYTHONHASHSEED.
STDOUT_SHA256 = {
    "01_tasks_and_retrieval.py": "f6f280e83386db9cd6f636d2b4ad6e5b72a810e41e19b5c1f9bba97ed0d0c1ac",
    "02_trigger_rules.py": "e2f1f1be461f538c580f3b4890f47b2d4217d4cbc89a5e7d33178fc6b366352c",
    "03_learning_pipeline.py": "dca2e0f569f7cc6c566263bea05ab179e02a75f305fde73eb89237397fd42c70",
    "04_benchmark.py": "5385b7e930c5ee33fe45f9b989c70bfc039ddb9d0adaa85a750372edf6d1bf33",
    "05_cost_model.py": "8d62acb857b86fac3f01574c51df3cb2eaf289dfda56fe4faae8748c4ac2206c",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
    assert digest == STDOUT_SHA256[demo.name], proc.stdout
