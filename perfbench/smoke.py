"""Smoke run: every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py

Runs ``run.py --workload all --smoke``, which checks each result against
``BENCHMARK.json``, then checks that the benchmark refuses to run, printing
no result, in a directory that holds only ``BENCHMARK.json`` and
``perfbench/``. It makes no wall-clock assertion.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600, check=False)


def main() -> int:
    proc = run(ROOT, "--workload", "all", "--smoke", "--seed", "3", "--seconds", "1")
    print("\n".join(line for line in proc.stdout.splitlines() if line.startswith("==")))
    failed = proc.returncode != 0

    bare = ROOT / ".perfbench_out" / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "baseline-384", "--seed", "1", "--seconds", "1", "--trace", "0")
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"== bare directory: {'refused' if refused else 'ran anyway'}")
    shutil.rmtree(bare)
    return 1 if failed or not refused else 0


if __name__ == "__main__":
    sys.exit(main())
