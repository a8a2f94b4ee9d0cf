"""Byte-level pins of the bundled runs.

Each bundled config is run through the CLI at seed 7, 20 tasks x 5 repeats,
with ``--events``, and the sha256 of its ``runs.jsonl``, ``library.json``,
``report.json``, ``report.csv`` and ``events.json`` must match. The
acceptance tests compare the README table to 4 decimals; these pins catch
any change to a record, a stored method, a report value or the corpus
writer. Two learning modes and both baseline modes are pinned again at
``planner.p_corrupt`` 0.3, and the two learning modes at 384 tasks x 3
repeats.

perfbench's baseline-384 and scale-library workloads are pinned at their
full size too, run through ``perfbench.workloads.run_pass`` at seed 7; the
scale-library run also checks every lookup against the linear-scan oracle.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from reuseloop.cli import main
from reuseloop.library import MethodLibrary

from conftest import linear_scan_oracle

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

DIGESTS = {
    "self_always_llm": {
        "runs.jsonl": "f08688671d4d4710e92246ce1354181d4c80ee1e33bed47dcd31591735d03cd2",
        "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        "report.json": "167119ef97278bc286ed3aac023db35801796bd500e62425a218edf17a90e99b",
        "report.csv": "2e70447454df2c94fc5ce5f20b19ee12b5f6381a696b914bd89854702b3ed70f",
        "events.json": "931e58eed79b24a650ca2d90e673bfa3748595c15aa9688b509ebb5ddd705af5",
    },
    "self_library_only": {
        "runs.jsonl": "a940e1df9ea09e7d9984fedb1657dac7ffdad9cc25b147688785eb45c42f4606",
        "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        "report.json": "274f7d222e2161728d94f94dae7de0465308f238848c4dda437904f29099cbf5",
        "report.csv": "3fe931927b2dfeff91108b8522de46a6bd91c3e24889ac0069c697f0d0181e94",
        "events.json": "931e58eed79b24a650ca2d90e673bfa3748595c15aa9688b509ebb5ddd705af5",
    },
    "self_proposed": {
        "runs.jsonl": "efbb2a54ad08ef862c1be257d4e4e01d188c5f0aa3f17619ac15f627c9c1f8a2",
        "library.json": "818ff034be21662daa9cf9e24695dff8de360be649bc639895d45b0556db4599",
        "report.json": "19d07085c4cc1818b3de3bfad55ad33aa35aff48cd126d5d26a9cc7283cef1af",
        "report.csv": "9bb1f933aed06a983cd4332da1945fef611aeb1f5c2665592ac6bfffc9e022b2",
        "events.json": "931e58eed79b24a650ca2d90e673bfa3748595c15aa9688b509ebb5ddd705af5",
    },
    "observation_only": {
        "runs.jsonl": "d9275b3544fe846a8eb3ef84027a180100cc15f8b9974431611647752ac2a080",
        "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        "report.json": "87d238e2081f9c87128f2e80bdd98d84248babf8371fbed5c39c039f4d995f18",
        "report.csv": "f97c2a3873d1edd9736d0b008d9a2197df229e8cac8a1056f5f13ab02fa0e868",
        "events.json": "3cf6ab1ceaa03b695eb01390a9fe9d81d0024c9b2279dd1f83b3c8c378ebef2f",
    },
    "proposed_observation": {
        "runs.jsonl": "a114a4c8c1e766ba254609f0743d52e1409e79b89cd2b978061814af8b3ccf46",
        "library.json": "42473d980c3fa69facbbae4f9f8c51d9362daa059d0c7bc790be8066a3acd210",
        "report.json": "7ecc29f5681a5d10a534e16630fa441cace802de842fe5cad45dbfbb40ee5a06",
        "report.csv": "a82e37bf07435aa343e91e37811bde43b146e8e17f5aff71390b0433b114430f",
        "events.json": "3cf6ab1ceaa03b695eb01390a9fe9d81d0024c9b2279dd1f83b3c8c378ebef2f",
    },
}


# Runs at planner.p_corrupt 0.3, where some plans are corrupted: a self plan
# then fails validation and the task is relearned on a later repeat, and an
# observation outvotes the corrupted plan, so proposed_observation's outputs
# equal its default-p_corrupt pins. The baseline modes plan on every self
# event, and a corrupted draw fails that event's execution.
CORRUPTED_DIGESTS = {
    "self_always_llm": {
        "runs.jsonl": "8fcda7736a5603ab46925451f9111a07c4d610e90bc0f1760b86deaf4e2a12c5",
        "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        "report.json": "17e32105f5167c3df36d28084a41f3fe8d253a18bf268c886048c2acf04d1f9a",
        "report.csv": "77b297a911df6738fb194c84ecd52d2d40488003882d3a807246ad6864fcde21",
        "events.json": "931e58eed79b24a650ca2d90e673bfa3748595c15aa9688b509ebb5ddd705af5",
    },
    "observation_only": {
        "runs.jsonl": "e30b8d29d5146b2e82ce834befefdbe06d791a227fd1290d7c3818e3bdf6b64a",
        "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        "report.json": "af0ffc4f1fdd2e501d9f8f0847c93187b4609d4ea7b7a1e2b98c1ef68c7bd6b0",
        "report.csv": "c57c76f88c4eaf144847aede4e73b26c7280bd2f304d4d8d8fc32d050247f517",
        "events.json": "3cf6ab1ceaa03b695eb01390a9fe9d81d0024c9b2279dd1f83b3c8c378ebef2f",
    },
    "self_proposed": {
        "runs.jsonl": "312af6e8231c79fe1d0ef8db1130b8c18733ecbfea83e1f4c7c23969da6c3ee3",
        "library.json": "27714f62c627b9298c7ad65240542b4462e17651614f1d1a2be7a8131eb81a91",
        "report.json": "834f79334bdab0ef6e8b2bba9f944886f33ee736882bd831b50a0f227d5e4527",
        "report.csv": "82a0e99d6654a01cce8a6fb8c8560454318f1f9f6669adda38dd2575ef204369",
        "events.json": "931e58eed79b24a650ca2d90e673bfa3748595c15aa9688b509ebb5ddd705af5",
    },
    "proposed_observation": DIGESTS["proposed_observation"],
}


# The two learning modes again at the size of perfbench's reuse-384
# workload, 384 tasks x 3 repeats, where round 1 grows a 384-method library
# and later rounds reuse it.
BENCHMARK_SIZE_DIGESTS = {
    "self_proposed": {
        "runs.jsonl": "4a9fd183ee03e7644b5c168c40e6c6aa41a37ac4b0a33c6bfcb1a57e72db8e2a",
        "library.json": "79ca30b5cec6daf0199f1387ef8992cdd8902fe44f60f7883c4abf99ac59738f",
        "report.json": "2791842907364733fff89d30b76d3392cb5613e2d6238183a4a2744323e1e2d7",
        "report.csv": "4537d6f427c68d1264d4a5bfb9d90743301bb0b05d63f91fbadc8f2ecc4c3009",
        "events.json": "ed86747ca4d47b3f0f225f79ffb1c6abef20cc31ae39f2ccfa9dec567dfdae07",
    },
    "proposed_observation": {
        "runs.jsonl": "c6a0c8b69817ed2f581ef7e269ee887617b4840791cc60f9f803909e3f4e006e",
        "library.json": "03be2982b36b67af2286a162e1ac619c729c16173a961a42c7c949eac65a99b4",
        "report.json": "10b640216750f0710bbfdfe924f78b0a77410763c9b36a596025b1e25bc84a8a",
        "report.csv": "4556f46d19af3a7b5c9b1604e9b651e04302f06af9c255177bc1338efa7a9393",
        "events.json": "c39a96da81c7016051c434dd89ca590575be618c25df87141b0774db48c70109",
    },
}


def _run_digests(name, tmp_path, capsys, *extra, size=(20, 5)):
    n_tasks, n_repeats = size
    argv = [
        "bench", "run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path),
        "--seed", "7", "--n_tasks", str(n_tasks), "--n_repeats", str(n_repeats), "--events",
        *extra,
    ]
    assert main(argv) == 0
    capsys.readouterr()
    return {
        output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        for output in DIGESTS[name]
    }


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_run_outputs_are_pinned(name, tmp_path, capsys):
    assert _run_digests(name, tmp_path, capsys) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CORRUPTED_DIGESTS))
def test_corrupted_plan_outputs_are_pinned(name, tmp_path, capsys):
    got = _run_digests(name, tmp_path, capsys, "--planner.p_corrupt", "0.3")
    assert got == CORRUPTED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BENCHMARK_SIZE_DIGESTS))
def test_benchmark_size_outputs_are_pinned(name, tmp_path, capsys):
    got = _run_digests(name, tmp_path, capsys, size=(384, 3))
    assert got == BENCHMARK_SIZE_DIGESTS[name]


def _load_workloads():
    """``perfbench.workloads``, imported from its files without writing
    bytecode next to them."""
    package = ROOT / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        sys.modules["perfbench"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["perfbench"])
        return importlib.import_module("perfbench.workloads")
    finally:
        sys.dont_write_bytecode = dont_write


WORKLOADS = _load_workloads()

# perfbench's full-size pins at seed 7, the same digests as
# perfbench/checks.py::PINNED_DIGESTS. Its reuse-384 pins are
# BENCHMARK_SIZE_DIGESTS above.
FULL_SIZE_DIGESTS = {
    "baseline-384": {
        "always_llm": {
            "runs.jsonl": "6fcebe8249dbd3c0a0e10dc63f17bc91519f23a8156c2f8e9d0e8b7a478321b9",
            "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        },
        "observation_only": {
            "runs.jsonl": "48e4118fc733e209c818539e952ce21d9b5ca1c389b9a71d57240ca4322edf3a",
            "library.json": "ee7a5764d6a13012c564d085a91fd34ad1025149b24d13a620cc3cb190a379e3",
        },
    },
    "scale-library": {
        "proposed": {
            "runs.jsonl": "3307c80242ae222b38638bb1ec891bf6e68f692c6264546f60b6e4f2b8bfaa0e",
            "library.json": "35a5784bde611f725134c6e7aa013fdaa1f59f60909907d9558dbc1c850fd341",
        },
    },
}


def _workload_digests(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]
    result = WORKLOADS.run_pass(workload, 7, workload.prepare(7, tmp_path), tmp_path / "out")
    return {
        job.mode: {output: job.digests[output] for output in ("runs.jsonl", "library.json")}
        for job in result.jobs
    }


def test_baseline_384_outputs_are_pinned(tmp_path):
    assert _workload_digests("baseline-384", tmp_path) == FULL_SIZE_DIGESTS["baseline-384"]


def test_scale_library_outputs_are_pinned_and_every_lookup_matches_the_oracle(
    tmp_path, monkeypatch
):
    retrieve_best = MethodLibrary.retrieve_best
    lookups = []

    def checked(library, task, tau_r):
        got = retrieve_best(library, task, tau_r)
        want_method, want_score, want_covered = linear_scan_oracle(library, task, tau_r)
        assert got.method is want_method
        assert (got.score, got.covered) == (want_score, want_covered)
        lookups.append(got.covered)
        return got

    monkeypatch.setattr(MethodLibrary, "retrieve_best", checked)
    assert _workload_digests("scale-library", tmp_path) == FULL_SIZE_DIGESTS["scale-library"]
    # Stored repeats hit and novel tasks miss, then hit once learned.
    assert len(lookups) == 120 and any(lookups) and not all(lookups)
