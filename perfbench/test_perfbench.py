"""Tests of the benchmark itself: every workload at a tiny size, and the checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seconds", "0.5",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_its_checks(name, trace):
    code, lines = bench("--workload", name, "--seed", "3", "--trace", trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


@pytest.mark.parametrize("kind", ["hash", "index", "topk", "range", "simulate"])
def test_a_corrupted_output_counts_as_failed(kind):
    code, lines = bench("--workload", NAMES[-1], "--seed", "4", "--corrupt", kind)
    assert code == 0
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAILED dnaphash") and f"({kind})" in line for line in lines), lines


def test_a_removed_layer_function_is_reported_missing(monkeypatch, capsys):
    import dnaphash

    monkeypatch.delattr(dnaphash, "select_bits")
    assert run.main(["--workload", "short-reads", "--seed", "5", "--seconds", "0.5",
                     "--size", "tiny", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"]
    assert result["metrics"]["hashing.select_pack_s"]["value"] == 0
    assert result["metrics"]["hashing.compute_hash_s"]["value"] > 0
    assert any(line.startswith("MISSING hashing.select_pack_s") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", NAMES[0], "--seed", "1", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_same_seed_same_inputs(tmp_path):
    def inputs_for(seed: int, sub: str) -> bytes:
        work = tmp_path / sub
        work.mkdir()
        w = WORKLOADS["short-reads"](None, str(work), seed, "tiny")
        w.generate()
        return (work / "reads.fa").read_bytes()

    assert inputs_for(7, "a") == inputs_for(7, "b")
    assert inputs_for(7, "c") != inputs_for(8, "d")


def test_benchmark_json_matches_the_workloads():
    doc = spec()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
