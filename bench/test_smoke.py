"""Smoke test for the benchmark: a tiny run of every workload, both modes.

    python3 -m pytest bench/test_smoke.py -q

Checks that each end-to-end and per-layer metric named in BENCHMARK.json is
printed with its unit, that the result line has the agreed shape, that the
job-list digest repeats for a seed, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, digest, generate  # noqa: E402


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_printed_with_units(workload, trace, kind):
    proc = bench(workload, 3, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = declared(kind)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit}" in line for line in lines), name
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["job_digests"][workload] == digest(generate(workload, 3, "tiny"))
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_per_seed(workload):
    first = digest(generate(workload, 11))
    assert digest(generate(workload, 11)) == first
    assert digest(generate(workload, 12)) != first


def test_refuses_without_sources():
    bare = ROOT / ".bench_work" / "smoke-no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("closed_forms", 1, 0, cwd=bare, script=bare / "bench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
