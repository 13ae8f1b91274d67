"""Self-checks of the benchmark (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py

Takes a few minutes: each workload is run traced twice on one seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == dict(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly_on_one_seed(workload):
    """Call counts and integrator evaluations are the steady signals: two
    traced runs on one seed must agree on every one of them."""
    results = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", str(SEED),
                     "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    counts = [name for name, unit in tracer.PER_LAYER if unit == "count"]
    first, second = ({k: r["metrics"][k]["value"] for k in counts}
                     for r in results)
    assert first == second
    assert all(r["correct"] for r in results)
    assert first["monodromy.transport.calls"] > 0


def test_fails_without_the_library(tmp_path):
    """In a directory that holds only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", run.WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
