"""``tools/bench_rhs.py`` times a checkout against itself and writes every
case and stage to its JSON file, and reads a planted slowdown in the stage
that has it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_rhs.py"


def test_checkout_against_itself(tmp_path):
    out = tmp_path / "BENCH_rhs.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--rounds", "1", "--repeats", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text())
    assert set(result["summary"]) == {"n2", "n3", "n4", "irregular", "k16",
                                      "k64"}
    # the many-pole cases time the stages only
    assert set(result["verify"]) == {"n2", "n3", "n4", "irregular"}
    assert set(result["connection"]) == {"n2", "n3", "n4", "irregular"}
    for cell in result["connection"].values():
        assert set(cell) == {"connection"}
        assert cell["connection"]["old_us"] > 0
    for stages in result["summary"].values():
        assert set(stages) == {"build", "differential", "section", "gram",
                               "solve", "rhs"}
        for cell in stages.values():
            assert cell["old_us"] > 0 and cell["new_us"] > 0
    assert len(result["per_round"]["old"]) == 1
    assert len(result["per_round"]["new"]) == 1


# appended to one checkout's flows.py: direction_differential spins for a
# fifth of its own time after it returns
PLANTED = '''

import time as _time

_unplanted = direction_differential


def direction_differential(direction, state):
    start = _time.perf_counter()
    out = _unplanted(direction, state)
    stop = start + 1.2 * (_time.perf_counter() - start)
    while _time.perf_counter() < stop:
        pass
    return out
'''


def test_planted_slowdown_is_read_in_its_stage(tmp_path):
    # both libraries run in one process, alternated, so a 20 % slowdown of
    # one library's differential reads as about 1.2 there and about 1.0 in
    # every other stage
    new = tmp_path / "new"
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, new / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    flows = new / "src" / "isomonodromy" / "flows.py"
    flows.write_text(flows.read_text() + PLANTED)
    out = tmp_path / "BENCH_rhs.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(new), "--cases", "n2",
         "--repeats", "60", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text())
    stages = result["summary"]["n2"]
    assert 1.1 < stages["differential"]["ratio"] < 1.3
    for stage in ("build", "section", "gram", "solve", "rhs"):
        assert 0.85 < stages[stage]["ratio"] < 1.15, stage
    assert 0.85 < result["connection"]["n2"]["connection"]["ratio"] < 1.15
