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
    for kind in ("connection", "monodromy"):
        assert set(result[kind]) == {"n2", "n3", "n4", "irregular"}
        for cell in result[kind].values():
            assert set(cell) == {kind}
            assert cell[kind]["old_us"] > 0
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


# appended to one checkout's monodromy.py: each attempt of transport's
# stepper spins for a fifth of its own time after it returns
PLANTED_ATTEMPT = '''

import time as _time

_unplanted_attempt = _LinearDOP853._attempt


def _planted_attempt(self, y, t, h):
    start = _time.perf_counter()
    out = _unplanted_attempt(self, y, t, h)
    stop = start + 1.2 * (_time.perf_counter() - start)
    while _time.perf_counter() < stop:
        pass
    return out


_LinearDOP853._attempt = _planted_attempt
'''


def planted_run(tmp_path, module, planted):
    """``tools/bench_rhs.py`` on case n2, this checkout against a copy with
    ``planted`` appended to ``module``; returns the JSON result."""
    new = tmp_path / "new"
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, new / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = new / "src" / "isomonodromy" / module
    path.write_text(path.read_text() + planted)
    out = tmp_path / "BENCH_rhs.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(new), "--cases", "n2",
         "--repeats", "150", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_planted_slowdown_is_read_in_its_stage(tmp_path):
    # both libraries run in one process, alternated, so a 20 % slowdown of
    # one library's differential reads as about 1.2 there and about 1.0 in
    # every other stage
    result = planted_run(tmp_path, "flows.py", PLANTED)
    stages = result["summary"]["n2"]
    assert 1.1 < stages["differential"]["ratio"] < 1.3
    for stage in ("build", "section", "gram", "solve", "rhs"):
        assert 0.85 < stages[stage]["ratio"] < 1.15, stage
    assert 0.85 < result["connection"]["n2"]["connection"]["ratio"] < 1.15
    assert 0.85 < result["monodromy"]["n2"]["monodromy"]["ratio"] < 1.15


def test_planted_transport_slowdown_is_read_in_monodromy(tmp_path):
    # a 20 % slowdown of transport's attempts, most of a keyhole transport,
    # reads above 1.1 in monodromy and about 1.0 in every chart stage
    result = planted_run(tmp_path, "monodromy.py", PLANTED_ATTEMPT)
    assert result["monodromy"]["n2"]["monodromy"]["ratio"] > 1.1
    for stage, cell in result["summary"]["n2"].items():
        assert 0.85 < cell["ratio"] < 1.15, stage
    assert 0.85 < result["connection"]["n2"]["connection"]["ratio"] < 1.15
