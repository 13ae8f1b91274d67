"""``tools/bench_rhs.py`` times a checkout against itself and writes every
case and stage to its JSON file."""

import json
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
