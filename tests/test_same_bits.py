"""``tools/same_bits.py`` compares a checkout with itself without a
difference, and its comparison flags a planted one."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_bits.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself_has_no_difference():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--workload", "monodromy-scan", "--seeds", "1009", "--cases", "3"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    [line] = proc.stdout.splitlines()
    assert line.startswith("monodromy-scan seed 1009: 3 cases, ")
    assert line.endswith(" failed, 0 differ, 0 changed failure kind")


def test_a_planted_difference_is_flagged():
    differences = load_tool().differences
    old = [["a", "d1", None], ["b", "d2", None], ["c", None, "exit 2: x"]]
    assert differences(old, [list(row) for row in old]) == []
    new = [["a", "d1", None], ["b", "d3", None], ["c", None, "exit 3: y"]]
    assert differences(old, new) == [
        "b: ('d2', None) -> ('d3', None); same failure kind",
        "c: (None, 'exit 2: x') -> (None, 'exit 3: y'); failure kind changed"]
    assert differences(old, old[:2]) == [
        "c: (None, 'exit 2: x') -> None; failure kind changed"]


def test_a_residual_that_moves_keeps_the_failure_kind():
    # the same check fails on both sides, at another value
    differences = load_tool().differences
    cause = "exit 2: max conjugacy-invariant drift {} (tolerance 1.0e-06)"
    old = [["d", None, cause.format("1.861e-06")]]
    new = [["d", None, cause.format("1.196e-06")]]
    assert differences(old, new) == [
        f"d: (None, '{old[0][2]}') -> (None, '{new[0][2]}'); same failure kind"]
    new = [["d", None, "exit 2: product defect 2.000e-08 (tolerance 1e-08)"]]
    assert differences(old, new)[0].endswith("; failure kind changed")


def test_another_exit_code_changes_the_failure_kind():
    differences = load_tool().differences
    cause = "exit {}: flow aborted: pole_collision at s = 0.5"
    old = [["e", None, cause.format(2)]]
    new = [["e", None, cause.format(3)]]
    assert differences(old, new) == [
        f"e: (None, '{old[0][2]}') -> (None, '{new[0][2]}'); "
        "failure kind changed"]


def test_residuals_of_a_flipped_case_on_both_sides(capsys):
    tool = load_tool()
    rows = {
        "OLD": [["a", "d1", None, {"drift": [4.0e-7, 1e-6],
                                   "conjugacy_residual": [3.9e-15, None]}],
                ["b", "d2", None, {"drift": [2.0e-7, 1e-6]}]],
        "NEW": [["a", "d4", "drift 1.613e-06 >= 1e-06",
                 {"drift": [1.613e-6, 1e-6],
                  "conjugacy_residual": [4.1e-15, None]}],
                ["b", "d2", None, {"drift": [2.0e-7, 1e-6]}],
                ["c", "d5", None, {"drift": [3.0e-7, 1e-6]}]]}
    # the planted rows stand in for the two checkouts' case runners
    tool.start = lambda root, *args: root
    tool.finish = lambda proc, checkout: rows[proc]
    assert tool.main(["OLD", "NEW", "--workload", "flow-sweep"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "flow-sweep seed 1009: 3 cases, 1 failed, 2 differ, 2 changed "
        "failure kind",
        "  a: ('d1', None) -> ('d4', 'drift 1.613e-06 >= 1e-06'); failure "
        "kind changed",
        "    old: conjugacy_residual 3.900e-15",
        "    new: drift 1.613e-06 >= 1e-06; conjugacy_residual 4.100e-15",
        "  c: None -> ('d5', None); failure kind changed",
        "    old: -",
        "    new: none over tolerance"]
