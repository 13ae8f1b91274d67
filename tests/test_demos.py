"""Every demo but 05 runs to completion in-process.

Demo 05 takes about 10 s, and ``test_03_irregular_deformation`` covers its
path.
"""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_rational_residues", "02_twists_and_degree", "03_monodromy_transport",
    "04_schlesinger_flow", "06_autonomous_extension"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
