"""Every demo runs to completion in-process."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_rational_residues", "02_twists_and_degree", "03_monodromy_transport",
    "04_schlesinger_flow", "05_irregular_deformation",
    "06_autonomous_extension"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
