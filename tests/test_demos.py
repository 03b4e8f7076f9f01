import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# (script, a line fragment it prints)
NARRATIVES = [
    ("01_models_and_generators.py", "BS neighbor rates at the anchor"),
    ("02_passage_and_fundamental_solutions.py", "matches the solve above"),
    ("03_drawdown_before_drawup.py", "start minimum -0.20000:"),
    ("04_occupation_digitals.py", "agreement"),
    ("05_drawdown_insurance.py", "\n  with recovery: "),
    ("06_convergence_and_oracles.py", "same seed reproduces bitwise: True"),
]


@pytest.mark.parametrize("script, expected", NARRATIVES, ids=[s[:2] for s, _ in NARRATIVES])
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert expected in out
    assert "np.float64" not in out
