import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_passage_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "02_passage_and_fundamental_solutions.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "matches the solve above" in out
    assert "np.float64" not in out
