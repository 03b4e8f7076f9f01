"""Bitwise pins of the birth-death studies.

The six BS and CEV studies of the ``bd_chains`` benchmark workload, on its
ladders, must give every rung value and every extrapolation bit for bit as
recorded in ``study_pins.json``.  The values were recorded at commit
8c72cf8, before the birth-death routes were cut down to the states their
answers read (A's reachable strip, Jsum from the start, one spliced pair
for C); regenerate them only for a change that is meant to move a price,
with ``python tests/test_study_pins.py``.

The ``occupation_digital_bs`` (B) and ``drawdown_occupation_digital_bs``
(C) pins were regenerated once since, by a route change meant to move
their prices towards the dense window sweep: their fundamental-solution
pairs now span only the states eta - a .. N-1 that their windows read,
and ψ+ vanishes at eta - a instead of state 0.  The rungs moved by at
most 2.0e-10 relative and the extrapolations by at most 4.4e-10; every
rung is now within 5.3e-12 relative of the dense route, where it was
within 2.0e-10.  The other four pins were left as recorded and still
hold bit for bit.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "study_pins.json"
STUDIES = {
    "drawdown_before_drawup_bs": (8, 16),
    "occupation_digital_bs": (10, 20),
    "drawdown_occupation_digital_bs": (10, 20),
    "insurance_no_recovery_bs": (20, 40),
    "insurance_with_recovery_bs": (10, 20),
    "insurance_with_recovery_cev": (10, 20),
}


def study(name: str) -> dict:
    """Every rung of the study as ``repr`` strings."""
    from drawdown_ctmc import cli

    ladder = ",".join(str(n) for n in STUDIES[name])
    cfg = cli.load_config(str(ROOT / "configs" / f"{name}.ini"), [f"grid.n_x={ladder}"])
    rows = cli.run_table(cfg).rows
    return {"n_x": [r.n_x for r in rows],
            "value": [repr(r.value) for r in rows],
            "extrapolated": [repr(r.extrapolated) for r in rows]}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_rungs_bit_for_bit(name):
    assert study(name) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    PINS.write_text(json.dumps({name: study(name) for name in STUDIES}, indent=1) + "\n")
