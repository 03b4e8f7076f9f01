"""Fast routes against the generic recursions on random birth-death chains:
the same chain in dense storage takes the generic ones."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from drawdown_ctmc.ctmc import BirthDeathGenerator, build_grid  # noqa: E402
from drawdown_ctmc.laplace import inversion_nodes_weights  # noqa: E402
from drawdown_ctmc.quantities import QuantityRequest, evaluate  # noqa: E402
from helpers import dense_copy  # noqa: E402

NODES, _ = inversion_nodes_weights(0.5)
GRID = build_grid(0.0, 0.2, 4, -0.6, 0.4)   # 21 states, windows four steps wide
REQUESTS = [
    QuantityRequest("Q", a=0.2),
    QuantityRequest("A", a=0.2, b=0.3, y=-0.07),   # off-lattice minimum
    QuantityRequest("B", a=0.2, xi=-0.05, shift=0.05),
    QuantityRequest("C", a=0.2, xi=0.1, shift=0.05),
    QuantityRequest("Hn", a=0.2, n=2),
    QuantityRequest("Hsum", a=0.2),
    QuantityRequest("Jn", a=0.2, n=2, x=-0.1, y=0.05),
    QuantityRequest("Jsum", a=0.2, x=-0.1, y=0.05),
]
RATES = st.lists(st.floats(0.5, 60.0), min_size=GRID.n, max_size=GRID.n)


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(up=RATES, down=RATES)
def test_fast_routes_match_generic(up, down):
    gen = BirthDeathGenerator(GRID, np.array(up), np.array(down))
    for req in REQUESTS:
        req = replace(req, q=NODES)
        fast = evaluate(gen, req)
        generic = evaluate(dense_copy(gen), req)
        assert fast.shape == generic.shape == NODES.shape
        gap = np.abs(fast - generic)
        assert np.all(gap <= 1e-10 * np.maximum(1.0, np.abs(generic))), (req.kind, gap.max())
