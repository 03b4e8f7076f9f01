"""Helpers shared by the test modules."""

import numpy as np

from drawdown_ctmc.ctmc import DenseGenerator, Grid


def dense_copy(gen):
    """The same chain in dense storage: every quantity on it takes the
    windowed sweep or the dense generic recursions, the reference routes
    for the birth-death and lattice fast paths."""
    return DenseGenerator(gen.grid, gen.to_dense())


def random_jump_chain(n, seed=3):
    """A dense chain with random jumps of every size, absorbing at both ends."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 30.0, (n, n))
    rates[rng.random((n, n)) < 0.6] = 0.0
    rates[[0, n - 1]] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    states = np.arange(n) * 0.04
    return DenseGenerator(Grid(states=states, h=0.04, eta_x=n // 2, x0=float(states[n // 2])),
                          rates)
