"""Helpers shared by the test modules."""

from drawdown_ctmc.ctmc import DenseGenerator


def dense_copy(gen):
    """The same chain in dense storage: every quantity on it takes the
    windowed sweep or the dense generic recursions, the reference routes
    for the birth-death and lattice fast paths."""
    return DenseGenerator(gen.grid, gen.to_dense())
