"""Numerical Laplace inversion (damped Fourier series with Euler summation)
and first-order grid extrapolation.

The inversion evaluates the transform at the nodes

    q_k = (decay + 2 k pi i) / (2 T),    k = 0 .. base_terms + euler_terms,

and combines the alternating partial sums with binomial (Euler) weights.
The discretization error of the damped series is about e^{-decay}; the
default decay 18.4 gives ~1e-8 for transforms of bounded functions.
Because the estimate is a fixed linear combination of Re F(q_k), the node
set and weights are exposed so callers can evaluate the whole node set as
one batch and fold deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp

import numpy as np

__all__ = [
    "InversionConfig",
    "NodeFailure",
    "inversion_nodes_weights",
    "invert",
    "invert_values",
    "richardson",
]


class NodeFailure(RuntimeError):
    """A transform evaluation failed at an inversion node, or somewhere in a
    node vector evaluated as one batch (``node`` is then the vector)."""

    def __init__(self, node, cause: Exception):
        self.node = node
        self.cause = cause
        super().__init__(f"transform evaluation failed at node {node}: {cause}")


@dataclass(frozen=True)
class InversionConfig:
    """Euler-summation inversion parameters.

    decay_param controls the damped-series discretization error
    (~e^{-decay_param}); base_terms is the first partial sum taken;
    euler_terms the number of binomially averaged sums after it.
    """

    decay_param: float = 18.4
    base_terms: int = 15
    euler_terms: int = 11

    def __post_init__(self):
        if self.base_terms < 1 or self.euler_terms < 1:
            raise ValueError("base_terms and euler_terms must be >= 1")


def inversion_nodes_weights(T: float, cfg: InversionConfig = InversionConfig()):
    """Nodes q_k and real weights w_k with  F(T) ~= sum_k w_k Re f_hat(q_k)."""
    if T <= 0.0:
        raise ValueError("maturity must be positive")
    A = cfg.decay_param
    n, m = cfg.base_terms, cfg.euler_terms
    ks = np.arange(0, n + m + 1)
    nodes = (0.5 * A + 1j * np.pi * ks) / T
    # weight of term k inside the Euler average of partial sums s_n..s_{n+m}
    tail = np.ones(n + m + 1)
    two_m = 2.0 ** m
    for k in range(n + 1, n + m + 1):
        ell = k - n
        tail[k] = sum(comb(m, j) for j in range(ell, m + 1)) / two_m
    base = exp(0.5 * A) / (2.0 * T)
    w = base * 2.0 * (-1.0) ** ks * tail
    w[0] = base * tail[0]
    return nodes, w


def invert_values(values, T: float, cfg: InversionConfig = InversionConfig()) -> float:
    """Fold transform values (evaluated at the node set, in order) into F(T)."""
    nodes, w = inversion_nodes_weights(T, cfg)
    vals = np.asarray(values, dtype=complex)
    if vals.shape != nodes.shape:
        raise ValueError(f"expected {nodes.size} node values, got {vals.size}")
    return float(np.dot(w, vals.real))


def invert(transform, T: float, cfg: InversionConfig = InversionConfig()) -> float:
    """Invert a Laplace transform at maturity T.

    ``transform`` maps a complex node with positive real part to the
    transform value; the estimate is deterministic for a fixed config.
    """
    nodes, _ = inversion_nodes_weights(T, cfg)
    vals = np.empty(nodes.size, dtype=complex)
    for idx, qk in enumerate(nodes):
        try:
            vals[idx] = transform(complex(qk))
        except Exception as exc:
            raise NodeFailure(complex(qk), exc) from exc
    return invert_values(vals, T, cfg)


def richardson(value_n: float, value_2n: float) -> float:
    """First-order extrapolation from values at core resolutions N and 2N."""
    return 2.0 * value_2n - value_n
