"""First-passage linear systems on the chain.

Everything here works over the complex field (Laplace arguments are
complex nodes).  The basic object is the windowed system

    (k(x) - G) P(x) = 0            for states x inside a window (l, r],
    P(x) = f(x)                    outside,

whose solution is the killed exit functional with payoff f.  On top of it:

* ``psi_pair``      -- the two fundamental solutions of a tridiagonal
                       (birth-death) chain, held in scaled mantissa/exponent
                       form so that growth like e^{kappa * span} never
                       overflows; any two-sided exit coefficient is a ratio
                       of 2x2 "bridge" determinants of the pair
                       (``PsiPair.exit_weights``).

Adjacent-state bridge determinants are evaluated through the Wronskian
product recurrence W_{i+1} = (down_i / up_i) W_i, which is cancellation
free; all other bridges are benign because the dominant product is orders
of magnitude above the discarded one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ctmc import BIRTH_DEATH, Generator

__all__ = [
    "KillingField",
    "PassageSolution",
    "PsiPair",
    "Singular",
    "NotBirthDeath",
    "DegenerateWindow",
    "solve_passage",
    "psi_pair",
    "hitting_coeffs_diffusion",
]

RESIDUAL_RTOL = 1e-10


class Singular(np.linalg.LinAlgError):
    """The interior window matrix is numerically singular."""


class NotBirthDeath(TypeError):
    """Operation requires a tridiagonal (birth-death) generator."""


class DegenerateWindow(ValueError):
    """A required window endpoint is missing from the grid."""


# ---------------------------------------------------------------------------
# killing fields
# ---------------------------------------------------------------------------

class KillingField:
    """Killing rate: a constant q, a state function k(x), or k(x, max)."""

    def __init__(self, const=None, fn=None, fn2=None):
        self.const = const
        self.fn = fn
        self.fn2 = fn2

    @classmethod
    def constant(cls, q: complex) -> "KillingField":
        return cls(const=complex(q))

    @classmethod
    def from_function(cls, fn: Callable) -> "KillingField":
        """fn maps an array of states to killing rates."""
        return cls(fn=fn)

    @classmethod
    def bivariate(cls, fn2: Callable) -> "KillingField":
        """fn2 maps (array of states, running max) to killing rates."""
        return cls(fn2=fn2)

    @classmethod
    def coerce(cls, k) -> "KillingField":
        if isinstance(k, KillingField):
            return k
        if np.isscalar(k):
            return cls.constant(k)
        if callable(k):
            return cls(fn=k)
        raise TypeError(f"cannot interpret {k!r} as a killing field")

    def values(self, states: np.ndarray) -> np.ndarray:
        if self.const is not None:
            out = np.full(len(states), self.const, dtype=complex)
        elif self.fn is not None:
            out = np.asarray(self.fn(np.asarray(states)), dtype=complex)
        else:
            raise TypeError("bivariate killing field needs a running-max argument")
        _check_nonneg_real(out)
        return out

    def values2(self, states: np.ndarray, y: float) -> np.ndarray:
        if self.fn2 is not None:
            out = np.asarray(self.fn2(np.asarray(states), y), dtype=complex)
            _check_nonneg_real(out)
            return out
        return self.values(states)


def _check_nonneg_real(vals: np.ndarray) -> None:
    if np.any(vals.real < -1e-12):
        raise ValueError("killing rates must have nonnegative real part")


# ---------------------------------------------------------------------------
# window bookkeeping
# ---------------------------------------------------------------------------

def window_rows(gen: Generator, window) -> np.ndarray:
    """Indices of states inside the interval (l, r]."""
    l, r = window
    states = gen.states
    tol = 1e-9 * max(1.0, abs(l), abs(r))
    return np.nonzero((states > l + tol) & (states <= r + tol))[0]


def _payoff_array(gen: Generator, f) -> np.ndarray:
    if f is None:
        return np.ones(gen.n, dtype=complex)
    if callable(f):
        return np.asarray(f(gen.states), dtype=complex)
    arr = np.asarray(f, dtype=complex)
    if arr.shape != (gen.n,):
        raise ValueError("payoff array must have one value per state")
    return arr


def outside_matvec(gen: Generator, lo: int, hi: int, values: np.ndarray) -> np.ndarray:
    """For each window row m in [lo, hi], sum_{z outside} G(m, z) values[z]."""
    out = np.zeros(hi - lo + 1, dtype=complex)
    for m in range(max(lo, 1), min(hi, gen.n - 2) + 1):
        row = gen.row(m)
        row[lo:hi + 1] = 0.0
        out[m - lo] = row @ values
    return out


@dataclass
class PassageSolution:
    """Solution of the windowed first-passage system on the full state set."""

    values: np.ndarray          # complex, one entry per state
    window: tuple               # the (l, r] interval it was solved on
    rows: np.ndarray            # indices that were interior unknowns

    def at(self, i: int) -> complex:
        return complex(self.values[i])


def solve_passage(gen: Generator, window, k, f) -> PassageSolution:
    """Solve the killed exit system on the window (l, r].

    ``k`` may be a scalar, a callable, or a KillingField (univariate);
    ``f`` a callable, an array over states, or None for f = 1.
    """
    rows = window_rows(gen, window)
    if rows.size == 0:
        raise DegenerateWindow(f"window {window} contains no grid states")
    kf = KillingField.coerce(k)
    f_arr = _payoff_array(gen, f)
    lo, hi = int(rows[0]), int(rows[-1])
    if not np.array_equal(rows, np.arange(lo, hi + 1)):
        raise DegenerateWindow("window rows must be contiguous")
    kv = kf.values(gen.states[lo:hi + 1])

    block = gen.window_block(lo, hi).astype(complex)
    mat = np.diag(kv) - block
    f_out = f_arr.copy()
    f_out[lo:hi + 1] = 0.0
    rhs = outside_matvec(gen, lo, hi, f_out)
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"window matrix is singular: {exc}") from exc
    resid = np.abs(mat @ sol - rhs).max()
    scale = np.abs(mat).sum(axis=1).max() * max(1.0, np.abs(sol).max()) + np.abs(rhs).max()
    if not resid <= RESIDUAL_RTOL * max(1.0, scale):
        raise Singular(f"window solve residual {resid:.3g} exceeds tolerance")

    values = f_arr.copy()
    values[lo:hi + 1] = sol
    return PassageSolution(values=values, window=tuple(window), rows=rows)


# ---------------------------------------------------------------------------
# fundamental solutions of a birth-death chain (scaled representation)
# ---------------------------------------------------------------------------

def _rebase(m1, L1, m2, L2):
    """Return (a, b, L) with a e^L = m1 e^L1 and b e^L = m2 e^L2."""
    L = max(L1, L2)
    return m1 * math.exp(L1 - L), m2 * math.exp(L2 - L), L


class PsiPair:
    """Scaled fundamental solutions of (k - G) psi = 0 on a birth-death chain.

    psi_plus vanishes at the bottom state and equals 1 at the top;
    psi_minus mirrors it.  Stored as mantissa * exp(log_scale) per state.
    """

    def __init__(self, gen: Generator, killing: np.ndarray):
        if gen.structure != BIRTH_DEATH:
            raise NotBirthDeath("psi pair requires a birth-death generator")
        n = gen.n
        if n < 3:
            raise DegenerateWindow("need at least one interior state")
        self.gen = gen
        self.killing = killing
        up, down, diag = gen.up, gen.down, gen.diagonal()
        if np.any(up[1:n - 1] <= 0.0) or np.any(down[1:n - 1] <= 0.0):
            raise DegenerateWindow("birth-death chain has a zero interior rate")

        um = np.zeros(n, dtype=complex)
        uL = np.zeros(n, dtype=float)
        um[1] = 1.0
        for i in range(1, n - 1):
            c = killing[i] - diag[i]
            a, b, L = _rebase(um[i], uL[i], um[i - 1], uL[i - 1])
            val = (c * a - down[i] * b) / up[i]
            s = abs(val)
            if s == 0.0:
                um[i + 1], uL[i + 1] = 0.0, L
            else:
                um[i + 1], uL[i + 1] = val / s, L + math.log(s)

        dm = np.zeros(n, dtype=complex)
        dL = np.zeros(n, dtype=float)
        dm[n - 2] = 1.0
        for i in range(n - 2, 0, -1):
            c = killing[i] - diag[i]
            a, b, L = _rebase(dm[i], dL[i], dm[i + 1], dL[i + 1])
            val = (c * a - up[i] * b) / down[i]
            s = abs(val)
            if s == 0.0:
                dm[i - 1], dL[i - 1] = 0.0, L
            else:
                dm[i - 1], dL[i - 1] = val / s, L + math.log(s)

        if um[n - 1] == 0.0 or dm[0] == 0.0:
            raise Singular("fundamental solution vanishes at the far boundary")
        # normalize psi_plus(top) = 1, psi_minus(bottom) = 1
        uL -= uL[n - 1]
        um = um / um[n - 1]
        dL -= dL[0]
        dm = dm / dm[0]
        um[0] = 0.0
        dm[n - 1] = 0.0
        self._um, self._uL, self._dm, self._dL = um, uL, dm, dL

        # Wronskian W_i = psi+_i psi-_{i-1} - psi+_{i-1} psi-_i by the exact
        # product recurrence W_{i+1} = (down_i/up_i) W_i
        wm = np.zeros(n, dtype=complex)
        wL = np.zeros(n, dtype=float)
        wm[1] = um[1] * dm[0]
        wL[1] = uL[1] + dL[0]
        for i in range(1, n - 1):
            wm[i + 1] = wm[i]
            wL[i + 1] = wL[i] + math.log(down[i] / up[i])
        self._wm, self._wL = wm, wL

    # -- raw values (may overflow for long chains; meant for tests) ---------

    def psi_plus(self, i: int) -> complex:
        return self._um[i] * math.exp(min(self._uL[i], 700.0))

    def psi_minus(self, i: int) -> complex:
        return self._dm[i] * math.exp(min(self._dL[i], 700.0))

    # -- scaled determinants over index arrays ---------------------------------

    def ratio_plus(self, i, j):
        """psi+_i / psi+_j (one-sided hitting weights); indices or arrays."""
        i = np.asarray(i, dtype=int)
        j = np.asarray(j, dtype=int)
        if np.any(self._um[j] == 0.0):
            raise Singular("psi+ vanishes at the reference state")
        d = self._uL[i] - self._uL[j]
        if np.any(d > 700.0):
            raise Singular("hitting ratio overflow")
        return self._um[i] / self._um[j] * np.exp(d)

    def bridge_many(self, I, J):
        """(mantissa, log) arrays of the bridge determinant for I > J."""
        I = np.asarray(I, dtype=int)
        J = np.asarray(J, dtype=int)
        L1 = self._uL[I] + self._dL[J]
        L2 = self._uL[J] + self._dL[I]
        L = np.maximum(L1, L2)
        mant = (self._um[I] * self._dm[J] * np.exp(L1 - L)
                - self._um[J] * self._dm[I] * np.exp(L2 - L))
        adj = I == J + 1
        if np.any(adj):
            mant = mant.copy()
            L = L.copy()
            mant[adj] = self._wm[I[adj]]
            L[adj] = self._wL[I[adj]]
        return mant, L

    @staticmethod
    def ratio_many(num, den) -> np.ndarray:
        mn, Ln = num
        md, Ld = den
        if np.any(md == 0.0):
            raise Singular("degenerate bridge denominator")
        d = Ln - Ld
        if np.any(d > 700.0):
            raise Singular("exit coefficient overflow")
        return mn / md * np.exp(d)

    def exit_weights(self, x, bottom, top):
        """Killed exit weights (onto_top, onto_bottom) of the window
        (bottom, top) started from x: the transforms of leaving it at the
        state ``top`` and at the state ``bottom``.  The index arguments
        broadcast against each other; the results are arrays of the
        broadcast shape, at least one-dimensional."""
        x, bottom, top = np.broadcast_arrays(np.atleast_1d(x), bottom, top)
        den = self.bridge_many(top, bottom)
        onto_top = self.ratio_many(self.bridge_many(x, bottom), den)
        onto_bottom = self.ratio_many(self.bridge_many(top, x), den)
        return onto_top, onto_bottom


def psi_pair(gen: Generator, q) -> PsiPair:
    """Fundamental solution pair for constant killing q (or a per-state
    killing vector, which the occupation-time fast paths use)."""
    if np.isscalar(q):
        killing = np.full(gen.n, complex(q))
    else:
        killing = np.asarray(q, dtype=complex)
    return PsiPair(gen, killing)


def hitting_coeffs_diffusion(psi: PsiPair, q, x: float, a: float):
    """Two-sided exit coefficients of the drawdown window (x-a, x].

    Returns (up, down): the weights of exiting at the state just
    above x and at (x-a) respectively, starting from x.
    """
    gen = psi.gen
    grid = gen.grid
    i = grid.index_of(x) if not isinstance(x, (int, np.integer)) else int(x)
    steps = grid.steps_of(a)
    floor = grid.floor_index(i, steps)
    if floor is None or i + 1 >= gen.n:
        raise DegenerateWindow("window endpoints (x-a) and x+ must exist on the grid")
    up, down = psi.exit_weights(i, floor, i + 1)
    return complex(up[0]), complex(down[0])
