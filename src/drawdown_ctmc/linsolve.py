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
                       (``PsiPair.exit_weights``).  The pair carries a
                       trailing node axis: one recursion over the states
                       builds the pairs of every Laplace node at once.

Adjacent-state bridge determinants are evaluated through the Wronskian
product recurrence W_{i+1} = (down_i / up_i) W_i, which is cancellation
free; all other bridges are benign because the dominant product is orders
of magnitude above the discarded one.
"""

from __future__ import annotations

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
    """Killing rate: a constant q, a state function k(x), or k(x, max).

    A constant may be a (k,) node vector, and a state function may return
    one column per node; ``values`` then has shape (states, k).
    """

    def __init__(self, const=None, fn=None, fn2=None):
        self.const = const
        self.fn = fn
        self.fn2 = fn2

    @classmethod
    def constant(cls, q) -> "KillingField":
        return cls(const=np.asarray(q, dtype=complex))

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
            out = np.full((len(states),) + self.const.shape, self.const)
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

class PsiPair:
    """Scaled fundamental solutions of (k - G) psi = 0 on a birth-death chain,
    one pair per column of the killing.

    ``killing`` is an (n, k) array whose column j is the per-state killing
    of node j.  psi_plus vanishes at the bottom state and equals 1 at the
    top; psi_minus mirrors it.  Both are stored as mantissa *
    exp(log_scale) in (n, k) arrays.  The index-array methods return
    arrays of shape ``index_shape + (k,)``; a pair built from a single
    node (``single``) drops the node axis.
    """

    def __init__(self, gen: Generator, killing: np.ndarray, *, single: bool = False):
        if gen.structure != BIRTH_DEATH:
            raise NotBirthDeath("psi pair requires a birth-death generator")
        n = gen.n
        if n < 3:
            raise DegenerateWindow("need at least one interior state")
        if killing.ndim != 2 or killing.shape[0] != n:
            raise ValueError("killing needs one row per state and one column per node")
        self.gen = gen
        self.single = single
        up, down = gen.up[1:n - 1], gen.down[1:n - 1]
        if np.any(up <= 0.0) or np.any(down <= 0.0):
            raise DegenerateWindow("birth-death chain has a zero interior rate")

        # Interior row i reads c_i psi_i = up_i psi_{i+1} + down_i psi_{i-1}.
        # Step the ratios of consecutive values, r_i = psi+_{i+1} / psi+_i
        # upward from psi+_0 = 0, psi+_1 = 1, and s_i = psi-_{i-1} / psi-_i
        # downward from psi-_{n-1} = 0, psi-_{n-2} = 1 (row j is state j + 1).
        c = killing[1:n - 1] - gen.diagonal()[1:n - 1, None]
        c_up, d_up = c / up[:, None], (down / up).tolist()
        c_dn, u_dn = c / down[:, None], (up / down).tolist()
        r = np.empty_like(c)
        r[0] = rj = c_up[0]
        for j in range(1, n - 2):
            r[j] = rj = c_up[j] - d_up[j] / rj
        s = np.empty_like(c)
        s[-1] = sj = c_dn[-1]
        for j in range(n - 4, -1, -1):
            s[j] = sj = c_dn[j] - u_dn[j] / sj
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(s))
                and np.all(r != 0.0) and np.all(s != 0.0)):
            raise Singular("fundamental solution vanishes inside the chain or at its far end")

        k = killing.shape[1]
        um = np.zeros((n, k), dtype=complex)
        uL = np.zeros((n, k))
        um[1] = 1.0
        um[2:] = np.cumprod(r / np.abs(r), axis=0)
        uL[2:] = np.cumsum(np.log(np.abs(r)), axis=0)
        dm = np.zeros((n, k), dtype=complex)
        dL = np.zeros((n, k))
        dm[n - 2] = 1.0
        dm[:n - 2] = np.cumprod((s / np.abs(s))[::-1], axis=0)[::-1]
        dL[:n - 2] = np.cumsum(np.log(np.abs(s))[::-1], axis=0)[::-1]
        # normalize psi_plus(top) = 1, psi_minus(bottom) = 1
        uL -= uL[n - 1]
        um /= um[n - 1]
        dL -= dL[0]
        dm /= dm[0]
        self._um, self._uL, self._dm, self._dL = um, uL, dm, dL

        # Wronskian W_i = psi+_i psi-_{i-1} - psi+_{i-1} psi-_i by the exact
        # product recurrence W_{i+1} = (down_i/up_i) W_i
        wm = np.zeros((n, k), dtype=complex)
        wL = np.zeros((n, k))
        wm[1:] = um[1] * dm[0]
        steps = np.concatenate(([0.0], np.cumsum(np.log(down / up))))
        wL[1:] = (uL[1] + dL[0]) + steps[:, None]
        self._wm, self._wL = wm, wL

    def _out(self, arr):
        return arr[..., 0] if self.single else arr

    # -- raw values (may overflow for long chains; meant for tests) ---------

    def psi_plus(self, i):
        return self._out(self._um[i] * np.exp(np.minimum(self._uL[i], 700.0)))

    def psi_minus(self, i):
        return self._out(self._dm[i] * np.exp(np.minimum(self._dL[i], 700.0)))

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
        return self._out(self._um[i] / self._um[j] * np.exp(d))

    def bridge_many(self, I, J):
        """(mantissa, log) arrays of the bridge determinant for I > J."""
        I, J = np.broadcast_arrays(np.asarray(I, dtype=int), np.asarray(J, dtype=int))
        L1 = self._uL[I] + self._dL[J]
        L2 = self._uL[J] + self._dL[I]
        L = np.maximum(L1, L2)
        mant = (self._um[I] * self._dm[J] * np.exp(L1 - L)
                - self._um[J] * self._dm[I] * np.exp(L2 - L))
        adj = I == J + 1
        if np.any(adj):
            mant[adj] = self._wm[I[adj]]
            L[adj] = self._wL[I[adj]]
        return self._out(mant), self._out(L)

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
        broadcast against each other to an index shape, at least
        one-dimensional; the results have that shape plus the node axis."""
        x, bottom, top = np.broadcast_arrays(np.atleast_1d(x), bottom, top)
        den = self.bridge_many(top, bottom)
        onto_top = self.ratio_many(self.bridge_many(x, bottom), den)
        onto_bottom = self.ratio_many(self.bridge_many(top, x), den)
        return onto_top, onto_bottom


def psi_pair(gen: Generator, q) -> PsiPair:
    """Fundamental solution pairs for killing ``q``: a scalar, a (k,) vector
    of nodes (one pair per node, constant killing), or an (n, k) per-state
    killing with one column per node (the occupation-time fast path)."""
    q = np.asarray(q, dtype=complex)
    if q.ndim > 2:
        raise ValueError("killing must be a scalar, a node vector or an (n, k) array")
    killing = q if q.ndim == 2 else np.broadcast_to(q.reshape(-1), (gen.n, q.size))
    return PsiPair(gen, killing, single=q.ndim == 0)


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
