"""First-passage building blocks on the chain.

Everything here works over the complex field (Laplace arguments are
complex nodes).  The quantities solve windowed systems

    (k(x) - G) P(x) = 0            for states x inside a window (l, r],
    P(x) = f(x)                    outside,

whose solution is the killed exit functional with payoff f.  This module
holds the killing fields and payoffs they read, and:

* ``psi_pair``      -- the two fundamental solutions of a tridiagonal
                       (birth-death) chain, or of the chain cut to its
                       states lo .. N-1, held in scaled mantissa/exponent
                       form so that growth like e^{kappa * span} never
                       overflows; any two-sided exit coefficient is a ratio
                       of 2x2 "bridge" determinants of the pair
                       (``PsiPair.exit_weights``).  The pair carries a
                       trailing node axis: one recursion over the states
                       builds the pairs of every Laplace node at once, each
                       state's step two ufuncs on that state's node-wide
                       row.  The methods read a run of consecutive states
                       as a view of the pair's read-only arrays and gather
                       any other index array, at the same bits.

Adjacent-state bridge determinants are evaluated through the Wronskian
product recurrence W_{i+1} = (down_i / up_i) W_i, which is cancellation
free; all other bridges are benign because the dominant product is orders
of magnitude above the discarded one.
"""

from __future__ import annotations

import numpy as np

from .ctmc import BIRTH_DEATH, Generator

__all__ = [
    "PsiPair",
    "Singular",
    "NotBirthDeath",
    "DegenerateWindow",
    "psi_pair",
    "killing_values",
]


class Singular(np.linalg.LinAlgError):
    """The interior window matrix is numerically singular."""


class NotBirthDeath(TypeError):
    """Operation requires a tridiagonal (birth-death) generator."""


class DegenerateWindow(ValueError):
    """The chain cannot hold a required window (too few states, a zero
    interior rate, or an endpoint below the grid)."""


# ---------------------------------------------------------------------------
# killing fields
# ---------------------------------------------------------------------------

def killing_values(k, states: np.ndarray) -> np.ndarray:
    """Killing rates over the states.  ``k`` is a constant, one node or a
    (k,) node vector (one column per node), or a function of the states,
    which may return one column per node."""
    if callable(k):
        out = np.asarray(k(np.asarray(states)), dtype=complex)
    else:
        const = np.asarray(k, dtype=complex)
        if const.ndim > 1:
            raise ValueError("a constant killing is one node or a vector of nodes")
        out = np.full((len(states),) + const.shape, const)
    _check_nonneg_real(out)
    return out


def _check_nonneg_real(vals: np.ndarray) -> None:
    if np.any(vals.real < -1e-12):
        raise ValueError("killing rates must have nonnegative real part")


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

def _payoff_array(gen: Generator, f) -> np.ndarray:
    if f is None:
        return np.ones(gen.n, dtype=complex)
    if callable(f):
        return np.asarray(f(gen.states), dtype=complex)
    arr = np.asarray(f, dtype=complex)
    if arr.shape != (gen.n,):
        raise ValueError("payoff array must have one value per state")
    return arr


# ---------------------------------------------------------------------------
# fundamental solutions of a birth-death chain (scaled representation)
# ---------------------------------------------------------------------------

class PsiPair:
    """Scaled fundamental solutions of (k - G) psi = 0 on a birth-death chain,
    one pair per column of the killing.

    ``killing`` is an (N, k) array whose column j is the per-state killing
    of node j.  The pair solves the chain cut to the states lo .. N-1:
    psi+ vanishes at the state ``lo`` and equals 1 at the top; psi-
    vanishes at the top and equals 1 at ``lo``.  Both are stored as
    mantissa * exp(log_scale) in (N - lo, k) arrays, row r holding state
    lo + r; the methods take global state indices, and a state outside
    lo .. N-1 raises ``DegenerateWindow``.  Any two-sided exit coefficient
    of a window inside the range is the same whichever lo spans it, but a
    pair that need not reach down to state 0 carries less growth across
    the range, so its bridges keep more digits.  The index-array methods
    return arrays of shape ``index_shape + (k,)``, reading a run of
    consecutive states as a view (``_rows``), so the arrays are read-only;
    a pair built from a single node (``single``) drops the node axis.
    """

    def __init__(self, gen: Generator, killing: np.ndarray, *, single: bool = False,
                 lo: int = 0):
        if gen.structure != BIRTH_DEATH:
            raise NotBirthDeath("psi pair requires a birth-death generator")
        if lo < 0:
            raise DegenerateWindow("the pair's lowest state is below the grid")
        n = gen.n - lo
        if n < 3:
            raise DegenerateWindow("need at least one interior state")
        if killing.ndim != 2 or killing.shape[0] != gen.n:
            raise ValueError("killing needs one row per state and one column per node")
        self.gen, self.single, self.lo = gen, single, lo
        up, down = gen.up[lo + 1:gen.n - 1], gen.down[lo + 1:gen.n - 1]
        if np.any(up <= 0.0) or np.any(down <= 0.0):
            raise DegenerateWindow("birth-death chain has a zero interior rate")

        # From here on i is a row, state lo + i.  Interior row i reads
        # c_i psi_i = up_i psi_{i+1} + down_i psi_{i-1}.  Step the ratios of
        # consecutive values, r_i = psi+_{i+1} / psi+_i upward from
        # psi+_0 = 0, psi+_1 = 1, and s_i = psi-_{i-1} / psi-_i downward from
        # psi-_{n-1} = 0, psi-_{n-2} = 1 (entry j is row j + 1), both in one
        # loop: step j holds r_j and s_{n-3-j}.
        c = killing[lo + 1:gen.n - 1] - gen.diagonal()[lo + 1:gen.n - 1, None]
        k = killing.shape[1]
        coef = np.empty((n - 2, 2, k), dtype=complex)
        np.divide(c, up[:, None], out=coef[:, 0])
        np.divide(c, down[:, None], out=coef[::-1, 1])
        # Step j reads r_j = coef_j - back_j / r_{j-1} (and s likewise), with
        # back_j = down_j / up_j (up_j / down_j for s).  rs holds ``back``
        # node-wide before the loop, so each step is two contiguous ufuncs
        # on its own row: divide there by the row below, subtract there.
        rs = np.empty_like(coef)
        rs[:, 0] = (down / up)[:, None]
        rs[:, 1] = (up / down)[::-1, None]
        rs[0] = below = coef[0]
        for row, cj in zip(rs[1:], coef[1:]):
            np.divide(row, below, out=row)
            below = np.subtract(cj, row, out=row)
        r, s = rs[:, 0], rs[::-1, 1]
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(s))
                and np.all(r != 0.0) and np.all(s != 0.0)):
            raise Singular("fundamental solution vanishes inside the chain or at its far end")

        abs_r, abs_s = np.abs(r), np.abs(rs[:, 1])[::-1]
        um = np.zeros((n, k), dtype=complex)
        uL = np.zeros((n, k))
        um[1] = 1.0
        um[2:] = np.cumprod(r / abs_r, axis=0)
        uL[2:] = np.cumsum(np.log(abs_r), axis=0)
        dm = np.zeros((n, k), dtype=complex)
        dL = np.zeros((n, k))
        dm[n - 2] = 1.0
        dm[:n - 2] = np.cumprod((s / abs_s)[::-1], axis=0)[::-1]
        dL[:n - 2] = np.cumsum(np.log(abs_s)[::-1], axis=0)[::-1]
        # normalize psi+(top) = 1, psi-(bottom) = 1
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
        # The methods may return views of these arrays (a run of states, the
        # column pairs of ``_columns``), so a write into a result raises
        # instead of changing the pair for every later reader.
        for arr in (um, uL, dm, dL, wm, wL):
            arr.flags.writeable = False

    def _out(self, arr):
        return arr[..., 0] if self.single else arr

    def _columns(self, cols: slice) -> "PsiPair":
        """The pairs of the killing columns ``cols``, as views of this
        pair's arrays.  Each column's recursion is its own, so the slice
        equals, bit for bit, a pair built from those columns alone."""
        part = object.__new__(PsiPair)
        part.gen, part.single, part.lo = self.gen, False, self.lo
        for name in ("_um", "_uL", "_dm", "_dL", "_wm", "_wL"):
            setattr(part, name, getattr(self, name)[:, cols])
        return part

    def _rows(self, states):
        """The rows of the global ``states``, and their selector: a slice
        (the rows read as a view) when the states are one run of
        consecutive states, else the rows themselves (gathered)."""
        rows = np.asarray(states, dtype=int) - self.lo
        if rows.size == 0:
            return rows, rows
        if rows.ndim == 1 and rows[-1] - rows[0] == rows.size - 1 and (
                rows.size < 3 or np.all(np.diff(rows) == 1)):
            first, last = rows[0], rows[-1]
            sel = slice(first, last + 1)
        else:
            first, last, sel = rows.min(), rows.max(), rows
        if first < 0:
            raise DegenerateWindow("a state below the pair's range")
        if last >= self._um.shape[0]:
            raise DegenerateWindow("a state above the pair's top")
        return rows, sel

    # -- scaled determinants over index arrays ---------------------------------

    def ratio_plus(self, i, j):
        """psi+_i / psi+_j (one-sided hitting weights); indices or arrays."""
        (_, i), (_, j) = self._rows(i), self._rows(j)
        if np.any(self._um[j] == 0.0):
            raise Singular("psi+ vanishes at the reference state")
        d = self._uL[i] - self._uL[j]
        if np.any(d > 700.0):
            raise Singular("hitting ratio overflow")
        return self._out(self._um[i] / self._um[j] * np.exp(d))

    def bridge_many(self, I, J):
        """(mantissa, log) arrays of the bridge determinant
        psi+_I psi-_J - psi+_J psi-_I; adjacent states, in either order,
        take the cancellation-free Wronskian."""
        (I, i), (J, j) = map(self._rows, np.broadcast_arrays(I, J))
        adj = np.abs(I - J) == 1
        if adj.all():
            if isinstance(i, slice) and isinstance(j, slice):
                upper = i if i.start > j.start else j
            else:
                upper = np.maximum(I, J)
            return self._out((I - J)[..., None] * self._wm[upper]), self._out(self._wL[upper])
        L1 = self._uL[i] + self._dL[j]
        L2 = self._uL[j] + self._dL[i]
        L = np.maximum(L1, L2)
        # ``view * temporary`` may run in place on a large temporary with
        # the operands swapped, and complex products are not commutative
        # bit for bit: np.multiply keeps the order whether a side is a
        # run's view or a gathered copy
        mant = (np.multiply(self._um[i], self._dm[j]) * np.exp(L1 - L)
                - np.multiply(self._um[j], self._dm[i]) * np.exp(L2 - L))
        if np.any(adj):
            upper = np.maximum(I, J)[adj]
            mant[adj] = (I - J)[adj][:, None] * self._wm[upper]   # W_upper, signed
            L[adj] = self._wL[upper]
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


def psi_pair(gen: Generator, q, lo: int = 0) -> PsiPair:
    """Fundamental solution pairs for killing ``q``: a scalar, a (k,) vector
    of nodes (one pair per node, constant killing), or an (n, k) per-state
    killing with one column per node (the occupation-time fast path).  The
    pairs span the states lo .. n-1 (``PsiPair``)."""
    q = np.asarray(q, dtype=complex)
    if q.ndim > 2:
        raise ValueError("killing must be a scalar, a node vector or an (n, k) array")
    killing = q if q.ndim == 2 else np.broadcast_to(q.reshape(-1), (gen.n, q.size))
    return PsiPair(gen, killing, single=q.ndim == 0, lo=lo)

