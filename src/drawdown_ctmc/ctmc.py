"""State grid and transition-rate-matrix construction.

The chain approximates the log-price process on a finite sorted state
vector whose first and last states are absorbing (zero rows).  Interior
rates come from central differences for the local part plus jump-measure
bin masses; small jumps inside (-h/2, h/2) are folded into the local drift
and variance.  The end-state bins are extended to +/-infinity so the total
jump mass is conserved (jumps beyond the lattice are absorbed at the ends).

Three storage regimes, matching how the rates are consumed:

* ``birth_death``   -- tridiagonal (diffusions): three diagonals.
* ``toeplitz_levy`` -- spatially homogeneous models on an h-lattice:
                       one stencil row plus boundary-tail vectors.
* ``general``       -- dense matrix (jump models on an arbitrary grid,
                       dense copies of any chain, hand-built test chains).

Grids and generators are immutable after assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    ModelSpec,
    diffusion_var,
    levy_bin_mass,
    small_jump_compensators,
    truncated_drift,
)

__all__ = [
    "Grid",
    "Generator",
    "BirthDeathGenerator",
    "ToeplitzLevyGenerator",
    "DenseGenerator",
    "BadBounds",
    "NegativeRate",
    "TooLarge",
    "build_grid",
    "build_generator",
    "build_levy_generator",
    "default_levy_truncation",
]

_TOL = 1e-9  # relative tolerance for lattice commensurability checks

BIRTH_DEATH = "birth_death"
TOEPLITZ_LEVY = "toeplitz_levy"
GENERAL = "general"


class BadBounds(ValueError):
    """Grid bounds do not enclose the core interval (x - a, x]."""


class NegativeRate(ValueError):
    """A central-difference neighbor rate came out negative (step too large
    for the local drift); refine h instead of clamping."""

    def __init__(self, state: float, neighbor: float, rate: float):
        self.state, self.neighbor, self.rate = state, neighbor, rate
        super().__init__(
            f"negative transition rate {rate:.6g} from state {state:.6g} to "
            f"{neighbor:.6g}; refine the grid step"
        )


class TooLarge(ValueError):
    """State space exceeds the cap of a dense path."""


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass
class Grid:
    """Sorted state vector with uniform step h, anchored so that the start
    point x0 (and hence x0 - a) are exact lattice points."""

    states: np.ndarray
    h: float
    eta_x: int          # index of the anchor x0
    x0: float

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if not np.all(np.diff(self.states) > 0.0):
            raise ValueError("grid states must be strictly increasing")

    @property
    def n(self) -> int:
        """Number of states (N + 1)."""
        return self.states.size

    def steps_of(self, level: float) -> int:
        """Number of lattice steps in a level that is a multiple of h."""
        ratio = level / self.h
        k = int(round(ratio))
        if abs(ratio - k) > 1e-6 * max(1.0, abs(ratio)):
            raise ValueError(f"level {level} is not a multiple of the grid step {self.h}")
        return k

    def steps_at_least(self, level: float) -> int:
        """Smallest integer k with k*h >= level (tolerant of roundoff)."""
        return int(math.ceil(level / self.h - _TOL))

    def index_of(self, value: float) -> int:
        """Exact lattice lookup; raises if value is off-lattice."""
        k = (value - self.x0) / self.h
        i = self.eta_x + int(round(k))
        if not (0 <= i < self.n) or abs(self.states[i] - value) > 1e-7 * max(1.0, abs(value)):
            raise KeyError(f"{value} is not a grid state")
        return i

    def nearest_index(self, value: float) -> int:
        return int(np.argmin(np.abs(self.states - value)))


def build_grid(x0: float, a: float, n_x: int, y_min: float, y_max: float) -> Grid:
    """Uniform lattice through x0 with step h = a/n_x, restricted to
    [y_min, y_max].  x0 and x0 - a are exact grid points."""
    if a <= 0.0:
        raise ValueError("drawdown level a must be positive")
    if n_x < 2:
        raise ValueError("need at least 2 core states")
    if y_min >= x0 - a or y_max <= x0:
        raise BadBounds(f"need y_min < x0 - a and y_max > x0, got [{y_min}, {y_max}] around x0={x0}, a={a}")
    h = a / n_x
    k_lo = int(math.ceil((y_min - x0) / h - _TOL))
    k_hi = int(math.floor((y_max - x0) / h + _TOL))
    states = x0 + h * np.arange(k_lo, k_hi + 1, dtype=float)
    return Grid(states=states, h=h, eta_x=-k_lo, x0=x0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class Generator:
    """Common interface over the three storage regimes.

    Rows are indexed by state; row 0 and row N are identically zero
    (absorbing).  ``column(j)`` returns the dense column of rates into
    state j (including the diagonal entry at position j).
    """

    structure: str = GENERAL
    grid: Grid

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def states(self) -> np.ndarray:
        return self.grid.states

    # -- required structure-specific methods --------------------------------

    def row(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def column(self, j: int) -> np.ndarray:
        raise NotImplementedError

    def diagonal(self) -> np.ndarray:
        raise NotImplementedError

    def window_block(self, lo: int, hi: int) -> np.ndarray:
        """Dense G[lo..hi, lo..hi] (inclusive bounds)."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return self.window_block(0, self.n - 1)

    def dump_csv(self, path: str) -> None:
        """Write nonzero entries as (i, j, rate), row-major ascending."""
        if self.n > 20000:
            raise TooLarge(f"refusing to densify a {self.n}-state generator")
        dense = self.to_dense()
        with open(path, "w") as fh:
            fh.write("i,j,rate\n")
            for i in range(self.n):
                row = dense[i]
                for j in np.nonzero(row)[0]:
                    fh.write(f"{i},{j},{row[j]:.17g}\n")


class BirthDeathGenerator(Generator):
    """Tridiagonal generator: only nearest-neighbor moves."""

    structure = BIRTH_DEATH

    def __init__(self, grid: Grid, up: np.ndarray, down: np.ndarray):
        """up[i] = G(i, i+1), down[i] = G(i, i-1); boundary rows forced to 0."""
        self.grid = grid
        n = grid.n
        self.up = np.asarray(up, dtype=float).copy()
        self.down = np.asarray(down, dtype=float).copy()
        self.up[0] = self.up[n - 1] = 0.0
        self.down[0] = self.down[n - 1] = 0.0
        if np.any(self.up < 0.0) or np.any(self.down < 0.0):
            i = int(np.argmin(np.minimum(self.up, self.down)))
            bad_up = self.up[i] < self.down[i]
            raise NegativeRate(grid.states[i], grid.states[i + 1 if bad_up else i - 1],
                               float(min(self.up[i], self.down[i])))
        self._diag = -(self.up + self.down)

    def row(self, i: int) -> np.ndarray:
        out = np.zeros(self.n)
        if 0 < i < self.n - 1:
            out[i - 1] = self.down[i]
            out[i] = self._diag[i]
            out[i + 1] = self.up[i]
        return out

    def column(self, j: int) -> np.ndarray:
        out = np.zeros(self.n)
        if j - 1 >= 1:
            out[j - 1] = self.up[j - 1]
        if j + 1 <= self.n - 2:
            out[j + 1] = self.down[j + 1]
        out[j] = self._diag[j] if 0 < j < self.n - 1 else 0.0
        return out

    def diagonal(self) -> np.ndarray:
        d = self._diag.copy()
        d[0] = d[-1] = 0.0
        return d

    def window_block(self, lo: int, hi: int) -> np.ndarray:
        m = hi - lo + 1
        blk = np.zeros((m, m))
        idx = np.arange(lo, hi + 1)
        interior = (idx > 0) & (idx < self.n - 1)
        rows = np.arange(m)[interior]
        blk[rows, rows] = self._diag[idx[interior]]
        below, above = rows[rows > 0], rows[rows < m - 1]
        blk[below, below - 1] = self.down[lo + below]
        blk[above, above + 1] = self.up[lo + above]
        return blk


class ToeplitzLevyGenerator(Generator):
    """Translation-invariant generator on an h-lattice.

    Interior rates depend only on the column offset; the two end columns
    additionally absorb the jump tails beyond the lattice.
    """

    structure = TOEPLITZ_LEVY

    def __init__(self, grid: Grid, local_up: float, local_down: float,
                 stencil: np.ndarray, tail_bot: np.ndarray, tail_top: np.ndarray):
        self.grid = grid
        n = grid.n
        self.local_up = float(local_up)
        self.local_down = float(local_down)
        self.stencil = np.asarray(stencil, dtype=float)   # offset d -> stencil[d + n - 1]
        self.center = n - 1
        self.tail_bot = np.asarray(tail_bot, dtype=float)  # row m -> mass of (-inf, (0-m)h + h/2]
        self.tail_top = np.asarray(tail_top, dtype=float)  # row m -> mass of [(n-1-m)h - h/2, inf)
        up_rate = self.local_up + self.stencil[self.center + 1]
        dn_rate = self.local_down + self.stencil[self.center - 1]
        if up_rate < 0.0:
            raise NegativeRate(grid.states[1], grid.states[2], up_rate)
        if dn_rate < 0.0:
            raise NegativeRate(grid.states[1], grid.states[0], dn_rate)
        # prefix and suffix sums for O(1) stencil range sums:
        # csum[k] = sum(stencil[:k]), rsum[k] = sum(stencil[k:])
        self._csum = np.concatenate([[0.0], np.cumsum(self.stencil)])
        self._rsum = np.concatenate([np.cumsum(self.stencil[::-1])[::-1], [0.0]])
        self._diag = self._build_diagonal()

    def _build_diagonal(self) -> np.ndarray:
        n, c, csum = self.n, self.center, self._csum
        m = np.arange(1, n - 1)
        d = np.zeros(n)
        # stencil over the interior columns (offsets 1-m .. n-2-m) less the centre
        s = (self.local_up + self.local_down) \
            + ((csum[2 * n - 2 - m] - csum[n - m]) - (csum[c + 1] - csum[c]))
        d[m] = -(s + (self.tail_bot[m] + self.tail_top[m]))
        return d

    def window_exit_masses(self, lo: int, hi: int):
        """Total rates of the interior rows lo..hi into the states below lo
        and above hi: two (hi - lo + 1,) arrays from the boundary tails,
        the local rates and one-sided stencil sums (prefix sums for the
        offsets below, suffix sums for those above, so that a small tail
        mass is not the difference of two large ones)."""
        if not 1 <= lo <= hi <= self.n - 2:
            raise ValueError("exit masses need interior rows")
        n, c = self.n, self.center
        m = np.arange(lo, hi + 1)
        below = self.tail_bot[m] + (self._csum[lo - m + c] - self._csum[1 - m + c])
        above = self.tail_top[m] + (self._rsum[hi + 1 - m + c] - self._rsum[n - 1 - m + c])
        below[0] += self.local_down
        above[-1] += self.local_up
        return below, above

    def row(self, i: int) -> np.ndarray:
        n = self.n
        out = np.zeros(n)
        if not 0 < i < n - 1:
            return out
        offs = np.arange(1 - i, n - 1 - i)          # columns 1..n-2
        out[1:n - 1] = self.stencil[offs + self.center]
        out[0] = self.tail_bot[i]
        out[n - 1] = self.tail_top[i]
        out[i + 1] += self.local_up
        out[i - 1] += self.local_down
        out[i] = self._diag[i]
        return out

    def column(self, j: int) -> np.ndarray:
        n = self.n
        out = np.zeros(n)
        if j == 0:
            out[1:n - 1] = self.tail_bot[1:n - 1]
            out[1] += self.local_down
        elif j == n - 1:
            out[1:n - 1] = self.tail_top[1:n - 1]
            out[n - 2] += self.local_up
        else:
            rows = np.arange(1, n - 1)
            out[1:n - 1] = self.stencil[j - rows + self.center]
            if j - 1 >= 1:
                out[j - 1] += self.local_up
            if j + 1 <= n - 2:
                out[j + 1] += self.local_down
            out[j] = self._diag[j]
        out[0] = out[n - 1] = 0.0   # absorbing rows
        return out

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()

    def window_block(self, lo: int, hi: int) -> np.ndarray:
        m = hi - lo + 1
        idx = np.arange(lo, hi + 1)
        # row r holds the offsets -r .. m-1-r: a strided view of the stencil
        # starting at the centre and stepping down by one per row
        c = self.center
        starts = np.lib.stride_tricks.sliding_window_view(self.stencil, m)
        blk = starts[c - m + 1:c + 1][::-1].copy()
        r = np.arange(m)
        blk[r[:-1], r[:-1] + 1] += self.local_up
        blk[r[1:], r[1:] - 1] += self.local_down
        # boundary columns inside the window carry the extended-tail bins
        if lo == 0:
            blk[1:, 0] = self.tail_bot[idx[1:]]
            if m > 1:
                blk[1, 0] += self.local_down
        if hi == self.n - 1:
            blk[:-1, -1] = self.tail_top[idx[:-1]]
            if m > 1:
                blk[-2, -1] += self.local_up
        interior = (idx > 0) & (idx < self.n - 1)
        blk[r, r] = np.where(interior, self._diag[idx], 0.0)
        blk[~interior, :] = 0.0
        return blk

    def window_symbol(self, lo: int, hi: int):
        """First column and first row of an interior window block G[lo..hi]
        (1 <= lo <= hi <= n-2), which is Toeplitz: the stencil and the
        local rates off the diagonal, and on it the diagonal of row lo (the
        interior diagonal varies by roundoff only)."""
        if not 1 <= lo <= hi <= self.n - 2:
            raise ValueError("a window symbol needs interior rows")
        m, c = hi - lo + 1, self.center
        col = self.stencil[c - m + 1:c + 1][::-1].copy()   # offsets 0, -1, .., 1-m
        row = self.stencil[c:c + m].copy()                 # offsets 0, 1, .., m-1
        col[0] = row[0] = self._diag[lo]
        if m > 1:
            col[1] += self.local_down
            row[1] += self.local_up
        return col, row


class DenseGenerator(Generator):
    """Dense storage: the jump chains of ``build_generator`` and dense
    copies of any chain, which are the reference routes, plus hand-built
    test chains."""

    structure = GENERAL

    def __init__(self, grid: Grid, rates: np.ndarray):
        self.grid = grid
        self.rates = np.asarray(rates, dtype=float)
        if self.rates.shape != (grid.n, grid.n):
            raise ValueError("rate matrix shape does not match the grid")

    def row(self, i: int) -> np.ndarray:
        return self.rates[i].copy()

    def column(self, j: int) -> np.ndarray:
        return self.rates[:, j].copy()

    def diagonal(self) -> np.ndarray:
        return np.diag(self.rates).copy()

    def window_block(self, lo: int, hi: int) -> np.ndarray:
        return self.rates[lo:hi + 1, lo:hi + 1].copy()


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

DRIFT_SCHEMES = ("auto", "central", "upwind")


def _local_rates(model: ModelSpec, x, d_minus, d_plus,
                 nu_up: float = 0.0, nu_dn: float = 0.0, scheme: str = "auto"):
    """Neighbor rates from the local drift and variance at x, with small
    jumps folded in (the second-order coefficient is sigma^2 plus the full
    integral of y^2 nu over the small-jump window, i.e. twice the reported
    sigma2_bar).  x, d_minus and d_plus may be arrays of states and their
    spacings for a model without jumps; jump models take one step pair.

    ``scheme``: "central" uses central differences for the drift and lets
    the caller abort on a negative rate; "upwind" always one-sides the
    drift; "auto" keeps central differences wherever the assembled neighbor
    rates (including the adjacent jump-bin masses nu_up/nu_dn) stay
    nonnegative, and falls back to the one-sided form otherwise.  Both
    forms reproduce the drift exactly; the one-sided form adds O(h)
    numerical diffusion, which pure-jump models with a large compensated
    drift need for positivity once the step is small.
    """
    if scheme not in DRIFT_SCHEMES:
        raise ValueError(f"unknown drift scheme {scheme!r}")
    b_eff = truncated_drift(model, x)
    s2_eff = diffusion_var(model, x)
    if model.has_jumps:
        b_bar, s2_bar = small_jump_compensators(model, -0.5 * d_minus, 0.5 * d_plus)
        b_eff = b_eff - b_bar
        s2_eff = s2_eff + 2.0 * s2_bar
    d_avg = 0.5 * (d_plus + d_minus)
    up_c = b_eff * d_minus / (2.0 * d_plus * d_avg) + s2_eff / (2.0 * d_plus * d_avg)
    dn_c = -b_eff * d_plus / (2.0 * d_minus * d_avg) + s2_eff / (2.0 * d_minus * d_avg)
    if scheme == "central":
        return up_c, dn_c
    # one-sided drift: b_eff / d_plus up where b_eff >= 0, -b_eff / d_minus down otherwise
    up = np.maximum(b_eff, 0.0) / d_plus + s2_eff / (2.0 * d_plus * d_avg)
    dn = np.maximum(-b_eff, 0.0) / d_minus + s2_eff / (2.0 * d_minus * d_avg)
    if scheme == "upwind":
        return up, dn
    central = (up_c + nu_up >= 0.0) & (dn_c + nu_dn >= 0.0)
    # [()] turns the 0-d result of one state back into a scalar
    return np.where(central, up_c, up)[()], np.where(central, dn_c, dn)[()]


def build_generator(model: ModelSpec, grid: Grid, *, drift_scheme: str = "auto") -> Generator:
    """Assemble the rate matrix on an arbitrary grid.

    Diffusions produce a tridiagonal generator; jump models produce a dense
    one (every interior row carries a full set of jump bins).
    """
    n = grid.n
    states = grid.states
    if not model.has_jumps:
        x = states[1:-1]
        up = np.zeros(n)
        down = np.zeros(n)
        up[1:-1], down[1:-1] = _local_rates(model, x, x - states[:-2], states[2:] - x,
                                            scheme=drift_scheme)
        bad = np.flatnonzero((up < 0.0) | (down < 0.0))
        if bad.size:   # the first offending state, its up rate checked first
            i = bad[0]
            if up[i] < 0.0:
                raise NegativeRate(states[i], states[i + 1], up[i])
            raise NegativeRate(states[i], states[i - 1], down[i])
        return BirthDeathGenerator(grid, up, down)

    spacing = np.diff(states)
    d_minus = np.concatenate([spacing[:1], spacing])
    d_plus = np.concatenate([spacing, spacing[-1:]])
    edge_lo = states - 0.5 * d_minus
    edge_hi = states + 0.5 * d_plus
    x = states[1:-1]
    # every interior row's bins around the other states, the end bins
    # extended to +/-infinity so that jumps past the lattice are absorbed
    lo = np.concatenate([[-np.inf], edge_lo[1:]]) - x[:, None]
    hi = np.concatenate([edge_hi[:-1], [np.inf]]) - x[:, None]
    off = np.arange(n) != np.arange(1, n - 1)[:, None]
    rates = np.zeros((n, n))
    rates[1:-1][off] = levy_bin_mass(model, lo[off], hi[off])
    # the scheme decision uses the plain neighbor bins (no end-bin
    # extension) so that it cannot differ between boundary-adjacent
    # rows here and the translation-invariant builder
    nu_up, nu_dn = levy_bin_mass(model, np.stack([edge_lo[2:], edge_lo[:-2]]) - x,
                                 np.stack([edge_hi[2:], edge_hi[:-2]]) - x)
    for i in range(1, n - 1):
        u, dn = _local_rates(model, states[i], d_minus[i], d_plus[i],
                             nu_up=nu_up[i - 1], nu_dn=nu_dn[i - 1], scheme=drift_scheme)
        rates[i, i + 1] += u
        rates[i, i - 1] += dn
        if rates[i, i + 1] < 0.0:
            raise NegativeRate(states[i], states[i + 1], rates[i, i + 1])
        if rates[i, i - 1] < 0.0:
            raise NegativeRate(states[i], states[i - 1], rates[i, i - 1])
        rates[i, i] = -rates[i].sum()
    return DenseGenerator(grid, rates)


def default_levy_truncation(a: float) -> float:
    """Default half-width of the truncated lattice for Levy models."""
    return max(4.0, 10.0 * a)


def choose_drift_scheme(model: ModelSpec, h: float, states) -> str:
    """Resolve the "auto" drift scheme to one uniform choice for a whole
    refinement study: "central" if the central-difference neighbor rates
    (including adjacent jump-bin masses) are nonnegative at every sampled
    state for step h, else "upwind".  Extrapolated tables need one scheme
    across all their resolutions, probed at the finest step."""
    states = np.asarray(states, dtype=float)
    nu_up, nu_dn = levy_bin_mass(model, [0.5 * h, -1.5 * h], [1.5 * h, -0.5 * h])
    for x in states:
        up_c, dn_c = _local_rates(model, x, h, h, scheme="central")
        if up_c + nu_up < 0.0 or dn_c + nu_dn < 0.0:
            return "upwind"
    return "central"


def build_levy_generator(model: ModelSpec, h: float, trunc_lo: float, trunc_hi: float,
                         *, x0: float = 0.0, drift_scheme: str = "auto") -> Generator:
    """Translation-invariant generator on the lattice (x0 + h*Z) clipped to
    [trunc_lo, trunc_hi], with absorbing ends.

    Requires a spatially homogeneous model (BS, DEJD, VG); BS is carried as
    the degenerate case with an all-zero jump stencil.
    """
    if not model.is_levy:
        raise ValueError(f"{model.kind} is not translation invariant")
    if h <= 0.0:
        raise ValueError("h must be positive")
    if not trunc_lo < x0 < trunc_hi:
        raise BadBounds("truncation interval must contain the anchor x0")
    k_lo = int(math.ceil((trunc_lo - x0) / h - _TOL))
    k_hi = int(math.floor((trunc_hi - x0) / h + _TOL))
    states = x0 + h * np.arange(k_lo, k_hi + 1, dtype=float)
    grid = Grid(states=states, h=h, eta_x=-k_lo, x0=x0)
    n = grid.n

    if not model.has_jumps:
        lu, ld = _local_rates(model, x0, h, h, scheme=drift_scheme)
        stencil = np.zeros(2 * n - 1)
        return ToeplitzLevyGenerator(grid, lu, ld, stencil, np.zeros(n), np.zeros(n))

    # One-sided tail masses nu[e_d, inf) and nu(-inf, -e_d] at the bin edges
    # e_d = (d - 1/2) h, d = 1..n: every stencil bin and every truncation
    # tail is one of them or the difference of two.
    edges = (np.arange(1, n + 1, dtype=float) - 0.5) * h
    above = levy_bin_mass(model, edges, np.full(n, np.inf))
    below = levy_bin_mass(model, np.full(n, -np.inf), -edges)
    stencil = np.zeros(2 * n - 1)
    stencil[n:] = above[:-1] - above[1:]
    stencil[:n - 1] = (below[:-1] - below[1:])[::-1]
    lu, ld = _local_rates(model, x0, h, h, nu_up=stencil[n], nu_dn=stencil[n - 2],
                          scheme=drift_scheme)
    # state m's jumps past the ends: below state 0 and above state n - 1
    tail_bot = np.zeros(n)
    tail_top = np.zeros(n)
    tail_bot[1:n - 1] = below[:n - 2]
    tail_top[1:n - 1] = above[n - 3::-1]
    return ToeplitzLevyGenerator(grid, lu, ld, stencil, tail_bot, tail_top)
