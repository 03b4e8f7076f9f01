"""State grid and transition-rate-matrix construction.

The chain approximates the log-price process on a finite sorted state
vector whose first and last states are absorbing (zero rows).  Interior
rates come from central differences for the local part plus jump-measure
bin masses; small jumps inside (-h/2, h/2) are folded into the local drift
and variance.  The end-state bins are extended to +/-infinity so the total
jump mass is conserved (jumps beyond the lattice are absorbed at the ends).

Three storage regimes, each read through one method, ``block``:

* ``birth_death``   -- tridiagonal (diffusions): three diagonals.
* ``toeplitz_levy`` -- spatially homogeneous models on an h-lattice:
                       the local rates and the jump measure's one-sided
                       masses, from which every rate follows.
* ``general``       -- dense matrix (dense copies of any chain, the jump
                       chains of ``build_generator`` among them, and
                       hand-built test chains).

DEJD and VG rates have one assembly, ``build_levy_generator``.

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
    (absorbing).  Each storage reads its rates through one method,
    ``block(r0, r1, c0, c1)``, the dense G[r0..r1, c0..c1] (inclusive
    bounds): rows, columns, windows and the whole matrix are blocks.
    Every DEJD or VG chain reads the rates of one builder,
    ``build_levy_generator``: its lattice, or a dense copy of it.
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

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Dense G[r0..r1, c0..c1] (inclusive bounds)."""
        raise NotImplementedError

    def diagonal(self) -> np.ndarray:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def _check_block(self, r0: int, r1: int, c0: int, c1: int) -> None:
        """Refuse a block that is empty or reaches outside the states."""
        if not (0 <= r0 <= r1 < self.n and 0 <= c0 <= c1 < self.n):
            raise ValueError(f"block G[{r0}..{r1}, {c0}..{c1}] is not inside 0..{self.n - 1}")

    def to_dense(self) -> np.ndarray:
        return self.block(0, self.n - 1, 0, self.n - 1)

    def dump_csv(self, path: str) -> None:
        """Write nonzero entries as (i, j, rate), row-major ascending,
        reading blocks of 64 rows.  A chain above 20,000 states, or one
        with more than a million nonzero rates (a lattice with jumps has
        about n^2), raises ``TooLarge`` before the file is opened."""
        n = self.n
        if n > 20000:
            raise TooLarge(f"refusing to dump a {n}-state generator")
        blocks = [(r0, min(r0 + 64, n) - 1) for r0 in range(0, n, 64)]
        lines = 0
        for r0, r1 in blocks:
            lines += np.count_nonzero(self.block(r0, r1, 0, n - 1))
            if lines > 1_000_000:
                raise TooLarge(f"refusing to dump over a million rates of a {n}-state generator")
        with open(path, "w") as fh:
            fh.write("i,j,rate\n")
            for r0, r1 in blocks:
                for i, row in enumerate(self.block(r0, r1, 0, n - 1), start=r0):
                    for j in np.nonzero(row)[0]:
                        fh.write(f"{i},{j},{row[j]:.17g}\n")


def _band(blk: np.ndarray, r0: int, c0: int, d: int):
    """The entries G[i, i + d] of a C-order block blk = G[r0.., c0..], as
    a strided view, and the slice of their states i."""
    rows, cols = blk.shape
    lo, hi = max(r0, c0 - d), min(r0 + rows, c0 + cols - d)
    start = (lo - r0) * cols + lo + d - c0
    return blk.reshape(-1)[start:start + max(hi - lo, 0) * (cols + 1):cols + 1], slice(lo, hi)


def _check_rates(states: np.ndarray, up: np.ndarray, down: np.ndarray) -> None:
    """Raise ``NegativeRate`` at the first state with a negative neighbor
    rate, its up rate checked first."""
    bad = np.flatnonzero((up < 0.0) | (down < 0.0))
    if bad.size:
        i = bad[0]
        if up[i] < 0.0:
            raise NegativeRate(states[i], states[i + 1], up[i])
        raise NegativeRate(states[i], states[i - 1], down[i])


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
        _check_rates(grid.states, self.up, self.down)
        self._diag = 0.0 - (self.up + self.down)   # +0.0, not -0.0, on the absorbing rows

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        self._check_block(r0, r1, c0, c1)
        blk = np.zeros((r1 - r0 + 1, c1 - c0 + 1))
        for d, rates in ((-1, self.down), (0, self._diag), (1, self.up)):
            band, i = _band(blk, r0, c0, d)
            band[:] = rates[i]
        return blk

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()


class ToeplitzLevyGenerator(Generator):
    """Translation-invariant generator on an h-lattice, held as its local
    neighbor rates and the jump measure's one-sided masses: above[d] and
    below[d] weigh the jumps beyond (d + 1/2) h up and down, d = 0..n-1.

    Every rate comes from them.  An interior rate depends only on the
    column offset (``line``); the end columns absorb the jumps past the
    lattice (row m reads below[m - 1] and above[n - 2 - m]), so every
    interior diagonal entry is ``diag``, minus the correctly rounded sum
    local_up + local_down + above[0] + below[0].
    """

    structure = TOEPLITZ_LEVY

    def __init__(self, grid: Grid, local_up: float, local_down: float,
                 above: np.ndarray, below: np.ndarray):
        self.grid = grid
        n = grid.n
        self.local_up = float(local_up)
        self.local_down = float(local_down)
        self.above = np.asarray(above, dtype=float)
        self.below = np.asarray(below, dtype=float)
        # the off-diagonal rate at offset d at line[d + n - 1], 0 at the centre
        line = self.line = np.zeros(2 * n - 1)
        line[n:] = self.above[:-1] - self.above[1:]
        line[:n - 1] = (self.below[:-1] - self.below[1:])[::-1]
        line[n] += self.local_up
        line[n - 2] += self.local_down
        # the neighbor rates as assembled: row 1's down rate and row n - 2's
        # up rate land in the end columns, which carry the tails
        up, down = np.full(n, line[n]), np.full(n, line[n - 2])
        up[-2], down[1] = self.above[0] + self.local_up, self.below[0] + self.local_down
        up[[0, -1]] = down[[0, -1]] = 0.0
        _check_rates(grid.states, up, down)
        self.diag = -math.fsum((self.local_up, self.local_down, self.above[0], self.below[0]))

    def window_exit_masses(self, lo: int, hi: int):
        """Total rates of the interior rows lo..hi into the states below lo
        and above hi: two (hi - lo + 1,) arrays, the masses beyond each
        row's distance to the window's edge plus the end rows' local
        rates."""
        if not 1 <= lo <= hi <= self.n - 2:
            raise ValueError("exit masses need interior rows")
        m = hi - lo + 1
        below, above = self.below[:m].copy(), self.above[m - 1::-1].copy()
        below[0] += self.local_down
        above[-1] += self.local_up
        return below, above

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.n)
        d[1:-1] = self.diag
        return d

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        self._check_block(r0, r1, c0, c1)
        n = self.n
        # row i holds the line at the offsets c0 - i .. c1 - i (a strided view)
        starts = np.lib.stride_tricks.sliding_window_view(self.line, c1 - c0 + 1)
        blk = starts[n - 1 + c0 - r1:n - 1 + c0 - r0 + 1][::-1].copy()
        # the end columns carry the masses past the lattice
        if c0 == 0:
            bot = max(r0, 1)
            blk[bot - r0:, 0] = self.below[bot - 1:r1]
            if r0 <= 1 <= r1:
                blk[1 - r0, 0] += self.local_down
        if c1 == n - 1:
            top = min(r1, n - 2)
            blk[:top - r0 + 1, -1] = self.above[n - 2 - top:n - 1 - r0][::-1]
            if r0 <= n - 2 <= r1:
                blk[n - 2 - r0, -1] += self.local_up
        band, _ = _band(blk, r0, c0, 0)
        band[:] = self.diag
        blk[[r - r0 for r in (0, n - 1) if r0 <= r <= r1]] = 0.0   # the absorbing rows
        return blk


class DenseGenerator(Generator):
    """Dense storage: dense copies of any chain, which are the reference
    routes, plus hand-built test chains.  ``build_generator``'s jump
    chains are dense copies of ``build_levy_generator``'s lattice."""

    structure = GENERAL

    def __init__(self, grid: Grid, rates: np.ndarray):
        self.grid = grid
        self.rates = np.asarray(rates, dtype=float)
        if self.rates.shape != (grid.n, grid.n):
            raise ValueError("rate matrix shape does not match the grid")

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        self._check_block(r0, r1, c0, c1)
        return self.rates[r0:r1 + 1, c0:c1 + 1].copy()

    def diagonal(self) -> np.ndarray:
        return np.diag(self.rates).copy()


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
    """Assemble the rate matrix on a grid.

    Diffusions produce a tridiagonal generator.  A jump model (DEJD, VG)
    produces the dense copy of ``build_levy_generator``'s lattice over the
    grid's states, so its rates have one assembly; a grid off the lattice
    x0 + h*k of ``build_grid`` raises ``ValueError``.
    """
    states = grid.states
    if model.has_jumps:
        lattice = build_levy_generator(model, grid.h, states[0], states[-1], x0=grid.x0,
                                       drift_scheme=drift_scheme)
        if not np.array_equal(lattice.states, states):
            raise ValueError("a DEJD or VG chain needs the uniform lattice x0 + h*k of build_grid")
        return DenseGenerator(grid, lattice.to_dense())
    x = states[1:-1]
    up = np.zeros(grid.n)
    down = np.zeros(grid.n)
    up[1:-1], down[1:-1] = _local_rates(model, x, x - states[:-2], states[2:] - x,
                                        scheme=drift_scheme)
    return BirthDeathGenerator(grid, up, down)


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
    the degenerate case with zero jump masses.
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
        return ToeplitzLevyGenerator(grid, lu, ld, np.zeros(n), np.zeros(n))

    # the one-sided masses beyond the bin edges (d + 1/2) h, d = 0..n-1:
    # every rate is one of them or the difference of two
    edges = (np.arange(n, dtype=float) + 0.5) * h
    above = levy_bin_mass(model, edges, np.full(n, np.inf))
    below = levy_bin_mass(model, np.full(n, -np.inf), -edges)
    lu, ld = _local_rates(model, x0, h, h, nu_up=above[0] - above[1],
                          nu_dn=below[0] - below[1], scheme=drift_scheme)
    return ToeplitzLevyGenerator(grid, lu, ld, above, below)
