"""The five drawdown quantities as recursive algorithms over windowed solves.

All quantities share one backward sweep over window tops i = N-1 .. stop:
the window (y_i - a, y_i] is solved with the appropriate killing, the
down-exit payoff comes from states at or below y_i - a, the up-exit
continuation from already-computed values above y_i.  Two running vectors
make every sweep O(N) linear solves plus O(N^2) vector work:

    S[m] = sum_{z > i}   G(m, z) * value[z]      (continuation inflow)
    D[m] = sum_{z <= i-a} G(m, z) * payoff[z]    (payoff inflow)

updated incrementally as i decreases.  Window solves dispatch on the
generator structure: banded (birth-death), cached by the window's
relative killing pattern (translation-invariant lattices, where the window
block is the same matrix for every interior top), or dense otherwise.

Quantities:

* ``q_drawdown``                 discounted drawdown-time transform
* ``drawdown_before_drawup``     drawdown happening before a drawup
* ``occupation_until_drawdown``  occupation weight k(x) until drawdown
* ``drawdown_occupation``        occupation weight k(x, max) until drawdown
* ``nth_drawdown_no_recovery``   n-th drawdown, reference max restarting
* ``insurance_no_recovery``      sum over all such events (fixed point)
* ``nth_drawdown_with_recovery`` n-th drawdown, max must first recover
* ``insurance_with_recovery``    sum over all such events

with translation-invariant closed forms (`*_levy_closed_form`) and
birth-death fast paths selected automatically from the structure tag.
Every birth-death exit weight comes from one fundamental-solution pair
through ``PsiPair.exit_weights``.

Node batching: ``evaluate`` takes a vector of Laplace nodes and carries
it as a trailing array axis, so each rung evaluates all nodes in one pass:

* the birth-death fast paths: Q, A, B (through the pair of the per-state
  killing), Hn, the Hsum partial sums and fixed point (one sparse solve
  per node), Jn and Jsum;
* the windowed sweep (Q, B, C, Hn and the Hsum partial sums on any
  structure): the running vectors are (n, k); lattice windows cache the
  last rows of every node's inverse, from one stacked solve per killing
  pattern; birth-death windows take one banded solve per node per top;
* the lattice closed forms (C, Hsum, Jsum): the window block and its exit
  masses are built once, then one LU per node.

Only the dense generic recursions (A and Jn off birth-death chains, the
generic Hsum and Jsum fixed points) and requests with their own killing
take one node at a time; ``evaluate`` loops over the vector for them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.signal import fftconvolve

from .ctmc import BIRTH_DEATH, GENERAL, TOEPLITZ_LEVY, Generator
from .linsolve import (
    DegenerateWindow,
    KillingField,
    Singular,
    _payoff_array,
    psi_pair,
)

__all__ = [
    "QuantityRequest",
    "UnsupportedRegime",
    "FixedPointSingular",
    "NotLevy",
    "TooLarge",
    "occupation_below_killing",
    "drawdown_occupation_killing",
    "insurance_partial_sums",
    "q_drawdown",
    "drawdown_before_drawup",
    "occupation_until_drawdown",
    "drawdown_occupation",
    "c_levy_closed_form",
    "nth_drawdown_no_recovery",
    "insurance_no_recovery",
    "h_levy_closed_form",
    "nth_drawdown_with_recovery",
    "insurance_with_recovery",
    "j_levy_closed_form",
    "evaluate",
]


class UnsupportedRegime(ValueError):
    """Requested parameter regime is out of scope (drawup level below the
    drawdown level)."""


class FixedPointSingular(np.linalg.LinAlgError):
    """The insurance fixed-point matrix I - P is numerically singular."""


class NotLevy(TypeError):
    """Closed form requires a translation-invariant lattice generator."""


class TooLarge(ValueError):
    """State space exceeds the cap of a dense reference path."""


# ---------------------------------------------------------------------------
# request plumbing
# ---------------------------------------------------------------------------

_KIND_ALIASES = {
    "Q": "Q", "DRAWDOWNLAPLACE_Q": "Q",
    "A": "A", "DRAWDOWNBEFOREDRAWUP_A": "A",
    "B": "B", "OCCUPATIONUNTILDRAWDOWN_B": "B",
    "C": "C", "DRAWDOWNOCCUPATION_C": "C",
    "HN": "Hn", "NTHDRAWDOWNNORECOVERY_H": "Hn",
    "HSUM": "Hsum", "H": "Hsum", "INSURANCENORECOVERY_HSUM": "Hsum",
    "JN": "Jn", "NTHDRAWDOWNWITHRECOVERY_J": "Jn",
    "JSUM": "Jsum", "J": "Jsum", "INSURANCEWITHRECOVERY_JSUM": "Jsum",
}


def canonical_kind(kind: str) -> str:
    key = kind.replace("-", "_").upper()
    if key not in _KIND_ALIASES:
        raise ValueError(f"unknown quantity kind {kind!r}")
    return _KIND_ALIASES[key]


@dataclass
class QuantityRequest:
    """One quantity evaluation: which transform, at which levels/arguments."""

    kind: str
    a: float
    q: complex = 1.0 + 0.0j   # one Laplace node, or a (k,) vector of nodes
    b: Optional[float] = None
    xi: Optional[float] = None
    n: int = 1
    x: Optional[float] = None
    y: Optional[float] = None
    k: object = None          # univariate killing (B); defaults to q 1_{x<xi} + shift
    k2: object = None         # bivariate killing (C); defaults to q 1_{max-x>xi} + shift
    shift: complex = 0.0      # constant killing added on top of the indicator
    f: object = None          # terminal payoff over states (None = 1)
    f2: object = None         # bivariate terminal payoff (Jn)

    def __post_init__(self):
        self.kind = canonical_kind(self.kind)
        if self.kind == "A":
            if self.b is None:
                raise ValueError("quantity A needs the drawup level b")
            if self.b < self.a:
                raise UnsupportedRegime("drawup level b must be >= drawdown level a")
        if self.kind in ("Hn", "Jn") and self.n < 1:
            raise ValueError("event count n must be >= 1")


# ---------------------------------------------------------------------------
# shared sweep machinery
# ---------------------------------------------------------------------------

_IND_TOL = 1e-9
# Threshold indicators compare lattice differences against levels that are
# typically exact multiples of h; a relative tolerance keeps the comparison
# outcome uniform across windows (strict inequality in exact arithmetic).


def occupation_below_killing(q, xi: float, shift: complex = 0.0) -> KillingField:
    """k(x) = q 1_{x < xi} + shift, with a roundoff-safe strict inequality;
    a node vector q gives one column per node."""
    qq, sh = np.asarray(q, dtype=complex), complex(shift)
    tol = _IND_TOL * max(1.0, abs(xi))

    def fn(states):
        below = np.asarray(states) < xi - tol
        return np.where(below[:, None] if qq.ndim else below, qq, 0.0) + sh

    return KillingField.from_function(fn)


def drawdown_occupation_killing(q, xi: float, shift: complex = 0.0) -> KillingField:
    """k(x, max) = q 1_{max - x > xi} + shift, roundoff-safe; a node vector
    q gives one column per node."""
    qq, sh = np.asarray(q, dtype=complex), complex(shift)
    tol = _IND_TOL * max(1.0, abs(xi))

    def fn2(states, y):
        above = y - np.asarray(states) > xi + tol
        return np.where(above[:, None] if qq.ndim else above, qq, 0.0) + sh

    return KillingField.bivariate(fn2)


def _anchor_index(gen: Generator, x) -> int:
    if x is None:
        return gen.grid.eta_x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return gen.grid.index_of(float(x))


def _toeplitz_D_init(gen, f_arr: np.ndarray, cut: int) -> np.ndarray:
    """Off-diagonal payoff inflow sum_{z <= cut, z != m} G(m, z) f[z] on a
    translation-invariant lattice, one column per payoff column, via one
    FFT correlation plus local and boundary-column corrections."""
    n = gen.n
    D = np.zeros(f_arr.shape, dtype=complex)
    if cut < 0:
        return D
    hi = min(cut, n - 2)
    if hi >= 1:
        f_seg = np.zeros(f_arr.shape, dtype=complex)
        f_seg[1:hi + 1] = f_arr[1:hi + 1]
        rev = gen.stencil[::-1, None]
        D += fftconvolve(f_seg, rev, axes=0)[n - 1:2 * n - 1]
        D[0:hi] += gen.local_up * f_arr[1:hi + 1]
        D[2:hi + 2] += gen.local_down * f_arr[1:hi + 1]
    # column 0 carries the extended tail bin
    D[1:n - 1] += gen.tail_bot[1:n - 1, None] * f_arr[0]
    D[1] += gen.local_down * f_arr[0]
    D[0] = D[n - 1] = 0.0
    return D


def _D_init(gen: Generator, f_arr: np.ndarray, cut: int) -> np.ndarray:
    """Initial payoff-inflow vectors for an (n, k) payoff, excluding
    diagonal column terms (rows inside a window never have their own
    column in the below-window set)."""
    n = gen.n
    if cut < 0:
        return np.zeros(f_arr.shape, dtype=complex)
    if gen.structure == TOEPLITZ_LEVY:
        return _toeplitz_D_init(gen, f_arr, cut)
    if gen.structure == GENERAL:
        D = gen.rates[:, :cut + 1].astype(complex) @ f_arr[:cut + 1]
        z = np.arange(cut + 1)
        D[z] -= np.diag(gen.rates)[z, None] * f_arr[z]
        D[0] = D[n - 1] = 0.0
        return D
    D = np.zeros(f_arr.shape, dtype=complex)
    for z in range(0, cut + 1):
        c0, c1 = gen.col_support(z)
        col = gen.column(z)
        col[z] = 0.0
        D[c0:c1] += col[c0:c1, None] * f_arr[z]
    D[0] = D[n - 1] = 0.0
    return D


_STACK_BYTES = 1 << 25
# Node batches of small windows are solved as one stack of complex
# matrices up to this size; larger ones take one in-place LU per node.


def _node_solves(blk: np.ndarray, kv: np.ndarray, rhs: np.ndarray, *,
                 trans: bool = False) -> np.ndarray:
    """Solutions x_j of (diag(kv[:, j]) - blk) x_j = rhs, or of the
    transposed systems, for the (m, k) killing and an (m,) right-hand side
    shared by the nodes: a (k, m) array.

    Small batches go through one stacked solve.  Above ``_STACK_BYTES``
    each node's matrix is built in one Fortran-order buffer and factored
    in place, so the batch holds a single complex matrix besides the block.
    """
    m, k = kv.shape
    diag = np.arange(m)
    if 16 * k * m * m <= _STACK_BYTES:
        mats = np.empty((k, m, m), dtype=complex)
        mats[:] = -(blk.T if trans else blk)
        mats[:, diag, diag] += kv.T
        try:
            return np.linalg.solve(mats, np.broadcast_to(rhs[:, None], (k, m, 1)))[..., 0]
        except np.linalg.LinAlgError as exc:
            raise Singular(str(exc)) from exc
    mat = np.empty((m, m), dtype=complex, order="F")
    out = np.empty((k, m), dtype=complex)
    for j in range(k):
        np.negative(blk, out=mat)
        mat[diag, diag] += kv[:, j]
        lu = sla.lu_factor(mat, overwrite_a=True)
        if np.any(lu[0][diag, diag] == 0.0):
            raise Singular("window matrix is singular")
        out[j] = sla.lu_solve(lu, rhs, trans=int(trans))
    return out


def _last_rows(blk: np.ndarray, kv: np.ndarray) -> np.ndarray:
    """Last rows of the inverses of diag(kv[:, j]) - blk, one per node: (k, m)."""
    e = np.zeros(kv.shape[0], dtype=complex)
    e[-1] = 1.0
    return _node_solves(blk, kv, e, trans=True)


class _WindowSolver:
    """Last-row window solves for a batch of nodes, with structure dispatch
    and, on lattices, a cache keyed by the window's killing pattern."""

    def __init__(self, gen: Generator):
        self.gen = gen
        self.cache = {}
        self._bd_diag = gen.diagonal() if gen.structure == BIRTH_DEATH else None

    def last_row_solve(self, lo: int, i: int, kv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Last entries of the solutions of (diag(kv[:, j]) - G[lo..i]) x = rhs[:, j]
        for the (m, k) killing and right-hand sides: one value per node."""
        gen = self.gen
        m, k = kv.shape
        if gen.structure == BIRTH_DEATH:
            ab = np.zeros((3, m), dtype=complex)
            if m > 1:
                ab[0, 1:] = -gen.up[lo:i]
                ab[2, :-1] = -gen.down[lo + 1:i + 1]
            diag = self._bd_diag[lo:i + 1]
            out = np.empty(k, dtype=complex)
            for j in range(k):   # one banded solve per node
                ab[1] = kv[:, j] - diag
                try:
                    out[j] = sla.solve_banded((1, 1), ab, rhs[:, j])[-1]
                except (np.linalg.LinAlgError, ValueError) as exc:
                    raise Singular(str(exc)) from exc
            return out
        # interior lattice window blocks depend only on the width and on
        # whether the window reaches state 0: cache their inverses' last rows
        key = (m, lo == 0, kv.tobytes()) if gen.structure == TOEPLITZ_LEVY else None
        w = self.cache.get(key)
        if w is None:
            w = _last_rows(gen.window_block(lo, i), kv)
            if key is not None:
                self.cache[key] = w
        return np.einsum("jm,mj->j", w, rhs)


def backward_window_sweep(gen: Generator, a_steps: int, killing_fn: Callable,
                          f_arr: np.ndarray, stop: int, *,
                          solver: "_WindowSolver" = None) -> np.ndarray:
    """Backward recursion over window tops for k nodes at once; returns the
    (n, k) values, one column per node.

    killing_fn(i, lo) must return the (m, k) complex killing rates on the
    window rows [lo..i].  f_arr is the payoff collected at down-exit over
    the states, shared by the nodes ((n,)) or one column per node ((n, k)).
    values[j] is filled for stop <= j <= N-1; the two absorbing ends stay
    0.  A shared ``solver`` carries the cached lattice window solves across
    repeated sweeps with the same killing (event-count recursions).
    """
    n = gen.n
    top = n - 2
    kv = killing_fn(top, max(0, top - a_steps + 1))
    k = kv.shape[1]
    V = np.zeros((n, k), dtype=complex)
    S = np.zeros((n, k), dtype=complex)
    f = f_arr.reshape(n, -1)
    cut = top - a_steps
    D = _D_init(gen, f, cut)
    # rows below the lowest window bottom are never read
    floor = max(0, stop - a_steps + 1)

    if solver is None:
        solver = _WindowSolver(gen)
    for i in range(top, stop - 1, -1):
        lo = max(0, i - a_steps + 1)
        if i < top:
            kv = killing_fn(i, lo)
        V[i] = v = solver.last_row_solve(lo, i, kv, D[lo:i + 1] + S[lo:i + 1])
        if v.any():
            c0, c1 = gen.col_support(i)
            c0, c1 = max(c0, floor), min(c1, i)
            if c1 > c0:
                col = gen.column(i)
                S[c0:c1] += col[c0:c1, None] * v
        if cut >= 0 and f[cut].any():
            c0, c1 = gen.col_support(cut)
            c0 = max(c0, floor)
            col = gen.column(cut)
            col[cut] = 0.0   # diagonal column terms are kept out of D
            D[c0:c1] -= col[c0:c1, None] * f[cut]
        cut -= 1
    return V


# ---------------------------------------------------------------------------
# Q: drawdown-time transform
# ---------------------------------------------------------------------------

def _window_weights(psi, tops: np.ndarray, a_steps: int):
    """Exit weights of the drawdown windows (y_i - a, y_i] started at their
    tops i: onto the state above the top, and onto the floor state i - a.
    The down weight is 0 where the window reaches the absorbing state 0."""
    up, down = psi.exit_weights(tops, np.maximum(tops - a_steps, 0), tops + 1)
    return up, np.where((tops >= a_steps)[:, None], down, 0.0)


def _recovery_weights(psi, tops: np.ndarray, a_steps: int) -> np.ndarray:
    """psi+ ratios from each window's floor state i - a back up to its top i
    (the recovery passage), 0 where the window has no floor state."""
    has_floor = tops >= a_steps
    rec = psi.ratio_plus(np.where(has_floor, tops - a_steps, tops), tops)
    return np.where(has_floor[:, None], rec, 0.0)


def _chain_down(n: int, tops: np.ndarray, up: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Values over the states, one column per node, of the recursion
    V[i] = src[pos] + up[pos] V[i + 1] run down the contiguous tops
    (tops[-1] = N - 2, above which the absorbing top state holds 0)."""
    V = np.zeros((n, up.shape[1]), dtype=complex)
    v = V[n - 1]
    for pos in range(tops.size - 1, -1, -1):
        V[tops[pos]] = v = src[pos] + up[pos] * v
    return V


def _psi_sweep_coeffs(gen: Generator, killing, a_steps: int, stop: int):
    """Per-top exit weights of the drawdown windows from one fundamental-
    solution pair per node (reusable across repeated sweeps); ``killing``
    is a (k,) node vector or an (n, k) per-state killing."""
    idx = np.arange(stop, gen.n - 1)
    up, down = _window_weights(psi_pair(gen, killing), idx, a_steps)
    return idx, up, down


def _q_psi_sweep(gen: Generator, a_steps: int, f_arr: np.ndarray, coeffs) -> np.ndarray:
    """Birth-death fast path: every window exit weight is a bridge ratio of
    one fundamental-solution pair.  ``f_arr`` is the down-exit payoff over
    the states, shared by the nodes or one column per node."""
    idx, up, down = coeffs
    pay = f_arr[np.maximum(idx - a_steps, 0)]
    return _chain_down(gen.n, idx, up, down * (pay if pay.ndim == 2 else pay[:, None]))


def _nodes(q):
    """q as a (k,) node vector, and whether it was given as a single node."""
    nodes = np.asarray(q, dtype=complex)
    if nodes.ndim > 1:
        raise ValueError("q must be one node or a vector of nodes")
    return nodes.reshape(-1), nodes.ndim == 0


def _per_node(values: np.ndarray, single: bool):
    """The (k,) node values, or one complex for a single node."""
    return complex(values[0]) if single else values


def _one_node(q) -> complex:
    if np.ndim(q) != 0:
        raise ValueError("this route takes one node at a time; evaluate() loops over a node vector")
    return complex(q)


def _constant_killing(nodes: np.ndarray) -> Callable:
    """Window killing of a constant rate per node, for the sweep."""
    return lambda i, lo: np.broadcast_to(nodes, (i - lo + 1, nodes.size))


def q_drawdown(gen: Generator, q, a: float, f=None, x=None, *,
               force_generic: bool = False):
    """E[e^{-q tau_a} f(Y_{tau_a})] started from a fresh running maximum;
    a node vector q gives one value per node."""
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    f_arr = _payoff_array(gen, f)
    nodes, single = _nodes(q)
    if gen.structure == BIRTH_DEATH and not force_generic:
        V = _q_psi_sweep(gen, a_steps, f_arr, _psi_sweep_coeffs(gen, nodes, a_steps, eta))
    else:
        V = backward_window_sweep(gen, a_steps, _constant_killing(nodes), f_arr, eta)
    return _per_node(V[eta], single)


# ---------------------------------------------------------------------------
# B: generalized occupation until the drawdown time
# ---------------------------------------------------------------------------

def occupation_until_drawdown(gen: Generator, k, a: float, f=None, x=None, *,
                              force_generic: bool = False):
    """E[e^{-int_0^{tau_a} k(Y_s) ds} f(Y_{tau_a})].

    On a birth-death chain every window's exit weights come from one
    fundamental-solution pair of the per-state killing; a killing field
    with one column per node (built from a node vector) gives one value
    per node.
    """
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    f_arr = _payoff_array(gen, f)
    kill = KillingField.coerce(k).values(gen.states)
    single = kill.ndim == 1
    kill = kill.reshape(gen.n, -1)
    if gen.structure == BIRTH_DEATH and not force_generic:
        V = _q_psi_sweep(gen, a_steps, f_arr, _psi_sweep_coeffs(gen, kill, a_steps, eta))
    else:
        V = backward_window_sweep(gen, a_steps, lambda i, lo: kill[lo:i + 1], f_arr, eta)
    return _per_node(V[eta], single)


# ---------------------------------------------------------------------------
# C: occupation of the drawdown process until the drawdown time
# ---------------------------------------------------------------------------

def drawdown_occupation(gen: Generator, k2, a: float, f=None, x=None):
    """E[e^{-int_0^{tau_a} k(Y_s, max_s) ds} f(Y_{tau_a})].

    Inside the window topped at y_i the running maximum is frozen at y_i,
    so each step is a univariate windowed solve with killing k2(., y_i).
    A killing with one column per node (built from a node vector) gives
    one value per node.
    """
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    f_arr = _payoff_array(gen, f)
    kf = k2 if isinstance(k2, KillingField) else KillingField.bivariate(k2)
    states = gen.states
    single = kf.values2(states[eta:eta + 1], states[eta]).ndim == 1

    def kfn(i, lo):
        return kf.values2(states[lo:i + 1], states[i]).reshape(i - lo + 1, -1)

    V = backward_window_sweep(gen, a_steps, kfn, f_arr, eta)
    return _per_node(V[eta], single)


def _anchored_window(gen: Generator, a_steps: int) -> int:
    """Bottom row of the lattice window (-a, 0] at the anchor."""
    lo = gen.grid.eta_x - a_steps + 1
    if lo < 1:
        raise DegenerateWindow("lattice too narrow below the anchor")
    return lo


def c_levy_closed_form(gen: Generator, q, a: float, xi: float, *,
                       shift: complex = 0.0):
    """Translation-invariant solution of the drawdown-occupation transform
    with k(x, max) = q 1_{max - x > xi} + shift: one window solve per node;
    a node vector q gives one value per node.

    The form holds on the infinite lattice: it ignores the upper end of a
    truncated one, so it differs from the sweep on the same chain by the
    mass that jumps over y_max (5e-7 for the shipped VG digital at n_x=8).
    """
    if gen.structure != TOEPLITZ_LEVY:
        raise NotLevy("closed form needs a translation-invariant lattice generator")
    grid = gen.grid
    nodes, single = _nodes(q)
    eta = grid.eta_x
    lo = _anchored_window(gen, grid.steps_of(a))
    states = gen.states
    kv = drawdown_occupation_killing(nodes, xi, shift).values2(states[lo:eta + 1], states[eta])
    p_dn, p_up, _ = _levy_window_masses(gen, kv)
    den = 1.0 - p_up
    if np.any(np.abs(den) < 1e-14):
        raise FixedPointSingular("unit up-exit weight in the closed form")
    return _per_node(p_dn / den, single)


# ---------------------------------------------------------------------------
# A: drawdown before drawup
# ---------------------------------------------------------------------------

def drawdown_before_drawup(gen: Generator, q, a: float, b: float,
                           f=None, x=None, y=None, *,
                           force_generic: bool = False):
    """E[e^{-q tau_a} 1_{tau_a < tauhat_b} f(Y_{tau_a})] from position x
    (= running max) and running min y.  Requires b >= a.  A node vector q
    gives one value per node (birth-death chains).

    An off-lattice starting minimum y is handled by linear interpolation
    between the bracketing grid states (the value is piecewise linear in
    the discrete minimum).
    """
    if b < a:
        raise UnsupportedRegime("the b < a regime is out of scope")
    grid = gen.grid
    a_steps = grid.steps_of(a)
    b_steps = grid.steps_at_least(b)
    eta = _anchor_index(gen, x)
    f_arr = _payoff_array(gen, f)
    if y is None:
        y_pos = float(eta)
    else:
        y_pos = (float(y) - grid.x0) / grid.h + grid.eta_x
    if y_pos > eta + 1e-9:
        raise ValueError("running minimum cannot exceed the position")
    l0 = min(int(np.floor(y_pos + 1e-9)), eta)
    wgt = y_pos - l0
    nodes, single = _nodes(q)
    if gen.structure == BIRTH_DEATH and not force_generic:
        row = _a_diffusion(gen, nodes, a_steps, b_steps, f_arr, eta)
    else:
        row = _a_generic(gen, _one_node(q), a_steps, b_steps, f_arr, eta)[:, None]
    # minima at or below y_eta - b: the drawup has already reached b
    row[:max(0, eta - b_steps + 1)] = 0.0
    if wgt < 1e-9:
        return _per_node(row[l0], single)
    return _per_node((1.0 - wgt) * row[l0] + wgt * row[l0 + 1], single)


def _a_diffusion(gen: Generator, q: np.ndarray, a_steps: int, b_steps: int,
                 f_arr: np.ndarray, eta: int) -> np.ndarray:
    """Birth-death path: all sub-window exits are single-target, every
    coefficient a bridge ratio; only the row above is ever referenced.
    Returns the value rows over the starting-minimum index at position
    eta, one column per node."""
    n = gen.n
    psi = psi_pair(gen, q)
    up_full, dn_full = _window_weights(psi, np.arange(eta, n - 1), a_steps)
    row_next = np.zeros((n, q.size), dtype=complex)   # A(q, y_{i+1}, .) by min index
    row_cur = np.zeros((n, q.size), dtype=complex)
    for i in range(n - 2, eta - 1, -1):
        lo = max(0, i - a_steps + 1)
        lob = max(0, i - b_steps + 1)
        row_cur[:] = 0.0
        pay = dn_full[i - eta] * f_arr[lo - 1] if lo > 0 else 0.0
        # frozen-minimum block: minima in (y_i - b, y_i - a] plus the window
        # bottom state, where the minimum cannot move before exit
        row_cur[lob:lo + 1] = pay + up_full[i - eta] * row_next[lob:lo + 1]
        if i > lo:
            # sub-window exits [t..i], t = m + 1: from the top (inner
            # assignments) and from the bottom (minimum-update continuations)
            m = np.arange(lo, i)
            up_top, dn_top = psi.exit_weights(i, m, i + 1)
            # m = 0 only at the absorbing state, where the value is forced to 0
            up_bot, dn_bot = psi.exit_weights(np.maximum(m, 1), np.maximum(m - 1, 0), i + 1)
            # minimum-update values R(y_{m+1}): the first continues from the
            # top only, each later one also from the minimum just below
            r_diag = up_bot * row_next[lo:i]
            if lo == 0:
                r_diag[0] = 0.0   # absorbed at the bottom state
            for pos in range(1, m.size):
                r_diag[pos] += dn_bot[pos] * r_diag[pos - 1]
            row_cur[lo + 1:i + 1] = pay + dn_top * r_diag + up_top * row_next[lo + 1:i + 1]
        row_next, row_cur = row_cur, row_next
    return row_next


def _a_generic(gen: Generator, q: complex, a_steps: int, b_steps: int,
               f_arr: np.ndarray, eta: int) -> np.ndarray:
    """Dense double recursion over (window top, running minimum)."""
    n = gen.n
    if n > 2000:
        raise TooLarge("generic drawdown-before-drawup path caps at 2000 states")
    A = np.zeros((n, n), dtype=complex)   # A[i, l]: top/position i, min l
    dense = gen.to_dense(max_states=n).astype(complex)
    eye = np.eye
    for i in range(n - 2, eta - 1, -1):
        lo = max(0, i - a_steps + 1)
        lob = max(0, i - b_steps + 1)
        rows = np.arange(lo, i + 1)
        sub = dense[np.ix_(rows, rows)]
        mat = q * eye(rows.size, dtype=complex) - sub
        rhs_f = dense[np.ix_(rows, np.arange(0, lo))] @ f_arr[:lo] if lo > 0 else np.zeros(rows.size, dtype=complex)
        above = np.arange(i + 1, n)
        up_block = dense[np.ix_(rows, above)]
        # frozen-minimum columns l in [lob .. lo]
        cols = np.arange(lob, lo + 1)
        rhs_frozen = up_block @ A[np.ix_(above, cols)]
        try:
            sol = np.linalg.solve(mat, np.column_stack([rhs_f, rhs_frozen]))
        except np.linalg.LinAlgError as exc:
            raise Singular(str(exc)) from exc
        pay = complex(sol[-1, 0])
        A[i, lob:lo + 1] = pay + sol[-1, 1:]
        r_diag = np.zeros(i, dtype=complex)       # R(q, y_t, y_t) indexed by t
        if lo < i:
            # single-state windows (a one step wide) have no interior minima
            r_diag[lo] = complex(sol[0, 1 + (lo - lob)])
        for t in range(lo + 1, i + 1):
            rows_t = np.arange(t, i + 1)
            mat_t = q * eye(rows_t.size, dtype=complex) - dense[np.ix_(rows_t, rows_t)]
            rhs_t = dense[np.ix_(rows_t, np.arange(lo, t))] @ r_diag[lo:t]
            rhs_t += dense[np.ix_(rows_t, above)] @ A[above, t]
            try:
                sol_t = np.linalg.solve(mat_t, rhs_t)
            except np.linalg.LinAlgError as exc:
                raise Singular(str(exc)) from exc
            if t <= i - 1:
                r_diag[t] = complex(sol_t[0])
            A[i, t] = pay + complex(sol_t[-1])
    return A[eta]


# ---------------------------------------------------------------------------
# H: n-th drawdown without recovery, and the event-sum fixed point
# ---------------------------------------------------------------------------

def nth_drawdown_no_recovery(gen: Generator, q, a: float, f=None,
                             x=None, n: int = 1, *, force_generic: bool = False):
    """E[e^{-q tautilde_{a,n}} f(Y_{tautilde_{a,n}})]; the reference maximum
    restarts at every event.  The window exit weights (or factorizations)
    do not depend on the event count, so they are built once and reused
    across the n sweeps.  A node vector q gives one value per node
    (birth-death chains).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    prev = _payoff_array(gen, f)
    nodes, single = _nodes(q)
    if gen.structure == BIRTH_DEATH and not force_generic:
        coeffs = _psi_sweep_coeffs(gen, nodes, a_steps, 0)
        for _ in range(n):
            prev = _q_psi_sweep(gen, a_steps, prev, coeffs)
    else:
        kfn, solver = _constant_killing(nodes), _WindowSolver(gen)
        for _ in range(n):
            prev = backward_window_sweep(gen, a_steps, kfn, prev, 0, solver=solver)
    return _per_node(prev[eta], single)


def insurance_partial_sums(gen: Generator, q, a: float, x=None, y=None, *,
                           recovery: bool = False, n_max: int = 50,
                           tol: float = 1e-10) -> np.ndarray:
    """Running partial sums of the per-event transforms, the convergence
    diagnostic for the event-sum fixed points.  Stops early once every
    node's increment drops below tol (default 50 events, 1e-10).  A node
    vector q gives one column per node."""
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    nodes, single = _nodes(q)
    prev = _payoff_array(gen, None)
    if not recovery and gen.structure == BIRTH_DEATH:
        coeffs = _psi_sweep_coeffs(gen, nodes, a_steps, 0)
        sweep = lambda f_arr: _q_psi_sweep(gen, a_steps, f_arr, coeffs)
    elif not recovery:
        kfn, solver = _constant_killing(nodes), _WindowSolver(gen)
        sweep = lambda f_arr: backward_window_sweep(gen, a_steps, kfn, f_arr, 0, solver=solver)
    sums = []
    total = np.zeros(nodes.size, dtype=complex)
    for k in range(1, n_max + 1):
        if recovery:
            term = nth_drawdown_with_recovery(gen, q, a, x=x, y=y, n=k)
        else:
            prev = sweep(prev)
            term = prev[eta]
        total = total + term
        sums.append(total)
        if np.all(np.abs(term) < tol):
            break
    sums = np.array(sums)
    return sums[:, 0] if single else sums


def insurance_no_recovery(gen: Generator, q, a: float, x=None, *,
                          force_generic: bool = False):
    """Sum over all no-recovery drawdown events of e^{-q tautilde_{a,k}}:
    fixed point H = P (1 + H_below) + P H_above.  A node vector q gives
    one value per node (birth-death chains and lattices)."""
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    n = gen.n
    if gen.structure == BIRTH_DEATH and not force_generic:
        nodes, single = _nodes(q)
        idx = np.arange(1, n - 1)
        up, down = _window_weights(psi_pair(gen, nodes), idx, a_steps)
        floor = idx - a_steps
        has_floor = floor >= 0
        rows = np.concatenate([np.arange(n), idx, idx[has_floor]])
        cols = np.concatenate([np.arange(n), idx + 1, floor[has_floor]])
        out = np.empty(nodes.size, dtype=complex)
        for j in range(nodes.size):   # one sparse solve per node
            data = np.concatenate([np.ones(n), -up[:, j], -down[has_floor, j]])
            mat = sp.csc_matrix((data, (rows, cols)), shape=(n, n))
            rhs = np.zeros(n, dtype=complex)
            rhs[idx] = down[:, j]
            try:
                sol = spla.spsolve(mat, rhs)
            except Exception as exc:  # scipy raises several types here
                raise FixedPointSingular(str(exc)) from exc
            out[j] = sol[eta]
        return _per_node(out, single)
    if gen.structure == TOEPLITZ_LEVY and not force_generic:
        return h_levy_closed_form(gen, q, a)
    q = _one_node(q)
    # generic: assemble the full exit-weight matrix row by row
    if n > 1500:
        raise TooLarge("generic insurance fixed point caps at 1500 states")
    dense = gen.to_dense(max_states=n).astype(complex)
    P = np.zeros((n, n), dtype=complex)
    for i in range(1, n - 1):
        lo = max(0, i - a_steps + 1)
        rows = np.arange(lo, i + 1)
        mat = q * np.eye(rows.size, dtype=complex) - dense[np.ix_(rows, rows)]
        e = np.zeros(rows.size, dtype=complex)
        e[-1] = 1.0
        try:
            w = np.linalg.solve(mat.T, e)
        except np.linalg.LinAlgError as exc:
            raise Singular(str(exc)) from exc
        outside = np.concatenate([np.arange(0, lo), np.arange(i + 1, n)])
        P[i, outside] = w @ dense[np.ix_(rows, outside)]
    below_mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        below_mask[i, :max(0, i - a_steps + 1)] = True
    P_below_sum = (P * below_mask).sum(axis=1)
    try:
        sol = np.linalg.solve(np.eye(n, dtype=complex) - P, P_below_sum)
    except np.linalg.LinAlgError as exc:
        raise FixedPointSingular(str(exc)) from exc
    return complex(sol[eta])


def _levy_window_masses(gen: Generator, kv: np.ndarray, payoff_below=None):
    """Exit masses of the anchored lattice window (-a, 0] under the (m, k)
    killing kv of its rows (m = a / h): returns (down_mass, up_mass,
    down_weighted), one value per node each, where down_weighted applies
    an optional (n, k) payoff over the states below the window."""
    eta = gen.grid.eta_x
    lo = _anchored_window(gen, kv.shape[0])
    w = _last_rows(gen.window_block(lo, eta), kv)
    below, above = gen.window_exit_masses(lo, eta)
    p_wt = None
    if payoff_below is not None:
        p_wt = np.einsum("jm,mj->j", w, _toeplitz_D_init(gen, payoff_below, lo - 1)[lo:eta + 1])
    return w @ below, w @ above, p_wt


def h_levy_closed_form(gen: Generator, q, a: float):
    """Translation-invariant insurance sum without recovery; a node vector
    q gives one value per node.  Like ``c_levy_closed_form`` it holds on
    the infinite lattice and ignores the truncation of the chain's ends."""
    if gen.structure != TOEPLITZ_LEVY:
        raise NotLevy("closed form needs a translation-invariant lattice generator")
    nodes, single = _nodes(q)
    a_steps = gen.grid.steps_of(a)
    p_dn, p_up, _ = _levy_window_masses(gen, np.broadcast_to(nodes, (a_steps, nodes.size)))
    den = 1.0 - p_dn - p_up
    if np.any(np.abs(den) < 1e-14):
        raise FixedPointSingular("degenerate fixed point in the closed form")
    return _per_node(p_dn / den, single)


# ---------------------------------------------------------------------------
# J: n-th drawdown with recovery, and the event-sum fixed point
# ---------------------------------------------------------------------------

def _bipayoff(gen: Generator, f2) -> Callable:
    states = gen.states
    if f2 is None:
        return lambda z_idx, y_idx: np.ones(np.size(z_idx), dtype=complex)
    if callable(f2):
        return lambda z_idx, y_idx: np.asarray(
            f2(states[np.asarray(z_idx)], states[y_idx]), dtype=complex)
    arr = np.asarray(f2, dtype=complex)
    return lambda z_idx, y_idx: arr[np.asarray(z_idx), y_idx]


def nth_drawdown_with_recovery(gen: Generator, q, a: float, f2=None,
                               x=None, y=None, n: int = 1, *,
                               force_generic: bool = False):
    """E[e^{-q tau_{a,n}} f2(Y, max)] where each new event requires the
    running maximum to recover to its level at the previous event.  A node
    vector q gives one value per node (birth-death chains)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta_x = _anchor_index(gen, x)
    eta_y = eta_x if y is None else _anchor_index(gen, y)
    if eta_x > eta_y:
        raise ValueError("position x must not exceed the running max y")
    f2_fn = _bipayoff(gen, f2)
    if gen.structure == BIRTH_DEATH and not force_generic:
        nodes, single = _nodes(q)
        return _per_node(_jn_diffusion(gen, nodes, a_steps, f2_fn, eta_x, eta_y, n), single)
    return _jn_generic(gen, _one_node(q), a_steps, f2_fn, eta_x, eta_y, n)


def _jn_diffusion(gen, q, a_steps, f2_fn, eta_x, eta_y, n) -> np.ndarray:
    nn = gen.n
    psi = psi_pair(gen, q)
    idx = np.arange(1, nn - 1)
    up, down = _window_weights(psi, idx, a_steps)
    # first event: the payoff at (floor, max = top), 0 without a floor
    has_floor = idx >= a_steps
    pay = np.where(has_floor, f2_fn(np.where(has_floor, idx - a_steps, 0), idx), 0.0)[:, None]
    rec = _recovery_weights(psi, idx, a_steps) if n > 1 else None
    for k in range(1, n + 1):
        if k > 1:
            # previous-count value at (floor, max = top): must recover to the top
            pay = rec * diag[idx]
        diag = _chain_down(nn, idx, up, down * pay)
    if eta_x == eta_y:
        return diag[eta_y]
    return psi.ratio_plus(eta_x, eta_y) * diag[eta_y]


def _jn_generic(gen, q, a_steps, f2_fn, eta_x, eta_y, n) -> complex:
    nn = gen.n
    if nn > 600:
        raise TooLarge("generic recovery recursion caps at 600 states")
    dense = gen.to_dense(max_states=nn).astype(complex)
    # initial condition: the zeroth "event value" is the terminal payoff
    J_prev = np.zeros((nn, nn), dtype=complex)   # J_{k-1}[x, y]
    for yy in range(nn):
        J_prev[:yy + 1, yy] = f2_fn(np.arange(yy + 1), yy)
    for k in range(1, n + 1):
        J_cur = np.zeros((nn, nn), dtype=complex)
        for i in range(nn - 2, -1, -1):
            lo = max(0, i - a_steps + 1)
            rows = np.arange(lo, i + 1)
            mat = q * np.eye(rows.size, dtype=complex) - dense[np.ix_(rows, rows)]
            rhs = np.zeros(rows.size, dtype=complex)
            if lo > 0:
                rhs += dense[np.ix_(rows, np.arange(lo))] @ J_prev[:lo, i]
            above = np.arange(i + 1, nn)
            diag_above = J_cur[above, above]
            rhs += dense[np.ix_(rows, above)] @ diag_above
            try:
                sol = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError as exc:
                raise Singular(str(exc)) from exc
            J_cur[i, i] = sol[-1]
            # recovery fill below the diagonal: first passage to >= y_i
            if i >= 1:
                rows_b = np.arange(0, i)
                mat_b = q * np.eye(i, dtype=complex) - dense[np.ix_(rows_b, rows_b)]
                targets = np.arange(i, nn)
                rhs_b = dense[np.ix_(rows_b, targets)] @ J_cur[targets, targets]
                try:
                    sol_b = np.linalg.solve(mat_b, rhs_b)
                except np.linalg.LinAlgError as exc:
                    raise Singular(str(exc)) from exc
                J_cur[:i, i] = sol_b
        J_prev = J_cur
    return complex(J_prev[eta_x, eta_y])


def insurance_with_recovery(gen: Generator, q, a: float, x=None,
                            y=None, *, force_generic: bool = False):
    """Sum over all with-recovery drawdown events of e^{-q tau_{a,k}}.  A
    node vector q gives one value per node (birth-death chains and
    lattices)."""
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta_x = _anchor_index(gen, x)
    eta_y = eta_x if y is None else _anchor_index(gen, y)
    if eta_x > eta_y:
        raise ValueError("position x must not exceed the running max y")
    if gen.structure == BIRTH_DEATH and not force_generic:
        nodes, single = _nodes(q)
        return _per_node(_jsum_diffusion(gen, nodes, a_steps, eta_x, eta_y), single)
    if gen.structure == TOEPLITZ_LEVY and not force_generic:
        return j_levy_closed_form(gen, q, a, x=eta_x, y=eta_y)
    return _jsum_generic(gen, _one_node(q), a_steps, eta_x, eta_y)


def _jsum_diffusion(gen, q, a_steps, eta_x, eta_y) -> np.ndarray:
    """O(N) backward recursion: each diagonal value couples to the one above
    and to itself through the down-exit/recovery cycle."""
    nn = gen.n
    psi = psi_pair(gen, q)
    idx = np.arange(1, nn - 1)
    up, dn = _window_weights(psi, idx, a_steps)
    # a window without a floor state has dn = 0: no cycle, denominator 1
    cycle = 1.0 - dn * _recovery_weights(psi, idx, a_steps)
    if np.any(np.abs(cycle) < 1e-15):
        raise FixedPointSingular("recovery cycle weight reached 1")
    diag = _chain_down(nn, idx, up / cycle, dn / cycle)
    if eta_x == eta_y:
        return diag[eta_y]
    return psi.ratio_plus(eta_x, eta_y) * diag[eta_y]


def _jsum_generic(gen, q, a_steps, eta_x, eta_y) -> complex:
    """Fixed point over the diagonal values, with dense recovery solves."""
    nn = gen.n
    if nn > 500:
        raise TooLarge("generic recovery fixed point caps at 500 states")
    dense = gen.to_dense(max_states=nn).astype(complex)
    M = np.zeros((nn, nn), dtype=complex)
    c = np.zeros(nn, dtype=complex)
    for i in range(1, nn - 1):
        lo = max(0, i - a_steps + 1)
        rows = np.arange(lo, i + 1)
        mat = q * np.eye(rows.size, dtype=complex) - dense[np.ix_(rows, rows)]
        e = np.zeros(rows.size, dtype=complex)
        e[-1] = 1.0
        try:
            w = np.linalg.solve(mat.T, e)
        except np.linalg.LinAlgError as exc:
            raise Singular(str(exc)) from exc
        p = np.zeros(nn, dtype=complex)
        outside = np.concatenate([np.arange(0, lo), np.arange(i + 1, nn)])
        p[outside] = w @ dense[np.ix_(rows, outside)]
        above = np.arange(i + 1, nn)
        M[i, above] += p[above]
        if lo > 0:
            below = np.arange(0, lo)
            c[i] = p[below].sum()
            rec_rows = np.arange(0, i)
            mat_b = q * np.eye(i, dtype=complex) - dense[np.ix_(rec_rows, rec_rows)]
            targets = np.arange(i, nn)
            rhs_b = dense[np.ix_(rec_rows, targets)]
            try:
                REC = np.linalg.solve(mat_b, rhs_b)   # (i, targets)
            except np.linalg.LinAlgError as exc:
                raise Singular(str(exc)) from exc
            M[i, targets] += p[below] @ REC[below, :]
    try:
        diag = np.linalg.solve(np.eye(nn, dtype=complex) - M, c)
    except np.linalg.LinAlgError as exc:
        raise FixedPointSingular(str(exc)) from exc
    if eta_x == eta_y:
        return complex(diag[eta_y])
    if eta_y == 0:
        return complex(diag[0])
    rec_rows = np.arange(0, eta_y)
    mat_b = q * np.eye(eta_y, dtype=complex) - dense[np.ix_(rec_rows, rec_rows)]
    targets = np.arange(eta_y, nn)
    rhs_b = dense[np.ix_(rec_rows, targets)] @ diag[targets]
    sol_b = np.linalg.solve(mat_b, rhs_b)
    return complex(sol_b[eta_x])


def j_levy_closed_form(gen: Generator, q, a: float, x=None, y=None):
    """Translation-invariant insurance sum with recovery; a node vector q
    gives one value per node.

    Needs one window solve on (-a, 0], one recovery solve on the window
    between the lattice bottom and the anchor, and (for x < y) one more
    recovery factor, each one LU per node.  Like ``c_levy_closed_form``
    it holds on the infinite lattice and ignores the chain's upper end.
    """
    if gen.structure != TOEPLITZ_LEVY:
        raise NotLevy("closed form needs a translation-invariant lattice generator")
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = grid.eta_x
    nodes, single = _nodes(q)
    eta_x = eta if x is None else (int(x) if isinstance(x, (int, np.integer)) else grid.index_of(float(x)))
    eta_y = eta_x if y is None else (int(y) if isinstance(y, (int, np.integer)) else grid.index_of(float(y)))
    nn = gen.n
    if eta - 1 > 3000:
        raise TooLarge("recovery window too large for the dense closed form")
    # recovery weights u(z) = E_z[e^{-qT} ; reach >= anchor before the bottom]
    _, rhs = gen.window_exit_masses(1, eta - 1)
    u = np.zeros((nn, nodes.size), dtype=complex)
    u[1:eta] = _node_solves(gen.window_block(1, eta - 1),
                            np.broadcast_to(nodes, (eta - 1, nodes.size)), rhs).T
    p_dn, p_up, p_mix = _levy_window_masses(
        gen, np.broadcast_to(nodes, (a_steps, nodes.size)), payoff_below=u)
    den = 1.0 - p_up - p_mix
    if np.any(np.abs(den) < 1e-14):
        raise FixedPointSingular("degenerate recovery fixed point")
    j00 = p_dn / den
    if eta_x != eta_y:
        # starting below the max: one recovery passage over the gap, which by
        # translation invariance is u evaluated at the matching relative state
        start = eta - (eta_y - eta_x)
        j00 = u[start] * j00 if start > 0 else np.zeros_like(j00)
    return _per_node(j00, single)


# ---------------------------------------------------------------------------
# request dispatch
# ---------------------------------------------------------------------------

def _node_axis_route(gen: Generator, req: QuantityRequest, force_generic: bool) -> bool:
    """Whether the route serving ``req`` evaluates a node vector in one pass:
    every route except the dense generic recursions (A and Jn off
    birth-death chains, Hsum and Jsum on dense or forced-generic paths)
    and a B or C with its own killing."""
    if (req.kind == "B" and req.k is not None) or (req.kind == "C" and req.k2 is not None):
        return False
    if req.kind in ("A", "Jn"):
        return gen.structure == BIRTH_DEATH and not force_generic
    if req.kind in ("Hsum", "Jsum"):
        return gen.structure != GENERAL and not force_generic
    return True


def evaluate(gen: Generator, req: QuantityRequest, *, force_generic: bool = False):
    """Evaluate one QuantityRequest on a generator (Laplace-domain value).

    ``req.q`` is one node or a vector of nodes; a vector gives an array
    with one value per node.  Node-axis routes take the whole vector in
    one pass; the few others are evaluated here node by node.
    """
    if np.ndim(req.q) and not _node_axis_route(gen, req, force_generic):
        return np.array([_evaluate(gen, replace(req, q=complex(q)), force_generic)
                         for q in req.q])
    return _evaluate(gen, req, force_generic)


def _evaluate(gen: Generator, req: QuantityRequest, force_generic: bool):
    kind = req.kind
    if kind == "Q":
        return q_drawdown(gen, req.q, req.a, f=req.f, x=req.x, force_generic=force_generic)
    if kind == "A":
        return drawdown_before_drawup(gen, req.q, req.a, req.b, f=req.f,
                                      x=req.x, y=req.y, force_generic=force_generic)
    if kind == "B":
        k = req.k
        if k is None:
            if req.xi is not None:
                k = occupation_below_killing(req.q, req.xi, req.shift)
            else:
                k = KillingField.constant(np.asarray(req.q) + complex(req.shift))
        return occupation_until_drawdown(gen, k, req.a, f=req.f, x=req.x,
                                         force_generic=force_generic)
    if kind == "C":
        if gen.structure == TOEPLITZ_LEVY and not force_generic and req.k2 is None:
            return c_levy_closed_form(gen, req.q, req.a, req.xi, shift=req.shift)
        k2 = req.k2
        if k2 is None:
            if req.xi is None:
                raise ValueError("quantity C needs either k2 or the threshold xi")
            k2 = drawdown_occupation_killing(req.q, req.xi, req.shift)
        return drawdown_occupation(gen, k2, req.a, f=req.f, x=req.x)
    if kind == "Hn":
        return nth_drawdown_no_recovery(gen, req.q, req.a, f=req.f, x=req.x, n=req.n,
                                        force_generic=force_generic)
    if kind == "Hsum":
        return insurance_no_recovery(gen, req.q, req.a, x=req.x, force_generic=force_generic)
    if kind == "Jn":
        return nth_drawdown_with_recovery(gen, req.q, req.a, f2=req.f2,
                                          x=req.x, y=req.y, n=req.n,
                                          force_generic=force_generic)
    if kind == "Jsum":
        return insurance_with_recovery(gen, req.q, req.a, x=req.x, y=req.y,
                                       force_generic=force_generic)
    raise ValueError(f"unhandled kind {kind}")
