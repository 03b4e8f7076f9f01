"""The five drawdown quantities as recursive algorithms over windowed solves.

All quantities share one backward sweep over window tops i = N-1 .. stop:
the window (y_i - a, y_i] is solved with the appropriate killing, the
down-exit payoff comes from states at or below y_i - a, the up-exit
continuation from already-computed values above y_i.  Two running vectors
make every sweep O(N) linear solves plus O(N^2) vector work:

    S[m] = sum_{z > i}   G(m, z) * value[z]      (continuation inflow)
    D[m] = sum_{z <= i-a} G(m, z) * payoff[z]    (payoff inflow)

updated incrementally as i decreases.  Window solves are cached by the
window's relative killing pattern on translation-invariant lattices, where
the window block is the same matrix for every interior top, and dense
otherwise.

Quantities:

* ``q_drawdown``                 discounted drawdown-time transform
* ``drawdown_before_drawup``     drawdown happening before a drawup
* ``occupation_until_drawdown``  occupation weight k(x) until drawdown
* ``drawdown_occupation``        occupation weight k(x, max) until drawdown
* ``nth_drawdown_no_recovery``   n-th drawdown, reference max restarting
* ``insurance_no_recovery``      sum over all such events (fixed point)
* ``nth_drawdown_with_recovery`` n-th drawdown, max must first recover
* ``insurance_with_recovery``    sum over all such events

with translation-invariant closed forms (`*_levy_closed_form`, at the
lattice anchor) and birth-death fast paths selected automatically from the
structure tag.  Every birth-death exit weight comes from fundamental-
solution pairs: one through ``PsiPair.exit_weights``, two spliced for C.

Node batching: every quantity takes one Laplace node or a vector of
them, and a vector gives one value per node.  Most routes carry the nodes
as a trailing array axis, so each rung evaluates all nodes in one pass:

* the birth-death fast paths: Q and B (through the pair of the per-state
  killing), C (through the spliced pairs), A, Hn, the Hsum partial sums and
  fixed point (one sparse solve per node), Jn and Jsum;
* the windowed sweep (Q, B, C, Hn and the Hsum partial sums on lattices
  and dense generators): the running vectors are (n, k); lattice windows
  cache the last rows of every node's inverse per killing pattern;
* the lattice closed forms (C, Hsum, Jsum): the window block and its exit
  masses are built once.

Every window solve reduces the real window matrix once (the rows whose
killing is the same for every node eliminated, the rest brought to
Hessenberg form) and then costs one O(m^2) banded LU per node
(``_node_solves``).

The dense generic recursions (A and Jn off birth-death chains, the
generic Hsum and Jsum fixed points) solve one node at a time; their
public functions loop over the vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.linalg as sla
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.signal import fftconvolve

from .ctmc import BIRTH_DEATH, TOEPLITZ_LEVY, Generator
from .linsolve import (
    DegenerateWindow,
    PsiPair,
    Singular,
    _check_nonneg_real,
    _payoff_array,
    killing_values,
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
    xi: Optional[float] = None  # occupation threshold of the B and C killings
    n: int = 1
    x: Optional[float] = None
    y: Optional[float] = None
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
        if self.kind == "C" and self.xi is None:
            raise ValueError("quantity C needs the threshold xi")
        if self.kind in ("Hn", "Jn") and self.n < 1:
            raise ValueError("event count n must be >= 1")


# ---------------------------------------------------------------------------
# shared sweep machinery
# ---------------------------------------------------------------------------

_IND_TOL = 1e-9
# Threshold indicators compare lattice differences against levels that are
# typically exact multiples of h; a relative tolerance keeps the comparison
# outcome uniform across windows (strict inequality in exact arithmetic).


def occupation_below_killing(q, xi: float, shift: complex = 0.0) -> Callable:
    """k(x) = q 1_{x < xi} + shift, with a roundoff-safe strict inequality;
    a node vector q gives one column per node."""
    qq, sh = np.asarray(q, dtype=complex), complex(shift)
    tol = _IND_TOL * max(1.0, abs(xi))

    def fn(states):
        below = np.asarray(states) < xi - tol
        return np.where(below[:, None] if qq.ndim else below, qq, 0.0) + sh

    return fn


def drawdown_occupation_killing(q, xi: float, shift: complex = 0.0) -> Callable:
    """k(x, max) = q 1_{max - x > xi} + shift as a function of (states,
    running max), roundoff-safe; a node vector q gives one column per node."""
    qq, sh = np.asarray(q, dtype=complex), complex(shift)
    tol = _IND_TOL * max(1.0, abs(xi))

    def fn2(states, y):
        above = y - np.asarray(states) > xi + tol
        out = np.where(above[:, None] if qq.ndim else above, qq, 0.0) + sh
        _check_nonneg_real(out)
        return out

    return fn2


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
    rates = gen.to_dense(max_states=n)
    D = rates[:, :cut + 1].astype(complex) @ f_arr[:cut + 1]
    z = np.arange(cut + 1)
    D[z] -= np.diag(rates)[z, None] * f_arr[z]
    D[0] = D[n - 1] = 0.0
    return D


def _node_solves(blk: np.ndarray, kv: np.ndarray, rhs: np.ndarray, *,
                 trans: bool = False) -> np.ndarray:
    """Solutions x_j of (diag(kv[:, j]) - blk) x_j = rhs, or of the
    transposed systems, for the real (m, m) block, the (m, k) killing and
    a real (m,) right-hand side shared by the nodes: a (k, m) array.

    Every killing the quantities build is kv[:, j] = q_j d + s: "free"
    rows hold one real value for all nodes, "killed" rows all hold the
    node's value.  The free rows are eliminated once (one real LU), the
    real Schur complement on the killed rows is reduced once to Hessenberg
    form, and each node costs one O(m^2) banded LU (``_shifted_solves``).
    A killing of another form (state dependent, or a complex offset)
    takes one complex LU per node.
    """
    m, k = kv.shape
    same = np.all(kv == kv[:, :1], axis=1)
    free, killed = np.flatnonzero(same), np.flatnonzero(~same)
    structured = np.all(kv[free, 0].imag == 0.0) and np.all(kv[killed] == kv[killed[:1]])
    if not structured:
        diag = np.arange(m)
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
    mat = np.negative(blk.T if trans else blk, order="F")
    mat[free, free] += kv[free, 0].real
    out = np.empty((k, m), dtype=complex)
    if free.size == 0:
        out[:] = _shifted_solves(mat, kv[0], rhs).T
        return out
    lu = sla.lu_factor(mat[np.ix_(free, free)], overwrite_a=True)
    if np.any(np.diag(lu[0]) == 0.0):
        raise Singular("window matrix is singular")
    z = sla.lu_solve(lu, rhs[free])
    if killed.size == 0:   # no row depends on the node
        out[:] = z
        return out
    gain = sla.lu_solve(lu, mat[np.ix_(free, killed)])
    into = mat[np.ix_(killed, free)]
    schur = np.asfortranarray(mat[np.ix_(killed, killed)] - into @ gain)
    del mat
    y = _shifted_solves(schur, kv[killed[0]], rhs[killed] - into @ z)
    out[:, killed] = y.T
    out[:, free] = z - (gain @ y.view(float)).view(complex).T
    return out


def _shifted_solves(mat: np.ndarray, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions y_j of (mat + q_j I) y_j = b for a real Fortran-order
    (p, p) matrix (overwritten), the (k,) shifts and a real (p,) b: a
    C-order (p, k) array.

    mat = Q H Q^T once (``dgehrd``); then each shift costs one banded LU
    of the upper Hessenberg H + q_j I, with one subdiagonal (Laub, IEEE
    TAC 26(2), 1981).
    """
    p = mat.shape[0]
    hess, tau, _ = lapack.dgehrd(mat, lwork=int(lapack.dgehrd_lwork(p)[0]), overwrite_a=True)
    c = _reflect(hess, tau, b[:, None], "T")[:, 0].astype(complex)
    # LAPACK band storage with kl = 1, ku = p - 1 holds H[i, j] in row
    # p + i - j of column j, at Fortran offset p + i + j (p + 1): one strided
    # view takes all of hess, whose reflectors below the subdiagonal land
    # in the corner of the band that zgbtrf never reads
    band = np.zeros((p + 2, p), dtype=complex, order="F")
    upper = band.ravel(order="F")[p:].reshape(p + 1, p, order="F")[:p]
    y = np.empty((p, q.size), dtype=complex)
    for j, qj in enumerate(q):
        upper[:] = hess
        band[p] += qj
        lu, piv, info = lapack.zgbtrf(band, 1, p - 1, overwrite_ab=True)
        if info > 0:
            raise Singular("window matrix is singular")
        y[:, j] = lapack.zgbtrs(lu, 1, p - 1, c, piv)[0]
    del band, upper, lu   # only the reflectors are needed from here on
    return _reflect(hess, tau, y.view(float), "N").view(complex)


def _reflect(hess: np.ndarray, tau: np.ndarray, c: np.ndarray, trans: str) -> np.ndarray:
    """Q c (trans "N") or Q^T c ("T") for the orthogonal factor Q of
    ``dgehrd``'s output and a real (p, r) array c, as a C-order copy.  The
    reflectors sit below the subdiagonal and leave row 0 alone."""
    out = np.array(c, dtype=float)
    p = out.shape[0]
    if p > 1:
        args = ("L", trans, hess[1:, :-1], tau[:p - 1], out[1:])
        lwork = int(lapack.dormqr(*args, -1)[1][0])
        out[1:] = lapack.dormqr(*args, lwork)[0]
    return out


def _last_rows(blk: np.ndarray, kv: np.ndarray) -> np.ndarray:
    """Last rows of the inverses of diag(kv[:, j]) - blk, one per node: (k, m)."""
    e = np.zeros(kv.shape[0])
    e[-1] = 1.0
    return _node_solves(blk, kv, e, trans=True)


class _WindowSolver:
    """Last-row window solves for a batch of nodes: cached by the window's
    killing pattern on lattices, built otherwise for every window; each
    is one reduction of the window plus one banded LU per node
    (``_node_solves``)."""

    def __init__(self, gen: Generator):
        self.gen = gen
        self.cache = {}

    def last_row_solve(self, lo: int, i: int, kv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Last entries of the solutions of (diag(kv[:, j]) - G[lo..i]) x = rhs[:, j]
        for the (m, k) killing and right-hand sides: one value per node."""
        # interior lattice window blocks depend only on the width and on
        # whether the window reaches state 0: cache their inverses' last rows
        lattice = self.gen.structure == TOEPLITZ_LEVY
        key = (kv.shape[0], lo == 0, kv.tobytes()) if lattice else None
        w = self.cache.get(key)
        if w is None:
            w = _last_rows(self.gen.window_block(lo, i), kv)
            if key is not None:
                self.cache[key] = w
        return np.einsum("jm,mj->j", w, rhs)


def backward_window_sweep(gen: Generator, a_steps: int, killing_fn: Callable,
                          f_arr: np.ndarray, stop: int, *,
                          solver: "_WindowSolver" = None) -> np.ndarray:
    """Backward recursion over window tops for k nodes at once; returns the
    (n, k) values, one column per node.  It serves lattices and dense
    generators; birth-death chains take the fundamental-solution pairs.

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
        if v.any() and i > floor:
            S[floor:i] += gen.column(i)[floor:i, None] * v
        if cut >= 0 and f[cut].any():
            col = gen.column(cut)
            col[cut] = 0.0   # diagonal column terms are kept out of D
            D[floor:] -= col[floor:, None] * f[cut]
        cut -= 1
    return V


def _killed_solve(dense: np.ndarray, q: complex, lo: int, hi: int, rhs: np.ndarray, *,
                  trans: bool = False) -> np.ndarray:
    """Solution of (q I - G[lo..hi]) x = rhs on the dense generator matrix,
    or of the transposed system: the step of the dense generic recursions."""
    mat = q * np.eye(hi - lo + 1, dtype=complex) - dense[lo:hi + 1, lo:hi + 1]
    try:
        return np.linalg.solve(mat.T if trans else mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise Singular(str(exc)) from exc


def _dense_exit_rows(dense: np.ndarray, q: complex, a_steps: int) -> np.ndarray:
    """Exit weights P[i, z] of the drawdown window (y_i - a, y_i] started at
    its top i onto each state z outside it, from the dense generator matrix
    (rows of the two absorbing ends stay 0)."""
    n = dense.shape[0]
    P = np.zeros((n, n), dtype=complex)
    for i in range(1, n - 1):
        lo = max(0, i - a_steps + 1)
        e = np.zeros(i - lo + 1, dtype=complex)
        e[-1] = 1.0
        w = _killed_solve(dense, q, lo, i, e, trans=True)
        outside = np.concatenate([np.arange(0, lo), np.arange(i + 1, n)])
        P[i, outside] = w @ dense[np.ix_(np.arange(lo, i + 1), outside)]
    return P


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


def q_drawdown(gen: Generator, q, a: float, f=None, x=None):
    """E[e^{-q tau_a} f(Y_{tau_a})] from a fresh running maximum: B with the
    constant killing q.  A node vector q gives one value per node."""
    return occupation_until_drawdown(gen, q, a, f=f, x=x)


# ---------------------------------------------------------------------------
# B: generalized occupation until the drawdown time
# ---------------------------------------------------------------------------

def occupation_until_drawdown(gen: Generator, k, a: float, f=None, x=None):
    """E[e^{-int_0^{tau_a} k(Y_s) ds} f(Y_{tau_a})].

    ``k`` is a constant or a function of the states (``killing_values``).
    On a birth-death chain every window's exit weights come from one
    fundamental-solution pair of the per-state killing; a killing with one
    column per node (a node vector) gives one value per node.
    """
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    f_arr = _payoff_array(gen, f)
    kill = killing_values(k, gen.states)
    single = kill.ndim == 1
    kill = kill.reshape(gen.n, -1)
    if gen.structure == BIRTH_DEATH:
        V = _q_psi_sweep(gen, a_steps, f_arr, _psi_sweep_coeffs(gen, kill, a_steps, eta))
    else:
        V = backward_window_sweep(gen, a_steps, lambda i, lo: kill[lo:i + 1], f_arr, eta)
    return _per_node(V[eta], single)


# ---------------------------------------------------------------------------
# C: occupation of the drawdown process until the drawdown time
# ---------------------------------------------------------------------------

def drawdown_occupation(gen: Generator, q, a: float, xi: float, f=None, x=None, *,
                        shift: complex = 0.0):
    """E[e^{-int_0^{tau_a} k(Y_s, max_s) ds} f(Y_{tau_a})] for the killing
    k(x, max) = q 1_{max - x > xi} + shift; a node vector q gives one value
    per node.

    Inside the window topped at y_i the running maximum is frozen, so the
    killing is q + shift below the breakpoint y_i - xi and shift above it.
    Birth-death chains splice two fundamental-solution pairs there
    (``_spliced_sweep_coeffs``) and run down the tops as Q does; lattices
    take ``c_levy_closed_form`` without a payoff, started at the anchor;
    a lattice given a payoff or another start, and a dense generator, take
    the windowed sweep.
    """
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    if gen.structure == TOEPLITZ_LEVY and f is None and eta == grid.eta_x:
        return c_levy_closed_form(gen, q, a, xi, shift=shift)
    f_arr = _payoff_array(gen, f)
    nodes, single = _nodes(q)
    if gen.structure == BIRTH_DEATH:
        _check_nonneg_real(np.append(nodes + shift, shift))
        coeffs = _spliced_sweep_coeffs(gen, nodes, a_steps, xi, shift, eta)
        V = _q_psi_sweep(gen, a_steps, f_arr, coeffs)
    else:
        kf, states = drawdown_occupation_killing(nodes, xi, shift), gen.states
        V = backward_window_sweep(
            gen, a_steps, lambda i, lo: kf(states[lo:i + 1], states[i]), f_arr, eta)
    return _per_node(V[eta], single)


def _spliced_sweep_coeffs(gen: Generator, nodes: np.ndarray, a_steps: int, xi: float,
                          shift: complex, stop: int):
    """Per-top exit weights of the drawdown windows under C's killing, from
    the bridges B_L of the killing q + shift (rows z < c, y_i - y_z > xi)
    and B_H of the killing shift (rows z >= c).  The solution vanishing at
    the floor l = max(i - a, 0) follows B_L(., l) up to state c, then a B_H
    solution: X(r) = B_H(r, c-1) B_L(c, l) - B_H(r, c) B_L(c-1, l).  The
    weights are X(i) / X(i+1) onto the top and B_H(i+1, i) B_L(c, c-1) /
    X(i+1) onto the floor; c clipped to l + 1 or i + 1 gives one pair's."""
    idx = np.arange(stop, gen.n - 1)
    low = psi_pair(gen, nodes + shift)
    high = psi_pair(gen, np.array([shift]))   # node independent: one column
    floor = np.maximum(idx - a_steps, 0)
    tol = _IND_TOL * max(1.0, abs(xi))
    c = np.clip(np.searchsorted(gen.states, gen.states[idx] - xi - tol), floor + 1, idx + 1)
    (lm, lL), (lm1, lL1) = low.bridge_many(c, floor), low.bridge_many(c - 1, floor)

    def spliced(r):   # X(r) in (mantissa, log) form
        (m, L), (m1, L1) = high.bridge_many(r, c - 1), high.bridge_many(r, c)
        L, L1 = L + lL, L1 + lL1
        top = np.maximum(L, L1)
        return m * lm * np.exp(L - top) - m1 * lm1 * np.exp(L1 - top), top

    den = spliced(idx + 1)
    up = PsiPair.ratio_many(spliced(idx), den)
    (hm, hL), (cm, cL) = high.bridge_many(idx + 1, idx), low.bridge_many(c, c - 1)
    down = PsiPair.ratio_many((hm * cm, hL + cL), den)
    return idx, up, np.where((idx >= a_steps)[:, None], down, 0.0)


def _anchored_window(gen: Generator, a_steps: int) -> int:
    """Bottom row of the lattice window (-a, 0] at the anchor."""
    lo = gen.grid.eta_x - a_steps + 1
    if lo < 1:
        raise DegenerateWindow("lattice too narrow below the anchor")
    return lo


def c_levy_closed_form(gen: Generator, q, a: float, xi: float, *,
                       shift: complex = 0.0):
    """Translation-invariant solution of the drawdown-occupation transform
    with k(x, max) = q 1_{max - x > xi} + shift: one window solve for all
    nodes (``_node_solves``); a node vector q gives one value per node.

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
    kv = drawdown_occupation_killing(nodes, xi, shift)(states[lo:eta + 1], states[eta])
    p_dn, p_up, _ = _levy_window_masses(gen, kv)
    den = 1.0 - p_up
    if np.any(np.abs(den) < 1e-14):
        raise FixedPointSingular("unit up-exit weight in the closed form")
    return _per_node(p_dn / den, single)


# ---------------------------------------------------------------------------
# A: drawdown before drawup
# ---------------------------------------------------------------------------

def drawdown_before_drawup(gen: Generator, q, a: float, b: float,
                           f=None, x=None, y=None):
    """E[e^{-q tau_a} 1_{tau_a < tauhat_b} f(Y_{tau_a})] from position x
    (= running max) and running min y.  Requires b >= a.  A node vector q
    gives one value per node.

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
    if y_pos < -1e-9:
        # the minimum is the bottom end of the drawup window
        raise DegenerateWindow("running minimum lies below the lowest grid state")
    l0 = min(int(np.floor(y_pos + 1e-9)), eta)
    wgt = y_pos - l0
    nodes, single = _nodes(q)
    if gen.structure == BIRTH_DEATH:
        row = _a_diffusion(gen, nodes, a_steps, b_steps, f_arr, eta)
    else:
        row = np.stack([_a_generic(gen, q, a_steps, b_steps, f_arr, eta) for q in nodes], axis=1)
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
    for i in range(n - 2, eta - 1, -1):
        lo = max(0, i - a_steps + 1)
        lob = max(0, i - b_steps + 1)
        rows = np.arange(lo, i + 1)
        rhs_f = dense[np.ix_(rows, np.arange(0, lo))] @ f_arr[:lo] if lo > 0 else np.zeros(rows.size, dtype=complex)
        above = np.arange(i + 1, n)
        up_block = dense[np.ix_(rows, above)]
        # frozen-minimum columns l in [lob .. lo]
        cols = np.arange(lob, lo + 1)
        rhs_frozen = up_block @ A[np.ix_(above, cols)]
        sol = _killed_solve(dense, q, lo, i, np.column_stack([rhs_f, rhs_frozen]))
        pay = complex(sol[-1, 0])
        A[i, lob:lo + 1] = pay + sol[-1, 1:]
        r_diag = np.zeros(i, dtype=complex)       # R(q, y_t, y_t) indexed by t
        if lo < i:
            # single-state windows (a one step wide) have no interior minima
            r_diag[lo] = complex(sol[0, 1 + (lo - lob)])
        for t in range(lo + 1, i + 1):
            rows_t = np.arange(t, i + 1)
            rhs_t = dense[np.ix_(rows_t, np.arange(lo, t))] @ r_diag[lo:t]
            rhs_t += dense[np.ix_(rows_t, above)] @ A[above, t]
            sol_t = _killed_solve(dense, q, t, i, rhs_t)
            if t <= i - 1:
                r_diag[t] = complex(sol_t[0])
            A[i, t] = pay + complex(sol_t[-1])
    return A[eta]


# ---------------------------------------------------------------------------
# H: n-th drawdown without recovery, and the event-sum fixed point
# ---------------------------------------------------------------------------

def nth_drawdown_no_recovery(gen: Generator, q, a: float, f=None,
                             x=None, n: int = 1):
    """E[e^{-q tautilde_{a,n}} f(Y_{tautilde_{a,n}})]; the reference maximum
    restarts at every event.  A node vector q gives one value per node.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes, single = _nodes(q)
    terms = _hn_terms(gen, nodes, gen.grid.steps_of(a), _payoff_array(gen, f),
                      _anchor_index(gen, x))
    return _per_node(next(islice(terms, n - 1, None)), single)


def _hn_terms(gen: Generator, nodes: np.ndarray, a_steps: int, f_arr: np.ndarray,
              eta: int) -> Iterator[np.ndarray]:
    """Values of the n-th no-recovery event, n = 1, 2, ..., one (k,) node
    vector each: every step sweeps the down-exit payoff of the previous
    event.  The window exit weights (or factorizations) do not depend on
    the event count, so they are built once and reused by every step."""
    if gen.structure == BIRTH_DEATH:
        coeffs = _psi_sweep_coeffs(gen, nodes, a_steps, 0)
        sweep = lambda f_arr: _q_psi_sweep(gen, a_steps, f_arr, coeffs)
    else:
        kfn = lambda i, lo: np.broadcast_to(nodes, (i - lo + 1, nodes.size))
        solver = _WindowSolver(gen)
        sweep = lambda f_arr: backward_window_sweep(gen, a_steps, kfn, f_arr, 0, solver=solver)
    while True:
        f_arr = sweep(f_arr)
        yield f_arr[eta]


def insurance_partial_sums(gen: Generator, q, a: float, x=None, y=None, *,
                           recovery: bool = False, n_max: int = 50,
                           tol: float = 1e-10) -> np.ndarray:
    """Running partial sums of the per-event transforms, the convergence
    diagnostic for the event-sum fixed points.  Stops early once every
    node's increment drops below tol (default 50 events, 1e-10).  A node
    vector q gives one column per node."""
    a_steps = gen.grid.steps_of(a)
    nodes, single = _nodes(q)
    if recovery:
        terms = _jn_terms(gen, nodes, a_steps, _bipayoff(gen, None), *_start_pair(gen, x, y))
    else:
        terms = _hn_terms(gen, nodes, a_steps, _payoff_array(gen, None), _anchor_index(gen, x))
    sums = []
    total = np.zeros(nodes.size, dtype=complex)
    for term in islice(terms, n_max):
        total = total + term
        sums.append(total)
        if np.all(np.abs(term) < tol):
            break
    sums = np.array(sums)
    return sums[:, 0] if single else sums


def insurance_no_recovery(gen: Generator, q, a: float, x=None):
    """Sum over all no-recovery drawdown events of e^{-q tautilde_{a,k}}:
    fixed point H = P (1 + H_below) + P H_above.  A node vector q gives
    one value per node."""
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = _anchor_index(gen, x)
    n = gen.n
    nodes, single = _nodes(q)
    if gen.structure == BIRTH_DEATH:
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
    if gen.structure == TOEPLITZ_LEVY and eta == grid.eta_x:
        return h_levy_closed_form(gen, q, a)
    return _per_node(np.array([_hsum_generic(gen, q, a_steps, eta) for q in nodes]), single)


def _hsum_generic(gen: Generator, q: complex, a_steps: int, eta: int) -> complex:
    """Fixed point over the full exit-weight matrix, from dense window solves."""
    n = gen.n
    if n > 1500:
        raise TooLarge("generic insurance fixed point caps at 1500 states")
    P = _dense_exit_rows(gen.to_dense(max_states=n).astype(complex), q, a_steps)
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


def _start_pair(gen: Generator, x, y):
    """Grid indices of the position x and the running maximum y (default x)."""
    eta_x = _anchor_index(gen, x)
    eta_y = eta_x if y is None else _anchor_index(gen, y)
    if eta_x > eta_y:
        raise ValueError("position x must not exceed the running max y")
    return eta_x, eta_y


def nth_drawdown_with_recovery(gen: Generator, q, a: float, f2=None,
                               x=None, y=None, n: int = 1):
    """E[e^{-q tau_{a,n}} f2(Y, max)] where each new event requires the
    running maximum to recover to its level at the previous event.  A node
    vector q gives one value per node."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes, single = _nodes(q)
    terms = _jn_terms(gen, nodes, gen.grid.steps_of(a), _bipayoff(gen, f2),
                      *_start_pair(gen, x, y))
    return _per_node(next(islice(terms, n - 1, None)), single)


def _jn_terms(gen: Generator, nodes: np.ndarray, a_steps: int, f2_fn: Callable,
              eta_x: int, eta_y: int) -> Iterator[np.ndarray]:
    """Values of the n-th with-recovery event, n = 1, 2, ..., one (k,) node
    vector each; every count carries the previous one forward."""
    if gen.structure == BIRTH_DEATH:
        return _jn_diffusion(gen, nodes, a_steps, f2_fn, eta_x, eta_y)
    return map(np.array, zip(*[_jn_generic(gen, q, a_steps, f2_fn, eta_x, eta_y)
                               for q in nodes]))


def _jn_diffusion(gen, q, a_steps, f2_fn, eta_x, eta_y) -> Iterator[np.ndarray]:
    nn = gen.n
    psi = psi_pair(gen, q)
    idx = np.arange(1, nn - 1)
    up, down = _window_weights(psi, idx, a_steps)
    rec = _recovery_weights(psi, idx, a_steps)
    hit = 1.0 if eta_x == eta_y else psi.ratio_plus(eta_x, eta_y)
    # first event: the payoff at (floor, max = top), 0 without a floor
    has_floor = idx >= a_steps
    pay = np.where(has_floor, f2_fn(np.where(has_floor, idx - a_steps, 0), idx), 0.0)[:, None]
    while True:
        diag = _chain_down(nn, idx, up, down * pay)
        yield hit * diag[eta_y]
        # this count's value at (floor, max = top): must recover to the top
        pay = rec * diag[idx]


def _jn_generic(gen, q, a_steps, f2_fn, eta_x, eta_y) -> Iterator[complex]:
    nn = gen.n
    if nn > 600:
        raise TooLarge("generic recovery recursion caps at 600 states")
    dense = gen.to_dense(max_states=nn).astype(complex)
    # initial condition: the zeroth "event value" is the terminal payoff
    J_prev = np.zeros((nn, nn), dtype=complex)   # J_{k-1}[x, y]
    for yy in range(nn):
        J_prev[:yy + 1, yy] = f2_fn(np.arange(yy + 1), yy)
    while True:
        J_cur = np.zeros((nn, nn), dtype=complex)
        for i in range(nn - 2, -1, -1):
            lo = max(0, i - a_steps + 1)
            rows = np.arange(lo, i + 1)
            rhs = np.zeros(rows.size, dtype=complex)
            if lo > 0:
                rhs += dense[np.ix_(rows, np.arange(lo))] @ J_prev[:lo, i]
            above = np.arange(i + 1, nn)
            diag_above = J_cur[above, above]
            rhs += dense[np.ix_(rows, above)] @ diag_above
            J_cur[i, i] = _killed_solve(dense, q, lo, i, rhs)[-1]
            # recovery fill below the diagonal: first passage to >= y_i
            if i >= 1:
                targets = np.arange(i, nn)
                rhs_b = dense[np.ix_(np.arange(0, i), targets)] @ J_cur[targets, targets]
                J_cur[:i, i] = _killed_solve(dense, q, 0, i - 1, rhs_b)
        J_prev = J_cur
        yield complex(J_prev[eta_x, eta_y])


def insurance_with_recovery(gen: Generator, q, a: float, x=None, y=None):
    """Sum over all with-recovery drawdown events of e^{-q tau_{a,k}}.  A
    node vector q gives one value per node."""
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta_x, eta_y = _start_pair(gen, x, y)
    nodes, single = _nodes(q)
    if gen.structure == BIRTH_DEATH:
        out = _jsum_diffusion(gen, nodes, a_steps, eta_x, eta_y)
    elif gen.structure == TOEPLITZ_LEVY and eta_y == grid.eta_x:
        return j_levy_closed_form(gen, q, a, x=eta_x, y=eta_y)
    else:
        out = np.array([_jsum_generic(gen, q, a_steps, eta_x, eta_y) for q in nodes])
    return _per_node(out, single)


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
    P = _dense_exit_rows(dense, q, a_steps)
    M = np.zeros((nn, nn), dtype=complex)
    c = np.zeros(nn, dtype=complex)
    for i in range(1, nn - 1):
        lo = max(0, i - a_steps + 1)
        p = P[i]
        above = np.arange(i + 1, nn)
        M[i, above] += p[above]
        if lo > 0:
            below = np.arange(0, lo)
            c[i] = p[below].sum()
            targets = np.arange(i, nn)
            REC = _killed_solve(dense, q, 0, i - 1, dense[np.ix_(np.arange(0, i), targets)])
            M[i, targets] += p[below] @ REC[below, :]
    try:
        diag = np.linalg.solve(np.eye(nn, dtype=complex) - M, c)
    except np.linalg.LinAlgError as exc:
        raise FixedPointSingular(str(exc)) from exc
    if eta_x == eta_y:
        return complex(diag[eta_y])
    if eta_y == 0:
        return complex(diag[0])
    targets = np.arange(eta_y, nn)
    rhs_b = dense[np.ix_(np.arange(0, eta_y), targets)] @ diag[targets]
    return complex(_killed_solve(dense, q, 0, eta_y - 1, rhs_b)[eta_x])


def j_levy_closed_form(gen: Generator, q, a: float, x=None, y=None):
    """Translation-invariant insurance sum with recovery; a node vector q
    gives one value per node.

    Needs one window solve on (-a, 0], one recovery solve on the window
    between the lattice bottom and the anchor, and (for x < y) one more
    recovery factor, each one reduction plus one banded LU per node
    (``_node_solves``).  Like ``c_levy_closed_form``
    it holds on the infinite lattice and ignores the chain's upper end.
    """
    if gen.structure != TOEPLITZ_LEVY:
        raise NotLevy("closed form needs a translation-invariant lattice generator")
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = grid.eta_x
    nodes, single = _nodes(q)
    eta_x, eta_y = _start_pair(gen, x, y)
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

def evaluate(gen: Generator, req: QuantityRequest):
    """Evaluate one QuantityRequest on a generator (Laplace-domain value).

    ``req.q`` is one node or a vector of nodes; a vector gives an array
    with one value per node.  Each public function picks its route from
    the generator structure and the start point.
    """
    kind = req.kind
    if kind == "Q":
        return q_drawdown(gen, req.q, req.a, f=req.f, x=req.x)
    if kind == "A":
        return drawdown_before_drawup(gen, req.q, req.a, req.b, f=req.f, x=req.x, y=req.y)
    if kind == "B":
        if req.xi is not None:
            k = occupation_below_killing(req.q, req.xi, req.shift)
        else:
            k = np.asarray(req.q) + complex(req.shift)
        return occupation_until_drawdown(gen, k, req.a, f=req.f, x=req.x)
    if kind == "C":
        return drawdown_occupation(gen, req.q, req.a, req.xi, f=req.f, x=req.x, shift=req.shift)
    if kind == "Hn":
        return nth_drawdown_no_recovery(gen, req.q, req.a, f=req.f, x=req.x, n=req.n)
    if kind == "Hsum":
        return insurance_no_recovery(gen, req.q, req.a, x=req.x)
    if kind == "Jn":
        return nth_drawdown_with_recovery(gen, req.q, req.a, f2=req.f2, x=req.x, y=req.y, n=req.n)
    if kind == "Jsum":
        return insurance_with_recovery(gen, req.q, req.a, x=req.x, y=req.y)
    raise ValueError(f"unhandled kind {kind}")
