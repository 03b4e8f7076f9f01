"""The five drawdown quantities as recursive algorithms over windowed solves.

All quantities share one backward sweep over window tops i = N-1 .. stop:
the window (y_i - a, y_i] is solved with the appropriate killing, the
down-exit payoff comes from states at or below y_i - a, the up-exit
continuation from already-computed values above y_i.  One running vector
carries both inflows, the diagonal left out:

    R[m] = sum_{z <= i-a} G(m, z) * payoff[z] + sum_{z > i} G(m, z) * value[z]

The tops go in blocks (``_SWEEP_BLOCK``).  Inside a block a window's
right-hand side is R plus the inflow of the tops already solved in the
block, less the payoff columns that entered the window since the block
began: two small products with slices of the off-diagonal rates.  After
the block one product folds it into the rows below.  Every sweep is O(N)
window solves plus O(N^2) work in BLAS products; a lattice reads its
rates from one panel of the stencil, with no generator column per top
(``_OffDiagonal``).  On translation-invariant lattices every interior
window block is the same Toeplitz matrix, so window solves are cached by
the window's killing pattern; dense generators solve every window.

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
structure tag.  Every birth-death exit weight comes from the chain's
three-term recurrence: through fundamental-solution pairs (one through
``PsiPair.exit_weights``; two spliced for C, read as column slices of one
pair over the nodes and the shift), and for A as tables stepped over
blocks of window tops (``_a_weights``).

The birth-death and dense routes visit only the tops their answers read.
A stops at a drawup of b from the running minimum, so its sweep runs on
the reachable strip of tops min(N-2, eta + b + 1) .. eta, and its cost
per node depends on a and b, not on N (``_a_diffusion``, ``_a_strip``).
Jn and Jsum read their values at the start max eta_y and run down from
the top, so they stop at eta_y.  Hsum keeps every top: its fixed point
couples each top to the one a below it.

Node batching: every quantity takes one Laplace node or a vector of
them, and a vector gives one value per node.  Most routes carry the nodes
as a trailing array axis, so each rung evaluates all nodes in one pass:

* the birth-death fast paths: Q and B (through the pair of the per-state
  killing), C (through the spliced pairs), A (through its weight tables),
  Hn, the Hsum partial sums, Jn and Jsum;
* A off birth-death chains: every window and sub-window of its strip is
  one stacked solve over the nodes (``_a_strip``);
* the windowed sweep (Q, B, C, Hn and the Hsum partial sums on lattices
  and dense generators): the running vector R and the values are (n, k),
  so every block's inflow is one real GEMM over all nodes; lattice windows
  cache the last rows of every node's inverse per killing pattern;
* the lattice closed forms (C, Hsum, Jsum): the window solve and its exit
  masses are made once.

Each window solve takes one route by the window's structure
(``_last_rows``): an interior lattice window killed alike on every row
takes one O(m^2) Levinson recursion per node (``_toeplitz_solves``), B's
nested killing patterns step by rank-one updates of each node's inverse
(``_NestedKilling``), and every other window (C's fixed pattern, windows
that reach state 0, dense generators) reduces the real window matrix
once and then costs one O(m^2) banded LU per node (``_node_solves``).

The birth-death Hsum fixed point builds its weights for all nodes at
once, then solves (I - P) for all nodes in one block elimination
(``_hsum_birth_death``).  Off birth-death chains Jn, and Hsum and Jsum
where no lattice closed form applies, go one node at a time, by one
event core each (``_EventCore``).  Each call builds the generator matrix
once and shares it across its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional

import numpy as np

from .ctmc import BIRTH_DEATH, TOEPLITZ_LEVY, Generator, TooLarge
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


def _b_killing(req: QuantityRequest):
    """B's killing, as ``occupation_until_drawdown`` takes it: q below the
    threshold xi (everywhere without one) plus the shift."""
    if req.xi is not None:
        return occupation_below_killing(req.q, req.xi, req.shift)
    return np.asarray(req.q) + complex(req.shift)


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
    translation-invariant lattice, one column per payoff column: one
    circular correlation with the stencil by real numpy FFTs (a complex
    payoff as stacked real and imaginary columns) at a length >= 2n - 1,
    so that no offset wraps, plus the local rates and boundary columns."""
    n = gen.n
    D = np.zeros(f_arr.shape, dtype=complex)
    if cut < 0:
        return D
    hi = min(cut, n - 2)
    if hi >= 1:
        size = min(c << (-(-(2 * n - 1) // c) - 1).bit_length() for c in (1, 3, 5))
        kernel = np.zeros(size)   # kernel[j]: the stencil at offset -j (mod size)
        kernel[:n], kernel[size - n + 1:] = gen.stencil[n - 1::-1], gen.stencil[:n - 1:-1]
        seg, k = f_arr[1:hi + 1], f_arr.shape[1]
        cplx = np.iscomplexobj(seg)
        cols = np.hstack([seg.real, seg.imag]) if cplx else seg
        # seg starts at state 1, so output row m - 1 is state m's inflow
        out = np.fft.irfft(np.fft.rfft(cols, size, axis=0) * np.fft.rfft(kernel)[:, None],
                           size, axis=0)[:n - 2]
        D[1:n - 1] = out[:, :k] + 1j * out[:, k:] if cplx else out
        D[0:hi] += gen.local_up * seg
        D[2:hi + 2] += gen.local_down * seg
    # the boundary columns carry the extended tail bins
    D += gen.column(0)[:, None] * f_arr[0]
    if cut == n - 1:
        D += gen.column(n - 1)[:, None] * f_arr[n - 1]
    D[0] = D[n - 1] = 0.0
    return D


_SWEEP_BLOCK = 32
# Window tops per block of the windowed sweep (``backward_window_sweep``).


def _real_times(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x for a real matrix and a C-order complex x: one real GEMM
    on x's interleaved real and imaginary parts."""
    return (mat @ x.view(float)).view(complex)


class _OffDiagonal:
    """The generator's rates G(m, z), m != z, read by blocks of interior
    rows (1 <= m <= N-1) and of at most ``width`` columns z <= N-1.

    A lattice keeps one (n - 2 + a, width) panel of its stencil, with the
    centre set to 0 and the local rates added at offsets +-1: every
    interior block is a row slice of it, so no N x N array is built.
    Column 0, whose rates are the tail bins, is the one boundary column
    the sweep reads (``column(0)``, once).  A dense generator keeps its
    rates with the diagonal zeroed.
    """

    def __init__(self, gen: Generator, a_steps: int, width: int):
        n = self.n = gen.n
        self.gen = gen
        if gen.structure == TOEPLITZ_LEVY:
            line = gen.stencil.copy()   # offset z - m at line[z - m + n - 1]
            line[n - 1] = 0.0
            line[n] += gen.local_up
            line[n - 2] += gen.local_down
            # panel[p, j] is the rate at offset j - p + n - 3, so rows m0..m1
            # of columns z0.. are the slice from p = n - 3 + m0 - z0, which
            # is >= 0 for interior rows and columns and ends by n - 3 + a
            rows, width = n - 2 + a_steps, min(width, n)
            ext = np.concatenate([np.zeros(rows), line, np.zeros(width)])
            starts = np.lib.stride_tricks.sliding_window_view(ext, width)
            self.panel = np.ascontiguousarray(starts[2 * n - 3:2 * n - 3 + rows][::-1])
            self.col0 = gen.column(0)
        else:
            self.dense = gen.to_dense()
            np.fill_diagonal(self.dense, 0.0)
            self.col0 = self.dense[:, 0]

    def times(self, m0: int, m1: int, z0: int, z1: int, x: np.ndarray) -> np.ndarray:
        """G[m0:m1, z0:z1] @ x[z0:z1] without the diagonal, for the rows of
        an (n, k) complex array; the rows end at most a above the first
        column (m1 <= z0 + a)."""
        lo = max(z0, 1)
        if self.gen.structure == TOEPLITZ_LEVY:
            p0 = self.n - 3 + m0 - lo
            blk = self.panel[p0:p0 + m1 - m0, :z1 - lo]
        else:
            blk = self.dense[m0:m1, lo:z1]
        out = _real_times(blk, x[lo:z1])
        if z0 == 0:
            out += self.col0[m0:m1, None] * x[0]
        return out

    def payoff_inflow(self, f: np.ndarray, cut: int) -> np.ndarray:
        """sum_{z <= cut, z != m} G(m, z) f[z] over the states, one column
        per payoff column; the absorbing rows hold 0."""
        if cut < 0:
            return np.zeros(f.shape, dtype=complex)
        if self.gen.structure == TOEPLITZ_LEVY:
            return _toeplitz_D_init(self.gen, f, cut)
        D = np.zeros(f.shape, dtype=complex)
        D[1:self.n - 1] = _real_times(self.dense[1:self.n - 1, :cut + 1], f[:cut + 1])
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
    takes one stacked complex solve over the nodes (``_killed_solve``).

    Only these window solves (lattice and dense chains) need LAPACK, so
    scipy.linalg is imported here: birth-death runs never load scipy.
    """
    import scipy.linalg as sla

    m, k = kv.shape
    same = np.all(kv == kv[:, :1], axis=1)
    free, killed = np.flatnonzero(same), np.flatnonzero(~same)
    structured = np.all(kv[free, 0].imag == 0.0) and np.all(kv[killed] == kv[killed[:1]])
    if not structured:
        return _killed_solve(blk.T if trans else blk, kv.T, rhs[:, None])[..., 0]
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
    from scipy.linalg import lapack

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
    from scipy.linalg import lapack

    out = np.array(c, dtype=float)
    p = out.shape[0]
    if p > 1:
        args = ("L", trans, hess[1:, :-1], tau[:p - 1], out[1:])
        lwork = int(lapack.dormqr(*args, -1)[1][0])
        out[1:] = lapack.dormqr(*args, lwork)[0]
    return out


def _toeplitz_solves(gen: Generator, lo: int, hi: int, nodes: np.ndarray, rhs: np.ndarray, *,
                     trans: bool = False) -> np.ndarray:
    """Solutions x_j of (nodes[j] I - G[lo..hi]) x_j = rhs, or of the
    transposed systems, for an interior lattice window and a real (m,)
    right-hand side: a (k, m) array.

    The window block is Toeplitz (``window_symbol``), so each node costs
    one O(m^2) Levinson recursion (N. Levinson, J. Math. Phys. 25, 1947,
    as ``scipy.linalg.solve_toeplitz``) and no dense block is built.  A
    zero pivot or a non-finite solution raises ``Singular``.
    """
    from scipy.linalg import solve_toeplitz

    col, row = gen.window_symbol(lo, hi)
    if trans:
        col, row = row, col
    col, row = -col.astype(complex), -row.astype(complex)
    diag = col[0]
    out = np.empty((nodes.size, hi - lo + 1), dtype=complex)
    for j, q in enumerate(nodes):
        col[0] = row[0] = q + diag
        try:
            out[j] = solve_toeplitz((col, row), rhs, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise Singular("window matrix has a singular leading block") from exc
    if not np.all(np.isfinite(out)):
        raise Singular("non-finite Levinson solution")
    return out


_CHAIN_BLOCK = 16
# Rank-one steps of a killing-pattern chain applied together by one
# batched product (``_NestedKilling``).


class _NestedKilling:
    """A killing over the states that holds one node vector on the states
    below ``cut`` and one real value, shared by the nodes, on the rest:
    B's q 1{x < xi} + shift (``cut`` = n: the node vector everywhere).

    An interior lattice window [lo..lo+m-1] kills its first
    p = clip(cut - lo, 0, m) rows; down a sweep lo falls by one per top,
    so p grows by one row per top.  Pattern 0, the free window, is
    inverted once in real arithmetic.  Pattern p + 1 adds add_j = q_j at
    (p, p) of the window matrix, so each node's inverse takes one
    Sherman-Morrison step (W. W. Hager, SIAM Review 31(2), 1989):

        G' = G - G[:, p] (add_j / d_j) G[p, :],   d_j = 1 + add_j G[p, p].

    Later steps read only rows > p, so the chain carries rows >= p of
    every node's inverse (at most m^2 k complex).  The steps go in blocks
    of ``_CHAIN_BLOCK``: inside a block, row p and column p are the rows
    held at the block start less the block's earlier steps, and the last
    row is carried on its own; at the block end one batched product
    applies the block's steps to the rows below it.  A denominator that
    is not finite, or under 1e-10 (1 + |add_j G[p, p]|), raises
    ``Singular``.
    """

    def __init__(self, cut: int, free: float, nodes: np.ndarray):
        self.cut, self.free, self.add = cut, free, nodes - free
        self.width = self.p = None   # the pattern the chain carries

    @classmethod
    def of(cls, kill: np.ndarray) -> Optional["_NestedKilling"]:
        """The (n, k) killing classified, or None for any other form (a
        state-dependent killing, a complex value shared by the nodes, or
        node-vector states that are not the lowest ones)."""
        n = kill.shape[0]
        killed = np.all(kill == kill[0], axis=1)
        cut = int(np.argmin(killed)) if not killed.all() else n
        if cut == n:
            return cls(n, 0.0, kill[0])
        free = kill[cut, 0]
        if free.imag != 0.0 or killed[cut:].any() or not np.all(kill[cut:] == free):
            return None
        return cls(cut, free.real, kill[0])

    def pattern(self, lo: int, m: int) -> int:
        """Killed rows of the interior window [lo..lo+m-1]."""
        return min(max(self.cut - lo, 0), m)

    def steps_to(self, lo: int, m: int) -> bool:
        """Whether the chain gives the window's pattern: pattern 0 starts
        it, and a pattern 0 < p < m follows the one it carries when that
        is p - 1 at the same width.  The fully killed pattern m is
        uniform and left to the Levinson recursion."""
        p = self.pattern(lo, m)
        return p < m and (p == 0 or (self.width == m and self.p == p - 1))

    def rows(self, gen: Generator, lo: int, hi: int) -> np.ndarray:
        """Last rows of the inverses of the window's pattern, one per
        node: (k, m)."""
        if self.pattern(lo, hi - lo + 1) == 0:
            return self._start(gen, lo, hi)
        return self._step()

    def _start(self, gen: Generator, lo: int, hi: int) -> np.ndarray:
        m, k = hi - lo + 1, self.add.size
        try:
            inv = np.linalg.inv(self.free * np.eye(m) - gen.window_block(lo, hi))
        except np.linalg.LinAlgError as exc:
            raise Singular("free window matrix is singular") from exc
        if not np.all(np.isfinite(inv)):
            raise Singular("non-finite inverse of the free window")
        self.width, self.p, self.base = m, 0, 0
        self.inv = inv   # rows >= base at pattern base: real, shared by the nodes at base 0
        self.U = np.zeros((k, m, _CHAIN_BLOCK), dtype=complex)   # the block's columns G[:, p]
        self.W = np.zeros((k, _CHAIN_BLOCK, m), dtype=complex)   # and its scaled rows G[p, :]
        self.last = np.tile(inv[-1].astype(complex), (k, 1))
        return self.last

    def _step(self) -> np.ndarray:
        p = self.p
        t = p - self.base   # steps held in the block, and row p among the held rows
        U, W, G = self.U, self.W, self.inv
        row = G[..., t, :] - (U[:, t, None, :t] @ W[:, :t])[:, 0]
        col = G[..., t:, p] - (U[:, t:, :t] @ W[:, :t, p, None])[..., 0]
        shift = self.add * row[:, p]
        d = 1.0 + shift
        if not (np.all(np.isfinite(d)) and np.all(np.abs(d) > 1e-10 * (1.0 + np.abs(shift)))):
            raise Singular("vanishing rank-one denominator in the window inverse")
        U[:, t:, t] = col
        W[:, t] = (self.add / d)[:, None] * row
        self.last = self.last - col[:, -1:] * W[:, t]
        self.p += 1
        if t + 1 == _CHAIN_BLOCK:
            b = _CHAIN_BLOCK
            self.inv = G[..., b:, :] - U[:, b:] @ W
            self.base += b
            self.U = np.zeros((U.shape[0], U.shape[1] - b, b), dtype=complex)
            W[:] = 0.0
        return self.last


def _last_rows(gen: Generator, lo: int, hi: int, kv: np.ndarray,
               nested: Optional[_NestedKilling] = None) -> np.ndarray:
    """Last rows of the inverses of diag(kv[:, j]) - G[lo..hi], one per
    node: (k, m).

    One dispatch on the window's structure.  An interior lattice window
    (1 <= lo, hi <= n-2) has a Toeplitz block, and takes:

    * rank-one steps when it is one of the nested killing patterns of
      ``nested`` that its chain starts or carries up to;
    * the Levinson recursion (``_toeplitz_solves``) when one node vector
      kills every row.

    Any other window (another killing, one that reaches an absorbing
    state, a dense generator) is reduced once and costs one banded LU per
    node (``_node_solves``).
    """
    m = hi - lo + 1
    interior = gen.structure == TOEPLITZ_LEVY and lo >= 1 and hi <= gen.n - 2
    if interior and nested is not None and nested.steps_to(lo, m):
        return nested.rows(gen, lo, hi)
    e = np.zeros(m)
    e[-1] = 1.0
    if interior and np.all(kv == kv[0]):
        return _toeplitz_solves(gen, lo, hi, kv[0], e, trans=True)
    return _node_solves(gen.window_block(lo, hi), kv, e, trans=True)


class _WindowSolver:
    """Last-row window solves for a batch of nodes (``_last_rows``).

    On a lattice the rows are cached by the window's killing pattern.  A
    killing over the states that classifies as nested
    (``_NestedKilling.of``, once per solver) keys a window by (width,
    reaches state 0, killed rows) in O(1), and its chain serves the
    partly killed patterns, each once per sweep and so left uncached.
    Any other killing is keyed by its bytes.  The rows are kept
    conjugated in the right-hand sides' (m, k) orientation, so that one
    ``np.vecdot`` applies them.
    """

    def __init__(self, gen: Generator, killing):
        self.gen = gen
        self.cache = {}
        self.nested = None
        if gen.structure == TOEPLITZ_LEVY and isinstance(killing, np.ndarray):
            self.nested = _NestedKilling.of(killing)

    def last_row_solve(self, lo: int, i: int, kv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Last entries of the solutions of (diag(kv[:, j]) - G[lo..i]) x = rhs[:, j]
        for the (m, k) killing and right-hand sides: one value per node."""
        key, keep = None, True
        if self.gen.structure == TOEPLITZ_LEVY:
            m = i - lo + 1
            if self.nested is None:
                key = (m, lo == 0, kv.tobytes())
            else:
                p = self.nested.pattern(lo, m)
                key, keep = (m, lo == 0, p), p in (0, m)
        w = self.cache.get(key)
        if w is None:
            w = np.conjugate(_last_rows(self.gen, lo, i, kv, self.nested).T, order="C")
            if key is not None and keep:
                self.cache[key] = w
        return np.vecdot(w, rhs, axis=0)


def backward_window_sweep(gen: Generator, a_steps: int, killing, f_arr: np.ndarray,
                          stop: int, *, solver: "_WindowSolver" = None) -> np.ndarray:
    """Backward recursion over window tops for k nodes at once; returns the
    (n, k) values, one column per node.  It serves lattices and dense
    generators; birth-death chains take the fundamental-solution pairs.

    ``killing`` holds the (n, k) complex killing rates over the states,
    or is a function (i, lo) giving them, (m, k), on the window rows
    [lo..i] (C's killing moves with the top).  f_arr is the payoff
    collected at down-exit over the states, shared by the nodes ((n,)) or
    one column per node ((n, k)).
    values[j] is filled for stop <= j <= N-1; the two absorbing ends stay
    0.  A shared ``solver``, made for the same killing, carries the cached
    lattice window solves across repeated sweeps (event-count recursions).

    One running vector R holds, for the rows below the current block of
    tops [t0, t1], the payoff inflow of the columns z <= t1 - a and the
    continuation inflow of the values above t1.  Top i's window rows add
    the values of the tops i + 1 .. t1 and drop the payoff columns
    i - a + 1 .. t1 - a; a finished block is folded into the rows below
    t0 by one product for its values and one for its payoff columns.  The
    boundary column 0 (tail bins) enters only where a cut reaches it.
    """
    n, a = gen.n, a_steps
    top = n - 2
    killing_fn = killing if callable(killing) else (lambda i, lo: killing[lo:i + 1])
    kv = killing_fn(top, max(0, top - a + 1))
    V = np.zeros((n, kv.shape[1]), dtype=complex)
    f = np.ascontiguousarray(f_arr, dtype=complex).reshape(n, -1)
    rates = _OffDiagonal(gen, a, _SWEEP_BLOCK)
    R = np.broadcast_to(rates.payoff_inflow(f, top - a), V.shape).copy()
    # rows below the lowest window bottom are never read, and the
    # absorbing row 0 keeps no inflow
    floor = max(1, stop - a + 1)

    if solver is None:
        solver = _WindowSolver(gen, killing)
    for t1 in range(top, stop - 1, -_SWEEP_BLOCK):
        t0 = max(stop, t1 - _SWEEP_BLOCK + 1)
        # R holds the payoff columns z <= t1 - a and the values above t1
        for i in range(t1, t0 - 1, -1):
            lo = max(0, i - a + 1)
            if i < top:
                kv = killing_fn(i, lo)
            rhs = R[lo:i + 1].copy()
            if i < t1:
                m0 = max(lo, 1)
                inflow = rates.times(m0, i + 1, i + 1, t1 + 1, V)
                if t1 - a >= lo:   # payoff columns that entered the window
                    inflow -= rates.times(m0, i + 1, lo, t1 - a + 1, f)
                rhs[m0 - lo:] += inflow
            V[i] = solver.last_row_solve(lo, i, kv, rhs)
        if t0 > max(floor, stop):
            R[floor:t0] += rates.times(floor, t0, t0, t1 + 1, V)
            cut = max(t0 - a, 0)
            if t1 - a >= cut:
                R[floor:t0] -= rates.times(floor, t0, cut, t1 - a + 1, f)
    return V


def _core_dense(gen: Generator) -> np.ndarray:
    """The generator matrix read by the event cores (``_EventCore``),
    built once per call and shared by its nodes.  Each core holds a few
    dense (n, n) complex matrices, so a chain above 1,500 states raises
    ``TooLarge`` before the matrix is built."""
    if gen.n > 1500:
        raise TooLarge("the event core caps at 1500 states")
    return gen.to_dense()


def _killed_solve(blk: np.ndarray, kill, rhs: np.ndarray) -> np.ndarray:
    """Solution of (diag(kill) - blk) x = rhs for a real window block blk,
    one system per leading index of a killing broadcasting to (..., m): one
    node (``_EventCore``), a (k, 1) node column (``_a_strip``) or a (k, m)
    killing per node (``_node_solves``), in one stacked solve."""
    kill, diag = np.asarray(kill), np.arange(blk.shape[0])
    mat = np.empty(kill.shape[:-1] + blk.shape, dtype=complex)
    np.negative(blk, out=mat)
    mat[..., diag, diag] += kill
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise Singular(str(exc)) from exc


class _EventCore:
    """One node's event core off birth-death chains, read by Hsum, Jn and
    Jsum, for a start at state eta_x under the running max eta_y.

    The exit matrix P weighs the exit of the window topped at i, from its
    top, onto every state outside it: ``below`` is its part below the
    window (z <= i - a), with row sums ``c``, and ``above`` its part above
    the top.  With values D over the running max (position at the max):

    * Hsum solves (I - P) H = c;
    * Jsum solves (I - above - X) D = c, an upper triangular system;
    * Jn steps D_1 = (I - above)^{-1} c_f2, c weighted by the payoff
      f2(z, y_i), and D_n = (I - above)^{-1} X D_{n-1};

    and each reads its value as ``start`` @ D.  With ``recovery``, the mix
    X[i, w] weighs an event from top i followed by the recovery from its
    landing state to the first state w >= i, which re-arms the next event
    at the running max w, and ``start`` weighs the recovery from eta_x to
    eta_y or above (e_{eta_y} when they meet).

    Each recovery R_t = (qI - G[0..t-1])^{-1} G[0..t-1, t:] reads a leading
    block of qI - G.  For q != 0 with Re q >= 0 that matrix is strictly
    row diagonally dominant, so partial pivoting of its transpose swaps no
    rows (Golub and Van Loan, Matrix Computations, sec. 3.4): one LU,
    (qI - G)^T = L U, factors every leading block.  Forward substitution
    reads only the leading block, so z = L^{-1} w serves every t, and
    U^{-T} is lower triangular, so the first t rows of K = U^{-T} G need
    only its leading block: w @ R_t = z[:t] @ K[:t, t:].  A row swap or a
    zero pivot raises ``Singular``.

    ``dense`` is the generator matrix, built once per call and shared by
    its nodes (``_core_dense``).  Each node holds a few dense (n, n)
    complex matrices; P, the weights w and the LU are freed as soon as
    their last reader is done.
    """

    def __init__(self, dense: np.ndarray, q: complex, a_steps: int, eta_x: int, eta_y: int,
                 recovery: bool):
        import scipy.linalg as sla

        n = dense.shape[0]
        P = np.zeros((n, n), dtype=complex)   # the absorbing ends' rows stay 0
        for i in range(1, n - 1):
            lo = max(0, i - a_steps + 1)
            last = np.eye(i - lo + 1)[-1]
            P[i] = _killed_solve(dense[lo:i + 1, lo:i + 1].T, q, last) @ dense[lo:i + 1]
            P[i, lo:i + 1] = 0.0
        # the window's columns are 0: P less below is above, in P's storage
        self.below = np.tril(P, -a_steps)
        self.above = np.subtract(P, self.below, out=P)
        self.c = self.below.sum(axis=1)
        self.X, self.start = None, np.eye(1, n, eta_y)[0]
        if recovery:
            lu, piv = sla.lu_factor((q * np.eye(n) - dense).T, overwrite_a=True)
            if np.any(piv != np.arange(n)) or np.any(np.diag(lu) == 0.0):
                raise Singular("recovery windows are singular or need pivoting")
            # rows w @ R_t: the events from every top t, then the start's recovery
            tops, states = np.append(np.arange(n), eta_y), np.arange(n)
            w = np.vstack([self.below, np.eye(1, n, eta_x)])
            z = sla.solve_triangular(lu, w.T, lower=True, unit_diagonal=True)
            del w
            z[states[:, None] >= tops] = 0.0
            K = sla.solve_triangular(lu, dense, trans="T")
            del lu
            mixed = z.T @ K
            mixed[states < tops[:, None]] = 0.0
            self.X = mixed[:n]
            if eta_x < eta_y:
                self.start = mixed[n]

    def event_sum(self) -> complex:
        """Hsum's fixed point (no recovery) or Jsum's."""
        import scipy.linalg as sla

        general = self.X is None   # with X the system is upper triangular
        # I - above - other in above's storage: 0 - above keeps I - above's bits
        mat, self.above = np.subtract(0.0, self.above, out=self.above), None
        mat -= self.below if general else self.X
        mat[np.diag_indices(self.c.size)] += 1.0
        try:
            D = (np.linalg.solve if general else sla.solve_triangular)(mat, self.c)
        except np.linalg.LinAlgError as exc:
            raise FixedPointSingular(str(exc)) from exc
        return complex(self.start @ D)

    def jn(self, pay: np.ndarray, count: int) -> np.ndarray:
        """Values of the events 1..count, for the (n, n) payoff pay[i, z] =
        f2(z, y_i) of an event from top i landing at z."""
        import scipy.linalg as sla

        # I - above in above's storage; solve_triangular supplies the diagonal
        free, self.above = np.subtract(0.0, self.above, out=self.above), None
        d, out = np.sum(self.below * pay, axis=1), np.empty(count, dtype=complex)
        for m in range(count):
            d = sla.solve_triangular(free, self.X @ d if m else d, unit_diagonal=True)
            out[m] = self.start @ d
        return out


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
        V = backward_window_sweep(gen, a_steps, kill, f_arr, eta)
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
    X(i+1) onto the floor; c clipped to l + 1 or i + 1 gives one pair's.

    Both come from one pair over the k + 1 killings (the nodes plus shift,
    then shift alone): ``low`` is its first k columns and ``high`` its
    last, node independent, column, so the per-state recursion runs once."""
    idx = np.arange(stop, gen.n - 1)
    pair = psi_pair(gen, np.append(nodes + shift, shift))
    low, high = pair._columns(slice(None, -1)), pair._columns(slice(-1, None))
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
    route = _a_diffusion if gen.structure == BIRTH_DEATH else _a_strip
    # either row holds 0 at the minima where the drawup has reached b
    row = route(gen, nodes, a_steps, b_steps, f_arr, eta)
    if wgt < 1e-9:
        return _per_node(row[l0], single)
    return _per_node((1.0 - wgt) * row[l0] + wgt * row[l0 + 1], single)


def _a_diffusion(gen: Generator, q: np.ndarray, a_steps: int, b_steps: int,
                 f_arr: np.ndarray, eta: int) -> np.ndarray:
    """Birth-death path: the value rows V(i, .) over the minimum index at
    the window tops i = T .. eta, each from the row of the top above only;
    returns the row at position eta, one column per node, exact at the
    minima l <= eta + 1 that the caller reads.

    The sweep runs on the reachable strip, T = min(N-2, eta + b + 1) with
    b in steps.  V(i, l) = 0 once i - l >= b (the drawup has happened),
    so every top above T holds 0 on the minima l <= eta + 1, and an entry
    V(i, l) reads only entries of the top above at the same or a lower
    minimum (the frozen columns, the cumsum splits).  So the tops above T
    never reach the answer, and with the recurrence coefficients taken on
    the strip's states only (eta - a + 1 .. T), A's cost per node depends
    on a and b, not on N.

    Minima in (y_i - b, y_i - a] and the window bottom lo stay frozen
    until the window exits: V(i, l) = pay + up V(i+1, l), where up and dn
    are the window's exit weights onto i + 1 and onto the floor lo - 1,
    and pay = dn f(y_{lo-1}).  A minimum y_{m+1} inside the window (split
    m in [lo, i)) either exits at i + 1 first, with the weight up_top(i, m)
    of leaving (m, i + 1) at the top, or is lowered:

        V(i, m+1) = pay + up_top(i, m) V(i+1, m+1)
                    + sum_{lo <= m' <= m} omega(i, m') V(i+1, m'),

    omega = dn_top up_bot being the weight of first reaching m' and then
    i + 1 before m' - 1.  Passages down the skip-free chain multiply,
    dn_top(i, m) dn_bot(m) = dn_top(i, m - 1), so the sum telescopes the
    minimum-update recursion R(m) = up_bot V(i+1, m) + dn_bot R(m - 1)
    into one ``cumsum`` per top.

    Every weight comes from the recurrence c_x f(x) = up_x f(x+1) +
    down_x f(x-1), c_x = q + up_x + down_x, run in its stable direction
    for a block of 2a tops at once (``_a_weights``).  With h the solution
    vanishing at m and g the one vanishing at i + 1:

    * up_top(i, m) = h(i) / h(i+1) = 1/rho(i), where rho(m+1) = c/up and
      rho(x) = c/up - (down/up) / rho(x-1);
    * sigma(x) = g(x-1) / g(x), where sigma(i) = c/down and sigma(x) =
      c/down - (up/down) / sigma(x+1);
    * dn_top(i, m) = prod_{x=m+1..i} 1/sigma(x), and up_bot(i, m) =
      prod_{x=m..i} (up/down) / sigma(x), because the Wronskian of h and
      g steps by down/up: h(m) / h(i+1) = (W_m / W_{i+1}) g(i) / g(m-1);
    * omega = 0 at m = 0, the absorbing state.

    The window weights are the splits one below the window, m = lo - 1.
    Each entry is an exit weight, bounded by its value at real killing,
    so no exp or log scale is needed.
    """
    n, k = gen.n, q.size
    top, first = min(n - 2, eta + b_steps + 1), eta - a_steps + 1
    coeffs = _a_recurrences(gen, q, a_steps, first, top)
    row_next = np.zeros((n, k), dtype=complex)   # V(i+1, .) by min index
    row_cur = np.zeros((n, k), dtype=complex)
    block = 2 * a_steps
    for t1 in range(top, eta - 1, -block):
        t0 = max(eta, t1 - block + 1)
        up, omega, down = _a_weights(coeffs, a_steps, t0, t1, first)
        for i in range(t1, t0 - 1, -1):
            j = i - t0
            lo = max(0, i - a_steps + 1)
            lob = max(0, i - b_steps + 1)
            pay = down[j] * f_arr[lo - 1] if lo > 0 else 0.0
            row_cur[lob:lo + 1] = pay + up[j, a_steps - min(i, a_steps)] * row_next[lob:lo + 1]
            if i > lo:
                # the splits m = lo .. i - 1 are the last i - lo columns
                cols = slice(a_steps - (i - lo), None)
                split = row_cur[lo + 1:i + 1]
                np.cumsum(omega[j, cols] * row_next[lo:i], axis=0, out=split)
                split += up[j, cols] * row_next[lo + 1:i + 1]
                split += pay
            # this buffer held the row of top i + 2, on [lob(i + 2), i + 2]
            row_cur[i + 1:i + 3] = 0.0
            row_next, row_cur = row_cur, row_next
    return row_next


def _a_recurrences(gen: Generator, q: np.ndarray, a_steps: int, first: int,
                   last: int) -> np.ndarray:
    """The recurrence coefficients c/up, down/up, c/down and up/down as one
    (4, rows, k) array over the states first .. last, state x at row
    x - first; the tops t0 .. t1 read the states t0 - a + 1 .. t1.  The
    rows of x <= 0 hold (1, 0): stepped down into them, a ratio reads 1
    and the up/down factor 0.  A zero interior rate anywhere on the chain
    raises ``DegenerateWindow``."""
    n = gen.n
    if np.any(gen.up[1:n - 1] <= 0.0) or np.any(gen.down[1:n - 1] <= 0.0):
        raise DegenerateWindow("birth-death chain has a zero interior rate")
    pad = max(1 - first, 0)   # rows of the states <= 0
    states = slice(first + pad, last + 1)
    up, down = gen.up[states, None], gen.down[states, None]
    c = q - gen.diagonal()[states, None]
    coeffs = np.zeros((4, last - first + 1, q.size), dtype=complex)
    coeffs[[0, 2], :pad] = 1.0
    for row, coeff in zip(coeffs, (c / up, down / up, c / down, up / down)):
        row[pad:] = coeff
    return coeffs


def _a_weights(coeffs: np.ndarray, a: int, t0: int, t1: int, first: int):
    """The weights of ``_a_diffusion`` for the tops i in [t0, t1] (row
    i - t0): (up, omega, down), from ``_a_recurrences`` over the states
    from ``first`` <= t0 - a + 1 to at least t1.  Column a - d of up and
    omega holds the split m = i - d, d = 1 .. a (omega at d < a only); up
    at d = min(i, a) and down are the window's weights onto i + 1 and onto
    i - a (0 for i < a).  Each entry is stepped from its own top's
    coefficients only, so it does not depend on t0 and t1.  A non-finite
    entry raises ``Singular``."""
    c_up, d_up, c_dn, u_dn = coeffs
    w, rows = a - 1, t1 - t0 + 1
    up = np.zeros((rows, a, c_up.shape[1]), dtype=complex)
    omega = np.zeros(up.shape, dtype=complex)
    # 1/rho, stepped up over d for the states x0 .. t1 at once: each step
    # drops the lowest, so every entry starts from a split m = x - d >= 0
    x0, end = max(1, t0 - w) - first, t1 - first + 1
    inv = np.zeros((end - x0 + 1, up.shape[2]), dtype=complex)
    for d in range(1, a + 1):
        x = slice(x0 + d - 1, end)
        inv = d_up[x] * inv[:-1]
        np.reciprocal(np.subtract(c_up[x], inv, out=inv), out=inv)
        take = min(rows, inv.shape[0])
        up[rows - take:, a - d] = inv[inv.shape[0] - take:]
    # 1/sigma at x = i - e, stepped down over e for all tops at once, with
    # the running products dn_top and up_bot
    inv = np.zeros((rows, up.shape[2]), dtype=complex)
    dn, ub = np.ones_like(inv), np.ones_like(inv)
    for e in range(a):
        x = slice(t0 - e - first, t1 - e - first + 1)
        np.multiply(u_dn[x], inv, out=inv)
        np.reciprocal(np.subtract(c_dn[x], inv, out=inv), out=inv)
        ub *= u_dn[x]
        ub *= inv
        if e:
            np.multiply(dn, ub, out=omega[:, a - e])
        dn *= inv
    down = np.where(np.arange(t0, t1 + 1)[:, None] >= a, dn, 0.0)
    if not (np.all(np.isfinite(up)) and np.all(np.isfinite(omega)) and np.all(np.isfinite(down))):
        raise Singular("sub-window exit weight is not finite")
    return up, omega, down


def _a_strip(gen: Generator, nodes: np.ndarray, a_steps: int, b_steps: int,
             f_arr: np.ndarray, eta: int) -> np.ndarray:
    """Lattice and dense path: the double recursion over (window top,
    running minimum) on ``_a_diffusion``'s reachable strip of tops T .. eta,
    for all nodes at once: the row at position eta, one column per node.
    It reads the block G[first..T], first = max(0, eta - a + 1), and the
    payoff inflow from below first.  Its table V(node, top - low, min -
    low) depends on a and b, not on N; the minima below low = max(0, eta -
    b + 1) hold 0, the drawup having reached b.

    Top i's window [lo..i] takes the payoff and the frozen minima l in
    [lob..lo] as the columns of one solve: its top row gives pay and
    V(i, l), its bottom row r_diag[lo], the value of the minimum lowered
    to lo.  A minimum t in (lo, i] takes the sub-window [t..i], whose
    states below t lower the minimum to themselves (r_diag[lo..t-1]).
    Each window and sub-window is one stacked solve (``_killed_solve``).
    """
    n, k = gen.n, nodes.size
    top = min(n - 2, eta + b_steps + 1)
    first, low = max(0, eta - a_steps + 1), max(0, eta - b_steps + 1)
    blk = gen.window_block(first, top)
    if gen.structure == TOEPLITZ_LEVY:
        inflow = _toeplitz_D_init(gen, f_arr[:, None], first - 1)[first:, 0]
    else:   # rows first..T only, into the states below first
        below = np.array([gen.row(m)[:first] for m in range(first, top + 1)])
        inflow = _real_times(below, f_arr[:first, None])[:, 0]
    V = np.zeros((k, top - low + 1, top - low + 1), dtype=complex)
    for i in range(top, eta - 1, -1):
        lo, lob = max(0, i - a_steps + 1), max(0, i - b_steps + 1)
        rows, above = slice(lo - first, i - first + 1), slice(i + 1 - first, None)
        V_above = V[:, i + 1 - low:]   # (node, top above i, min)
        # the payoff of the states below the window, and the frozen minima
        rhs_f = inflow[rows] + blk[rows, :lo - first] @ f_arr[first:lo]
        rhs = np.concatenate([np.broadcast_to(rhs_f[:, None], (k, i - lo + 1, 1)),
                              blk[rows, above] @ V_above[..., lob - low:lo + 1 - low]], axis=2)
        sol = _killed_solve(blk[rows, rows], nodes[:, None], rhs)
        pay = sol[:, -1, 0]
        V[:, i - low, lob - low:lo + 1 - low] = pay[:, None] + sol[:, -1, 1:]
        # R(q, y_t, y_t) at column t - lo; the last column is never read
        r_diag = np.empty((k, i - lo + 1), dtype=complex)
        r_diag[:, 0] = sol[:, 0, 1 + (lo - lob)]
        for t in range(lo + 1, i + 1):
            sub = slice(t - first, i - first + 1)
            rhs_t = (blk[sub, lo - first:t - first] @ r_diag[:, :t - lo, None]
                     + blk[sub, above] @ V_above[..., t - low, None])
            sol_t = _killed_solve(blk[sub, sub], nodes[:, None], rhs_t)[..., 0]
            r_diag[:, t - lo] = sol_t[:, 0]
            V[:, i - low, t - low] = pay + sol_t[:, -1]
    row = np.zeros((n, k), dtype=complex)
    row[low:top + 1] = V[:, eta - low].T
    return row


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
        kill = np.broadcast_to(nodes, (gen.n, nodes.size))
        solver = _WindowSolver(gen, kill)
        sweep = lambda f_arr: backward_window_sweep(gen, a_steps, kill, f_arr, 0, solver=solver)
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
        terms = _jn_terms(gen, nodes, a_steps, _bipayoff(gen, None), *_start_pair(gen, x, y),
                          n_max)
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
    nodes, single = _nodes(q)
    if gen.structure == BIRTH_DEATH:
        up, down = _window_weights(psi_pair(gen, nodes), np.arange(1, gen.n - 1), a_steps)
        return _per_node(_hsum_birth_death(up, down, a_steps, eta), single)
    if gen.structure == TOEPLITZ_LEVY and eta == grid.eta_x:
        return h_levy_closed_form(gen, q, a)
    dense = _core_dense(gen)
    return _per_node(np.array([_EventCore(dense, q, a_steps, eta, eta, False).event_sum()
                               for q in nodes]), single)


def _hsum_birth_death(up: np.ndarray, down: np.ndarray, a_steps: int, eta: int) -> np.ndarray:
    """H at state eta, one value per node, of the birth-death fixed point
    H_i - up_i H_{i+1} - down_i H_{i-a} = down_i over the tops i = 1..n-2
    (H_0 = H_{n-1} = 0), from the (n-2, k) window weights of
    ``_window_weights`` (down is 0 on tops below a).

    Gaussian elimination without pivoting keeps U upper bidiagonal: after
    it, H_l = c_l + g_l H_{l+1}, and row r's pivot is 1 - down_r G_r with
    H_{r-a} = C_r + G_r H_r the composition of the maps of rows r-a..r-1.
    For Re q > 0, |up| + |down| < 1 makes (I - P) strictly row diagonally
    dominant, so no pivoting is needed.  The rows go in blocks of a: the
    maps from each row of the previous block across to this block's first
    row come from a doubling scan, and inside a block the pivot recurrence
    is linear in 1 / (running product of g), so it takes one cumprod of
    up and two cumsums.  Raises FixedPointSingular on a zero or non-finite
    pivot or value.
    """
    if a_steps < 1:
        raise FixedPointSingular("a drawdown level under one grid step fires at once")
    n, k = up.shape[0] + 2, up.shape[1]
    if not 0 < eta < n - 1:
        return np.zeros(k, dtype=complex)
    u = np.zeros((n, k), dtype=complex)
    d = np.zeros((n, k), dtype=complex)
    u[1:n - 1], d[1:n - 1] = up, down
    g, c = np.empty_like(u), np.empty_like(u)
    piv = np.empty_like(u)
    # H_{s-a+j} = E[j] + A[j] H_s across the previous block; rows below a
    # have no down weight, so the first block needs none
    A = E = np.zeros((a_steps, k), dtype=complex)
    with np.errstate(all="ignore"):
        for s in range(0, n, a_steps):
            e = min(s + a_steps, n)
            ub, db, Ab, Eb = u[s:e], d[s:e], A[:e - s], E[:e - s]
            # G_r = A_r U_r / D_r with U the running product of up inside the
            # block and D_r = 1 - sum_{l<r} down_l A_l U_l; pivot = D_{r+1} / D_r
            U = np.cumprod(np.concatenate([np.ones((1, k)), ub[:-1]]), axis=0)
            D = np.empty((e - s + 1, k), dtype=complex)
            D[0] = 1.0
            D[1:] = 1.0 - np.cumsum(db * Ab * U, axis=0)
            pay = db * (1.0 + Eb) * U
            FD = np.cumsum(pay, axis=0) - pay   # F_r D_r, F_r = sum_{l<r} c_l U_l / D_l
            p = piv[s:e] = D[1:] / D[:-1]
            g[s:e] = gb = ub / p
            c[s:e] = cb = db * (1.0 + Eb + Ab * FD / D[:-1]) / p
            # doubling scan of the maps across this block, to its end
            E, A = cb.copy(), gb.copy()
            step = 1
            while step < e - s:
                E[:-step] += A[:-step] * E[step:]
                A[:-step] *= A[step:]
                step *= 2
        if not (np.all(np.isfinite(piv)) and np.all(piv != 0.0)):
            raise FixedPointSingular("zero or non-finite pivot in the insurance fixed point")
        tail = np.cumprod(g[eta:n - 2], axis=0)
        # in order: np.sum pairs a lone column's terms, so bits would follow the batch
        terms = np.concatenate([np.zeros((1, k)), c[eta + 1:n - 1] * tail])
        val = c[eta] + np.cumsum(terms, axis=0)[-1]
    if not np.all(np.isfinite(val)):
        raise FixedPointSingular("non-finite insurance fixed point")
    return val


def _levy_window_masses(gen: Generator, kv: np.ndarray, payoff_below=None):
    """Exit masses of the anchored lattice window (-a, 0] under the (m, k)
    killing kv of its rows (m = a / h): returns (down_mass, up_mass,
    down_weighted), one value per node each, where down_weighted applies
    an optional (n, k) payoff over the states below the window.  The
    window solve takes ``_last_rows``'s route: Levinson for the uniform
    killing of Hsum and Jsum, with no dense block, and the reduction for
    C's killed rows below the breakpoint."""
    eta = gen.grid.eta_x
    lo = _anchored_window(gen, kv.shape[0])
    w = _last_rows(gen, lo, eta, kv)
    below, above = gen.window_exit_masses(lo, eta)
    p_wt = None
    if payoff_below is not None:
        p_wt = np.sum(w.T * _toeplitz_D_init(gen, payoff_below, lo - 1)[lo:eta + 1], axis=0)
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
        return lambda z_idx, y_idx: np.ones(np.broadcast_shapes(np.shape(z_idx), np.shape(y_idx)),
                                            dtype=complex)
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
                      *_start_pair(gen, x, y), n)
    return _per_node(next(islice(terms, n - 1, None)), single)


def _jn_terms(gen: Generator, nodes: np.ndarray, a_steps: int, f2_fn: Callable,
              eta_x: int, eta_y: int, count: int) -> Iterator[np.ndarray]:
    """Values of the n-th with-recovery event, n = 1, 2, ... (up to at
    least ``count``), one (k,) node vector each; every count carries the
    previous one forward, on one node's event core at a time."""
    if gen.structure == BIRTH_DEATH:
        return _jn_diffusion(gen, nodes, a_steps, f2_fn, eta_x, eta_y)
    dense = _core_dense(gen)
    tops, z = np.tril_indices(gen.n, -a_steps)
    pay = np.zeros((gen.n, gen.n), dtype=complex)
    pay[tops, z] = f2_fn(z, tops)
    return iter(np.stack([_EventCore(dense, q, a_steps, eta_x, eta_y, True).jn(pay, count)
                          for q in nodes], axis=1))


def _jn_diffusion(gen, q, a_steps, f2_fn, eta_x, eta_y) -> Iterator[np.ndarray]:
    """Birth-death Jn: each count runs down the tops from N - 2 to the
    start max eta_y, its payoff at top i the previous count's value at i
    after the recovery from the floor.  The chain reads only the top
    above, and every count reads only tops >= eta_y, so no top below
    eta_y is visited."""
    nn = gen.n
    psi = psi_pair(gen, q)
    idx = np.arange(max(eta_y, 1), nn - 1)
    up, down = _window_weights(psi, idx, a_steps)
    rec = _recovery_weights(psi, idx, a_steps)
    hit = 1.0 if eta_x == eta_y else psi.ratio_plus(eta_x, eta_y)
    # first event: the payoff at (floor, max = top), 0 without a floor
    has_floor = idx >= a_steps
    pay = np.where(has_floor, f2_fn(np.where(has_floor, idx - a_steps, 0), idx), 0.0)[:, None]
    while True:
        diag = _chain_down(nn, idx, up, down * pay)
        yield hit * diag[eta_y]
        # this count's value at (floor, max = top): must recover to the top;
        # the temporary goes first, so NumPy's in-place elision keeps the order
        pay = diag[idx] * rec


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
        dense = _core_dense(gen)
        out = np.array([_EventCore(dense, q, a_steps, eta_x, eta_y, True).event_sum()
                        for q in nodes])
    return _per_node(out, single)


def _jsum_diffusion(gen, q, a_steps, eta_x, eta_y) -> np.ndarray:
    """Backward recursion over the tops N - 2 .. eta_y, O(N - eta_y) after
    the pair: each diagonal value couples to the one above and to itself
    through the down-exit/recovery cycle.  The answer reads the value at
    eta_y, which depends only on the tops above it, so the tops below the
    start max are never visited."""
    nn = gen.n
    psi = psi_pair(gen, q)
    idx = np.arange(max(eta_y, 1), nn - 1)
    up, dn = _window_weights(psi, idx, a_steps)
    # a window without a floor state has dn = 0: no cycle, denominator 1
    cycle = 1.0 - dn * _recovery_weights(psi, idx, a_steps)
    if np.any(np.abs(cycle) < 1e-15):
        raise FixedPointSingular("recovery cycle weight reached 1")
    diag = _chain_down(nn, idx, up / cycle, dn / cycle)
    if eta_x == eta_y:
        return diag[eta_y]
    return psi.ratio_plus(eta_x, eta_y) * diag[eta_y]


def j_levy_closed_form(gen: Generator, q, a: float, x=None, y=None):
    """Translation-invariant insurance sum with recovery; a node vector q
    gives one value per node.

    Needs one window solve on (-a, 0] and one recovery solve on the
    window between the lattice bottom and the anchor, whose values also
    give the recovery factor of a start x < y.  Both windows are interior
    and killed alike on every row, so each costs one Levinson recursion
    per node (``_toeplitz_solves``).  Like ``c_levy_closed_form`` it holds
    on the infinite lattice and ignores the chain's upper end.
    """
    if gen.structure != TOEPLITZ_LEVY:
        raise NotLevy("closed form needs a translation-invariant lattice generator")
    grid = gen.grid
    a_steps = grid.steps_of(a)
    eta = grid.eta_x
    nodes, single = _nodes(q)
    eta_x, eta_y = _start_pair(gen, x, y)
    nn = gen.n
    # recovery weights u(z) = E_z[e^{-qT} ; reach >= anchor before the bottom]
    _, rhs = gen.window_exit_masses(1, eta - 1)
    u = np.zeros((nn, nodes.size), dtype=complex)
    u[1:eta] = _toeplitz_solves(gen, 1, eta - 1, nodes, rhs).T
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
        return occupation_until_drawdown(gen, _b_killing(req), req.a, f=req.f, x=req.x)
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
