"""Independent verification of the recursive algorithms.

Two routes that never touch the windowed recursions:

* ``dense_product_solve`` -- the pair (position, running max), the triple
  (position, max, min), and their recovery-flagged variants are themselves
  finite chains; each requested quantity is a first-passage functional of
  that augmented chain and is solved in one shot as a sparse linear system
  over the augmented states reachable from the request's start.

* ``mc_estimate`` -- simulation of the chain's jump chain, one uniform
  per jump, tracking running extremes and event counters with no time-
  discretization bias.  The holding times are integrated out (the
  discrete-time conversion of A. Hordijk, D. Iglehart and R.
  Schassberger, Adv. Appl. Prob. 8(4), 1976, and B. Fox and P. Glynn,
  Oper. Res. Letters 5(4), 1986): a path leaving state s with killing k
  multiplies its discount by r_s / (r_s + k), the conditional mean of
  exp(-k tau) over its Exp(r_s) holding time tau, so the estimate stays
  unbiased and its variance cannot rise.  PCG64 streams spawned per
  path batch from one ``SeedSequence`` keep runs bitwise reproducible
  per seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ctmc import BIRTH_DEATH, Generator
from .linsolve import Singular, _payoff_array, killing_values
from .quantities import (
    QuantityRequest,
    TooLarge,
    _anchor_index,
    _b_killing,
    _bipayoff,
    drawdown_occupation_killing,
)

__all__ = [
    "McConfig",
    "HorizonCapHit",
    "mc_estimate",
    "dense_product_solve",
]


class HorizonCapHit(RuntimeError):
    """More than 0.1% of paths were truncated at the horizon cap, that is
    their summed mean holding times passed ``McConfig.horizon_cap``."""

    def __init__(self, fraction: float):
        self.fraction = fraction
        super().__init__(f"{fraction:.3%} of paths hit the horizon cap; raise it")


@dataclass(frozen=True)
class McConfig:
    """Path count, seed, horizon guard and batch size of ``mc_estimate``.

    Batch b draws from PCG64 seeded with stream b of
    ``SeedSequence(seed).spawn``.  ``horizon_cap`` bounds a path's expected
    elapsed time given its jumps, the sum of the mean holding times 1 / r
    of the states it has left; a path past it is truncated and counts 0."""
    n_paths: int = 100_000
    seed: int = 0
    horizon_cap: float = 200.0
    batch_size: int = 16_384

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.batch_size < 1:
            raise ValueError("need at least one path per batch")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.horizon_cap > 0.0:
            raise ValueError("horizon cap must be positive")


# ---------------------------------------------------------------------------
# request helpers shared by both oracles
# ---------------------------------------------------------------------------
#
# A request's payoffs, killings and start are read by the analytic side's
# own readers, so that the oracles check the problem the routes solve; only
# the algorithms that follow are independent.

def _k2_mat(gen: Generator, req: QuantityRequest) -> np.ndarray:
    states = gen.states
    return drawdown_occupation_killing(req.q, req.xi, req.shift)(states[:, None], states[None, :])


def _f2_mat(gen: Generator, f2) -> np.ndarray:
    """The bivariate payoff at every (position, max) pair of states."""
    at = np.arange(gen.n)
    return _bipayoff(gen, f2)(at[:, None], at[None, :])


def _require_scalar_q(req: QuantityRequest) -> None:
    if np.ndim(req.q) != 0:
        raise ValueError("the oracles need a scalar Laplace argument q, not a node vector")


def _start_indices(gen: Generator, req: QuantityRequest):
    ix = _anchor_index(gen, req.x)
    return ix, ix if req.y is None else _anchor_index(gen, req.y)


# ---------------------------------------------------------------------------
# dense product-chain solves
# ---------------------------------------------------------------------------
#
# Only the augmented states reachable from the start are numbered: the max
# never falls below the start max (Q, B, C: the start; Jn, Jsum: the
# reference max), and A's max stays below the start min plus b_steps and
# its min at or below the start min.  Hn's later stages and Hsum's restarts
# start afresh at landing states below the start, so they keep every max.
# The kept states are closed under the chain's jumps: the dropped ones form
# a block that no kept row reads, and the cut is exact.  The cap counts the
# kept states, from arithmetic on the start alone.
#
# The augmented states are numbered max by max, and each chain is assembled
# over slices of that numbering: every state's base row is gathered from
# one padded table of the chain's off-diagonal nonzeros, masks sort the
# jumps into new max, fired event or stay, and targets are numbered by
# arithmetic on int32 offset arrays.  No two jumps of one augmented state
# share a target, so the sparse matrix does not depend on the order in
# which the blocks are collected.

_BLOCK = 1 << 15    # (augmented state, base jump) entries per assembly block


def _check_cap(size: int, cap: int) -> None:
    if size > cap:
        raise TooLarge(f"product space has {size} states (cap {cap})")


def _pair_numbering(n: int, a_steps: int, cap: int, lo: int, hi: int):
    """Live (position, max) pairs with a max from lo to hi, max by max:
    max - a_steps < position <= max.  Pair (i, m) is number base[m] + i;
    returns base, over every max (those outside lo..hi number nothing),
    and the position and max of every pair."""
    m = np.arange(n, dtype=np.int32)
    width = np.where((m >= lo) & (m <= hi), np.minimum(m + 1, a_steps), 0)
    _check_cap(int(width.sum()), cap)
    base = (np.cumsum(width) - width - (m + 1 - width)).astype(np.int32)
    m = np.repeat(m, width)
    return base, np.arange(m.size, dtype=np.int32) - base[m], m


def _triple_numbering(n: int, a_steps: int, b_steps: int, ix: int, iy: int, cap: int):
    """(position, max, min) states of A reachable from max ix and min iy:
    each live pair (i, m) with ix <= m <= iy + b_steps - 1, in pair order,
    with a running min i - b_steps < l <= min(i, iy).  The min never
    rises, and an up-jump to j fires the drawup once j - l >= b_steps, so
    no max above iy + b_steps - 1 is reached.  State (i, m, l) is number
    tbase[base[m] + i] + l; returns base, tbase and the position, max and
    min of every state."""
    hi = min(n - 1, iy + b_steps - 1)
    i = np.arange(n)
    # mins[i]: (position, min) pairs over the positions below i
    mins = np.concatenate([[0], np.cumsum(np.minimum(i, iy) - np.maximum(i + 1 - b_steps, 0) + 1)])
    m = np.arange(ix, hi + 1)
    _check_cap(int((mins[m + 1] - mins[np.maximum(m + 1 - a_steps, 0)]).sum()), cap)
    base, pos, mx = _pair_numbering(n, a_steps, cap, ix, hi)
    first = np.maximum(pos + 1 - b_steps, 0)
    width = np.minimum(pos, iy) - first + 1
    tbase = (np.cumsum(width) - width - first).astype(np.int32)
    pair = np.repeat(np.arange(pos.size), width)
    return base, tbase, pos[pair], mx[pair], np.arange(pair.size, dtype=np.int32) - tbase[pair]


def _flag_numbering(n: int, a_steps: int, cap: int, lo: int):
    """(position, reference max, armed) states of the recovery variants
    with a reference max of at least lo, max by max.  Armed states
    (i, m, 1) obey m - i < a_steps (otherwise they fire at once) and are
    number arm[m] + i; disarmed states (i, m, 0) allow any position
    i <= m and are number dis[m] + i.  Returns arm, dis and the position,
    max and armed flag of every state."""
    m = np.arange(n, dtype=np.int32)
    width = np.minimum(m + 1, a_steps)
    block = np.where(m >= lo, width + m + 1, 0)
    _check_cap(int(block.sum()), cap)
    start = np.cumsum(block) - block
    arm, dis = (start - (m + 1 - width)).astype(np.int32), (start + width).astype(np.int32)
    m = np.repeat(m, block)
    s = np.arange(m.size, dtype=np.int32)
    armed = s < dis[m]
    return arm, dis, s - np.where(armed, arm[m], dis[m]), m, armed


def _row_table(gen: Generator):
    """Out rates and the off-diagonal nonzeros of every row, read once, as
    padded (n, w) tables: targets ascending, rates, and a mask of the real
    entries, which come first (none where the out rate is 0).  Birth-death
    rows come from up and down."""
    n = gen.n
    out = -gen.diagonal()
    if gen.structure == BIRTH_DEATH:
        j = np.clip(np.arange(n, dtype=np.int32)[:, None] + np.array([-1, 1], dtype=np.int32),
                    0, n - 1)
        rate = np.stack([gen.down, gen.up], axis=1)
    else:
        rows = gen.to_dense()
        np.fill_diagonal(rows, 0.0)
        width = max(int(np.count_nonzero(rows, axis=1).max()), 1)
        j = np.argsort(rows == 0.0, axis=1, kind="stable")[:, :width].astype(np.int32)
        rate = np.take_along_axis(rows, j, axis=1)
    return out, j, rate, (rate != 0.0) & (out != 0.0)[:, None]


class _Chain:
    """First-passage system of an augmented chain: the diagonal (killing
    plus out rate), the jumps between live states, and the fired jumps,
    whose payoffs make the right-hand side."""

    def __init__(self, gen: Generator, size: int):
        self.diag = np.empty(size, dtype=complex)
        self._table = _row_table(gen)
        self._rows, self._cols, self._rates, self._fired = [], [], [], []
        self._mat = None

    def blocks(self, pos, *coords):
        """Slices of the augmented states, numbers src (k, 1), with the out
        rate (k, 1) and the targets, rates and mask (k, w) of their base
        rows, then the positions pos and each of coords, all (k, 1)."""
        out, j, rate, real = self._table
        step = max(1, _BLOCK // j.shape[1])
        for lo in range(0, pos.size, step):
            i = pos[lo:lo + step]
            yield (np.arange(lo, lo + i.size, dtype=np.int32)[:, None], out[i, None],
                   j[i], rate[i], real[i], i[:, None], *(c[lo:lo + step, None] for c in coords))

    def killing(self, src, kill, out):
        """Diagonals of the states src (k, 1): the killing kill plus the out
        rate out.  A state that is neither killed nor left never pays: a
        unit diagonal gives it the value 0."""
        diag = kill + out
        self.diag[src] = np.where((out == 0.0) & (diag == 0.0), 1.0, diag)

    def jumps(self, src, tgt, rate, keep):
        """Jumps from the states src (k, 1) to tgt (k, w) at the rates
        (k, w), where keep holds."""
        self._rows.append(np.broadcast_to(src, keep.shape)[keep])
        self._cols.append(tgt[keep])
        self._rates.append(-rate[keep])

    def fired(self, src, i, m, fired):
        """Fired jumps from the states src (k, 1) at positions i (k, 1)
        with max m (k, 1) where fired (k, w) holds: in each row a prefix of
        the base row's ascending targets, kept as its length."""
        counts = fired.sum(axis=1)
        at = counts > 0
        if at.any():
            self._fired.append((src[at, 0], i[at, 0], m[at], counts[at]))

    def solve(self, pay):
        """Solution when a fired jump from max m landing at j pays
        pay(j, m) (broadcast over arrays).  Each state's payoffs are summed
        from zero over ascending j.  A solution that is not finite raises
        Singular.  scipy.sparse is imported here, at the first product-chain
        solve: no price route needs it."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        _, targets, rates, _ = self._table
        rhs = np.zeros(self.diag.size, dtype=complex)
        for src, i, m, counts in self._fired:
            nev = int(counts.max())
            acc = np.zeros((counts.size, nev + 1), dtype=complex)
            acc[:, 1:] = rates[i, :nev] * pay(targets[i, :nev], m)
            rhs[src] = np.cumsum(acc, axis=1)[np.arange(counts.size), counts]
        if self._mat is None:
            nn = self.diag.size
            at = np.arange(nn, dtype=np.int32)
            self._mat = sp.csc_matrix(
                (np.concatenate([self.diag, *self._rates]),
                 (np.concatenate([at, *self._rows]), np.concatenate([at, *self._cols]))),
                shape=(nn, nn))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            sol = spla.spsolve(self._mat, rhs)
        if not np.isfinite(sol).all():
            raise Singular("the product chain's system is singular")
        return sol


def _pair_chain(gen: Generator, a_steps: int, kappa, cap: int, lo: int,
                restart: bool = False):
    """The (position, max) chain over the maxes from lo up, with killing
    kappa(i, m).  A jump from (i, m) to j sets a new max (j > m), fires the
    drawdown (m - j >= a_steps) or stays at (j, m).  A fired jump ends the
    path, or with ``restart`` goes on from (j, j): the reference max resets
    to the landing state, so lo must then be 0.  Returns (pair numbering
    base, chain)."""
    base, pos, mx = _pair_numbering(gen.n, a_steps, cap, lo, gen.n - 1)
    chain = _Chain(gen, pos.size)
    for src, out, j, rate, real, i, m in chain.blocks(pos, mx):
        chain.killing(src, kappa(i, m), out)
        fired = real & (m - j >= a_steps)
        chain.fired(src, i, m, fired)
        new = (j > m) | fired if restart else j > m
        chain.jumps(src, np.where(new, base[j], base[m]) + j, rate,
                    real if restart else real & ~fired)
    return base, chain


def _product_qbc(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    a_steps = gen.grid.steps_of(req.a)
    f = _payoff_array(gen, req.f)
    if req.kind == "C":
        k2 = _k2_mat(gen, req)
        kappa = lambda i, m: k2[i, m]
    else:   # Q's killing is q, as q_drawdown takes it
        kv = killing_values(req.q if req.kind == "Q" else _b_killing(req), gen.states)
        kappa = lambda i, m: kv[i]
    ix, _ = _start_indices(gen, req)
    base, chain = _pair_chain(gen, a_steps, kappa, cap, ix)
    sol = chain.solve(lambda j, m: f[j])
    return complex(sol[base[ix] + ix])


def _product_hn(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    a_steps = gen.grid.steps_of(req.a)
    level = _payoff_array(gen, req.f)
    q = complex(req.q)
    # each stage starts afresh at every landing state, below the start too
    base, chain = _pair_chain(gen, a_steps, lambda i, m: q, cap, 0)
    fresh = base + np.arange(gen.n)    # the pairs (j, j)
    for _ in range(req.n):
        cur = level
        level = chain.solve(lambda j, m: cur[j])[fresh]
    ix, _ = _start_indices(gen, req)
    return complex(level[ix])


def _product_hsum(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    q = complex(req.q)
    # event: pay 1, reference max resets to the landing point, which may
    # lie below the start: every max is kept
    base, chain = _pair_chain(gen, gen.grid.steps_of(req.a), lambda i, m: q, cap, 0,
                              restart=True)
    sol = chain.solve(lambda j, m: 1.0)
    ix, _ = _start_indices(gen, req)
    return complex(sol[base[ix] + ix])


def _triple_solve_a(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    grid = gen.grid
    a_steps = grid.steps_of(req.a)
    b_steps = grid.steps_at_least(req.b)
    ix, iy = _start_indices(gen, req)
    if ix - iy >= b_steps:
        return 0.0 + 0.0j
    if iy > ix:
        raise ValueError("running minimum cannot exceed the position")
    base, tbase, pos, mx, mn = _triple_numbering(gen.n, a_steps, b_steps, ix, iy, cap)
    q = complex(req.q)
    chain = _Chain(gen, pos.size)
    for src, out, j, rate, real, i, m, low in chain.blocks(pos, mx, mn):
        chain.killing(src, q, out)
        up = j > i
        fired = real & ~up & (m - j >= a_steps)           # drawdown fires
        keep = real & np.where(up, j - low < b_steps, ~fired)  # else the drawup fires first: value 0
        chain.fired(src, i, m, fired)
        pair = np.where(keep, np.where(up, base[np.maximum(m, j)], base[m]) + j, 0)
        chain.jumps(src, tbase[pair] + np.where(up, low, np.minimum(low, j)), rate, keep)
    f = _payoff_array(gen, req.f).real
    sol = chain.solve(lambda j, m: f[j])
    return complex(sol[tbase[base[ix] + ix] + iy])


def _recovery_chain(gen: Generator, req: QuantityRequest, rearm_after: bool, cap: int):
    """The recovery-flagged chain of a request, with killing q, over the
    reference maxes from the start's up: no jump lowers the reference max.
    Armed: a jump from (i, m, 1) to j sets a new max (j > m), fires
    (m - j >= a_steps) or stays at (j, m, 1); a fired jump ends the path,
    or with ``rearm_after`` goes on disarmed from (j, m, 0).  Disarmed: a
    jump to j >= m re-arms at (j, j, 1), any other stays at (j, m, 0).
    Returns (dis, chain, the start's number)."""
    ix, iy = _start_indices(gen, req)
    if ix > iy:
        raise ValueError("position cannot exceed the reference max")
    a_steps, q = gen.grid.steps_of(req.a), complex(req.q)
    arm, dis, pos, mx, flag = _flag_numbering(gen.n, a_steps, cap, iy)
    chain = _Chain(gen, pos.size)
    for src, out, j, rate, real, i, m, armed in chain.blocks(pos, mx, flag):
        chain.killing(src, q, out)
        fired = armed & real & (m - j >= a_steps)
        chain.fired(src, i, m, fired)
        tgt = np.where(armed, np.where(j > m, arm[j], np.where(fired, dis[m], arm[m])),
                       np.where(j >= m, arm[j], dis[m])) + j
        chain.jumps(src, tgt, rate, real if rearm_after else real & ~fired)
    return dis, chain, int(arm[iy] if ix == iy else dis[iy]) + ix


def _product_jn(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    dis, chain, start = _recovery_chain(gen, req, False, cap)
    f2 = _f2_mat(gen, req.f2)
    pay = lambda j, m: f2[j, m]
    for _ in range(req.n):
        prev = chain.solve(pay)   # values of one fewer event over the augmented space
        pay = lambda j, m, prev=prev: prev[dis[m] + j]
    return complex(prev[start])


def _product_jsum(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    # unit payment at the event, then continue disarmed
    _, chain, start = _recovery_chain(gen, req, True, cap)
    return complex(chain.solve(lambda j, m: 1.0)[start])


def dense_product_solve(gen: Generator, req: QuantityRequest, *, cap: int = 20_000) -> complex:
    """Reference value of any quantity at one scalar node q via one sparse
    solve on the augmented chain, over the states reachable from the
    request's start.  Intended for small grids: raises TooLarge when more
    than ``cap`` augmented states are reachable, before reading any row,
    and Singular when the system has no unique solution."""
    _require_scalar_q(req)
    kind = req.kind
    if kind in ("Q", "B", "C"):
        return _product_qbc(gen, req, cap)
    if kind == "Hn":
        return _product_hn(gen, req, cap)
    if kind == "Hsum":
        return _product_hsum(gen, req, cap)
    if kind == "A":
        return _triple_solve_a(gen, req, cap)
    if kind == "Jn":
        return _product_jn(gen, req, cap)
    if kind == "Jsum":
        return _product_jsum(gen, req, cap)
    raise ValueError(f"unhandled kind {kind}")


# ---------------------------------------------------------------------------
# exact Monte Carlo simulation
# ---------------------------------------------------------------------------

_ACC_CUTOFF = 36.0   # e^-36 ~ 2e-16: future contributions are below roundoff
_GUIDE = 1024        # guide buckets per CDF row, a power of two


def mc_estimate(gen: Generator, req: QuantityRequest, cfg: McConfig):
    """Unbiased path-simulation estimate (mean, stderr) of a real-argument
    quantity with real killings and payoffs.  Bitwise deterministic for a
    fixed seed."""
    n = gen.n
    if n > 3000:
        raise TooLarge("MC oracle caps at 3000 states")
    _require_scalar_q(req)
    q = complex(req.q)
    if abs(q.imag) > 0:
        raise ValueError("MC oracle requires a real Laplace argument")

    kind = req.kind
    if kind == "B":
        kill = killing_values(_b_killing(req), gen.states)
    elif kind == "C":
        kill = _k2_mat(gen, req)
    else:
        kill = np.full(n, q)
    if np.abs(kill.imag).max() > 0:
        raise ValueError("MC oracle requires real killing rates")
    kill = kill.real
    f = _payoff_array(gen, req.f)
    f2 = _f2_mat(gen, req.f2) if kind == "Jn" else None
    if any(np.abs(v.imag).max() > 0 for v in (f, f2) if v is not None):
        raise ValueError("MC oracle requires a real payoff")
    f = f.real
    f2 = None if f2 is None else f2.real

    out_rates, *draw = _jump_tables(gen)
    # per visit of state s (running max m for C): the mean holding time
    # 1 / r_s and the discount exponent log1p(k / r_s), k the killing the
    # kind reads there; hold 0 marks an absorbing state
    hold = np.divide(1.0, out_rates, out=np.zeros(n), where=out_rates > 0.0)
    rate = out_rates[:, None] if kill.ndim == 2 else out_rates
    if np.any((kill <= -rate) & (rate > 0.0)):
        # the mean discount r_s / (r_s + k) of a holding time needs r_s + k > 0
        raise ValueError("MC oracle requires killing rates above minus the out rates")
    grow = np.log1p(np.divide(kill, rate, out=np.zeros(kill.shape), where=rate > 0.0))
    a_steps = gen.grid.steps_of(req.a)
    b_steps = gen.grid.steps_at_least(req.b) if req.b is not None else None
    ix, iy = _start_indices(gen, req)

    root = np.random.SeedSequence(cfg.seed)
    n_batches = (cfg.n_paths + cfg.batch_size - 1) // cfg.batch_size
    streams = root.spawn(n_batches)

    total = 0.0
    total_sq = 0.0
    truncated = 0
    for b in range(n_batches):
        size = min(cfg.batch_size, cfg.n_paths - b * cfg.batch_size)
        contrib, trunc = _simulate_batch(
            np.random.default_rng(streams[b]), size, draw, hold, grow, kind,
            a_steps, b_steps, f, f2, req.n, ix, iy, cfg.horizon_cap)
        total += contrib.sum()
        total_sq += (contrib ** 2).sum()
        truncated += trunc
    mean = total / cfg.n_paths
    var = max(total_sq / cfg.n_paths - mean ** 2, 0.0)
    stderr = np.sqrt(var / cfg.n_paths)
    frac = truncated / cfg.n_paths
    if frac > 0.001:
        raise HorizonCapHit(frac)
    return float(mean), float(stderr)


def _jump_tables(gen: Generator):
    """Out rates and the draw tables (cdf, guide, p_down) of the jump
    chain.  A birth-death chain needs only p_down[i] = down[i] /
    out_rates[i], the CDF entry cdf[i, i - 1] of its dense copy.  Other
    chains get CDF rows, where each active row reads at least 1.0 from its
    last positive-probability column on, so that every uniform u < 1 lands
    on a state where the row's sum rounds below 1 (a row that rounds above
    1 keeps its value, and every row stays non-decreasing), and their guide
    table: guide[r, j] counts the entries of row r below j / K (K =
    _GUIDE, j <= K + 1), that is those c with floor(c K) + 1 <= j."""
    n = gen.n
    out_rates = -gen.diagonal()
    active = out_rates > 0.0
    if gen.structure == BIRTH_DEATH:
        return out_rates, None, None, np.divide(gen.down, out_rates, out=np.zeros(n), where=active)
    probs = np.maximum(gen.to_dense(), 0.0)
    np.fill_diagonal(probs, 0.0)
    probs[~active] = 0.0
    np.divide(probs, probs.sum(axis=1, keepdims=True), out=probs, where=active[:, None])
    cdf = np.cumsum(probs, axis=1)
    last = n - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    tail = active[:, None] & (np.arange(n) >= last[:, None])
    cdf[tail] = np.maximum(cdf[tail], 1.0)
    width = _GUIDE + 3                  # slots 1..K + 2, 0 unused
    slot = np.minimum(cdf * _GUIDE, _GUIDE + 1).astype(np.int64) + 1
    slot += np.arange(0, n * width, width)[:, None]
    guide = np.bincount(slot.ravel(), minlength=n * width).reshape(n, width)
    return out_rates, cdf, np.cumsum(guide, axis=1, out=guide), None


def _next_state(cdf, guide, p_down, pos, u):
    """States the paths at ``pos`` jump to for the uniforms u: the count of
    CDF entries below u.  A birth-death row steps only to pos - 1 or
    pos + 1, so one entry, p_down, gives the same count in O(1).  Other
    rows take indexed search (H.-C. Chen and Y. Asau, AIIE Trans. 6(2),
    1974): for j = int(u K), exact as K is a power of two, the count lies
    in [guide[pos, j], guide[pos, j + 1]], and where these bounds differ a
    binary search with power-of-two strides between them finds it."""
    if p_down is not None:
        return pos - 1 + 2 * (p_down[pos] < u)
    flat = guide.ravel()
    at = pos * guide.shape[1]
    at += (u * _GUIDE).astype(at.dtype)
    count = flat[at]
    hi = flat[at + 1]
    wide = np.flatnonzero(count != hi)
    if wide.size:
        row = pos[wide] * cdf.shape[1] - 1   # cdf.flat[row + c] = cdf[pos, c - 1]
        lo, hi, u, flat = row + count[wide], row + hi[wide], u[wide], cdf.ravel()
        stride = 1 << (int((hi - lo).max()).bit_length() - 1)
        while stride:
            probe = np.minimum(lo + stride, hi)
            lo = np.where(flat[probe] < u, probe, lo)
            stride >>= 1
        count[wide] = lo - row
    return count


def _simulate_batch(rng, size, draw, hold, grow, kind, a_steps, b_steps,
                    f, f2, n_events, ix, iy, horizon):
    """Contributions of ``size`` paths and the count truncated at the
    horizon.  Only the live paths are kept, with only the state their kind
    reads, in ascending path order with their numbers ``path``, so every
    step draws one uniform per live path in the order the batch numbers
    them.  Each visit adds grow[pos] (C: grow[pos, max]) to the discount
    exponent and hold[pos] to the clock; a state with hold 0 absorbs."""
    contrib = np.zeros(size)
    if hold[ix] <= 0.0:
        return contrib, 0
    path = np.arange(size)
    pos = np.full(size, ix, dtype=np.int64)
    step = np.full(size, hold[ix])    # mean holding time of each path's state
    t = np.zeros(size)
    acc = np.zeros(size)              # accumulated discount/occupation exponent
    recovery = kind in ("Jn", "Jsum")
    ref = np.full(size, iy if recovery else ix, dtype=np.int64)  # running/reference max
    low = events = armed = None
    if kind == "A":
        low = np.full(size, iy, dtype=np.int64)                   # running min
    elif kind not in ("Q", "B", "C"):
        events = np.zeros(size, dtype=np.int64)
        armed = np.full(size, ix == iy or not recovery)
    truncated = 0

    while path.size:
        acc += grow[pos, ref] if kind == "C" else grow[pos]
        t += step
        # past the cutoff, payments are below roundoff
        if t.max() > horizon or acc.max() > _ACC_CUTOFF:
            over = t > horizon
            keep = ~over & (acc <= _ACC_CUTOFF)
            truncated += int(over.sum())
            path, pos, t, acc, ref, low, events, armed = (
                v if v is None else v[keep] for v in (path, pos, t, acc, ref, low, events, armed))
            if not path.size:
                break
        nxt = _next_state(*draw, pos, rng.random(path.size))
        if kind in ("Q", "B", "C"):
            np.maximum(ref, nxt, out=ref)
            done = np.flatnonzero(ref - nxt >= a_steps)
            if done.size:
                contrib[path[done]] = np.exp(-acc[done]) * f[nxt[done]]
        elif kind == "A":
            up = nxt > pos
            np.minimum(low, nxt, out=low)
            np.maximum(ref, nxt, out=ref)
            fired = ~up & (ref - nxt >= a_steps)
            hit = np.flatnonzero(fired)
            if hit.size:
                contrib[path[hit]] = np.exp(-acc[hit]) * f[nxt[hit]]
            # or the drawup fires: value 0
            done = np.flatnonzero(fired | (up & (nxt - low >= b_steps)))
        else:
            # Jn and Jsum: a disarmed path re-arms at the first return to its
            # reference max (Hn and Hsum paths stay armed)
            armed |= nxt >= ref
            np.maximum(ref, nxt, out=ref, where=armed)
            fired = armed & (ref - nxt >= a_steps)
            events += fired
            if kind in ("Hsum", "Jsum"):
                # pay 1 per event
                hit = np.flatnonzero(fired)
                contrib[path[hit]] += np.exp(-acc[hit])
                done = hit[:0]   # paths end at the horizon, the cutoff or absorption
            else:
                done = np.flatnonzero(fired & (events >= n_events))
                pay = f[nxt[done]] if kind == "Hn" else f2[nxt[done], ref[done]]
                contrib[path[done]] = np.exp(-acc[done]) * pay
            if recovery:
                armed &= ~fired
            else:
                np.copyto(ref, nxt, where=fired)   # the reference max restarts at the landing state
        pos = nxt
        step = hold[pos]
        if done.size or step.min() <= 0.0:
            keep = step > 0.0
            keep[done] = False
            path, pos, step, t, acc, ref, low, events, armed = (
                v if v is None else v[keep]
                for v in (path, pos, step, t, acc, ref, low, events, armed))
    return contrib, truncated
