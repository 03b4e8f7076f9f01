"""Independent verification of the recursive algorithms.

Two routes that never touch the windowed recursions:

* ``dense_product_solve`` -- the pair (position, running max), the triple
  (position, max, min), and their recovery-flagged variants are themselves
  finite chains; each requested quantity is a first-passage functional of
  that augmented chain and is solved in one shot as a sparse linear system.

* ``mc_estimate`` -- exact event-by-event simulation of the chain
  (exponential holding times, categorical jumps), tracking running
  extremes, occupation clocks and event counters with no time-
  discretization bias.  Counter-based RNG streams split per path batch
  keep runs bitwise reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .ctmc import BIRTH_DEATH, Generator
from .linsolve import killing_values
from .quantities import (
    QuantityRequest,
    TooLarge,
    drawdown_occupation_killing,
    occupation_below_killing,
)

__all__ = [
    "McConfig",
    "HorizonCapHit",
    "mc_estimate",
    "dense_product_solve",
]


class HorizonCapHit(RuntimeError):
    """More than 0.1% of paths were truncated at the horizon cap."""

    def __init__(self, fraction: float):
        self.fraction = fraction
        super().__init__(f"{fraction:.3%} of paths hit the horizon cap; raise it")


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    seed: int = 0
    horizon_cap: float = 200.0
    batch_size: int = 16_384

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.horizon_cap <= 0.0:
            raise ValueError("horizon cap must be positive")


# ---------------------------------------------------------------------------
# request helpers shared by both oracles
# ---------------------------------------------------------------------------

def _payoff_vec(gen: Generator, f) -> np.ndarray:
    if f is None:
        return np.ones(gen.n)
    if callable(f):
        return np.asarray(f(gen.states), dtype=float)
    return np.asarray(f, dtype=float)


def _k_vec(gen: Generator, req: QuantityRequest) -> np.ndarray:
    if req.xi is None:
        return np.full(gen.n, complex(req.q) + complex(req.shift))
    return killing_values(occupation_below_killing(req.q, req.xi, req.shift), gen.states)


def _k2_mat(gen: Generator, req: QuantityRequest) -> np.ndarray:
    states = gen.states
    kf = drawdown_occupation_killing(req.q, req.xi, req.shift)
    return np.stack([kf(states, y) for y in states], axis=1)


def _f2_mat(gen: Generator, f2) -> np.ndarray:
    states = gen.states
    if f2 is None:
        return np.ones((gen.n, gen.n))
    if callable(f2):
        return np.asarray(f2(states[:, None], states[None, :]), dtype=float)
    return np.asarray(f2, dtype=float)


def _start_indices(gen: Generator, req: QuantityRequest):
    grid = gen.grid
    ix = grid.eta_x if req.x is None else grid.index_of(req.x)
    iy = ix if req.y is None else grid.index_of(req.y)
    return ix, iy


# ---------------------------------------------------------------------------
# dense product-chain solves
# ---------------------------------------------------------------------------

def _pair_space(gen: Generator, a_steps: int):
    """Live (position, max) pairs: max - position < a_steps."""
    n = gen.n
    index = {}
    for m in range(n):
        for i in range(max(0, m - a_steps + 1), m + 1):
            index[(i, m)] = len(index)
    return index


def _solve_sparse(rows, cols, data, diag, rhs):
    nn = diag.size
    mat = sp.csc_matrix((np.concatenate([diag, np.asarray(data, dtype=complex)]),
                         (np.concatenate([np.arange(nn), np.asarray(rows)]),
                          np.concatenate([np.arange(nn), np.asarray(cols)]))),
                        shape=(nn, nn))
    sol = spla.spsolve(mat, rhs)
    return sol


def _pair_solve(gen: Generator, a_steps: int, kappa, event_payoff, cap: int):
    """First-passage solve on the (position, max) chain.

    kappa(i, m) is the killing rate; event_payoff(j, m) the value collected
    when a jump to j fires the drawdown from max m.  Returns a dict view
    (index map, solution vector).
    """
    index = _pair_space(gen, a_steps)
    if len(index) > cap:
        raise TooLarge(f"product space has {len(index)} states (cap {cap})")
    nn = len(index)
    diag = np.empty(nn, dtype=complex)
    rows, cols, data = [], [], []
    rhs = np.zeros(nn, dtype=complex)
    n = gen.n
    for (i, m), s in index.items():
        out = gen.out_rate(i)
        diag[s] = kappa(i, m) + out
        if out == 0.0:
            continue
        row = gen.row(i)
        for j in np.nonzero(row)[0]:
            if j == i:
                continue
            rate = row[j]
            if j > m:
                rows.append(s)
                cols.append(index[(j, j)])
                data.append(-rate)
            elif m - j >= a_steps:
                rhs[s] += rate * event_payoff(j, m)
            else:
                rows.append(s)
                cols.append(index[(j, m)])
                data.append(-rate)
    sol = _solve_sparse(rows, cols, data, diag, rhs)
    return index, sol


def _product_qbc(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    a_steps = gen.grid.steps_of(req.a)
    f = _payoff_vec(gen, req.f)
    if req.kind == "Q":
        kv = np.full(gen.n, complex(req.q))
        kappa = lambda i, m: kv[i]
    elif req.kind == "B":
        kv = _k_vec(gen, req)
        kappa = lambda i, m: kv[i]
    else:
        k2 = _k2_mat(gen, req)
        kappa = lambda i, m: k2[i, m]
    index, sol = _pair_solve(gen, a_steps, kappa, lambda j, m: f[j], cap)
    ix, _ = _start_indices(gen, req)
    return complex(sol[index[(ix, ix)]])


def _product_hn(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    a_steps = gen.grid.steps_of(req.a)
    level = _payoff_vec(gen, req.f).astype(complex)
    q = complex(req.q)
    for _ in range(req.n):
        cur = level
        index, sol = _pair_solve(gen, a_steps, lambda i, m: q,
                                 lambda j, m: cur[j], cap)
        nxt = np.zeros(gen.n, dtype=complex)
        for j in range(gen.n):
            nxt[j] = sol[index[(j, j)]]
        level = nxt
    ix, _ = _start_indices(gen, req)
    return complex(level[ix])


def _product_hsum(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    a_steps = gen.grid.steps_of(req.a)
    index = _pair_space(gen, a_steps)
    if len(index) > cap:
        raise TooLarge(f"product space has {len(index)} states (cap {cap})")
    nn = len(index)
    q = complex(req.q)
    diag = np.empty(nn, dtype=complex)
    rows, cols, data = [], [], []
    rhs = np.zeros(nn, dtype=complex)
    for (i, m), s in index.items():
        out = gen.out_rate(i)
        diag[s] = q + out
        if out == 0.0:
            continue
        row = gen.row(i)
        for j in np.nonzero(row)[0]:
            if j == i:
                continue
            rate = row[j]
            if j > m:
                tgt = (j, j)
            elif m - j >= a_steps:
                # event: pay 1, reference max resets to the landing point
                rhs[s] += rate
                tgt = (j, j)
            else:
                tgt = (j, m)
            rows.append(s)
            cols.append(index[tgt])
            data.append(-rate)
    sol = _solve_sparse(rows, cols, data, diag, rhs)
    ix, _ = _start_indices(gen, req)
    return complex(sol[index[(ix, ix)]])


def _triple_solve_a(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    grid = gen.grid
    a_steps = grid.steps_of(req.a)
    b_steps = grid.steps_at_least(req.b)
    f = _payoff_vec(gen, req.f)
    q = complex(req.q)
    n = gen.n
    index = {}
    for m in range(n):
        for i in range(max(0, m - a_steps + 1), m + 1):
            for l in range(max(0, i - b_steps + 1), i + 1):
                index[(i, m, l)] = len(index)
    if len(index) > cap:
        raise TooLarge(f"product space has {len(index)} states (cap {cap})")
    nn = len(index)
    diag = np.empty(nn, dtype=complex)
    rows, cols, data = [], [], []
    rhs = np.zeros(nn, dtype=complex)
    for (i, m, l), s in index.items():
        out = gen.out_rate(i)
        diag[s] = q + out
        if out == 0.0:
            continue
        row = gen.row(i)
        for j in np.nonzero(row)[0]:
            if j == i:
                continue
            rate = row[j]
            if j > i:
                if j - l >= b_steps:
                    continue           # drawup fires first: value 0
                rows.append(s)
                cols.append(index[(j, max(m, j), l)])
                data.append(-rate)
            else:
                if m - j >= a_steps:
                    rhs[s] += rate * f[j]   # drawdown fires
                else:
                    rows.append(s)
                    cols.append(index[(j, m, min(l, j))])
                    data.append(-rate)
    sol = _solve_sparse(rows, cols, data, diag, rhs)
    ix, iy = _start_indices(gen, req)
    if ix - iy >= b_steps:
        return 0.0 + 0.0j
    return complex(sol[index[(ix, ix, iy)]])


def _flag_space(gen: Generator, a_steps: int):
    """(position, reference max, armed) states for the recovery variants.

    Armed states obey max - position < a_steps (otherwise they fire at
    once); disarmed states allow the position anywhere at or below the
    reference max.
    """
    n = gen.n
    index = {}
    for m in range(n):
        for i in range(max(0, m - a_steps + 1), m + 1):
            index[(i, m, 1)] = len(index)
        for i in range(0, m + 1):
            index[(i, m, 0)] = len(index)
    return index


def _recovery_transitions(gen, index, a_steps, on_event):
    """Common assembly for the recovery-flagged chain; on_event(s, j, m)
    handles an armed drawdown firing from reference max m landing at j."""
    rows, cols, data = [], [], []
    for (i, m, g), s in index.items():
        out = gen.out_rate(i)
        if out == 0.0:
            continue
        row = gen.row(i)
        for j in np.nonzero(row)[0]:
            if j == i:
                continue
            rate = row[j]
            if g == 1:
                if j > m:
                    tgt = (j, j, 1)
                elif m - j >= a_steps:
                    on_event(s, j, m, rate, rows, cols, data)
                    continue
                else:
                    tgt = (j, m, 1)
            else:
                tgt = (j, j, 1) if j >= m else (j, m, 0)
            rows.append(s)
            cols.append(index[tgt])
            data.append(-rate)
    return rows, cols, data


def _product_jn(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    a_steps = gen.grid.steps_of(req.a)
    index = _flag_space(gen, a_steps)
    if len(index) > cap:
        raise TooLarge(f"product space has {len(index)} states (cap {cap})")
    nn = len(index)
    q = complex(req.q)
    f2 = _f2_mat(gen, req.f2)
    diag = np.empty(nn, dtype=complex)
    for (i, m, g), s in index.items():
        diag[s] = q + gen.out_rate(i)
    prev = None   # previous-count values over the augmented space
    for k in range(1, req.n + 1):
        rhs = np.zeros(nn, dtype=complex)

        def on_event(s, j, m, rate, rows, cols, data, k=k, prev=prev, rhs=rhs):
            if k == 1:
                rhs[s] += rate * f2[j, m]
            else:
                rhs[s] += rate * prev[index[(j, m, 0)]]

        rows, cols, data = _recovery_transitions(gen, index, a_steps, on_event)
        prev = _solve_sparse(rows, cols, data, diag, rhs)
    ix, iy = _start_indices(gen, req)
    g0 = 1 if ix == iy else 0
    return complex(prev[index[(ix, iy, g0)]])


def _product_jsum(gen: Generator, req: QuantityRequest, cap: int) -> complex:
    a_steps = gen.grid.steps_of(req.a)
    index = _flag_space(gen, a_steps)
    if len(index) > cap:
        raise TooLarge(f"product space has {len(index)} states (cap {cap})")
    nn = len(index)
    q = complex(req.q)
    diag = np.empty(nn, dtype=complex)
    for (i, m, g), s in index.items():
        diag[s] = q + gen.out_rate(i)
    rhs = np.zeros(nn, dtype=complex)

    def on_event(s, j, m, rate, rows, cols, data):
        rhs[s] += rate              # unit payment at the event
        rows.append(s)
        cols.append(index[(j, m, 0)])
        data.append(-rate)          # then continue disarmed

    rows, cols, data = _recovery_transitions(gen, index, a_steps, on_event)
    sol = _solve_sparse(rows, cols, data, diag, rhs)
    ix, iy = _start_indices(gen, req)
    g0 = 1 if ix == iy else 0
    return complex(sol[index[(ix, iy, g0)]])


def dense_product_solve(gen: Generator, req: QuantityRequest, *, cap: int = 20_000) -> complex:
    """Reference value of any quantity via one sparse solve on the augmented
    chain.  Intended for small grids (raises TooLarge above the cap)."""
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


def mc_estimate(gen: Generator, req: QuantityRequest, cfg: McConfig):
    """Unbiased path-simulation estimate (mean, stderr) of a real-argument
    quantity.  Bitwise deterministic for a fixed seed."""
    n = gen.n
    if n > 3000:
        raise TooLarge("MC oracle caps at 3000 states")
    q = complex(req.q)
    if abs(q.imag) > 0:
        raise ValueError("MC oracle requires a real Laplace argument")

    out_rates, cdf, p_down = _jump_tables(gen)
    kind = req.kind
    k_vec = k_mat = f2 = None
    if kind == "B":
        kv = _k_vec(gen, req)
        if np.abs(kv.imag).max() > 0:
            raise ValueError("MC oracle requires real killing rates")
        k_vec = kv.real
    elif kind == "C":
        km = _k2_mat(gen, req)
        if np.abs(km.imag).max() > 0:
            raise ValueError("MC oracle requires real killing rates")
        k_mat = km.real
    elif kind in ("Jn", "Jsum"):
        f2 = _f2_mat(gen, req.f2)
    f = _payoff_vec(gen, req.f)
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
        rng = np.random.Generator(np.random.Philox(streams[b]))
        contrib, trunc = _simulate_batch(
            rng, size, cdf, p_down, out_rates, kind, q.real, a_steps, b_steps,
            f, k_vec, k_mat, f2, req.n, ix, iy, cfg.horizon_cap)
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
    """Out rates, the CDF rows of the jump chain, and on a birth-death
    chain the down-step probabilities p_down[i - 1] = cdf[i, i - 1]
    (None otherwise)."""
    n = gen.n
    out_rates = np.array([gen.out_rate(i) for i in range(n)])
    dense = gen.to_dense(max_states=n)
    probs = np.zeros((n, n))
    active = out_rates > 0.0
    probs[active] = np.clip(dense[active], 0.0, None)
    np.fill_diagonal(probs, 0.0)
    probs[active] /= probs[active].sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    return out_rates, cdf, np.diag(cdf, -1) if gen.structure == BIRTH_DEATH else None


def _next_state(cdf, p_down, pos, u):
    """States the paths at ``pos`` jump to for the uniforms u: the count of
    CDF entries below u.  A birth-death row steps only to pos - 1 or
    pos + 1, so one entry, p_down, gives the same count in O(1)."""
    if p_down is None:
        return (cdf[pos] < u[:, None]).sum(axis=1).astype(np.int64)
    return pos - 1 + 2 * (p_down[pos - 1] < u)


def _simulate_batch(rng, size, cdf, p_down, out_rates, kind, q, a_steps, b_steps,
                    f, k_vec, k_mat, f2, n_events, ix, iy, horizon):
    pos = np.full(size, ix, dtype=np.int64)
    t = np.zeros(size)
    acc = np.zeros(size)              # accumulated discount/occupation exponent
    contrib = np.zeros(size)
    alive = np.ones(size, dtype=bool)

    ref = np.full(size, ix, dtype=np.int64)     # running/reference max index
    low = np.full(size, iy, dtype=np.int64)     # running min index (A)
    events = np.zeros(size, dtype=np.int64)
    armed = np.ones(size, dtype=bool)
    if kind in ("Jn", "Jsum"):
        ref[:] = iy
        armed[:] = ix == iy
    truncated = 0

    while np.any(alive):
        idx = np.nonzero(alive)[0]
        rates = out_rates[pos[idx]]
        absorbed = rates <= 0.0
        if np.any(absorbed):
            alive[idx[absorbed]] = False
            idx = idx[~absorbed]
            if idx.size == 0:
                break
            rates = out_rates[pos[idx]]
        dt = rng.exponential(1.0, size=idx.size) / rates
        if kind == "B":
            acc[idx] += k_vec[pos[idx]] * dt
        elif kind == "C":
            acc[idx] += k_mat[pos[idx], ref[idx]] * dt
        else:
            acc[idx] += q * dt
        t[idx] += dt
        over = t[idx] > horizon
        if np.any(over):
            truncated += int(over.sum())
            alive[idx[over]] = False
            idx = idx[~over]
            if idx.size == 0:
                continue
        spent = acc[idx] > _ACC_CUTOFF
        if np.any(spent):
            alive[idx[spent]] = False   # future payments below roundoff
            idx = idx[~spent]
            if idx.size == 0:
                continue
        u = rng.random(idx.size)
        nxt = _next_state(cdf, p_down, pos[idx], u)
        if kind in ("Q", "B", "C"):
            up = nxt > ref[idx]
            ref[idx[up]] = nxt[up]
            fired = (ref[idx] - nxt) >= a_steps
            hit = idx[fired]
            contrib[hit] = np.exp(-acc[hit]) * f[nxt[fired]]
            alive[hit] = False
        elif kind == "A":
            up = nxt > pos[idx]
            new_low = np.where(nxt < low[idx], nxt, low[idx])
            new_ref = np.where(nxt > ref[idx], nxt, ref[idx])
            drawup_fired = up & ((nxt - new_low) >= b_steps)
            alive[idx[drawup_fired]] = False
            dd_fired = (~up) & ((new_ref - nxt) >= a_steps)
            hit = idx[dd_fired]
            contrib[hit] = np.exp(-acc[hit]) * f[nxt[dd_fired]]
            alive[hit] = False
            ref[idx] = new_ref
            low[idx] = new_low
        elif kind in ("Hn", "Hsum"):
            new_ref = np.where(nxt > ref[idx], nxt, ref[idx])
            fired = (new_ref - nxt) >= a_steps
            if kind == "Hn":
                events[idx[fired]] += 1
                done = fired & (events[idx] >= n_events)
                hit = idx[done]
                contrib[hit] = np.exp(-acc[hit]) * f[nxt[done]]
                alive[hit] = False
                restart = fired & ~done
            else:
                # pay 1 per event; the reference max restarts at the landing state
                hit = idx[fired]
                contrib[hit] += np.exp(-acc[hit])
                restart = fired
            new_ref[restart] = nxt[restart]
            ref[idx] = new_ref
        else:  # Jn / Jsum
            arm = armed[idx]
            rearm = (~arm) & (nxt >= ref[idx])
            armed[idx[rearm]] = True
            ref[idx[rearm]] = nxt[rearm]
            upd = arm & (nxt > ref[idx])
            ref[idx[upd]] = nxt[upd]
            fired = armed[idx] & ((ref[idx] - nxt) >= a_steps)
            events[idx[fired]] += 1
            if kind == "Jn":
                done = fired & (events[idx] >= n_events)
                hit = idx[done]
                contrib[hit] = np.exp(-acc[hit]) * f2[nxt[done], ref[hit]]
                alive[hit] = False
                disarm = fired & ~done
            else:
                hit = idx[fired]
                contrib[hit] += np.exp(-acc[hit])
                disarm = fired
            armed[idx[disarm]] = False
        pos[idx] = nxt
    return contrib, truncated
