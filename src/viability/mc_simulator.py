"""Euler-Maruyama simulation, first-exit detection, and exit-probability CIs.

Every path owns a counter-based random stream keyed by (seed, path index), and
increments are drawn in fixed windows of WINDOW steps, each only up to the
horizon: a shorter last window draws the leading rows of the full window, so
every increment equals the one a full-window draw gives. Every time step runs in
one block loop, _simulate_block, and a path simulated alone is a block of one,
so it matches the same path inside any batch bit for bit by construction.
Estimates are bit-identical for any batching or thread count, and any single
path can be replayed in isolation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ImmediateExit, NonFinite
from .geometry import ImplicitDomain, signed_level
from .sde_model import SdeModel
from .seeds import path_generator

WINDOW = 1024  # steps per increment draw; fixed so stream layout never varies
DEFAULT_BLOCK = 2048  # paths simulated per vectorized block
Z95 = 1.959963984540054


@dataclass(frozen=True)
class PathResult:
    exited: bool
    exit_time: float | None
    final_state: np.ndarray
    steps_taken: int


@dataclass(frozen=True)
class ExitEstimate:
    n_paths: int
    n_exits: int
    p_hat: float
    ci_low: float
    ci_high: float
    dt: float
    T: float
    seed: int
    n_nonfinite: int = 0


def wilson_interval(k: int, n: int, z: float = Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    return min(lo, p), max(hi, p)


def em_step(model: SdeModel, t: float, x, dt: float, dW) -> np.ndarray:
    """One explicit Euler-Maruyama step; dW carries the sqrt(dt) scaling.

    Works on a single state (n,) or a batch (m, n) with dW of matching shape.
    Raises NonFinite when the step leaves the representable range.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    out = _em_update(model, t, np.asarray(x, float), dt, np.asarray(dW, float))
    if not np.all(np.isfinite(out)):
        raise NonFinite("state overflowed during an Euler-Maruyama step")
    return out


def _em_update(model, t, x, dt, dW):
    """x + a dt + sum_k b_k dW_k for a state (n,) or a batch (m, n)."""
    out = x + model.drift(t, x) * dt
    b = model.diffusion(t, x)
    for k in range(b.shape[-1]):
        out = out + b[..., k] * dW[..., k : k + 1]
    return out


def _n_steps(T: float, dt: float) -> int:
    if dt <= 0.0 or T <= 0.0 or dt > T:
        raise ValueError(f"need 0 < dt <= T, got dt={dt} and T={T}")
    return max(1, int(round(T / dt)))


def _check_dt_list(T: float, dt_list: Sequence[float]) -> np.ndarray:
    """The steps of a dt study: nonempty, decreasing, each valid for T."""
    arr = np.asarray(dt_list, dtype=float)
    if arr.size < 1 or np.any(np.diff(arr) >= 0):
        raise ValueError("dt_list must be nonempty and strictly decreasing")
    for dt in arr:
        _n_steps(T, float(dt))
    return arr


def _simulate_block(model, domain, starts, T, dt, seed, first_index):
    """The Euler-Maruyama time loop for a block of paths.

    Row i is path first_index + i and draws its increments from the stream
    keyed by (seed, first_index + i). Each window draws one (width, n) array
    per live path, width = min(WINDOW, steps left to the horizon); these are
    the leading rows of the full (WINDOW, n) window, so the stream layout does
    not depend on the horizon. A path stops after the first step that
    overflows or leaves the domain (never when domain is None). Returns
    per-path arrays (states, steps, exited, nonfinite): the state and step
    count at the stop or the horizon, and which of the two stops ended the
    path.
    """
    n_steps = _n_steps(T, dt)
    B, n = starts.shape
    gens = [path_generator(seed, first_index + i) for i in range(B)]
    x = np.array(starts, dtype=float)  # states of the live paths
    states = x.copy()
    steps = np.full(B, n_steps)
    exited, nonfinite = np.zeros((2, B), dtype=bool)
    live = np.arange(B)  # path of each row of x

    def stop(mask, flag, taken):
        """Record the rows in mask as stopped after `taken` steps, drop them."""
        nonlocal live, rows, x
        if rows is None:
            rows = np.arange(live.size)
        flag[live[mask]] = True
        states[live[mask]] = x[mask]
        steps[live[mask]] = taken
        live, rows, x = live[~mask], rows[~mask], x[~mask]

    for start in range(0, n_steps, WINDOW):
        if not live.size:
            break
        width = min(WINDOW, n_steps - start)
        dW = np.stack([gens[i].standard_normal((width, n)) for i in live])
        dW *= np.sqrt(dt)
        rows = None  # row of dW for each row of x, once a path has stopped
        for j in range(width):
            s = start + j
            inc = dW[:, j] if rows is None else dW[rows, j]
            x = _em_update(model, s * dt, x, dt, inc)
            if not np.isfinite(x).all():
                stop(~np.isfinite(x).all(axis=1), nonfinite, s + 1)
            if domain is not None:
                out = np.asarray(signed_level(domain, x)) > 0.0
                if out.any():
                    stop(out, exited, s + 1)
            if not live.size:
                break
    states[live] = x
    return states, steps, exited, nonfinite


def simulate_path(
    model: SdeModel,
    domain: ImplicitDomain,
    x0,
    T: float,
    dt: float,
    seed: int,
    path_index: int = 0,
) -> PathResult:
    """Simulate one path until the horizon or the first exit.

    Exit is detected by the domain level function after each step, so the
    recorded exit time has resolution dt (no within-step interpolation). The
    path is a block of one inside the batch loop, drawing from the stream
    keyed by (seed, path_index).
    """
    x = np.asarray(x0, dtype=float)
    if signed_level(domain, x) > 0.0:
        raise ImmediateExit(f"start point {x!r} lies outside the domain")
    states, steps, exited, nonfinite = _simulate_block(
        model, domain, x[None, :], T, dt, seed, path_index
    )
    if nonfinite[0]:
        raise NonFinite("state overflowed during an Euler-Maruyama step")
    taken = int(steps[0])
    exit_time = taken * dt if exited[0] else None
    return PathResult(bool(exited[0]), exit_time, states[0], taken)


def exit_probability(
    model: SdeModel,
    domain: ImplicitDomain,
    x0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
    block: int = DEFAULT_BLOCK,
    threads: int = 1,
) -> ExitEstimate:
    """Fraction of paths that leave the domain by the horizon, with a Wilson CI.

    Per-path streams are keyed by (seed, path index), so the estimate is
    bit-identical for any block size or thread count. Paths that overflow are
    counted in n_nonfinite and excluded from the exit count.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    if signed_level(domain, x0) > 0.0:
        raise ImmediateExit(f"start point {x0!r} lies outside the domain")

    def run(b0):
        starts = np.tile(x0, (min(block, n_paths - b0), 1))
        return _simulate_block(model, domain, starts, T, dt, seed, b0)

    firsts = range(0, n_paths, block)
    if threads > 1 and len(firsts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, firsts))
    else:
        results = [run(b0) for b0 in firsts]

    exits = sum(int(exited.sum()) for _, _, exited, _ in results)
    nonfinite = sum(int(bad.sum()) for _, _, _, bad in results)
    lo, hi = wilson_interval(exits, n_paths)
    return ExitEstimate(
        n_paths=n_paths,
        n_exits=exits,
        p_hat=exits / n_paths,
        ci_low=lo,
        ci_high=hi,
        dt=float(dt),
        T=float(T),
        seed=int(seed),
        n_nonfinite=nonfinite,
    )


def final_states(
    model: SdeModel,
    starts,
    T: float,
    dt: float,
    seed: int,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """States at the horizon for a batch of start points, without exit stops.

    Row i uses the stream keyed by (seed, i).
    """
    starts = np.asarray(starts, dtype=float)
    out = np.empty_like(starts)
    for b0 in range(0, starts.shape[0], block):
        finals, _, _, nonfinite = _simulate_block(
            model, None, starts[b0 : b0 + block], T, dt, seed, b0
        )
        if nonfinite.any():
            raise NonFinite("a path overflowed before the horizon")
        out[b0 : b0 + block] = finals
    return out


def dt_convergence_study(
    model: SdeModel,
    domain: ImplicitDomain,
    x0,
    T: float,
    dt_list: Sequence[float],
    n_paths: int,
    seed: int,
    block: int = DEFAULT_BLOCK,
    threads: int = 1,
) -> list[ExitEstimate]:
    """exit_probability at each dt in a decreasing list, common path count.

    Separates genuine exits from discretization artifacts: an estimate that
    shrinks as dt decreases indicates scheme-induced leakage.
    """
    arr = _check_dt_list(T, dt_list)
    return [
        exit_probability(model, domain, x0, T, float(dt), n_paths, seed, block, threads)
        for dt in arr
    ]
