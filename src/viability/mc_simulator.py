"""Euler-Maruyama simulation, first-exit detection, and exit-probability CIs.

Every path owns a counter-based random stream keyed by (seed, path index) and
draws k normals per step, one per noise channel, in (step, channel) order.
Increments are drawn in fixed windows of WINDOW steps, each only up to the
horizon: a shorter last window draws the leading rows of the full window, so
every increment equals the one a full-window draw gives. A block derives the
Philox keys of all its paths in one vectorised hash (seeds.path_keys), and a
model with no noise channels (k = 0) draws nothing. Every time step runs in
one block loop, _simulate_block, run coordinate-major: states by column,
increments as (step, channel, path) and, for the affine families, coefficients
by column too (sde_model._affine_map), so each elementwise pass runs down
whole columns. exit_probability and final_states run their paths on every CPU
in the process's affinity mask through sharding.split_rows (_simulate_rows),
so estimates are bit-identical for any CPU count. Path i replays alone as a
one-row _simulate_block(model, domain, x[None], T, dt, seed, i), which matches
row i of any batch bit for bit by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sharding
from .errors import ImmediateExit, NonFinite
from .geometry import ImplicitDomain, signed_level
from .sde_model import SdeModel, require_dimension
from .seeds import path_generator, path_keys

WINDOW = 1024  # steps per increment draw; a path reads its stream in order, so
# the width moves no increment and sets only the memory of a window, which
# holds live paths x width x k doubles for k noise channels
BLOCK = 2048  # paths simulated per vectorized block
CHUNK = 64  # paths whose normals are drawn into one buffer, then scaled and
# transposed into the window together
Z95 = 1.959963984540054


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


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for k successes in n trials."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= n:
        raise ValueError(f"need an integer k with 0 <= k <= n, got k={k!r} and n={n}")
    p, z = k / n, Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    return float(min(lo, p)), float(max(hi, p))


def _em_update(model, t, x, dt, dW):
    """x + a dt + sum_k b_k dW_k for a state (n,) or a batch (m, n), with dW
    of shape (k,) or (m, k). Accumulated in place in one array: IEEE addition
    is commutative, so a dt + x has the bits of x + a dt."""
    out = model.drift(t, x) * dt
    out += x
    b = model.diffusion(t, x)
    for k in range(b.shape[-1]):
        out += b[..., k] * dW[..., k : k + 1]
    return out


def _n_steps(T: float, dt: float) -> int:
    """round(T / dt) steps, at least 1. round takes halves to even, so the
    horizon round(T / dt) * dt need not be T: T = 0.25, dt = 0.004 runs 62
    steps, to 0.248."""
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


def _exit_test(domain):
    """X -> which rows of X lie outside the domain: the kind's closed form
    domain.outside, else a positive signed_level."""
    if domain.outside is not None:
        return domain.outside
    return lambda X: np.asarray(signed_level(domain, X)) > 0.0


def _simulate_block(model, domain, starts, T, dt, seed, first_index):
    """The Euler-Maruyama time loop for a block of paths.

    Row i is path first_index + i and draws its increments from the stream
    keyed by (seed, first_index + i). The block derives all its paths' keys
    at once (seeds.path_keys: what Philox(SeedSequence(seed, (index,)))
    derives), holds one Philox generator and re-keys it for each path: the
    path's key with counter 0 on its first window, the state it left off at
    on a later one. Each window draws a (width, k) array per live path, one
    normal per step and noise channel, width = min(WINDOW, steps left to the
    horizon); these are the leading rows of the full (WINDOW, k) window, so
    the stream layout does not depend on the horizon. CHUNK paths at a time
    draw into one C-ordered buffer (the generator refuses a strided output),
    which one multiply scales by sqrt(dt) into the window's (width, k, live)
    array. The live states are a Fortran-ordered (live, n) array and step j
    adds the columns of dW[j].T; stopped rows are compressed out column by
    column. With k = 0 the block derives no keys and draws nothing. A path
    stops after the first step that overflows or leaves the domain (never
    when domain is None): domain.outside, when the kind has one, else a
    positive signed_level.
    Returns per-path arrays (states, steps, exited, nonfinite), states
    C-ordered: the state and step count at the stop or the horizon, and
    which of the two stops ended the path.
    """
    n_steps = _n_steps(T, dt)
    B = len(starts)
    k = model.diffusion(0.0, starts[:1]).shape[-1]  # noise channels
    outside = None if domain is None else _exit_test(domain)
    gen = path_generator(seed, first_index)
    fresh = gen.bit_generator.state  # counter 0; its key is swapped per path
    keys = path_keys(seed, np.arange(first_index, first_index + B)) if k else None
    resume = {}  # path -> its Philox state at the start of the next window
    x = np.array(starts, dtype=float, order="F")  # states of the live paths
    states = np.array(starts, dtype=float)
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
        live, rows, x = live[~mask], rows[~mask], x.T.compress(~mask, axis=1).T

    for start in range(0, n_steps, WINDOW):
        if not live.size:
            break
        width = min(WINDOW, n_steps - start)
        dW = np.empty((width, k, live.size))
        chunk = np.empty((min(CHUNK, live.size), width, k))
        for c in range(0, live.size if k else 0, len(chunk)):
            paths = live[c : c + len(chunk)].tolist()
            for r, i in enumerate(paths):
                if start:
                    gen.bit_generator.state = resume.pop(i)
                else:
                    fresh["state"]["key"] = keys[i]
                    gen.bit_generator.state = fresh
                gen.standard_normal(out=chunk[r])
                if start + width < n_steps:
                    resume[i] = gen.bit_generator.state
            part = chunk[: len(paths)].transpose(1, 2, 0)
            np.multiply(part, np.sqrt(dt), out=dW[:, :, c : c + len(paths)])
        rows = None  # column of dW[j] for each row of x, once a path has stopped
        for j in range(width):
            s = start + j
            inc = dW[j].T if rows is None else dW[j].take(rows, axis=1).T
            x = _em_update(model, s * dt, x, dt, inc)
            if not np.isfinite(x).all():
                stop(~np.isfinite(x).all(axis=1), nonfinite, s + 1)
            if outside is not None:
                out = outside(x)
                if out.any():
                    stop(out, exited, s + 1)
            if not live.size:
                break
    states[live] = x
    return states, steps, exited, nonfinite


def _simulate_rows(model, domain, starts, T, dt, seed):
    """_simulate_block over every row of starts, on every CPU the process may use.

    sharding.split_rows cuts the rows into ranges, and each range runs
    _simulate_block over blocks of at most BLOCK paths. Row i keeps path
    index i wherever it runs, so the result is bit-identical for any CPU
    count; no rows give empty arrays, call no model and fork nothing.
    """
    if not len(starts):  # nothing to simulate and nothing to fork
        _n_steps(T, dt)
        return [starts.copy(), np.zeros(0, int), np.zeros(0, bool), np.zeros(0, bool)]

    def run(a, b):
        parts = [
            _simulate_block(model, domain, starts[c : min(c + BLOCK, b)], T, dt, seed, c)
            for c in range(a, b, BLOCK)
        ]
        return [np.concatenate(arrays) for arrays in zip(*parts)]

    return sharding.split_rows(run, len(starts))


def exit_probability(
    model: SdeModel,
    domain: ImplicitDomain,
    x0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> ExitEstimate:
    """Fraction of paths that leave the domain by the horizon, with a Wilson CI.

    Per-path streams are keyed by (seed, path index), so the estimate is
    bit-identical for any CPU count (see _simulate_rows). Paths run
    _n_steps(T, dt) steps, to the horizon round(T / dt) * dt, while the
    estimate reports T as given. Paths that overflow are counted in
    n_nonfinite and excluded from the exit count. x0 must be a finite vector
    of domain.dimension entries, and the model must have the domain's
    dimension.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, the domain needs ({domain.dimension},)")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0!r}")
    require_dimension(model, domain.dimension, "the domain")
    if signed_level(domain, x0) > 0.0:
        raise ImmediateExit(f"start point {x0!r} lies outside the domain")
    _, _, exited, nonfinite = _simulate_rows(
        model, domain, np.tile(x0, (n_paths, 1)), T, dt, seed
    )
    exits = int(exited.sum())
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
        n_nonfinite=int(nonfinite.sum()),
    )


def final_states(
    model: SdeModel,
    starts,
    T: float,
    dt: float,
    seed: int,
) -> np.ndarray:
    """States at the horizon for a batch of start points, without exit stops.

    Row i uses the stream keyed by (seed, i), on any CPU (see _simulate_rows).
    starts must be an (m, n) array for a model of dimension n.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2:
        raise ValueError(f"starts has shape {starts.shape}, need (m, {model.dimension})")
    require_dimension(model, starts.shape[1], "the start points")
    finals, _, _, nonfinite = _simulate_rows(model, None, starts, T, dt, seed)
    if nonfinite.any():
        raise NonFinite("a path overflowed before the horizon")
    return finals


def dt_convergence_study(
    model: SdeModel,
    domain: ImplicitDomain,
    x0,
    T: float,
    dt_list: Sequence[float],
    n_paths: int,
    seed: int,
) -> list[ExitEstimate]:
    """exit_probability at each dt in a decreasing list, common path count.

    Separates genuine exits from discretization artifacts: an estimate that
    shrinks as dt decreases indicates scheme-induced leakage.
    """
    arr = _check_dt_list(T, dt_list)
    return [
        exit_probability(model, domain, x0, T, float(dt), n_paths, seed)
        for dt in arr
    ]
