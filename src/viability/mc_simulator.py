"""Euler-Maruyama simulation, first-exit detection, and exit-probability CIs.

Every path owns a counter-based random stream keyed by (seed, path index), and
increments are drawn in fixed windows of WINDOW steps, each only up to the
horizon: a shorter last window draws the leading rows of the full window, so
every increment equals the one a full-window draw gives. A block derives the
Philox keys of all its paths in one vectorised hash (seeds.path_keys), and a
model with no noise channels draws no increments at all. Every time step runs in
one block loop, _simulate_block, and a path simulated alone is a block of one,
so it matches the same path inside any batch bit for bit by construction.
exit_probability and final_states cut their paths into spans and run them on
every CPU in the process's affinity mask: the caller simulates the first
share of spans and forked children the rest (_simulate_spans). Estimates are
bit-identical for any block size and any CPU count, and any single path can
be replayed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ImmediateExit, NonFinite
from .geometry import ImplicitDomain, signed_level
from .sde_model import SdeModel
from .seeds import path_generator, path_keys

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


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, z = k / n, Z95
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
    keyed by (seed, first_index + i). The block derives all its paths' keys
    at once (seeds.path_keys: what Philox(SeedSequence(seed, (index,)))
    derives), holds one Philox generator and re-keys it for each path: the
    path's key with counter 0 on its first window, the state it left off at
    on a later one. Each window draws a (width, n) array per live path,
    width = min(WINDOW, steps left to the horizon), into one (live, width, n)
    array; these are the leading rows of the full (WINDOW, n) window, so the
    stream layout does not depend on the horizon. A model with no noise
    channels (k = 0) reads no increments, so its block derives no keys and
    draws nothing: dW is (live, width, 0). A path stops after the first
    step that overflows or leaves the domain (never when domain is None).
    Returns per-path arrays (states, steps, exited, nonfinite): the state and
    step count at the stop or the horizon, and which of the two stops ended
    the path.
    """
    n_steps = _n_steps(T, dt)
    B, n = starts.shape
    k = model.diffusion(0.0, starts[:1]).shape[-1]  # noise channels
    gen = path_generator(seed, first_index)
    fresh = gen.bit_generator.state  # counter 0; its key is swapped per path
    keys = path_keys(seed, np.arange(first_index, first_index + B)) if k else None
    resume = {}  # path -> its Philox state at the start of the next window
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
        dW = np.empty((live.size, width, n if k else 0))
        for r, i in enumerate(live.tolist() if k else ()):  # k = 0: no draws
            if start:
                gen.bit_generator.state = resume.pop(i)
            else:
                fresh["state"]["key"] = keys[i]
                gen.bit_generator.state = fresh
            gen.standard_normal(out=dW[r])
            if start + width < n_steps:
                resume[i] = gen.bit_generator.state
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


def _simulate_spans(model, domain, starts, T, dt, seed, block):
    """_simulate_block over every row of starts, on every CPU the process may use.

    With w = len(os.sched_getaffinity(0)), the rows are cut into spans of
    min(block, ceil(m / w)) paths and the spans into at most w contiguous
    shares. The caller simulates the first share itself and forks one child
    per later share, which pickles its per-path arrays back through a pipe.
    Row i keeps path index i wherever it runs, so the result is bit-identical
    for any w; no rows give empty arrays and fork nothing. block must be at
    least 1. Every child is reaped before this returns or raises, and an
    exception raised in a child is raised again here. Children are forked
    only where os.fork and os.sched_getaffinity exist (Linux); elsewhere, or
    with one span, everything runs in the caller. The children are forked,
    not spawned, because a model's coefficients are closures that pickle
    cannot send to a fresh interpreter. Python 3.12 and later warn
    (DeprecationWarning) when fork() is called in a process that runs other
    threads.
    """
    import os
    import pickle
    import signal

    if block < 1:
        raise ValueError("block must be >= 1")
    m = starts.shape[0]
    if not m:  # nothing to simulate and nothing to fork
        _n_steps(T, dt)
        return [starts.copy(), np.zeros(0, int), np.zeros(0, bool), np.zeros(0, bool)]
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if can_fork else 1
    span = min(block, -(-m // cpus))
    spans = [(a, min(a + span, m)) for a in range(0, m, span)]
    k = min(cpus, len(spans))
    shares = [spans[j * len(spans) // k : (j + 1) * len(spans) // k] for j in range(k)]

    def run(share):
        parts = [
            _simulate_block(model, domain, starts[a:b], T, dt, seed, a)
            for a, b in share
        ]
        return [np.concatenate(arrays) for arrays in zip(*parts)]

    # The caller simulates the first share itself instead of leaving every
    # span to children. Freeing its 12 MB windows raises glibc's dynamic mmap
    # threshold (and the trim threshold with it), so the 100-400 KB
    # temporaries of later stages come from the heap instead of fresh,
    # page-faulted mappings: 100 probe points on the 3-D unit ball took
    # 0.29-0.50 s (37,700 page faults) in a fresh process and 0.22-0.32 s
    # (680 faults) after one 12 MB array was allocated and freed.
    children = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child never returns from this branch
                try:
                    os.close(r)
                    try:
                        message = pickle.dumps((True, run(share)))
                    except BaseException as exc:  # sent to the caller to raise
                        try:
                            message = pickle.dumps((False, exc))
                        except Exception:  # an exception pickle cannot carry
                            message = pickle.dumps((False, RuntimeError(repr(exc))))
                    with os.fdopen(w, "wb") as fh:
                        fh.write(message)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [run(shares[0])]
        for pid, fh in children:
            try:
                ok, value = pickle.load(fh)
            except EOFError:
                raise RuntimeError(f"simulation child {pid} sent no result") from None
            if not ok:
                raise value
            results.append(value)
    finally:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [np.concatenate(arrays) for arrays in zip(*results)]


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
) -> ExitEstimate:
    """Fraction of paths that leave the domain by the horizon, with a Wilson CI.

    Per-path streams are keyed by (seed, path index), so the estimate is
    bit-identical for any block size and any CPU count (see _simulate_spans).
    Paths that overflow are counted in n_nonfinite and excluded from the exit
    count.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    if signed_level(domain, x0) > 0.0:
        raise ImmediateExit(f"start point {x0!r} lies outside the domain")
    _, _, exited, nonfinite = _simulate_spans(
        model, domain, np.tile(x0, (n_paths, 1)), T, dt, seed, block
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
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """States at the horizon for a batch of start points, without exit stops.

    Row i uses the stream keyed by (seed, i), on any CPU (see _simulate_spans).
    """
    starts = np.asarray(starts, dtype=float)
    finals, _, _, nonfinite = _simulate_spans(model, None, starts, T, dt, seed, block)
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
    block: int = DEFAULT_BLOCK,
) -> list[ExitEstimate]:
    """exit_probability at each dt in a decreasing list, common path count.

    Separates genuine exits from discretization artifacts: an estimate that
    shrinks as dt decreases indicates scheme-induced leakage.
    """
    arr = _check_dt_list(T, dt_list)
    return [
        exit_probability(model, domain, x0, T, float(dt), n_paths, seed, block)
        for dt in arr
    ]
