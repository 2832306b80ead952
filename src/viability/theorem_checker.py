"""Boundary sufficient conditions for invariance, evaluated over an eps sweep.

Two boundary conditions are estimated on sampled offset surfaces S_eps and
decided by explicit finite rules:

- tangency: sup over noise channels and boundary samples of |b_j . nu| must
  vanish faster than eps (decided by a log-log slope fit plus an absolute
  threshold at the smallest eps);
- inward pressure: the drift projected on the outward normal, corrected by
  -1/2 sum_k nu^T (Db_k) b_k, must stay below a negative margin as eps shrinks.

No finite computation certifies a limit, so the decision parameters
(delta_abs, delta_margin, p_min) are recorded in the report and every verdict
is a deterministic, re-checkable function of the stored profiles.

Each sup is the sampled maximum sharpened by local ascent along S_eps from
the best samples. theorem1_report draws the offset samples once, as one
(points, normals) pair of arrays per eps, and passes them to both
conditions. The sweep runs as arrays: each eps evaluates its samples in one
batch, and the ascents from every start of every eps run in lockstep as two
plain loops, sweeps and, within a sweep, moves along the tangent basis; each
move is one batched projection, one batch of normals and one batched
evaluation of the functional. Every dot product is a row dot (rows.row_dot)
and every running max keeps Python's max, so the sups have the bits of
ascents run one start and one point at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import geometry, sde_model
from .errors import ViabilityError
from .geometry import ImplicitDomain
from .rows import row_dot, row_norm
from .sde_model import RegularityReport, SdeModel
from .seeds import child_seed

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

REFINE_TOP = 5
REFINE_STEPS = 20


@dataclass
class CheckerConfig:
    eps_grid: Sequence[float] = (0.2, 0.1, 0.05, 0.025)
    samples_per_eps: int = 200
    delta_abs: float = 0.05
    delta_margin: float = 1e-3
    p_min: float = 1.5
    time_grid: Sequence[float] = (0.0,)
    seed: int = 12345
    lipschitz_L: float = 10.0
    regularity_pairs: int = 200


@dataclass
class ConditionReport:
    """Profiles, decision parameters, and verdicts; self-contained in the
    sense that re-running the verdict rules on the stored profiles reproduces
    the stored verdicts exactly."""

    eps_grid: list
    cond2_sup: list
    cond2_ratio: list
    cond2_verdict: str
    cond3_sup: list
    cond3_verdict: str
    delta_abs: float
    delta_margin: float
    p_min: float
    samples_per_eps: int
    time_grid: list
    seed: int
    regularity: RegularityReport | None = None
    invariance_predicted: bool | None = None
    errors: list = field(default_factory=list)


def _tangent_bases(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent bases at the unit normals N, one per row.

    Gram-Schmidt on the coordinate axes e_0, e_1, ... projected off the
    normal; an axis whose remainder is not longer than 1e-8 is skipped, and
    a row stops at n - 1 vectors. Returns the (m, n - 1, n) bases and the
    number of vectors of each row (n - 1 for every unit normal). Each row
    takes the operations, in the order, of Gram-Schmidt on its normal alone,
    and every dot product is a row dot, so a basis has the bits of that
    normal's basis.
    """
    m, n = N.shape
    basis = np.zeros((m, n - 1, n))
    count = np.zeros(m, dtype=int)
    for i in range(n):
        rows = np.flatnonzero(count < n - 1)
        if not rows.size:
            break
        nu = N[rows]
        e = np.zeros_like(nu)
        e[:, i] = 1.0
        t = e - row_dot(e, nu)[:, None] * nu
        for j in range(i):  # the vectors found so far, in order
            has = count[rows] > j
            b = basis[rows[has], j]
            t[has] = t[has] - row_dot(t[has], b)[:, None] * b
        norm = row_norm(t)
        keep = norm > 1e-8
        found = rows[keep]
        basis[found, count[found]] = t[keep] / norm[keep, None]
        count[found] += 1
    return basis, count


def _offset_samples(
    domain: ImplicitDomain, eps_grid: Sequence[float], samples_per_eps: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The offset samples of each eps, drawn from child_seed(seed, e_idx):
    one (points, normals) pair of arrays per eps.

    Both conditions take their sups over these same samples, so a report
    draws them once.
    """
    return [
        geometry.sample_offset_boundary(domain, eps, samples_per_eps, child_seed(seed, e_idx))
        for e_idx, eps in enumerate(eps_grid)
    ]


def _ascend(
    domain: ImplicitDomain,
    eps: np.ndarray,
    scale: np.ndarray,
    points: np.ndarray,
    normals: np.ndarray,
    values: np.ndarray,
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Local ascent along S_eps from each start row, every walk in lockstep.

    Walk w starts at the sample (points[w], normals[w]) of value values[w]
    and walks on S_eps for its eps[w], with a step of 0.5 scale[w]. Each of
    up to REFINE_STEPS sweeps takes a tangent basis at every live walk's
    sample, then makes the moves of the sweep in order: move i goes along
    basis vector i // 2 with sign (-1)^i and is re-projected onto S_eps, and
    a move that raises the objective becomes the walk's sample at once.
    After the sweep, a walk without a gain halves its step and ends once
    the step falls below 1e-6 scale[w]. A walk without tangent directions
    (1-D) makes no moves. Returns each walk's best value.

    Each move is one project_to_boundary_batch call, one batch of normals
    and one objective call over the live walks that have its basis vector,
    in walk order. A row of each depends on that row alone, so every walk
    takes the moves, and reaches the bits, of the same walk run on its own;
    an error names the first offending row in walk order.
    """
    points, normals, values = points.copy(), normals.copy(), values.copy()
    step = 0.5 * scale
    live = np.arange(len(values))
    for _ in range(REFINE_STEPS):
        if not live.size:
            break
        basis, count = _tangent_bases(normals[live])
        improved = np.zeros(len(values), dtype=bool)
        for move in range(2 * basis.shape[1]):
            has = count > move // 2
            rows = live[has]
            sgn = -1.0 if move % 2 else 1.0
            feet, _ = geometry.project_to_boundary_batch(
                domain, points[rows] + (sgn * step[rows])[:, None] * basis[has, move // 2]
            )
            nu = geometry.outward_normal_batch(domain, feet)
            cand = feet + eps[rows, None] * nu
            val = objective(cand, nu)
            up = val > values[rows]
            gain = rows[up]
            points[gain], normals[gain], values[gain] = cand[up], nu[up], val[up]
            improved[gain] = True
        flat = live[~improved[live]]
        step[flat] *= 0.5
        live = live[step[live] >= 1e-6 * scale[live]]
    return values


def _profile(
    domain: ImplicitDomain,
    eps_grid: Sequence[float],
    stages: Sequence[tuple[np.ndarray, np.ndarray]],
    time_grid: Sequence[float],
    pointwise: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
) -> list[float]:
    """Per-eps sup of the functional over the times, sharpened by local
    ascent from the REFINE_TOP best samples of each eps.

    pointwise(s, Z, N) evaluates the functional at time s on the rows of the
    points Z and their normals N. The max over the times keeps Python's max:
    a time's value replaces the running one only when it is larger, so a
    NaN at the first time stays and a NaN at a later time never wins. Each
    eps evaluates its samples in one batch; the ascents from every start of
    every eps then run in lockstep (_ascend). Deterministic, and a sup is
    never below its sampled maximum.
    """
    if not len(time_grid):
        raise ValueError("time_grid must not be empty")

    def objective(Z, N):
        best = None
        for s in time_grid:
            v = pointwise(s, Z, N)
            best = v if best is None else np.where(v > best, v, best)
        return best

    reach = 0.05 * domain.bounding_radius
    sups, owner, starts = [], [], []
    for e_idx, (eps, (Z, N)) in enumerate(zip(eps_grid, stages)):
        values = objective(Z, N)
        sups.append(float(np.max(values)))
        for start in np.argsort(values)[::-1][:REFINE_TOP]:
            owner.append(e_idx)
            starts.append((eps, max(eps, reach), Z[start], N[start], values[start]))
    eps, scale, points, normals, values = (np.array(col, dtype=float) for col in zip(*starts))
    best = _ascend(domain, eps, scale, points, normals, values, objective)
    for e_idx, current in zip(owner, best):
        sups[e_idx] = max(sups[e_idx], float(current))
    return sups


def _validate_grid(eps_grid: Sequence[float]):
    if len(eps_grid) < 3:
        raise ValueError("eps_grid needs at least 3 entries")
    arr = np.asarray(eps_grid, dtype=float)
    if np.any(arr <= 0) or np.any(np.diff(arr) >= 0):
        raise ValueError("eps_grid must be positive and strictly decreasing")


def condition2_profile(
    model: SdeModel,
    domain: ImplicitDomain,
    eps_grid: Sequence[float],
    time_grid: Sequence[float],
    samples_per_eps: int,
    seed: int,
) -> list[float]:
    """Per-eps sup over samples, times, and noise channels of |b_j . nu|."""
    _validate_grid(eps_grid)
    stages = _offset_samples(domain, eps_grid, samples_per_eps, seed)
    return _profile(domain, eps_grid, stages, time_grid, _tangency(model))


def _tangency(model: SdeModel) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """The condition-2 functional on rows: max over channels of |b_j . nu|,
    0 without channels. The max keeps Python's max, as over the times."""

    def values(s, Z, N):
        b = model.diffusion(s, Z)
        best = np.zeros(len(Z))
        for k in range(b.shape[-1]):
            v = np.abs(row_dot(b[..., k], N))
            best = v if k == 0 else np.where(v > best, v, best)
        return best

    return values


def condition2_verdict(
    profile: Sequence[float],
    eps_grid: Sequence[float],
    delta_abs: float = 0.05,
    p_min: float = 1.5,
) -> str:
    """Decide whether the tangency profile behaves like o(eps).

    holds: every sup is at most delta_abs (identically tangent case), or the
    log-log least-squares slope is at least p_min and sup/eps at the smallest
    eps is at most delta_abs. fails: sup/eps stays at or above delta_abs and
    does not decrease as eps shrinks. Anything else is inconclusive.
    """
    sup = np.asarray(profile, dtype=float)
    eps = np.asarray(eps_grid, dtype=float)
    if sup.shape != eps.shape or sup.size < 3:
        raise ValueError("profile and eps_grid must align with >= 3 entries")

    if np.all(sup <= delta_abs):
        return VERDICT_HOLDS

    ratio = sup / eps
    positive = sup > 0.0
    if np.sum(positive) >= 2:
        slope = np.polyfit(np.log(eps[positive]), np.log(sup[positive]), 1)[0]
        if slope >= p_min and ratio[-1] <= delta_abs:
            return VERDICT_HOLDS

    nondecreasing = np.all(np.diff(ratio) >= -1e-9 * np.maximum(ratio[:-1], 1e-300))
    if np.all(ratio >= delta_abs) and nondecreasing:
        return VERDICT_FAILS
    return VERDICT_INCONCLUSIVE


def _pressure(model: SdeModel) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """The condition-3 functional on rows: a . nu - 1/2 sum_k nu^T (Db_k) b_k.

    Every coefficient, the Jacobian included, is one batch, and every product
    is a stacked matmul, so a row has the bits of that point evaluated alone.
    """

    def values(s, Z, N):
        a = model.drift(s, Z)
        jac = sde_model.diffusion_jacobian(model, s, Z)
        b = model.diffusion(s, Z)
        corr = np.zeros(len(Z))
        for k in range(b.shape[-1]):
            corr = corr + ((N[:, None, :] @ jac[:, k]) @ b[..., k, None])[:, 0, 0]
        return row_dot(a, N) - 0.5 * corr

    return values


def condition3_value(model: SdeModel, s: float, point, normal) -> float:
    """Drift pressure along the normal with the diffusion correction:
    a . nu - 1/2 sum_k nu^T (Db_k) b_k evaluated at the point."""
    Z = np.asarray(point, dtype=float)[None, :]
    N = np.asarray(normal, dtype=float)[None, :]
    return float(_pressure(model)(s, Z, N)[0])


def condition3_profile(
    model: SdeModel,
    domain: ImplicitDomain,
    eps_grid: Sequence[float],
    time_grid: Sequence[float],
    samples_per_eps: int,
    seed: int,
) -> list[float]:
    """Per-eps sup over samples and times of the condition-3 functional."""
    _validate_grid(eps_grid)
    stages = _offset_samples(domain, eps_grid, samples_per_eps, seed)
    return _profile(domain, eps_grid, stages, time_grid, _pressure(model))


def condition3_verdict(profile: Sequence[float], delta_margin: float = 1e-3) -> str:
    """holds when the sup at the two smallest eps sits below -delta_margin;
    fails when the smallest-eps sup reaches +delta_margin; else inconclusive."""
    sup = np.asarray(profile, dtype=float)
    if sup.size < 3:
        raise ValueError("profile needs >= 3 entries")
    if sup[-1] <= -delta_margin and sup[-2] <= -delta_margin:
        return VERDICT_HOLDS
    if sup[-1] >= delta_margin:
        return VERDICT_FAILS
    return VERDICT_INCONCLUSIVE


def _nonfinite_sups(condition: str, profile, eps_grid) -> list[str]:
    """One errors entry per eps whose sup is NaN or infinite: the model
    returned a non-finite coefficient at a sample, which the verdict alone
    does not name."""
    return [
        f"{condition}: non-finite sup at eps={float(e)}"
        for v, e in zip(profile, eps_grid)
        if not np.isfinite(v)
    ]


def theorem1_report(
    model: SdeModel, domain: ImplicitDomain, config: CheckerConfig | None = None
) -> ConditionReport:
    """Run the regularity spot check and both boundary conditions.

    The regularity check samples the box of half-width bounding_radius + 1
    around the domain center. Invariance is predicted only when the
    regularity check passes and both condition verdicts are holds. Both
    conditions take their sups over one draw of the offset samples, the one
    condition2_profile and condition3_profile each make alone. Failures
    inside one phase are recorded in the report and leave the other phases
    intact; a failed draw is recorded for both conditions, and a non-finite
    sup is recorded with its eps, its verdict unchanged.
    """
    cfg = config or CheckerConfig()
    sde_model.require_dimension(model, domain.dimension, "the domain")
    _validate_grid(cfg.eps_grid)

    report = ConditionReport(
        eps_grid=[float(e) for e in cfg.eps_grid],
        cond2_sup=[],
        cond2_ratio=[],
        cond2_verdict=VERDICT_INCONCLUSIVE,
        cond3_sup=[],
        cond3_verdict=VERDICT_INCONCLUSIVE,
        delta_abs=cfg.delta_abs,
        delta_margin=cfg.delta_margin,
        p_min=cfg.p_min,
        samples_per_eps=cfg.samples_per_eps,
        time_grid=[float(t) for t in cfg.time_grid],
        seed=cfg.seed,
    )

    try:
        r = domain.bounding_radius + 1.0
        report.regularity = sde_model.check_regularity(
            model,
            cfg.lipschitz_L,
            (domain.center - r, domain.center + r),
            cfg.regularity_pairs,
            child_seed(cfg.seed, 1001),
            times=cfg.time_grid,
        )
    except (ViabilityError, ValueError) as exc:
        report.errors.append(f"regularity: {exc}")

    # Both conditions take their sups over the same offset samples.
    try:
        stages = _offset_samples(domain, cfg.eps_grid, cfg.samples_per_eps, cfg.seed)
    except (ViabilityError, ValueError) as exc:
        report.errors += [f"condition2: {exc}", f"condition3: {exc}"]
    else:
        try:
            prof2 = _profile(domain, cfg.eps_grid, stages, cfg.time_grid, _tangency(model))
            report.cond2_sup = [float(v) for v in prof2]
            report.cond2_ratio = [float(v / e) for v, e in zip(prof2, cfg.eps_grid)]
            report.cond2_verdict = condition2_verdict(
                prof2, cfg.eps_grid, cfg.delta_abs, cfg.p_min
            )
            report.errors += _nonfinite_sups("condition2", prof2, cfg.eps_grid)
        except (ViabilityError, ValueError) as exc:
            report.errors.append(f"condition2: {exc}")

        try:
            prof3 = _profile(domain, cfg.eps_grid, stages, cfg.time_grid, _pressure(model))
            report.cond3_sup = [float(v) for v in prof3]
            report.cond3_verdict = condition3_verdict(prof3, cfg.delta_margin)
            report.errors += _nonfinite_sups("condition3", prof3, cfg.eps_grid)
        except (ViabilityError, ValueError) as exc:
            report.errors.append(f"condition3: {exc}")

    report.invariance_predicted = bool(
        report.regularity is not None
        and report.regularity.passed
        and report.cond2_verdict == VERDICT_HOLDS
        and report.cond3_verdict == VERDICT_HOLDS
    )
    return report
