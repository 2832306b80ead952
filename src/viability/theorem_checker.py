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
the best samples. theorem1_report draws the offset samples once and passes
them to both conditions. Within a profile the ascents from every start of
every eps run in lockstep, one batched projection per round; since each row
of a batched projection depends on that row alone, the sups have the same
bits as ascents run one start at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Generator, Sequence

import numpy as np

from . import geometry, sde_model
from .errors import ViabilityError
from .geometry import BoundarySample, ImplicitDomain
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


def _tangent_basis(nu: np.ndarray) -> list[np.ndarray]:
    n = nu.shape[0]
    basis = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        t = e - np.dot(e, nu) * nu
        for b in basis:
            t = t - np.dot(t, b) * b
        norm = np.linalg.norm(t)
        if norm > 1e-8:
            basis.append(t / norm)
        if len(basis) == n - 1:
            break
    return basis


def _offset_samples(
    domain: ImplicitDomain, eps_grid: Sequence[float], samples_per_eps: int, seed: int
) -> list[list[BoundarySample]]:
    """The offset samples of each eps, drawn from child_seed(seed, e_idx).

    Both conditions take their sups over these same samples, so a report
    draws them once.
    """
    return [
        geometry.sample_offset_boundary(domain, eps, samples_per_eps, child_seed(seed, e_idx))
        for e_idx, eps in enumerate(eps_grid)
    ]


def _walk(
    domain: ImplicitDomain,
    eps: float,
    sample: BoundarySample,
    current: float,
    scale: float,
    objective: Callable[[BoundarySample], float],
) -> Generator[np.ndarray, np.ndarray, float]:
    """Local ascent along S_eps from one start sample, as a generator.

    The walk moves along tangent directions with a shrinking step and
    re-projects onto S_eps after each move; the tangent basis is taken from
    the sample at the start of each sweep. It yields each move's point, is
    sent back that point's boundary foot, and returns its best value. A walk
    without tangent directions (1-D) yields nothing.
    """
    step = 0.5 * scale
    for _ in range(REFINE_STEPS):
        improved = False
        for t in _tangent_basis(sample.normal):
            for sgn in (1.0, -1.0):
                foot = yield sample.point + sgn * step * t
                nu = geometry.outward_normal(domain, foot)
                cand = BoundarySample(point=foot + eps * nu, normal=nu)
                val = objective(cand)
                if val > current:
                    sample, current, improved = cand, val, True
        if not improved:
            step *= 0.5
            if step < 1e-6 * scale:
                break
    return current


def _profile(
    domain: ImplicitDomain,
    eps_grid: Sequence[float],
    stages: Sequence[Sequence[BoundarySample]],
    time_grid: Sequence[float],
    pointwise: Callable[[float, BoundarySample], float],
) -> list[float]:
    """Per-eps sup of the pointwise functional over the times, sharpened by
    local ascent from the REFINE_TOP best samples of each eps.

    Every start of every eps is an independent walk, and the walks run in
    lockstep: each round takes the next move of every live walk and projects
    all of them in one project_to_boundary_batch call. A row of that batch
    depends on that row alone, so each walk sees the same feet, and each sup
    the same bits, as a walk run on its own. Deterministic, and a sup is
    never below its sampled maximum.
    """
    objective = lambda smp: max(pointwise(s, smp) for s in time_grid)
    reach = 0.05 * domain.bounding_radius
    sups, starts, walks = [], [], []
    for e_idx, (eps, samples) in enumerate(zip(eps_grid, stages)):
        values = np.array([objective(smp) for smp in samples])
        sups.append(float(np.max(values)))
        scale = max(eps, reach)
        for start in np.argsort(values)[::-1][:REFINE_TOP]:
            starts.append(e_idx)
            walks.append(
                _walk(domain, eps, samples[start], float(values[start]), scale, objective)
            )

    results = [None] * len(walks)
    live, feet = list(enumerate(walks)), [None] * len(walks)
    while live:
        moved, points = [], []
        for (w_idx, walk), foot in zip(live, feet):
            try:
                points.append(walk.send(foot))
            except StopIteration as done:
                results[w_idx] = done.value
            else:
                moved.append((w_idx, walk))
        live = moved
        if points:
            feet, _ = geometry.project_to_boundary_batch(domain, np.array(points))

    for e_idx, current in zip(starts, results):
        sups[e_idx] = max(sups[e_idx], current)
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


def _tangency(model: SdeModel) -> Callable[[float, BoundarySample], float]:
    """The condition-2 functional: max over channels of |b_j . nu|."""

    def pointwise(s, smp):
        b = model.diffusion(s, smp.point)
        return max(
            (abs(float(np.dot(b[:, k], smp.normal))) for k in range(b.shape[-1])),
            default=0.0,
        )

    return pointwise


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


def condition3_value(
    model: SdeModel, domain: ImplicitDomain, s: float, sample: BoundarySample
) -> float:
    """Drift pressure along the normal with the diffusion correction:
    a . nu - 1/2 sum_k nu^T (Db_k) b_k evaluated at the sample point."""
    z, nu = sample.point, sample.normal
    a = model.drift(s, z)
    jac = sde_model.diffusion_jacobian(model, s, z)
    b = model.diffusion(s, z)
    corr = 0.0
    for k in range(b.shape[-1]):
        corr += float(nu @ jac[k] @ b[:, k])
    return float(np.dot(a, nu)) - 0.5 * corr


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
    pressure = partial(condition3_value, model, domain)
    return _profile(domain, eps_grid, stages, time_grid, pressure)


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
    intact; a failed draw is recorded for both conditions.
    """
    cfg = config or CheckerConfig()
    if model.dimension != domain.dimension:
        raise ValueError("model and domain dimensions differ")
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
        except (ViabilityError, ValueError) as exc:
            report.errors.append(f"condition2: {exc}")

        try:
            pressure = partial(condition3_value, model, domain)
            prof3 = _profile(domain, cfg.eps_grid, stages, cfg.time_grid, pressure)
            report.cond3_sup = [float(v) for v in prof3]
            report.cond3_verdict = condition3_verdict(prof3, cfg.delta_margin)
        except (ViabilityError, ValueError) as exc:
            report.errors.append(f"condition3: {exc}")

    report.invariance_predicted = bool(
        report.regularity is not None
        and report.regularity.passed
        and report.cond2_verdict == VERDICT_HOLDS
        and report.cond3_verdict == VERDICT_HOLDS
    )
    return report
