"""Direct probes of the generator inequality and the expectation bounds.

The infinitesimal generator A = a . grad + 1/2 sum sigma_ij d^2/dx_i dx_j is
applied to the smoothed indicator eta_eps. On the shell between K_eps and
K_3eps the sign of A eta_eps is what separates inward-pressing dynamics from
escaping ones, and the shell probe samples it directly. A point's value
depends on that point alone, so the probe splits its points over the CPUs,
none under MIN_POINTS_PER_SHARE a range (sharding.split_rows), with the same
bits on any CPU count. Two expectation-level checks accompany it: the time
monotonicity of E eta_eps along simulated paths, and the sign and eps-decay
of E eta_eps(cloud) minus the in-domain fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry, mc_simulator, mollifier, rows, sde_model, sharding
from .errors import ImmediateExit
from .geometry import ImplicitDomain
from .mollifier import SmoothedIndicator
from .sde_model import SdeModel
from .seeds import child_seed, generator

SHELL_EDGE_GUARD = 1e-6  # keeps sampled distances strictly inside (eps, 3 eps)
# Fewest probe points worth a forked child. On a 2-vCPU Xeon, forking and
# reaping a child costs about 3 ms, and a serial probe costs about 0.35 ms a
# point on the 2-D unit ball and 1.6 ms on the 3-D one (24 nodes per axis,
# 32 to 200 points). Split in two (10 alternated pairs in one process), the
# 3-D ball's 16-point shares broke even and 32-point ones ran in 0.62 of the
# serial time, so 32 holds there. On the 2-D ball a split ran 8-9 ms slower
# than serial at every size from 32 to 200 points: the constant counts
# points, not their cost, and no one count suits both balls. A 10-point
# probe of the 1.5 x 1 ellipse that forked ran slower than one that did not.
MIN_POINTS_PER_SHARE = 32


@dataclass(frozen=True)
class ShellProbeResult:
    eps: float
    points: np.ndarray
    distances: np.ndarray
    region_tags: tuple
    values: np.ndarray
    min_value: float
    tolerance_used: float
    passed: bool
    seed: int


def apply_generator(model: SdeModel, ind: SmoothedIndicator, s: float, x) -> float:
    """A eta_eps(x) = a . grad eta + 1/2 trace(sigma Hess eta).

    Exactly zero outside the support of the indicator derivatives (beyond
    K_3eps plus half a quadrature cell) and quadrature-level zero deep inside
    K_eps where eta is constant.
    """
    _, grad, hess = mollifier.eta_with_derivatives(ind, x)
    a = model.drift(s, np.asarray(x, dtype=float))
    sig = sde_model.sigma(model, s, x)
    return float(np.dot(a, grad) + 0.5 * np.trace(sig @ hess))


def default_shell_tolerance(
    model: SdeModel,
    points: np.ndarray,
    s: float,
    eps: float,
    factor: float = 1.0,
) -> float:
    """Tolerance scaled to the eps^-2 growth of indicator second derivatives.

    Uses the sampled sup of |a| and the spectral norm of sigma over the probe
    points; a fixed absolute tolerance would spuriously fail at small eps.
    The points are evaluated as one batch, each norm with the bits of that
    point alone, and a NaN norm is passed over as a running Python max
    would.
    """
    points = np.asarray(points, dtype=float)
    norm_a = rows.row_norm(model.drift(s, points))
    norm_sig = np.linalg.norm(sde_model.sigma(model, s, points), 2, axis=(-2, -1))
    sup_a = float(np.fmax.reduce(norm_a, initial=0.0))
    sup_sig = float(np.fmax.reduce(norm_sig, initial=0.0))
    return 1e-3 * (sup_a + sup_sig) / (eps * eps) * factor


def shell_sign_check(
    model: SdeModel,
    domain: ImplicitDomain,
    eps: float,
    s: float,
    n_points: int,
    seed: int,
    tol_shell_factor: float = 1.0,
    nodes_per_axis: int = mollifier.DEFAULT_NODES_PER_AXIS,
    qmc_points: int = mollifier.DEFAULT_QMC_POINTS,
) -> ShellProbeResult:
    """Sample the shell and test min A eta_eps >= -tolerance.

    Probe points combine area-weighted boundary directions with distances
    drawn uniformly from (eps, 3 eps), so every point carries the shell region
    tag. The tolerance is default_shell_tolerance scaled by tol_shell_factor.
    The result is bit-identical for a fixed seed on any CPU count. The model
    must have the domain's dimension.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    sde_model.require_dimension(model, domain.dimension, "the domain")
    feet, normals = geometry.sample_offset_boundary(
        domain, 0.0, n_points, child_seed(seed, 0)
    )
    u = generator(seed, 1).random(n_points)
    dists = eps * (1.0 + SHELL_EDGE_GUARD + 2.0 * (1.0 - 2.0 * SHELL_EDGE_GUARD) * u)

    points = feet + dists[:, None] * normals
    tags = tuple(geometry.offset_membership(domain, p, eps) for p in points)
    bad = [t for t in tags if t != geometry.REGION_SHELL]
    if bad:
        raise ValueError(f"probe produced off-shell points: {set(bad)}")

    ind = SmoothedIndicator(
        domain, eps, nodes_per_axis=nodes_per_axis, qmc_points=qmc_points
    )

    def run(a, b):
        return [np.array([apply_generator(model, ind, s, p) for p in points[a:b]])]

    (values,) = sharding.split_rows(run, n_points, MIN_POINTS_PER_SHARE)

    tol = default_shell_tolerance(model, points, s, eps, tol_shell_factor)
    min_value = float(values.min())
    return ShellProbeResult(
        eps=float(eps),
        points=points,
        distances=dists,
        region_tags=tags,
        values=values,
        min_value=min_value,
        tolerance_used=float(tol),
        passed=bool(min_value >= -tol),
        seed=int(seed),
    )


def sample_initial_cloud(
    domain: ImplicitDomain, cloud_cfg: dict | None, count: int, seed: int
) -> np.ndarray:
    """count start points inside K, as a (count, n) array: a fixed point x of
    dimension n, an explicit list of count points, or a uniform ball (default:
    radius half the inner radius around the center). A missing x or points,
    or any other shape, raises ValueError."""
    cfg = cloud_cfg or {}
    kind = cfg.get("kind", "uniform_ball")
    required = {"point": "x", "points": "points"}.get(kind)
    if required is not None and required not in cfg:
        raise ValueError(f"initial cloud {kind!r} needs the key {required!r}")
    if kind == "point":
        x = np.asarray(cfg["x"], dtype=float)
        if x.shape != (domain.dimension,):
            raise ValueError(
                f"initial cloud {kind!r} has x of shape {x.shape}, need ({domain.dimension},)"
            )
        pts = np.tile(x, (count, 1))
    elif kind == "points":
        pts = np.asarray(cfg["points"], dtype=float)
    elif kind == "uniform_ball":
        center = np.asarray(
            cfg.get("center", domain.center), dtype=float
        )
        radius = float(cfg.get("radius", 0.5 * domain.inner_radius))
        rng = generator(seed, 2)
        n = center.size  # a center of another dimension is refused below

        def draw():
            cand = rng.uniform(-radius, radius, size=(256, n))
            return cand[np.sum(cand * cand, axis=1) <= radius * radius]

        pts = center + geometry.rejection_fill(count, n, draw)
    else:
        raise ValueError(f"unknown initial cloud kind: {kind!r}")
    if pts.shape != (count, domain.dimension):
        raise ValueError(
            f"initial cloud {kind!r} has shape {pts.shape}, "
            f"need ({count}, {domain.dimension})"
        )
    levels = np.asarray(domain.level_fn(pts))
    if np.any(levels > 0.0):
        raise ImmediateExit("initial cloud is not fully inside the domain")
    return pts


def lemma1_gap(
    model: SdeModel,
    domain: ImplicitDomain,
    eps: float,
    t_final: float,
    dt: float,
    n_paths: int,
    seed: int,
    initial_cloud: dict | None = None,
    nodes_per_axis: int = mollifier.DEFAULT_NODES_PER_AXIS,
) -> tuple[float, float]:
    """Mean eta_eps at the horizon minus mean eta_eps at time zero.

    The expectation-monotonicity premise says this gap is nonnegative for
    dynamics that keep the domain invariant. Paths run to the horizon without
    exit stops. Returns (gap, standard error of the paired differences).
    """
    starts = sample_initial_cloud(domain, initial_cloud, n_paths, seed)
    finals = mc_simulator.final_states(model, starts, t_final, dt, seed)
    ind = SmoothedIndicator(domain, eps, nodes_per_axis=nodes_per_axis)
    eta0 = np.array([mollifier.eta(ind, x) for x in starts])
    etaT = np.array([mollifier.eta(ind, x) for x in finals])
    diff = etaT - eta0
    gap = float(diff.mean())
    stderr = float(diff.std(ddof=1) / np.sqrt(len(diff))) if len(diff) > 1 else 0.0
    return gap, stderr


def statement5_gap(
    ind: SmoothedIndicator, cloud: Sequence, domain: ImplicitDomain
) -> float:
    """E eta_eps(cloud) minus the fraction of the cloud inside K.

    Nonnegative up to quadrature noise, because eta_eps dominates the
    indicator of K; shrinking eps tightens it toward zero on a fixed cloud.
    """
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] == 0:
        raise ValueError("cloud must be nonempty")
    mean_eta = mollifier.expected_eta(ind, pts)
    levels = np.asarray(domain.level_fn(pts))
    inside_fraction = float(np.mean(levels <= 0.0))
    return mean_eta - inside_fraction
