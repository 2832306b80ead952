"""Implicit-surface domains, offset neighborhoods, normals, and boundary sampling.

A domain K is represented by a smooth level function Q with K = {x : Q(x) <= 0}.
Offset neighborhoods K_eps are true Euclidean neighborhoods (unions of balls of
radius eps around points of K), realized through closest-point projection onto
the boundary; for non-spherical domains this differs from the level-set offset
{Q <= eps}, and the Euclidean definition is the one used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateGradient, NoConvergence

GRAD_TOLERANCE = 1e-12
LEVEL_TOLERANCE = 1e-10
PROJECT_MAX_ITER = 100
PROJECT_TOL = 1e-12

REGION_INSIDE = "inside_K"
REGION_K_EPS = "in_K_eps"
REGION_SHELL = "in_shell_K3eps"
REGION_OUTSIDE = "outside"


@dataclass(frozen=True)
class ImplicitDomain:
    """Compact domain {Q <= 0} with analytic level derivatives.

    Built-in kinds: ball, ellipsoid, even_p_norm_ball. The level function of a
    ball is the exact signed Euclidean distance; the other kinds use smooth
    polynomial levels and reach the boundary through projection.
    """

    dimension: int
    kind: str
    center: np.ndarray
    level_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    hessian_fn: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundarySample:
    """A point at prescribed distance from K together with its outward normal."""

    point: np.ndarray
    normal: np.ndarray
    offset: float


def ball(center, radius: float) -> ImplicitDomain:
    """Ball of given radius; Q is the exact signed distance |x - c| - r."""
    c = np.asarray(center, dtype=float)
    n = c.shape[0]
    r = float(radius)
    if r <= 0.0:
        raise ValueError("radius must be positive")

    def level(x):
        u = np.asarray(x, dtype=float) - c
        q = np.linalg.norm(u, axis=-1) - r
        return float(q) if q.ndim == 0 else q

    def grad(x):
        u = np.asarray(x, dtype=float) - c
        nu = np.linalg.norm(u)
        if nu < GRAD_TOLERANCE:
            return np.zeros(n)
        return u / nu

    def hess(x):
        u = np.asarray(x, dtype=float) - c
        nu = np.linalg.norm(u)
        if nu < GRAD_TOLERANCE:
            return np.zeros((n, n))
        uhat = u / nu
        return (np.eye(n) - np.outer(uhat, uhat)) / nu

    return ImplicitDomain(n, "ball", c, level, grad, hess, {"radius": r})


def ellipsoid(center, semiaxes) -> ImplicitDomain:
    """Axis-aligned ellipsoid sum((x_i - c_i)^2 / a_i^2) <= 1."""
    c = np.asarray(center, dtype=float)
    a = np.asarray(semiaxes, dtype=float)
    if np.any(a <= 0.0):
        raise ValueError("semiaxes must be positive")
    n = c.shape[0]
    inv2 = 1.0 / (a * a)

    def level(x):
        u = np.asarray(x, dtype=float) - c
        q = np.sum(u * u * inv2, axis=-1) - 1.0
        return float(q) if q.ndim == 0 else q

    def grad(x):
        u = np.asarray(x, dtype=float) - c
        return 2.0 * u * inv2

    def hess(x):
        return 2.0 * np.diag(inv2)

    return ImplicitDomain(n, "ellipsoid", c, level, grad, hess, {"semiaxes": a})


def even_p_norm_ball(center, radius: float, p: int) -> ImplicitDomain:
    """Superellipsoid sum((x_i - c_i)^p) <= r^p for an even integer p >= 2.

    Even powers keep the level polynomial and smooth; odd or fractional p is
    rejected.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    c = np.asarray(center, dtype=float)
    r = float(radius)
    if r <= 0.0:
        raise ValueError("radius must be positive")
    n = c.shape[0]

    def level(x):
        u = np.asarray(x, dtype=float) - c
        q = np.sum(u**p, axis=-1) - r**p
        return float(q) if q.ndim == 0 else q

    def grad(x):
        u = np.asarray(x, dtype=float) - c
        return p * u ** (p - 1)

    def hess(x):
        u = np.asarray(x, dtype=float) - c
        return np.diag(p * (p - 1) * u ** (p - 2))

    return ImplicitDomain(
        n, "even_p_norm_ball", c, level, grad, hess, {"radius": r, "p": p}
    )


def from_config(cfg: dict) -> ImplicitDomain:
    """Build a domain from a configuration mapping (see cli_runner)."""
    kind = cfg.get("kind")
    if kind == "ball":
        return ball(cfg["center"], cfg["radius"])
    if kind == "ellipsoid":
        return ellipsoid(cfg["center"], cfg["semiaxes"])
    if kind == "even_p_norm_ball":
        return even_p_norm_ball(cfg["center"], cfg["radius"], int(cfg["p"]))
    raise ValueError(f"unknown domain kind: {kind!r}")


def bounding_radius(domain: ImplicitDomain) -> float:
    """Radius of a ball around the center that contains K."""
    if domain.kind == "ball":
        return domain.params["radius"]
    if domain.kind == "ellipsoid":
        return float(np.max(domain.params["semiaxes"]))
    if domain.kind == "even_p_norm_ball":
        r, p = domain.params["radius"], domain.params["p"]
        return r * domain.dimension ** (0.5 - 1.0 / p)
    raise ValueError(domain.kind)


def inner_radius(domain: ImplicitDomain) -> float:
    """Radius of a ball around the center contained in K."""
    if domain.kind in ("ball", "even_p_norm_ball"):
        return domain.params["radius"]
    return float(np.min(domain.params["semiaxes"]))


def signed_level(domain: ImplicitDomain, x) -> float:
    """Level value Q(x): negative inside K, positive outside, zero on the boundary."""
    return domain.level_fn(x)


def outward_normal(domain: ImplicitDomain, z) -> np.ndarray:
    """Unit outward normal grad Q / |grad Q| at z.

    Raises DegenerateGradient when the gradient magnitude is below tolerance,
    which flags a point where the implicit surface is not locally smooth
    (for the built-in kinds, only the center).
    """
    g = domain.gradient_fn(z)
    ng = np.linalg.norm(g)
    if ng < GRAD_TOLERANCE:
        raise DegenerateGradient(f"|grad Q| = {ng:.3e} at {np.asarray(z)!r}")
    return g / ng


def project_to_boundary(domain: ImplicitDomain, x) -> tuple[np.ndarray, float]:
    """Closest boundary point and its Euclidean distance.

    Balls are projected radially in closed form. Other kinds solve the
    first-order conditions of min |x - z|^2 subject to Q(z) = 0 with a damped
    Newton iteration started from a gradient-flow point. At symmetric interior
    points where the gradient vanishes (the center), the query is nudged by a
    fixed perturbation along the first axis before projecting; the returned
    distance is still measured from the original x. The tie-break is arbitrary
    but deterministic.
    """
    x = np.asarray(x, dtype=float)
    if domain.kind == "ball":
        c, r = domain.center, domain.params["radius"]
        u = x - c
        nu = np.linalg.norm(u)
        if nu < 1e-13:
            uhat = np.zeros(domain.dimension)
            uhat[0] = 1.0
        else:
            uhat = u / nu
        foot = c + r * uhat
        return foot, abs(nu - r)

    # Warm start on the boundary: bisect the level along the ray from the
    # center through x. The built-in kinds are star-shaped around their
    # center, so the crossing exists and is unique; it also sidesteps the
    # flat-gradient region near the center of high-power levels.
    u = x - domain.center
    nu_len = np.linalg.norm(u)
    if nu_len < 1e-13:
        u = np.eye(domain.dimension)[0]  # deterministic tie-break direction
        nu_len = 1.0
    uhat = u / nu_len
    hi = bounding_radius(domain) * 1.000001
    while domain.level_fn(domain.center + hi * uhat) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise NoConvergence("no boundary crossing along the warm-start ray")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if domain.level_fn(domain.center + mid * uhat) <= 0.0:
            lo = mid
        else:
            hi = mid
    z = domain.center + 0.5 * (lo + hi) * uhat

    g = domain.gradient_fn(z)
    g2 = float(np.dot(g, g))
    mu = float(np.dot(x - z, g)) / g2 if g2 > 0 else 0.0
    n = domain.dimension
    scale = 1.0 + np.linalg.norm(x - domain.center)

    def residual(z, mu):
        g = domain.gradient_fn(z)
        return np.concatenate([z - x + mu * g, [domain.level_fn(z)]])

    F = residual(z, mu)
    for _ in range(PROJECT_MAX_ITER):
        if np.linalg.norm(F) <= PROJECT_TOL * scale:
            break
        g = domain.gradient_fn(z)
        H = domain.hessian_fn(z)
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = np.eye(n) + mu * H
        J[:n, n] = g
        J[n, :n] = g
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular projection system at {z!r}") from exc
        base = np.linalg.norm(F)
        t = 1.0
        for _ in range(30):
            z_new = z + t * step[:n]
            mu_new = mu + t * step[n]
            F_new = residual(z_new, mu_new)
            if np.linalg.norm(F_new) < base:
                z, mu, F = z_new, mu_new, F_new
                break
            t *= 0.5
        else:
            raise NoConvergence(f"projection line search stalled at {z!r}")
    else:
        raise NoConvergence(
            f"projection did not converge in {PROJECT_MAX_ITER} iterations"
        )
    return z, float(np.linalg.norm(x - z))


def signed_boundary_distance(domain: ImplicitDomain, x) -> float:
    """Euclidean distance to the boundary, negative inside K."""
    x = np.asarray(x, dtype=float)
    if domain.kind == "ball":
        return float(
            np.linalg.norm(x - domain.center) - domain.params["radius"]
        )
    _, d = project_to_boundary(domain, x)
    return -d if domain.level_fn(x) <= 0.0 else d


def signed_boundary_distance_batch(domain: ImplicitDomain, X: np.ndarray) -> np.ndarray:
    """Vectorized signed boundary distance; closed form for balls."""
    X = np.asarray(X, dtype=float)
    if domain.kind == "ball":
        return (
            np.linalg.norm(X - domain.center[None, :], axis=1)
            - domain.params["radius"]
        )
    return np.array([signed_boundary_distance(domain, x) for x in X])


def distance_to_domain(domain: ImplicitDomain, x) -> float:
    """dist(x, K): zero inside K, Euclidean gap otherwise."""
    return max(signed_boundary_distance(domain, x), 0.0)


def offset_membership(domain: ImplicitDomain, x, eps: float) -> str:
    """Classify x against the nested offsets K, K_eps, K_3eps.

    Returns one of inside_K, in_K_eps, in_shell_K3eps, outside, keyed on
    d = dist(x, K). Points of K itself get the inside_K tag (they belong to
    every offset; the tag refines membership).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    d = signed_boundary_distance(domain, x)
    if d <= 0.0:
        return REGION_INSIDE
    if d <= eps:
        return REGION_K_EPS
    if d <= 3.0 * eps:
        return REGION_SHELL
    return REGION_OUTSIDE


def _sampler_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))


def rejection_fill(count: int, n: int, draw: Callable[[], np.ndarray]) -> np.ndarray:
    """Fill count rows of width n from the accepted rows of repeated draws.

    Each draw() call makes one fixed-size batch of random draws and returns
    the rows it accepts, in order. Because the batches never depend on count,
    a longer request extends a shorter one drawn from the same stream.
    """
    out = np.empty((count, n))
    have = 0
    while have < count:
        keep = draw()
        take = min(count - have, keep.shape[0])
        out[have : have + take] = keep[:take]
        have += take
    return out


def _unit_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Uniform directions, drawn in batches of 256 normal vectors."""

    def draw():
        batch = rng.standard_normal((256, n))
        keep = batch[np.linalg.norm(batch, axis=1) > 1e-12]
        return keep / np.linalg.norm(keep, axis=1)[:, None]

    return rejection_fill(count, n, draw)


def _boundary_points_ball(domain, rng, count):
    u = _unit_directions(rng, count, domain.dimension)
    r = domain.params["radius"]
    return domain.center[None, :] + r * u


def _boundary_points_ellipsoid(domain, rng, count):
    # Map sphere directions through the semiaxes; correct to surface-area
    # weighting by rejection. The area element of v -> A v on the unit sphere
    # carries the factor det(A) |A^-1 v|, maximized at the shortest axis.
    a = domain.params["semiaxes"]
    n = domain.dimension
    a_min = float(np.min(a))

    def draw():
        v = _unit_directions(rng, 256, n)
        w = np.linalg.norm(v / a[None, :], axis=1) * a_min  # in (0, 1]
        return v[rng.random(256) < w]

    return domain.center[None, :] + rejection_fill(count, n, draw) * a[None, :]


def _boundary_points_p_ball(domain, rng, count):
    # Gamma(1/p) components give the cone measure on the unit p-sphere; the
    # surface measure differs by the gradient-norm factor sqrt(sum u^(2p-2)),
    # which is at most 1 on the sphere for even p >= 2, so rejection applies.
    r, p = domain.params["radius"], domain.params["p"]
    n = domain.dimension

    def draw():
        g = rng.gamma(1.0 / p, 1.0, size=(256, n))
        signs = rng.integers(0, 2, size=(256, n)) * 2 - 1
        u = signs * g ** (1.0 / p)
        u = u / (np.sum(g, axis=1) ** (1.0 / p))[:, None]
        w = np.sqrt(np.sum(u ** (2 * p - 2), axis=1))
        return u[rng.random(256) < w]

    return domain.center[None, :] + r * rejection_fill(count, n, draw)


def sample_offset_boundary(
    domain: ImplicitDomain, eps: float, count: int, seed: int
) -> list[BoundarySample]:
    """Area-weighted samples of the offset surface at distance eps from K.

    Boundary points of K are drawn area-weighted for each built-in kind and
    pushed distance eps along the outward normal; for the convex built-in
    kinds the pushed point has dist(z, K) = eps exactly. eps = 0 returns
    boundary points with implicit-gradient normals. Deterministic for a fixed
    seed, and a larger count extends the samples of a smaller one.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _sampler_rng(seed)
    if domain.kind == "ball":
        feet = _boundary_points_ball(domain, rng, count)
    elif domain.kind == "ellipsoid":
        feet = _boundary_points_ellipsoid(domain, rng, count)
    elif domain.kind == "even_p_norm_ball":
        feet = _boundary_points_p_ball(domain, rng, count)
    else:
        raise ValueError(domain.kind)

    samples = []
    for foot in feet:
        nu = outward_normal(domain, foot)
        z = foot + eps * nu
        samples.append(BoundarySample(point=z, normal=nu, offset=float(eps)))
    return samples
