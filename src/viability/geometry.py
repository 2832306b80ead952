"""Implicit-surface domains, offset neighborhoods, normals, and boundary sampling.

A domain K is represented by a smooth level function Q with K = {x : Q(x) <= 0}.
Offset neighborhoods K_eps are true Euclidean neighborhoods (unions of balls of
radius eps around points of K), realized through closest-point projection onto
the boundary; for non-spherical domains this differs from the level-set offset
{Q <= eps}, and the Euclidean definition is the one used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateGradient, NoConvergence
from .seeds import generator

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

    A kind's builder in KINDS supplies everything the package asks of K:
    - level_fn, gradient_fn, hessian_fn: Q and its derivatives, at a point
      or at each row of a batch;
    - bounding_radius, inner_radius: radii of balls around the center that
      contain K and that K contains;
    - ray_crossing: for rows u of unit directions, the distances s with
      c + s u on the boundary (closed forms for the built-in kinds, whose
      levels are homogeneous about the center);
    - boundary_points(rng, count): area-weighted boundary points, drawn from
      rng only;
    - project: a closed-form projection X -> (feet, distances), or None for
      the batched Newton iteration of project_to_boundary_batch;
    - signed_distance: a closed-form signed Euclidean distance of rows, or
      None for the distance found by projection.
    A new kind is therefore one builder plus one KINDS entry; kind is its
    name only.

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
    bounding_radius: float
    inner_radius: float
    ray_crossing: Callable[[np.ndarray], np.ndarray]
    boundary_points: Callable[[np.random.Generator, int], np.ndarray]
    project: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    signed_distance: Callable[[np.ndarray], np.ndarray] | None = None


def _row_sum(v: np.ndarray) -> np.ndarray:
    """Sum over the last axis, one column at a time, left to right.

    Every row is summed alone in the same order, so a point, a block of one
    and its row in a batch get the same bits. Over the short last axis of a
    level function this is also faster than np.sum or np.linalg.norm.
    """
    out = v[..., 0]
    for j in range(1, v.shape[-1]):
        out = out + v[..., j]
    return out


def _row_norm(u: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis, of a point or of each row.

    The square root of a stacked matmul of each row with itself takes the
    row's dot product alone, as np.linalg.norm does for one point, so a row
    gets the bits of that point. np.linalg.norm(U, axis=1) reduces the
    squares without that dot and can differ in the last bit.
    """
    return np.sqrt((u[..., None, :] @ u[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class BoundarySample:
    """A point at prescribed distance from K together with its outward normal."""

    point: np.ndarray
    normal: np.ndarray


def _vector(name: str, value, n: int | None = None) -> np.ndarray:
    """value as a nonempty 1-D float array (of length n if given), else ValueError."""
    v = np.asarray(value, dtype=float)
    if v.ndim != 1 or v.size == 0 or (n is not None and v.size != n):
        raise ValueError(f"{name} must be a list of {n or 'one or more'} numbers, got {value!r}")
    return v


def ball(center, radius: float) -> ImplicitDomain:
    """Ball of given radius; Q is the exact signed distance |x - c| - r."""
    c = _vector("center", center)
    n = c.shape[0]
    r = float(radius)
    if r <= 0.0:
        raise ValueError("radius must be positive")

    def level(x):
        u = np.asarray(x, dtype=float) - c
        q = np.sqrt(_row_sum(u * u)) - r
        return float(q) if q.ndim == 0 else q

    def grad(x):
        # Zero within GRAD_TOLERANCE of the center. A point takes the scalar
        # form, which costs half the batch form per call; outward_normal
        # calls it one point at a time. Both norms give a point the same bits.
        u = np.asarray(x, dtype=float) - c
        if u.ndim == 1:
            nu = np.linalg.norm(u)
            return u / nu if nu >= GRAD_TOLERANCE else np.zeros(n)
        nu = _row_norm(u)[:, None]
        return np.divide(u, nu, out=np.zeros_like(u), where=nu >= GRAD_TOLERANCE)

    def hess(x):
        uhat = grad(x)
        nu = _row_norm(np.asarray(x, dtype=float) - c)[..., None, None]
        P = np.eye(n) - uhat[..., :, None] * uhat[..., None, :]
        return np.divide(P, nu, out=np.zeros_like(P), where=nu >= GRAD_TOLERANCE)

    def project(X):
        # Radially: the foot is c + r u / |u| for u = x - c, at distance
        # ||u| - r|; a row at the center takes the first axis.
        U = X - c
        length = _row_norm(U)
        return c + r * _unit_rows(U, length), np.abs(length - r)

    return ImplicitDomain(
        n, "ball", c, level, grad, hess,
        bounding_radius=r,
        inner_radius=r,
        ray_crossing=lambda uhat: np.full(uhat.shape[0], r),
        boundary_points=lambda rng, count: c[None, :] + r * _unit_directions(rng, count, n),
        project=project,
        signed_distance=level,
    )


def ellipsoid(center, semiaxes) -> ImplicitDomain:
    """Axis-aligned ellipsoid sum((x_i - c_i)^2 / a_i^2) <= 1."""
    c = _vector("center", center)
    a = _vector("semiaxes", semiaxes, c.size)
    if np.any(a <= 0.0):
        raise ValueError("semiaxes must be positive")
    n = c.shape[0]
    inv2 = 1.0 / (a * a)
    a_min = float(np.min(a))

    def level(x):
        u = np.asarray(x, dtype=float) - c
        q = _row_sum(u * u * inv2) - 1.0
        return float(q) if q.ndim == 0 else q

    def grad(x):
        u = np.asarray(x, dtype=float) - c
        return 2.0 * u * inv2

    def hess(x):
        return 2.0 * np.diag(inv2)

    def boundary_points(rng, count):
        # Map sphere directions through the semiaxes; correct to surface-area
        # weighting by rejection. The area element of v -> A v on the unit
        # sphere carries the factor det(A) |A^-1 v|, maximized at the
        # shortest axis.
        def draw():
            v = _unit_directions(rng, 256, n)
            w = np.linalg.norm(v / a[None, :], axis=1) * a_min  # in (0, 1]
            return v[rng.random(256) < w]

        return c[None, :] + rejection_fill(count, n, draw) * a[None, :]

    return ImplicitDomain(
        n, "ellipsoid", c, level, grad, hess,
        bounding_radius=float(np.max(a)),
        inner_radius=a_min,
        ray_crossing=lambda uhat: 1.0 / np.sqrt(np.sum(uhat * uhat / a**2, axis=1)),
        boundary_points=boundary_points,
    )


def even_p_norm_ball(center, radius: float, p: int) -> ImplicitDomain:
    """Superellipsoid sum((x_i - c_i)^p) <= r^p for an even integer p >= 2.

    Even powers keep the level polynomial and smooth; odd or fractional p is
    rejected.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    c = _vector("center", center)
    r = float(radius)
    if r <= 0.0:
        raise ValueError("radius must be positive")
    n = c.shape[0]

    def level(x):
        u = np.asarray(x, dtype=float) - c
        q = _row_sum(u**p) - r**p
        return float(q) if q.ndim == 0 else q

    def grad(x):
        u = np.asarray(x, dtype=float) - c
        return p * u ** (p - 1)

    def hess(x):
        u = np.asarray(x, dtype=float) - c
        return (p * (p - 1) * u ** (p - 2))[..., :, None] * np.eye(n)

    def boundary_points(rng, count):
        # Gamma(1/p) components give the cone measure on the unit p-sphere;
        # the surface measure differs by the gradient-norm factor
        # sqrt(sum u^(2p-2)), which is at most 1 on the sphere for even
        # p >= 2, so rejection applies.
        def draw():
            g = rng.gamma(1.0 / p, 1.0, size=(256, n))
            signs = rng.integers(0, 2, size=(256, n)) * 2 - 1
            u = signs * g ** (1.0 / p)
            u = u / (np.sum(g, axis=1) ** (1.0 / p))[:, None]
            w = np.sqrt(np.sum(u ** (2 * p - 2), axis=1))
            return u[rng.random(256) < w]

        return c[None, :] + r * rejection_fill(count, n, draw)

    return ImplicitDomain(
        n, "even_p_norm_ball", c, level, grad, hess,
        bounding_radius=r * n ** (0.5 - 1.0 / p),
        inner_radius=r,
        ray_crossing=lambda uhat: r / np.sum(uhat**p, axis=1) ** (1.0 / p),
        boundary_points=boundary_points,
    )


# Each kind's builder; its arguments are a declaration's keys and defaults.
KINDS = {
    "ball": ball,
    "ellipsoid": ellipsoid,
    "even_p_norm_ball": even_p_norm_ball,
}


def from_config(cfg: dict) -> ImplicitDomain:
    """KINDS[kind](**other keys); a key the builder does not take, or a
    missing one, is the builder call's TypeError."""
    args = dict(cfg)
    kind = args.pop("kind", None)
    if kind not in KINDS:
        raise ValueError(f"unknown domain kind: {kind!r}")
    return KINDS[kind](**args)


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

    project_to_boundary_batch applied to a batch of one, for every kind; a
    closed-form projection gives each row the bits of that point alone.
    """
    x = np.asarray(x, dtype=float)
    feet, dists = project_to_boundary_batch(domain, x[None, :])
    return feet[0], float(dists[0])


def _unit_rows(U: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The rows of U divided by their lengths. A row shorter than 1e-13 is
    at the center and takes the first axis, an arbitrary but deterministic
    tie-break."""
    at_center = length < 1e-13
    uhat = U / np.where(at_center, 1.0, length)[:, None]
    uhat[at_center] = np.eye(U.shape[1])[0]
    return uhat


def _ray_crossing(domain: ImplicitDomain, X: np.ndarray):
    """Unit directions from the center to the rows of X, the rows' distances
    from the center, and the distances s from the center to the boundary
    along the directions. A row at the center takes the first axis as its
    direction (see _unit_rows).
    """
    U = X - domain.center
    length = np.linalg.norm(U, axis=1)
    uhat = _unit_rows(U, length)
    return uhat, length, domain.ray_crossing(uhat)


def distance_lower_bound(domain: ImplicitDomain, X) -> np.ndarray:
    """Lower bound on dist(x, K) for the rows x of X; not positive inside K.

    Write x = c + lambda (b - c) with b on the boundary along the ray from the
    center c. K is convex and contains the ball of radius inner_radius around
    c, so its gauge is Lipschitz with constant 1 / inner_radius, and
    dist(x, K) >= (lambda - 1) * inner_radius.
    """
    X = np.asarray(X, dtype=float)
    _, length, s = _ray_crossing(domain, X)
    return (length / s - 1.0) * domain.inner_radius


def project_to_boundary_batch(domain: ImplicitDomain, X) -> tuple[np.ndarray, np.ndarray]:
    """Closest boundary points of the rows of X and their Euclidean distances.

    A kind with a closed-form projection uses it. The others solve the
    first-order conditions z - x + mu grad Q(z) = 0, Q(z) = 0 of
    min |x - z|^2 subject to Q(z) = 0 for all rows at once: a damped Newton
    iteration started from the crossing of the boundary with the ray from
    the center through x, with a batched solve of the bordered Jacobians and
    a backtracking line search per row. A row leaves the iteration once its
    residual is below tolerance, so each row's result depends on that row
    alone. A row at the center starts from the crossing along the first axis
    (see _ray_crossing).

    From outside the convex built-in kinds the iteration reaches the closest
    point. Inside, it may stop at a stationary point that is not the closest
    (on the medial axis, such as the center) or stall near one. Raises
    NoConvergence when any row fails to converge.
    """
    X = np.asarray(X, dtype=float)
    if domain.project is not None:
        return domain.project(X)
    m, n = X.shape
    uhat, length, s = _ray_crossing(domain, X)
    z = domain.center + s[:, None] * uhat
    g = domain.gradient_fn(z)
    g2 = np.sum(g * g, axis=1)
    mu = np.divide(np.sum((X - z) * g, axis=1), g2, out=np.zeros(m), where=g2 > 0)
    tol = PROJECT_TOL * (1.0 + length)
    eye = np.eye(n)

    def residual(x, z, mu):
        """Residual rows and the gradients they used."""
        g = domain.gradient_fn(z)
        F = np.concatenate([z - x + mu[:, None] * g, domain.level_fn(z)[:, None]], axis=1)
        return F, g

    # The working arrays hold the live rows only; live maps them to rows of X.
    feet = np.empty_like(X)
    live, x = np.arange(m), X
    F, g = residual(x, z, mu)
    norm = np.linalg.norm(F, axis=1)
    for _ in range(PROJECT_MAX_ITER):
        done = norm <= tol
        if done.any():
            feet[live[done]] = z[done]
            go = ~done
            live, x, z, mu, F, g, norm, tol = (
                a[go] for a in (live, x, z, mu, F, g, norm, tol)
            )
        if live.size == 0:
            break
        J = np.zeros((live.size, n + 1, n + 1))
        J[:, :n, :n] = eye + mu[:, None, None] * domain.hessian_fn(z)
        J[:, :n, n] = g
        J[:, n, :n] = g
        try:
            step = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular projection system") from exc
        # Backtracking: a row takes the first of t = 1, 1/2, 1/4, ... that
        # lowers its residual norm, so the rows still trying share one t.
        trial = np.arange(live.size)
        t = 1.0
        for _ in range(30):
            zt = z[trial] + t * step[trial, :n]
            mut = mu[trial] + t * step[trial, n]
            Ft, gt = residual(x[trial], zt, mut)
            nt = np.linalg.norm(Ft, axis=1)
            ok = nt < norm[trial]
            acc = trial[ok]
            z[acc], mu[acc], F[acc], g[acc], norm[acc] = zt[ok], mut[ok], Ft[ok], gt[ok], nt[ok]
            trial = trial[~ok]
            if trial.size == 0:
                break
            t *= 0.5
        else:
            raise NoConvergence(f"projection line search stalled at {z[trial[0]]!r}")
    else:
        raise NoConvergence(
            f"projection did not converge in {PROJECT_MAX_ITER} iterations"
        )
    return feet, np.linalg.norm(X - feet, axis=1)


def signed_boundary_distance(domain: ImplicitDomain, x) -> float:
    """Euclidean distance to the boundary, negative inside K."""
    x = np.asarray(x, dtype=float)
    return float(signed_boundary_distance_batch(domain, x[None, :])[0])


def signed_boundary_distance_batch(domain: ImplicitDomain, X: np.ndarray) -> np.ndarray:
    """Vectorized signed boundary distance: the kind's closed form, else the
    projection distance signed by the level."""
    X = np.asarray(X, dtype=float)
    if domain.signed_distance is not None:
        return domain.signed_distance(X)
    _, d = project_to_boundary_batch(domain, X)
    return np.where(domain.level_fn(X) <= 0.0, -d, d)


def offset_membership(domain: ImplicitDomain, x, eps: float) -> str:
    """Classify x against the nested offsets K, K_eps, K_3eps.

    Returns one of inside_K, in_K_eps, in_shell_K3eps, outside, keyed on
    d = dist(x, K). Points of K itself get the inside_K tag (they belong to
    every offset; the tag refines membership).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if domain.level_fn(x) <= 0.0:
        return REGION_INSIDE
    d = signed_boundary_distance(domain, x)
    if d <= 0.0:
        return REGION_INSIDE
    if d <= eps:
        return REGION_K_EPS
    if d <= 3.0 * eps:
        return REGION_SHELL
    return REGION_OUTSIDE


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


def sample_offset_boundary(
    domain: ImplicitDomain, eps: float, count: int, seed: int
) -> list[BoundarySample]:
    """Area-weighted samples of the offset surface at distance eps from K.

    Boundary points of K are drawn area-weighted by the kind's sampler and
    pushed distance eps along the outward normal; for the convex built-in
    kinds the pushed point has dist(z, K) = eps exactly. eps = 0 returns
    boundary points with implicit-gradient normals. Deterministic for a fixed
    seed, and a larger count extends the samples of a smaller one.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = generator(seed)
    samples = []
    for foot in domain.boundary_points(rng, count):
        nu = outward_normal(domain, foot)
        z = foot + eps * nu
        samples.append(BoundarySample(point=z, normal=nu))
    return samples
