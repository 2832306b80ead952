"""Implicit-surface domains, offset neighborhoods, normals, and boundary sampling.

A domain K is represented by a smooth level function Q with K = {x : Q(x) <= 0}.
Offset neighborhoods K_eps are true Euclidean neighborhoods (unions of balls of
radius eps around points of K), realized through closest-point projection onto
the boundary; for non-spherical domains this differs from the level-set offset
{Q <= eps}, and the Euclidean definition is the one used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateGradient, NoConvergence
from .rows import row_norm
from .seeds import generator

GRAD_TOLERANCE = 1e-12
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
    - project: X -> (feet, distances), the closest boundary points of the
      rows of X and their Euclidean distances, each row with the bits of
      that row alone;
    - outside: X -> which rows of X lie outside K, a closed form that makes
      the decisions of level > 0 row for row; the simulator's exit test;
    - signed_distance: a closed-form signed Euclidean distance of rows, or
      None for the distance found by projection.
    A new kind is therefore one builder plus one KINDS entry; kind is its
    name only.

    Built-in kinds: ball, ellipsoid, even_p_norm_ball. The level function of a
    ball is the exact signed Euclidean distance; the other kinds use smooth
    polynomial levels and reach the boundary through projection. The ball
    and the ellipsoid project exactly, from inside and outside; the p-ball
    projects by a Newton iteration, which from inside may stop at a
    stationary point that is not the closest.
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
    project: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    outside: Callable[[np.ndarray], np.ndarray]
    signed_distance: Callable[[np.ndarray], np.ndarray] | None = None


def _column_sum(x, c: np.ndarray, term: Callable[[np.ndarray, int], np.ndarray]):
    """The sum over j of term(x_j - c_j, j), left to right, for a point or
    for each row of a batch.

    Every row is summed alone in the same order, so a point, a block of one
    and its row in a batch get the same bits; a point runs as a block of
    one, because a power of a NumPy scalar can round differently from the
    same power of an array. Subtracting c column by column avoids x - c,
    which broadcasts c over the short last axis and runs n elements at a
    time.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _column_sum(x[None], c, term)[0]
    s = term(x[..., 0] - c[0], 0)
    for j in range(1, x.shape[-1]):
        s = s + term(x[..., j] - c[j], j)
    return s


def _vector(name: str, value, n: int | None = None) -> np.ndarray:
    """value as a nonempty 1-D array of finite floats (of length n if given),
    else ValueError."""
    v = np.asarray(value, dtype=float)
    if v.ndim != 1 or v.size == 0 or (n is not None and v.size != n) or not np.isfinite(v).all():
        raise ValueError(
            f"{name} must be a list of {n or 'one or more'} finite numbers, got {value!r}"
        )
    return v


def _radius(value) -> float:
    """value as a positive finite float, else ValueError."""
    r = float(value)
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {value!r}")
    return r


def ball(center, radius: float) -> ImplicitDomain:
    """Ball of given radius; Q is the exact signed distance |x - c| - r."""
    c = _vector("center", center)
    n = c.shape[0]
    r = _radius(radius)

    def level(x):
        q = np.sqrt(_column_sum(x, c, lambda u, j: u * u)) - r
        return float(q) if q.ndim == 0 else q

    def grad(x):
        # Zero within GRAD_TOLERANCE of the center.
        u = np.asarray(x, dtype=float) - c
        nu = row_norm(u)[..., None]
        return np.divide(u, nu, out=np.zeros_like(u), where=nu >= GRAD_TOLERANCE)

    def hess(x):
        uhat = grad(x)
        nu = row_norm(np.asarray(x, dtype=float) - c)[..., None, None]
        P = np.eye(n) - uhat[..., :, None] * uhat[..., None, :]
        return np.divide(P, nu, out=np.zeros_like(P), where=nu >= GRAD_TOLERANCE)

    def project(X):
        # Radially: the foot is c + r u / |u| for u = x - c, at distance
        # ||u| - r|; a row at the center takes the first axis.
        U = X - c
        length = row_norm(U)
        return c + r * _unit_rows(U, length), np.abs(length - r)

    r2 = _sqrt_threshold(r)

    def outside(X):
        # The level's sum of squares s, without its sqrt: sqrt(s) - r > 0
        # exactly when the rounded sqrt(s) exceeds r, that is when s > r2.
        return _column_sum(X, c, lambda u, j: u * u) > r2

    return ImplicitDomain(
        n, "ball", c, level, grad, hess,
        bounding_radius=r,
        inner_radius=r,
        ray_crossing=lambda uhat: np.full(uhat.shape[0], r),
        boundary_points=lambda rng, count: c[None, :] + r * _unit_directions(rng, count, n),
        project=project,
        signed_distance=level,
        outside=outside,
    )


def _sqrt_threshold(r: float) -> float:
    """The largest double t whose rounded sqrt is at most r. The rounded sqrt
    is monotone, so sqrt(s) > r exactly when s > t. t is r * r or an ulp or
    two from it, and not always r * r: for r = 1.0 it is 1.0000000000000002.
    """
    t = r * r
    while math.sqrt(t) > r:
        t = math.nextafter(t, -math.inf)
    while t < math.inf and math.sqrt(math.nextafter(t, math.inf)) <= r:
        t = math.nextafter(t, math.inf)
    return t


def ellipsoid(center, semiaxes) -> ImplicitDomain:
    """Axis-aligned ellipsoid sum((x_i - c_i)^2 / a_i^2) <= 1.

    Its projection is exact from inside and outside: one root of the
    secular equation per row, and the medial axis in closed form. Its exit
    test compares the level's sum with 1.
    """
    c = _vector("center", center)
    a = _vector("semiaxes", semiaxes, c.size)
    if np.any(a <= 0.0):
        raise ValueError("semiaxes must be positive")
    n = c.shape[0]
    inv2 = 1.0 / (a * a)
    a_min = float(np.min(a))

    def level(x):
        q = _column_sum(x, c, lambda u, j: u * u * inv2[j]) - 1.0
        return float(q) if q.ndim == 0 else q

    def grad(x):
        u = np.asarray(x, dtype=float) - c
        return 2.0 * u * inv2

    def hess(x):
        return 2.0 * np.diag(inv2)

    def outside(X):
        # The level's sum without its - 1: fl(q - 1) > 0 exactly when q > 1.
        return _column_sum(X, c, lambda u, j: u * u * inv2[j]) > 1.0

    # In y = |x - c| the foot is z_i = a_i^2 y_i / (t + a_i^2), where
    # t >= -a_min^2 is the root of sum (a_i y_i / (t + a_i^2))^2 = 1
    # (Eberly 2013). The root is found in s = t + a_min^2, so a shortest
    # axis divides by s itself: no cancellation near the medial axis.
    b = a * a - a_min * a_min
    shortest, longer = np.flatnonzero(b == 0.0), np.flatnonzero(b > 0.0)
    b_max = float(np.max(b))
    tiny = np.finfo(float).tiny

    def project(X):
        U = X - c
        Y = np.abs(U)
        W = a * Y
        # On the medial axis (the squares of the shortest coordinates sum
        # to 0, and G < 1) the foot has s = 0, and its first shortest
        # coordinate is a_min sqrt(1 - G), taken with a + sign.
        G = _sum_columns((W[:, longer] / b[longer]) ** 2)
        medial = (_sum_columns(W[:, shortest] ** 2) == 0.0) & (G < 1.0)
        # F(s) >= 0 where one axis's term alone reaches 1 (s <= W_i - b_i)
        # and where |W| <= s + b_max; the floor keeps s off 0 when every
        # shortest coordinate is 0 but G >= 1.
        s = np.maximum(np.max(W - b, axis=1, initial=-np.inf), tiny)
        s = np.maximum(s, np.sqrt(_sum_columns(W * W)) - b_max)
        s[medial] = 0.0
        rows = np.flatnonzero(~medial)
        s[rows] = _secular_root(W[rows], b, s[rows])
        D = s[:, None] + b
        Q = np.divide(W, D, out=np.zeros_like(W), where=D > 0.0)
        Q[medial, shortest[0]] = np.sqrt(1.0 - G[medial])
        Z = a * Q
        return c + np.where(U < 0.0, -Z, Z), np.sqrt(_sum_columns((Y - Z) ** 2))

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
        project=project,
        outside=outside,
    )


def _sum_columns(M: np.ndarray) -> np.ndarray:
    """The sum of the columns of M, left to right, so each row is summed
    alone and has the bits of that row as a batch of one; 0 for no columns."""
    total = M[:, 0] if M.shape[1] else np.zeros(M.shape[0])
    for j in range(1, M.shape[1]):
        total = total + M[:, j]
    return total


def _secular_root(W: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """For each row, the root s > 0 of F(s) = sum_i (W_i / (s + b_i))^2 - 1,
    by Newton's iteration from a start with F(s) >= 0.

    F falls and is convex in s > 0, so from the left of the root each step
    climbs towards it without passing it. A row stops at the first step
    that does not raise its s and then leaves the working arrays, so its
    iterates depend on that row alone. Raises NoConvergence when a row is
    still climbing after PROJECT_MAX_ITER steps.
    """
    root = np.empty_like(s)
    live = np.arange(s.size)
    for _ in range(PROJECT_MAX_ITER):
        if not live.size:
            return root
        D = s[:, None] + b
        Q2 = (W / D) ** 2
        F = _sum_columns(Q2) - 1.0
        slope = _sum_columns(Q2 / D)  # -F'(s) / 2
        step = s + F / (slope + slope)
        done = ~(step > s)
        if done.any():
            root[live[done]] = s[done]
            go = ~done
            live, W, s, step = live[go], W[go], s[go], step[go]
        s = step
    raise NoConvergence(f"ellipsoid projection did not converge in {PROJECT_MAX_ITER} steps")


def even_p_norm_ball(center, radius: float, p: int) -> ImplicitDomain:
    """Superellipsoid sum((x_i - c_i)^p) <= r^p for an even integer p >= 2.

    Even powers keep the level polynomial and smooth; odd or fractional p is
    rejected.

    Its projection solves the first-order conditions z - x + mu grad Q(z)
    = 0, Q(z) = 0 of min |x - z|^2 subject to Q(z) = 0 for all rows at once:
    a damped Newton iteration started from the crossing of the boundary with
    the ray from the center through x, with a batched solve of the bordered
    Jacobians and a backtracking line search per row. A row leaves the
    iteration once its residual is below tolerance, so each row's result
    depends on that row alone. A row at the center starts from the crossing
    along the first axis (see _unit_rows). From outside the iteration
    reaches the closest point. Inside, it may stop at a stationary point
    that is not the closest (on the medial axis, such as the center) or
    stall near one. Raises NoConvergence when any row fails to converge.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    c = _vector("center", center)
    r = _radius(radius)
    n = c.shape[0]

    def level(x):
        q = _column_sum(x, c, lambda u, j: u**p) - r**p
        return float(q) if q.ndim == 0 else q

    def grad(x):
        u = np.asarray(x, dtype=float) - c
        return p * u ** (p - 1)

    def hess(x):
        u = np.asarray(x, dtype=float) - c
        return (p * (p - 1) * u ** (p - 2))[..., :, None] * np.eye(n)

    def outside(X):
        # The level's sum without its - r^p: fl(q - r^p) > 0 exactly when
        # q > r^p.
        return _column_sum(X, c, lambda u, j: u**p) > r**p

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

    def ray_crossing(uhat):
        return r / np.sum(uhat**p, axis=1) ** (1.0 / p)

    def project(X):
        m = X.shape[0]
        U = X - c
        length = np.linalg.norm(U, axis=1)
        uhat = _unit_rows(U, length)
        z = c + ray_crossing(uhat)[:, None] * uhat
        g = grad(z)
        g2 = np.sum(g * g, axis=1)
        mu = np.divide(np.sum((X - z) * g, axis=1), g2, out=np.zeros(m), where=g2 > 0)
        tol = PROJECT_TOL * (1.0 + length)
        eye = np.eye(n)

        def residual(x, z, mu):
            """Residual rows and the gradients they used."""
            g = grad(z)
            F = np.concatenate([z - x + mu[:, None] * g, level(z)[:, None]], axis=1)
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
            J[:, :n, :n] = eye + mu[:, None, None] * hess(z)
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

    return ImplicitDomain(
        n, "even_p_norm_ball", c, level, grad, hess,
        bounding_radius=r * n ** (0.5 - 1.0 / p),
        inner_radius=r,
        ray_crossing=ray_crossing,
        boundary_points=boundary_points,
        project=project,
        outside=outside,
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
    """Unit outward normal grad Q / |grad Q| at z: outward_normal_batch
    applied to a batch of one."""
    return outward_normal_batch(domain, np.asarray(z, dtype=float)[None, :])[0]


def outward_normal_batch(domain: ImplicitDomain, Z) -> np.ndarray:
    """Unit outward normals grad Q / |grad Q| at the rows of Z.

    Raises DegenerateGradient, naming the first such row, when a gradient
    magnitude is below tolerance, which flags a point where the implicit
    surface is not locally smooth (for the built-in kinds, only the center).
    The lengths are row norms, so each row has the bits of that point alone.
    """
    Z = np.asarray(Z, dtype=float)
    g = domain.gradient_fn(Z)
    ng = row_norm(g)
    flat = np.flatnonzero(ng < GRAD_TOLERANCE)
    if flat.size:
        i = flat[0]
        raise DegenerateGradient(f"|grad Q| = {ng[i]:.3e} at {Z[i]!r}")
    return g / ng[:, None]


def project_to_boundary(domain: ImplicitDomain, x) -> tuple[np.ndarray, float]:
    """Closest boundary point and its Euclidean distance.

    project_to_boundary_batch applied to a batch of one; every kind's
    projection gives each row the bits of that point alone.
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


def distance_lower_bound(domain: ImplicitDomain, X) -> np.ndarray:
    """Lower bound on dist(x, K) for the rows x of X; not positive inside K.

    Write x = c + lambda (b - c) with b on the boundary along the ray from the
    center c. K is convex and contains the ball of radius inner_radius around
    c, so its gauge is Lipschitz with constant 1 / inner_radius, and
    dist(x, K) >= (lambda - 1) * inner_radius.
    """
    U = np.asarray(X, dtype=float) - domain.center
    length = np.linalg.norm(U, axis=1)
    return (length / domain.ray_crossing(_unit_rows(U, length)) - 1.0) * domain.inner_radius


def project_to_boundary_batch(domain: ImplicitDomain, X) -> tuple[np.ndarray, np.ndarray]:
    """Closest boundary points of the rows of X and their Euclidean
    distances, by the kind's own projection (ImplicitDomain.project): exact
    for the ball and the ellipsoid, a Newton iteration for the p-ball (see
    even_p_norm_ball)."""
    return domain.project(np.asarray(X, dtype=float))


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


def offset_membership(domain: ImplicitDomain, x, eps: float):
    """Classify x, or each row of an (m, n) batch x, against the nested
    offsets K, K_eps, K_3eps.

    Returns one of inside_K, in_K_eps, in_shell_K3eps, outside for a point,
    and a tuple of them for a batch, keyed on d = dist(x, K). Points of K
    itself get the inside_K tag (they belong to every offset; the tag
    refines membership): a row with level <= 0 is tagged without being
    projected, and the other rows take one signed_boundary_distance_batch
    call, so a row gets the tag of that point alone.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, x.shape[-1])
    d = np.full(X.shape[0], -np.inf)
    rows = np.flatnonzero(~(domain.level_fn(X) <= 0.0))
    d[rows] = signed_boundary_distance_batch(domain, X[rows])
    tags = np.select(
        [d <= 0.0, d <= eps, d <= 3.0 * eps],
        [REGION_INSIDE, REGION_K_EPS, REGION_SHELL],
        REGION_OUTSIDE,
    )
    return tuple(tags.tolist()) if x.ndim == 2 else tags[0].item()


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
) -> tuple[np.ndarray, np.ndarray]:
    """Area-weighted samples of the offset surface at distance eps from K:
    the (count, n) arrays of the points and of their outward normals.

    Boundary points of K are drawn area-weighted by the kind's sampler and
    pushed distance eps along the outward normal; for the convex built-in
    kinds the pushed point has dist(z, K) = eps exactly. eps = 0 returns
    boundary points with implicit-gradient normals. All normals come from
    one outward_normal_batch call. Deterministic for a fixed seed, and a
    larger count extends the samples of a smaller one.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if count < 1:
        raise ValueError("count must be >= 1")
    feet = domain.boundary_points(generator(seed), count)
    normals = outward_normal_batch(domain, feet)
    return feet + eps * normals, normals
