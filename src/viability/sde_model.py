"""SDE coefficient families, the diffusion matrix, and regularity spot checks.

Models represent dX = a(t, x) dt + sum_k b_k(t, x) dW_k in dimension n. A
family declares k <= n noise channels, and channel k is always driven by the
Brownian coordinate dW_k, so a family may leave off only trailing channels that
are identically zero. Built-in families are autonomous, but every evaluation
threads a time argument so inhomogeneous families can be added behind the same
interface. Coefficient callables broadcast over a leading batch axis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .seeds import generator

FD_REL_STEP = 1e-6


@dataclass(frozen=True)
class SdeModel:
    """Drift, diffusion matrix, and its spatial derivatives.

    drift(t, x) returns a(t, x) with the shape of x: (n,) for one point or
    (m, n) for a batch. diffusion(t, x) returns the matrix b = [b_1 ... b_k]
    with the columns side by side, shape (n, k) for one point or (m, n, k) for
    a batch; it may be a read-only view, so callers must not write to it.
    Each row of a batch equals that point evaluated alone, bit for bit.
    jacobian(t, x) returns d b_k,i / d x_j for one point with shape (k, n, n),
    or is None for a finite-difference fallback. Models are immutable after
    construction and all evaluations are pure.
    """

    dimension: int
    family: str
    drift: Callable
    diffusion: Callable
    jacobian: Callable | None
    params: dict


@dataclass(frozen=True)
class RegularityReport:
    """Sampled Lipschitz and linear-growth ratios against a bound L.

    This is a spot check on random pairs, not a proof: it can only refute the
    bound, never certify it.
    """

    lipschitz_estimate: float
    growth_estimate: float
    sample_count: int
    bound: float
    passed: bool


def _dimension(dimension) -> int:
    """dimension as an int; a ValueError unless it is an integer >= 1."""
    try:
        n = operator.index(dimension)
    except TypeError:
        raise ValueError(f"dimension must be an integer, got {dimension!r}") from None
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return n


def brownian(dimension: int, scale: float = 1.0) -> SdeModel:
    """Pure diffusion: a = 0, b = scale * I (n channels)."""
    n = _dimension(dimension)
    s = float(scale)
    b = s * np.eye(n)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def diffusion(t, x):
        return np.broadcast_to(b, np.shape(x) + (n,))

    def jac(t, x):
        return np.zeros((n, n, n))

    return SdeModel(n, "brownian", drift, diffusion, jac, {"scale": s})


def ou_inward(dimension: int, rate: float = 1.0) -> SdeModel:
    """Deterministic contraction toward the origin: a = -rate * x, no noise."""
    n = _dimension(dimension)
    r = float(rate)

    def drift(t, x):
        return -r * np.asarray(x, dtype=float)

    def diffusion(t, x):
        return np.zeros(np.shape(x) + (0,))

    def jac(t, x):
        return np.zeros((0, n, n))

    return SdeModel(n, "ou_inward", drift, diffusion, jac, {"rate": r})


def rotational(spin: float = 1.0, inward_rate: float = 1.0) -> SdeModel:
    """Planar model with inward drift and tangential noise.

    a(x) = -inward_rate * x; the single noise channel is
    b_1(x) = spin * (-x_2, x_1), which is orthogonal to x everywhere, so the
    noise never pushes across origin-centered circles.
    """
    s, rho = float(spin), float(inward_rate)

    def drift(t, x):
        return -rho * np.asarray(x, dtype=float)

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return np.stack([-s * x[..., 1], s * x[..., 0]], axis=-1)[..., None]

    def jac(t, x):
        out = np.zeros((1, 2, 2))
        out[0, 0, 1] = -s
        out[0, 1, 0] = s
        return out

    return SdeModel(
        2, "rotational", drift, diffusion, jac, {"spin": s, "inward_rate": rho}
    )


def linear(A, c=None, B=None, d=None) -> SdeModel:
    """Affine family: a = A x + c, b_k = B_k x + d_k.

    B is a sequence of n matrices and d a sequence of n vectors (zeros when
    omitted). The analytic Jacobian is verified against finite differences on
    construction.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
    if B is None:
        B = [np.zeros((n, n)) for _ in range(n)]
    B = [np.asarray(Bk, dtype=float) for Bk in B]
    if d is None:
        d = [np.zeros(n) for _ in range(n)]
    d = [np.asarray(dk, dtype=float) for dk in d]
    if len(B) != n or len(d) != n:
        raise ValueError("need one B matrix and one d vector per channel")

    def drift(t, x):
        return _affine(A, c, np.asarray(x, dtype=float))

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return np.stack([_affine(Bk, dk, x) for Bk, dk in zip(B, d)], axis=-1)

    jac_stack = np.stack(B)

    def jac(t, x):
        return jac_stack

    model = SdeModel(
        n, "linear", drift, diffusion, jac,
        {"A": A, "c": c, "B": [Bk for Bk in B], "d": [dk for dk in d]},
    )
    _self_test_jacobian(model)
    return model


def _affine(M: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v + M x for a point (n,) or each row of a batch (m, n), summed term by
    term so a row equals the point evaluated alone bit for bit (a BLAS
    product x @ M.T may round a row differently inside a batch)."""
    return sum((x[..., j, None] * M[:, j] for j in range(M.shape[1])), v)


def zero(dimension: int) -> SdeModel:
    """All coefficients zero (frozen paths)."""
    return linear(np.zeros((dimension, dimension)))


def outward(dimension: int, rate: float = 1.0) -> SdeModel:
    """Pure outward drift a = +rate * x, no noise; a negative control."""
    return linear(rate * np.eye(dimension))


# Each family's builder; its arguments are a declaration's keys and defaults.
FAMILIES = {
    "brownian": brownian,
    "ou_inward": ou_inward,
    "rotational": rotational,
    "linear": linear,
}


def from_config(cfg: dict) -> SdeModel:
    """FAMILIES[family](**other keys); a key the builder does not take, or
    a missing one, is the builder call's TypeError."""
    args = dict(cfg)
    family = args.pop("family", None)
    if family not in FAMILIES:
        raise ValueError(f"unknown model family: {family!r}")
    return FAMILIES[family](**args)


def _self_test_jacobian(model: SdeModel, points: int = 3, seed: int = 424242):
    rng = np.random.default_rng(seed)
    for _ in range(points):
        x = rng.uniform(-1.0, 1.0, size=model.dimension)
        ana = model.jacobian(0.0, x)
        num = _fd_jacobian(model, 0.0, x)
        if not np.allclose(ana, num, rtol=1e-8, atol=1e-8):
            raise ValueError("analytic diffusion Jacobian disagrees with finite differences")


def _fd_jacobian(model: SdeModel, s: float, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    h = FD_REL_STEP * (1.0 + float(np.linalg.norm(x)))
    steps = h * np.eye(model.dimension)  # row j is h e_j
    diff = model.diffusion(s, x + steps) - model.diffusion(s, x - steps)
    return np.transpose(diff, (2, 1, 0)) / (2.0 * h)  # (j, i, k) -> (k, i, j)


def sigma(model: SdeModel, s: float, x) -> np.ndarray:
    """Diffusion matrix sigma_ij = sum_k b_ki b_kj; symmetric PSD."""
    x = np.asarray(x, dtype=float)
    n = model.dimension
    b = model.diffusion(s, x)
    out = np.zeros(x.shape[:-1] + (n, n))
    for k in range(b.shape[-1]):
        out += np.einsum("...i,...j->...ij", b[..., k], b[..., k])
    return out


def diffusion_jacobian(model: SdeModel, s: float, x) -> np.ndarray:
    """d b_k,i / d x_j stacked over channels, shape (k, n, n).

    Analytic for the built-in families; central finite differences with step
    1e-6 * (1 + |x|) otherwise.
    """
    if model.jacobian is not None:
        return model.jacobian(s, np.asarray(x, dtype=float))
    return _fd_jacobian(model, s, np.asarray(x, dtype=float))


def check_regularity(
    model: SdeModel,
    L: float,
    box: Sequence,
    pairs: int,
    seed: int,
    times: Sequence[float] = (0.0,),
) -> RegularityReport:
    """Spot-check Lipschitz and linear-growth ratios on random pairs in a box.

    box is (lower, upper) coordinate bounds. The Lipschitz ratio is
    (|a(x) - a(y)| + sum_k |b_k(x) - b_k(y)|) / |x - y| and the growth ratio is
    (|a|^2 + sum_k |b_k|^2) / (1 + |x|^2); the verdict passes when the sampled
    maxima fit under L and L^2 respectively.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rng = generator(seed)
    max_lip = 0.0
    max_growth = 0.0
    for _ in range(pairs):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        for s in times:
            ax, ay = model.drift(s, x), model.drift(s, y)
            bx, by = model.diffusion(s, x), model.diffusion(s, y)
            for pt, a, b in ((x, ax, bx), (y, ay, by)):
                g = float(np.dot(a, a))
                for k in range(b.shape[-1]):
                    g += float(np.dot(b[:, k], b[:, k]))
                max_growth = max(max_growth, g / (1.0 + float(np.dot(pt, pt))))
            gap = float(np.linalg.norm(x - y))
            if gap < 1e-12:
                continue
            num = float(np.linalg.norm(ax - ay))
            for k in range(bx.shape[-1]):
                num += float(np.linalg.norm(bx[:, k] - by[:, k]))
            max_lip = max(max_lip, num / gap)
    passed = max_lip <= L and max_growth <= L * L
    return RegularityReport(max_lip, max_growth, pairs, float(L), passed)
