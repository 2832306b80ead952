"""SDE coefficient families, the diffusion matrix, and regularity spot checks.

Models represent dX = a(t, x) dt + sum_k b_k(t, x) dW_k in dimension n. A
family declares k <= n noise channels, and channel k is always driven by the
Brownian coordinate dW_k, so a family may leave off only trailing channels that
are identically zero. Every built-in family is affine, a = A x + c and
b_k = B_k x + d_k, and fills one record (`_affine_model`) whose Jacobian is the
constant stack of the B_k. Built-in families are autonomous, but every
evaluation threads a time argument so inhomogeneous families can be added
behind the same interface. Coefficient callables and the Jacobian broadcast
over a leading batch axis."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rows import row_dot, row_norm
from .seeds import generator

FD_REL_STEP = 1e-6


@dataclass(frozen=True)
class SdeModel:
    """Drift, diffusion matrix, and its spatial derivatives.

    drift(t, x) returns a(t, x) with the shape of x: (n,) for one point or
    (m, n) for a batch. diffusion(t, x) returns the matrix b = [b_1 ... b_k]
    with the columns side by side, shape (n, k) for one point or (m, n, k) for
    a batch; it may be a read-only view, so callers must not write to it.
    jacobian(t, x) returns d b_k,i / d x_j, shape (k, n, n) for one point or
    (m, k, n, n) for a batch, or is None for a finite-difference fallback;
    the built-in families, all affine, return a read-only view of their
    constant (k, n, n) stack. Each row of a batch equals that point evaluated
    alone, bit for bit. A batch may arrive Fortran-ordered (the simulator
    holds its states by column), so callables must treat it as any (m, n)
    array and may return either layout. Models are immutable after
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


def require_dimension(model: SdeModel, n: int, what: str) -> None:
    """A ValueError naming both dimensions unless the model's is n, the
    dimension of `what` (the domain, or the start points)."""
    if model.dimension != n:
        raise ValueError(f"the model has dimension {model.dimension}, {what} {n}")


def _order(x: np.ndarray) -> str:
    """"F" for a Fortran-ordered batch that is not also C-ordered, else "C"."""
    return "F" if x.flags.f_contiguous and not x.flags.c_contiguous else "C"


def _affine_map(v: np.ndarray, M: np.ndarray) -> Callable:
    """The (t, x) callable x -> v + M x, with M of shape v.shape + (n,).

    It returns one array of shape x.shape[:-1] + v.shape. Entry e is v_e when
    v_e is nonzero, then x_j M_ej over the nonzero M_ej only, added in order
    of j; an entry with neither is 0.0. A batch row thus has the bits of its
    point evaluated alone, and a structurally zero term never flips the sign
    of a zero result. A zero M with a nonzero v gives v as a read-only view,
    and m I with v = 0 gives the one product m * x; both have those bits.
    The output follows the input's layout: a batch that is Fortran-ordered
    and not C-ordered gets a Fortran-ordered array (a filled one in place of
    the view), and any other input gets a C-ordered one or the view, whose
    strides rows.row_dot's bits depend on.
    """
    shape = v.shape
    m = float(M[0, 0]) if M.ndim == 2 else 0.0  # the drift's square A
    if v.any() and not M.any():
        def evaluate(t, x):
            x = np.asarray(x, dtype=float)
            if _order(x) == "F":
                return np.full(x.shape[:-1] + shape, v, order="F")
            return np.broadcast_to(v, x.shape[:-1] + shape)
    elif m and not v.any() and np.array_equal(M, m * np.eye(len(M))):
        def evaluate(t, x):
            return m * np.asarray(x, dtype=float)
    else:
        # each entry starts from v_e or from its first term, then adds the rest
        start, first, rest = [], [], []
        for e in np.ndindex(shape):
            e_terms = [((...,) + e, j, float(M[e][j])) for j in np.flatnonzero(M[e]).tolist()]
            if v[e]:
                start.append(((...,) + e, float(v[e])))
            elif e_terms:
                first.append(e_terms.pop(0))
            rest += e_terms
        alloc = np.empty if len(start) + len(first) == v.size else np.zeros

        def evaluate(t, x):
            x = np.asarray(x, dtype=float)
            out = alloc(x.shape[:-1] + shape, order=_order(x))
            for e, ve in start:
                out[e] = ve
            for e, j, mj in first:
                np.multiply(x[..., j], mj, out=out[e])
            for e, j, mj in rest:
                o = out[e]
                o += x[..., j] * mj
            return out

    return evaluate


def _affine_model(family: str, params: dict, A, c, B, d) -> SdeModel:
    """The model a = A x + c, b_k = B_k x + d_k, with A (n, n), c (n,),
    B (k, n, n) and d (k, n) for any k >= 0 channels. Its Jacobian is a
    read-only view of the stack B, broadcast over a batch."""
    A, c, B, d = (np.array(coef, dtype=float) for coef in (A, c, B, d))
    drift = _affine_map(c, A)
    # entry (i, k) of the diffusion is d_k,i + sum_j B_k,ij x_j
    diffusion = _affine_map(np.ascontiguousarray(d.T), B.transpose(1, 0, 2))

    def jacobian(t, x):
        return np.broadcast_to(B, np.shape(x)[:-1] + B.shape)

    return SdeModel(len(A), family, drift, diffusion, jacobian, params)


def brownian(dimension: int, scale: float = 1.0) -> SdeModel:
    """Pure diffusion: a = 0, b = scale * I (n channels)."""
    n, s = _dimension(dimension), float(scale)
    zero = np.zeros((n, n))
    return _affine_model("brownian", {"scale": s}, zero, zero[0], [zero] * n, s * np.eye(n))


def ou_inward(dimension: int, rate: float = 1.0) -> SdeModel:
    """Deterministic contraction toward the origin: a = -rate * x, no noise."""
    n, r = _dimension(dimension), float(rate)
    none = np.zeros((0, n, n))
    return _affine_model("ou_inward", {"rate": r}, -r * np.eye(n), np.zeros(n), none, none[:, 0])


def rotational(spin: float = 1.0, inward_rate: float = 1.0) -> SdeModel:
    """Planar model with inward drift and tangential noise.

    a(x) = -inward_rate * x; the single noise channel is
    b_1(x) = spin * (-x_2, x_1), which is orthogonal to x everywhere, so the
    noise never pushes across origin-centered circles.
    """
    s, rho = float(spin), float(inward_rate)
    return _affine_model(
        "rotational", {"spin": s, "inward_rate": rho}, -rho * np.eye(2), np.zeros(2),
        [[[0.0, -s], [s, 0.0]]], np.zeros((1, 2)),
    )


def linear(A, c=None, B=None, d=None) -> SdeModel:
    """Affine family: a = A x + c, b_k = B_k x + d_k with n channels.

    A is an (n, n) matrix, c an (n,) vector, B a sequence of n matrices
    (n, n) and d a sequence of n vectors (n,); c, B and d are zeros when
    omitted. A ValueError unless the shapes are these and every entry is
    finite.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or not 1 <= len(A) == A.shape[1]:
        raise ValueError(f"A must be a square matrix, got shape {A.shape}")
    n = len(A)
    coef = {"A": A}
    for name, value, shape in (("c", c, (n,)), ("B", B, (n, n, n)), ("d", d, (n, n))):
        value = np.zeros(shape) if value is None else np.asarray(value, dtype=float)
        if value.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
        coef[name] = value
    for name, value in coef.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has a non-finite entry")
    return _affine_model("linear", coef, **coef)


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
    """d b_k,i / d x_j stacked over channels, shape (k, n, n) for a point or
    (m, k, n, n) for a batch; it may be a read-only view.

    The model's own Jacobian when it has one (every built-in family does);
    otherwise central finite differences with step 1e-6 * (1 + |x|), taken
    row by row for a batch.
    """
    x = np.asarray(x, dtype=float)
    if model.jacobian is not None:
        return model.jacobian(s, x)
    if x.ndim == 1:
        return _fd_jacobian(model, s, x)
    return np.stack([_fd_jacobian(model, s, z) for z in x])


def _sampled_max(values: np.ndarray) -> float:
    """max(0.0, *values) as Python's max folds it: a value replaces the
    running maximum only when it is larger, so a NaN never does."""
    above = values[values > 0.0]
    return float(above.max()) if above.size else 0.0


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
    maxima fit under L and L^2 respectively. A pair closer than 1e-12 has no
    Lipschitz ratio.

    All pairs are drawn in one call, x then y of each pair, which reads the
    stream in the order that drawing the pairs one at a time does. The model
    is evaluated on every point at once per time, and each length is a row
    dot (rows.row_dot), so each ratio has the bits of its pair evaluated
    alone.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    xy = generator(seed).uniform(lo, hi, size=(pairs, 2) + np.broadcast(lo, hi).shape)
    pts = xy.reshape(2 * pairs, -1)  # x, then y, of each pair
    gap = row_norm(xy[:, 0] - xy[:, 1])
    apart = gap >= 1e-12
    growth, lip = [np.zeros(0)], [np.zeros(0)]
    for s in times:
        a, b = model.drift(s, pts), model.diffusion(s, pts)
        g = row_dot(a, a)
        for k in range(b.shape[-1]):
            g = g + row_dot(b[..., k], b[..., k])
        growth.append(g / (1.0 + row_dot(pts, pts)))
        num = row_norm(a[0::2] - a[1::2])
        for k in range(b.shape[-1]):
            num = num + row_norm(b[0::2, :, k] - b[1::2, :, k])
        lip.append(num[apart] / gap[apart])
    max_lip = _sampled_max(np.concatenate(lip))
    max_growth = _sampled_max(np.concatenate(growth))
    passed = max_lip <= L and max_growth <= L * L
    return RegularityReport(max_lip, max_growth, pairs, float(L), passed)
