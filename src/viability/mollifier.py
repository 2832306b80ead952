"""Bump function omega_eps, its derivatives, and the smoothed indicator eta_eps.

omega_eps(x) = c_eps * exp(-eps^2 / (eps^2 - |x|^2)) inside the ball |x| < eps
and 0 outside; c_eps normalizes the integral to one, by adaptive radial
quadrature in every dimension (frozen up to 3 dimensions, which therefore
import no scipy.integrate). The smoothed indicator is the convolution of the
indicator of the Euclidean offset K_2eps with omega_eps. It equals 1 on K_eps,
vanishes outside K_3eps, and interpolates smoothly across the shell in
between.

Quadrature layout. The convolution integral is evaluated on a uniform midpoint
lattice anchored at the origin (spacing 2 eps / nodes_per_axis), windowed to
the support ball of each query point. Anchoring makes the node set independent
of the query, so the computed eta is a smooth function of x and analytic
derivatives agree with finite differences of the computed values. The raw node
sums are normalized by the lattice mass of the bump (a partition-of-unity
quotient), which makes the constant regions of eta exact instead of
quadrature-accurate. Nodes in cells cut by the boundary of K_2eps contribute a
clipped linear cut fraction of their cell rather than a 0/1 indicator value;
this suppresses the interface quadrature error that second derivatives amplify
by eps^-2. Dimensions above 3 fall back to a quasi-random estimate over the
support ball, which spares the grid blow-up but is only piecewise-smooth in x.

Nodes of the window beyond the bump's support (|x - z| >= eps, about half of
a 3-D window) have weight and derivatives exactly zero, so they are skipped:
no membership fraction, projection or bump term is computed for them. The
result is bit-identical to summing the whole window.

The derivative terms are laid out by (component, node): each component of
the weights' gradient and each upper-triangle entry of their Hessian is one
contiguous row over the kept nodes, followed by the same rows times the
membership fractions, all in one work array that the indicator keeps between
points. Every term comes from the same per-node operations as in a
node-by-node layout, so the layout moves no bit. The 2n + n(n+1) rows are
summed in one pass: they are copied node-major and summed over axis 0, which
NumPy does for a C-contiguous array by adding its rows one after the other,
node after node, as a sum over the whole window's rows would; exact zero
rows change nothing in that order. A sum along each contiguous row would be
pairwise, in another order. The two scalar sums S and N are pairwise, whose
rounding depends on the length, so they are taken over the whole window with
the skipped nodes as zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import geometry
from .errors import ToleranceNotMet

EXP_CLAMP = -700.0  # exp underflows to a hard zero below this exponent
DEFAULT_NODES_PER_AXIS = 24
DEFAULT_QMC_POINTS = 2**16


@dataclass(frozen=True)
class MollifierSpec:
    """Bump function parameters: dimension, radius, normalization constant."""

    dimension: int
    radius: float
    c_eps: float


# I_n = integral of exp(-1/(1-|u|^2)) over the unit ball, as _unit_bump_integral(n)
# returns it, frozen for n <= 3 so that those dimensions import no scipy.integrate.
UNIT_BUMP_INTEGRAL = {1: 0.4439938161680794, 2: 0.46651239317833, 3: 0.44108888727660434}


def _unit_bump_integral(n: int) -> float:
    """I_n by adaptive radial quadrature,
    surf(S^{n-1}) * int_0^1 r^{n-1} exp(-1/(1-r^2)) dr; refused when the
    quadrature's error estimate exceeds 1e-10 relative."""
    from scipy import integrate

    val, err = integrate.quad(
        lambda r: r ** (n - 1) * np.exp(-1.0 / (1.0 - r * r)),
        0.0,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    if not err <= 1e-10 * val:
        raise ToleranceNotMet(
            f"radial quadrature for n={n} reached {err:.2e}, not 1e-10 relative"
        )
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) * val


def normalization_constant(n: int, eps: float) -> float:
    """Constant c_eps with c_eps * eps^n * I_n = 1.

    I_n is the radial quadrature _unit_bump_integral(n), frozen in
    UNIT_BUMP_INTEGRAL for dimensions up to 3. The scaling c_eps = c_1 *
    eps^-n holds exactly by construction.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    integral = UNIT_BUMP_INTEGRAL[n] if n <= 3 else _unit_bump_integral(n)
    return 1.0 / (integral * eps**n)


def make_spec(n: int, eps: float) -> MollifierSpec:
    return MollifierSpec(n, float(eps), normalization_constant(n, eps))


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _cutoff_where(v2: np.ndarray, eps: float):
    """The where= argument of the bump's loops: True when every offset lies
    inside the cutoff, as in every window of eta, so that the loops run
    unmasked, which is cheaper; else the mask of the offsets inside."""
    inside = v2 < eps * eps
    return True if inside.all() else inside


def _bump_values(v2: np.ndarray, eps: float) -> np.ndarray:
    """exp(-eps^2/(eps^2 - |v|^2)) with hard zero at and beyond the cutoff."""
    where = _cutoff_where(v2, eps)
    out = np.zeros_like(v2)
    np.divide(-eps * eps, eps * eps - v2, out=out, where=where)
    np.maximum(out, EXP_CLAMP, out=out, where=where)
    np.exp(out, out=out, where=where)
    return out


def omega(spec: MollifierSpec, x) -> float | np.ndarray:
    """Bump value at offset x (vector) or a batch of offsets (rows)."""
    X, single = _as_batch(x)
    v2 = np.sum(X * X, axis=1)
    vals = spec.c_eps * _bump_values(v2, spec.radius)
    return float(vals[0]) if single else vals


def _bump_terms(V, v2: np.ndarray, eps: float, scale: float, order: int, out=None):
    """Bump weights at the offsets V, with their x derivatives up to order.

    V holds the offsets v = x - z of m nodes as n per-axis rows, and v2
    their squared lengths. Returns (w, terms): w = scale * exp(-eps^2 /
    (eps^2 - |v|^2)) and, for order >= 1, an array whose rows run over the
    nodes: n rows of the gradient of w in x (the derivative in z is the
    negative), then for order 2 the n(n+1)/2 rows of its second derivatives
    (the same in x and z) with i <= j, in np.triu_indices order, which
    _from_upper turns into matrices. When out is given, terms is its first
    rows.
    scale is c_eps for omega itself and 1.0 for the raw node weights of eta.
    Every term is zero at and beyond the cutoff.
    """
    w = scale * _bump_values(v2, eps)
    if order == 0:
        return w, None
    n = len(V)
    i, j, diagonal = _upper_index(n)
    rows = n if order == 1 else n + i.size
    terms = np.empty((rows, v2.size)) if out is None else out[:rows]
    e2 = eps * eps
    q = np.zeros_like(v2)
    np.divide(1.0, e2 - v2, out=q, where=_cutoff_where(v2, eps))
    # -(2 e2 q^2 w) v: negating a factor negates the product exactly
    gcoef = (-2.0 * e2) * (q * q * w)
    for axis in range(n):
        np.multiply(gcoef, V[axis], out=terms[axis])
    if order == 1:
        return w, terms
    hess = terms[n:]
    for col in range(i.size):
        np.multiply(V[i[col]], V[j[col]], out=hess[col])
    hess *= 4.0 * e2 * e2 * q**4 * w - 8.0 * e2 * q**3 * w
    diag = -2.0 * e2 * q * q * w
    for col in diagonal:
        hess[col] += diag
    return w, terms


@lru_cache(maxsize=8)
def _upper_index(n: int):
    """Rows and columns of the n(n+1)/2 entries i <= j of an n x n matrix,
    in np.triu_indices order, and the positions of the diagonal among them;
    read-only, because every call with the same n shares the arrays."""
    i, j = np.triu_indices(n)
    index = (i, j, np.flatnonzero(i == j))
    for a in index:
        a.setflags(write=False)
    return index


def _from_upper(h: np.ndarray, n: int) -> np.ndarray:
    """Symmetric (..., n, n) matrices from their upper-triangle entries
    (..., n(n+1)/2), in np.triu_indices order."""
    i, j, _ = _upper_index(n)
    out = np.empty(h.shape[:-1] + (n, n))
    out[..., i, j] = h
    out[..., j, i] = h
    return out


def omega_gradient(spec: MollifierSpec, x_minus_z) -> np.ndarray:
    """Derivative of omega(x - z) with respect to the subtracted argument z.

    Component i is f(i) * omega(x - z) with f(i) = 2 eps^2 (x_i - z_i) /
    (eps^2 - |x - z|^2)^2. The derivative in x is the negative of this.
    Zero at and beyond the cutoff |x - z| >= eps.
    """
    V, single = _as_batch(x_minus_z)
    _, terms = _bump_terms(V.T, np.sum(V * V, axis=1), spec.radius, spec.c_eps, 1)
    grad = np.ascontiguousarray(-terms.T)
    return grad[0] if single else grad


def omega_hessian(spec: MollifierSpec, x_minus_z) -> np.ndarray:
    """Second derivatives of omega(x - z); identical in the x and z slots.

    Entry (i,j) is [f(i) f(j) - 2 eps^2 delta_ij / (eps^2 - |v|^2)^2
    - 8 eps^2 v_i v_j / (eps^2 - |v|^2)^3] * omega(v). Zero matrix at and
    beyond the cutoff.
    """
    V, single = _as_batch(x_minus_z)
    _, terms = _bump_terms(V.T, np.sum(V * V, axis=1), spec.radius, spec.c_eps, 2)
    n = V.shape[1]
    hess = _from_upper(terms[n:].T, n)
    return hess[0] if single else hess


@dataclass
class SmoothedIndicator:
    """Convolution of the indicator of K_2eps with the bump omega_eps.

    nodes_per_axis controls the lattice resolution for dimensions up to 3;
    qmc_points controls the quasi-random fallback above. work is the array
    that _eta_core writes its derivative terms into; it grows when a window
    needs more and lives as long as the indicator, so two threads must not
    evaluate one indicator at once.
    """

    domain: geometry.ImplicitDomain
    eps: float
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS
    qmc_points: int = DEFAULT_QMC_POINTS
    work: np.ndarray = field(
        default_factory=lambda: np.empty(0), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.nodes_per_axis < 4:
            raise ValueError("nodes_per_axis must be >= 4")

    @property
    def spacing(self) -> float:
        return 2.0 * self.eps / self.nodes_per_axis


def _lattice_axes(x: np.ndarray, eps: float, d: float) -> list:
    """Per-axis coordinates of the midpoint-lattice nodes of spacing d that
    cover the ball of radius eps around x.

    The lattice is anchored at the origin: node k sits at (k + 1/2) * d,
    independent of the query point.
    """
    axes = []
    for xi in x:
        lo = int(np.floor((xi - eps) / d - 0.5))
        hi = int(np.ceil((xi + eps) / d - 0.5))
        axes.append((np.arange(lo, hi + 1) + 0.5) * d)
    return axes


def _support_nodes(x: np.ndarray, eps: float, d: float):
    """The nodes of the window _lattice_axes(x, eps, d) with |x - z| < eps.

    The window is the product of the axes, last axis fastest. Returns (Z, V,
    v2, rows, total): the kept nodes as rows, their offsets x - z as n
    per-axis rows and their |x - z|^2, their positions in the window and the
    window's size. Offsets and |x - z|^2 are formed per axis and broadcast
    over the window, in the same operations, and so with the same bits, as
    from the window's rows.
    """
    axes = _lattice_axes(x, eps, d)
    offsets = [xi - z for xi, z in zip(x, axes)]
    v2 = offsets[0] * offsets[0]
    for o in offsets[1:]:
        v2 = v2[..., None] + o * o
    rows = np.flatnonzero(v2 < eps * eps)
    idx = np.unravel_index(rows, v2.shape)
    Z = np.stack([z[k] for z, k in zip(axes, idx)], axis=1)
    V = [o[k] for o, k in zip(offsets, idx)]
    return Z, V, v2.ravel()[rows], rows, v2.size


def _offset_distances(ind: SmoothedIndicator, Z: np.ndarray, margin: float):
    """Signed distance of each node to the boundary of K_2eps, exact where it
    lies within margin of zero.

    A kind with a closed-form signed distance uses it for every node. For
    other kinds only the nodes that can lie within the margin are projected,
    in one batch. Any other node gets its distance lower bound minus 2 eps,
    which lies on the same side of the margin as the exact value: past
    +margin for a node whose bound already exceeds 2 eps + margin, and at
    most -2 eps for a node of K, where the bound is not positive.
    """
    two_eps = 2.0 * ind.eps
    domain = ind.domain
    if domain.signed_distance is not None:
        return geometry.signed_boundary_distance_batch(domain, Z) - two_eps
    sd = geometry.distance_lower_bound(domain, Z) - two_eps
    band = np.flatnonzero((domain.level_fn(Z) > 0.0) & (sd <= margin))
    sd[band] = geometry.signed_boundary_distance_batch(domain, Z[band]) - two_eps
    return sd


def _membership_fractions(ind: SmoothedIndicator, Z: np.ndarray):
    """Cell fraction of each lattice node inside K_2eps.

    Cells cut by the interface contribute the clipped linear fraction
    clip(1/2 - sd / spacing, 0, 1) of their volume, where sd is the signed
    distance of the node to the boundary of K_2eps. Nodes deeper than half a
    cell on either side contribute exactly 1 or 0, so their sd need not be
    exact.
    """
    d = ind.spacing
    sd = _offset_distances(ind, Z, 0.5 * d)
    return np.clip(0.5 - sd / d, 0.0, 1.0)


@lru_cache(maxsize=8)
def _unit_qmc_offsets(n: int, log2_points: int) -> np.ndarray:
    """Scrambled Sobol points (seed 11) mapped to [-1, 1]^n; read-only,
    because every call with the same arguments shares the array. The only
    use of scipy.stats, imported here."""
    from scipy.stats import qmc

    sob = qmc.Sobol(d=n, scramble=True, seed=11)
    u = 2.0 * sob.random(2**log2_points) - 1.0
    u.setflags(write=False)
    return u


def _qmc_nodes(ind: SmoothedIndicator, x: np.ndarray):
    """Quasi-random nodes in the support ball around x (dimensions above 3)."""
    m = max(8, int(np.ceil(np.log2(ind.qmc_points))))
    u = _unit_qmc_offsets(ind.domain.dimension, m) * ind.eps
    keep = np.sum(u * u, axis=1) < ind.eps**2
    return x[None, :] - u[keep]


def _zero_padded_sum(values: np.ndarray, rows: np.ndarray, total: int) -> float:
    """Sum of the length-total vector that holds values at rows and zeros
    elsewhere. np.sum over a 1-D array is pairwise, so its rounding depends on
    the length: the padding gives the sum over the whole window bit for bit."""
    full = np.zeros(total)
    full[rows] = values
    return float(np.sum(full))


def _work_arrays(ind: SmoothedIndicator, k: int, m: int, total: int):
    """Two views of ind.work: k rows of m node columns, and an (m, k) array
    for their node-major copy. When ind.work is too small it is replaced by
    one sized for m = total, the window's size, which bounds m for the
    windows that follow."""
    if ind.work.size < 2 * k * m:
        ind.work = np.empty(2 * k * max(m, total))
    return ind.work[: k * m].reshape(k, m), ind.work[k * m : 2 * k * m].reshape(m, k)


def _eta_core(ind: SmoothedIndicator, x, need_grad: bool, need_hess: bool):
    """Shared evaluation of eta and its derivatives on one node set.

    Returns (value, gradient or None, hessian or None). All three come from
    the same normalized sums: with S = sum of node weights and N = sum of
    weighted membership fractions, eta = N / S and the derivatives follow the
    quotient rule, which keeps the constant regions exact and the analytic
    derivatives consistent with finite differences of the computed eta.

    Only the nodes inside the bump's support are evaluated; the module
    docstring says why the sums still equal those over the whole window.
    """
    x = np.asarray(x, dtype=float)
    n = ind.domain.dimension
    eps = ind.eps

    if n <= 3:
        Z, V, v2, rows, total = _support_nodes(x, eps, ind.spacing)
        frac = _membership_fractions(ind, Z)
    else:
        Z = _qmc_nodes(ind, x)
        V = x[None, :] - Z
        v2 = np.sum(V * V, axis=1)
        rows = np.flatnonzero(v2 < eps * eps)
        total = V.shape[0]
        V, v2, Z = V[rows].T, v2[rows], Z[rows]
        frac = (_offset_distances(ind, Z, 0.0) <= 0.0).astype(float)

    # raw weights (scale 1.0): the normalization constant cancels in N / S
    order = 2 if need_hess else int(need_grad)
    k = n + n * (n + 1) // 2 if need_hess else n
    terms, nodes = _work_arrays(ind, 2 * k, rows.size, total) if order else (None, None)
    w, _ = _bump_terms(V, v2, eps, 1.0, order, terms)
    S = _zero_padded_sum(w, rows, total)
    N = _zero_padded_sum(w * frac, rows, total)
    value = min(max(N / S, 0.0), 1.0)

    grad = hess = None
    if order:
        # rows [gradient, upper Hessian] of the weights, then the same rows
        # weighted by the fractions, all summed over the nodes at once
        np.multiply(terms[:k], frac, out=terms[k:])
        np.copyto(nodes, terms.T)
        sums = nodes.sum(axis=0)
        gS, gN = sums[:n], sums[k : k + n]
        if need_grad:
            grad = gN / S - N * gS / (S * S)
        if need_hess:
            hS = _from_upper(sums[n:k], n)
            hN = _from_upper(sums[k + n :], n)
            s2 = S * S
            cross = np.outer(gN, gS) + np.outer(gS, gN)
            hess = hN / S - cross / s2 - N * hS / s2 + 2.0 * N * np.outer(gS, gS) / (s2 * S)
    return value, grad, hess


def eta(ind: SmoothedIndicator, x) -> float:
    """Smoothed indicator value in [0, 1]; 1 on K_eps, 0 outside K_3eps."""
    value, _, _ = _eta_core(ind, x, False, False)
    return value


def eta_gradient(ind: SmoothedIndicator, x) -> np.ndarray:
    value, grad, _ = _eta_core(ind, x, True, False)
    return grad


def eta_with_derivatives(ind: SmoothedIndicator, x):
    """(eta, gradient, hessian) from a single pass over the node set."""
    return _eta_core(ind, x, True, True)


def expected_eta(ind: SmoothedIndicator, points: Sequence) -> float:
    """Sample mean of eta over a point cloud."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[0] == 0:
        raise ValueError("points must be nonempty")
    return float(np.mean([eta(ind, p) for p in pts]))


def lattice_mass(spec: MollifierSpec, nodes_per_axis: int, x=None) -> float:
    """Integral of omega_eps by the anchored midpoint lattice.

    Independent of the radial quadrature behind the normalization constant,
    so it serves as a cross-check of that constant. x shifts the bump center
    to exercise lattice anchoring; default is the origin.
    """
    n, eps = spec.dimension, spec.radius
    x = np.zeros(n) if x is None else np.asarray(x, dtype=float)
    d = 2.0 * eps / nodes_per_axis
    _, _, v2, rows, total = _support_nodes(x, eps, d)
    w = spec.c_eps * _bump_values(v2, eps)
    return _zero_padded_sum(w, rows, total) * d**n
