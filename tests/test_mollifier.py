"""Tests for the bump function and the smoothed indicator."""

import os
import subprocess
import sys
import weakref
from math import gamma, pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import _assert_no_child_left, _on_cpus, forking
from viability import generator_probe, geometry, mollifier, sde_model

# Frozen values of the unit-ball integral of exp(-1/(1-|u|^2)), computed by
# adaptive radial quadrature (n <= 3) and by the scrambled Sobol volume
# estimate that normalization_constant uses above 3-D,
# _unit_bump_integral_qmc(4) (n = 4).
I1 = 0.4439938161680794
I2 = 0.46651239317833
I3 = 0.44108888727660434
I4 = 0.3829012943954625


def test_unit_bump_integral_pins():
    """The frozen I_n are bit for bit the adaptive radial quadrature
    I_n = surf(S^{n-1}) * int_0^1 r^{n-1} exp(-1/(1-r^2)) dr."""
    for n, pin in ((1, I1), (2, I2), (3, I3)):
        surf = 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)
        val, err = integrate.quad(
            lambda r: r ** (n - 1) * np.exp(-1.0 / (1.0 - r * r)),
            0.0,
            1.0,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        assert err <= 1e-10 * val
        assert surf * val == mollifier.UNIT_BUMP_INTEGRAL[n] == pin


def test_normalization_constant_one_dimensional_pin():
    c1 = mollifier.normalization_constant(1, 1.0)
    assert abs(c1 - 2.2522836210435813) < 1e-12
    assert abs(c1 - 1.0 / I1) < 1e-12


def test_normalization_constant_scaling_in_eps():
    # c_eps = c_1 * eps^-n exactly, so halving eps multiplies c by 2^n
    for n in (1, 2, 3):
        big = mollifier.normalization_constant(n, 0.2)
        small = mollifier.normalization_constant(n, 0.1)
        assert small == pytest.approx(big * 2.0**n, rel=1e-13)


def test_normalization_constant_qmc_dimension_four():
    c4 = mollifier.normalization_constant(4, 1.0)
    assert c4 == 1.0 / I4


IMPORT_PATH_SCRIPT = """
import sys
import viability, viability.cli_runner
from viability import mollifier
assert "scipy.integrate" not in sys.modules
assert "scipy.stats" not in sys.modules
c4 = mollifier.normalization_constant(4, 0.5)
assert "scipy.stats.qmc" in sys.modules
print(repr(float(c4)))
"""


def test_import_loads_neither_scipy_integrate_nor_stats():
    """Importing the package leaves scipy.integrate and scipy.stats unloaded;
    the quasi-random path above 3 dimensions loads scipy.stats.qmc on demand
    and gives the same constant as before."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_SCRIPT],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    # 1 / (I_4 eps^4) with the Sobol estimate I_4 = 0.3829012943954625
    assert float(done.stdout) == 41.78622593914534


def test_normalization_constant_rejects_bad_input():
    with pytest.raises(ValueError):
        mollifier.normalization_constant(0, 1.0)
    with pytest.raises(ValueError):
        mollifier.normalization_constant(2, 0.0)
    with pytest.raises(ValueError):
        mollifier.normalization_constant(2, -0.5)


@pytest.mark.parametrize("n,tol", [(1, 1e-6), (2, 1e-6), (3, 1e-7)])
def test_lattice_mass_cross_checks_normalization(n, tol):
    """Midpoint-lattice integral of omega agrees with the radial quadrature
    behind c_eps. The two quadratures share no code path."""
    spec = mollifier.make_spec(n, 0.25)
    assert abs(mollifier.lattice_mass(spec, 64) - 1.0) < tol


def _reference_lattice_mass(spec, nodes_per_axis, x):
    """Integral of omega_eps over every node of the window, including those
    beyond the bump's support: the full-window sum, kept verbatim."""
    n, eps = spec.dimension, spec.radius
    x = np.asarray(x, dtype=float)
    d = 2.0 * eps / nodes_per_axis
    Z = _reference_lattice_window(x, eps, d)
    v2 = np.sum((x[None, :] - Z) ** 2, axis=1)
    return float(np.sum(spec.c_eps * mollifier._bump_values(v2, eps)) * d**n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_mass_matches_the_full_window_sum_bit_for_bit(n):
    """Summing only the support nodes, zero-padded to the window, gives the
    full-window sum's bits, on centred and off-centre bumps."""
    rng = np.random.default_rng(n)
    centres = [np.zeros(n)] + [rng.uniform(-2.0, 2.0, n) for _ in range(3)]
    for nodes in (4, 7, 24):
        for eps in (0.05, 0.3, 1.0):
            spec = mollifier.make_spec(n, eps)
            for x in centres:
                got = mollifier.lattice_mass(spec, nodes, x)
                assert got.hex() == _reference_lattice_mass(spec, nodes, x).hex()


def test_lattice_mass_insensitive_to_bump_center():
    # the lattice is anchored at the origin, not at the bump center
    spec = mollifier.make_spec(2, 0.3)
    for shift in ([0.0, 0.0], [0.137, -0.41], [5.0, 5.0]):
        assert abs(mollifier.lattice_mass(spec, 64, shift) - 1.0) < 1e-6


def test_omega_peak_and_cutoff_values():
    spec = mollifier.make_spec(2, 0.5)
    assert mollifier.omega(spec, [0.0, 0.0]) == pytest.approx(
        spec.c_eps * np.exp(-1.0), rel=1e-14
    )
    assert mollifier.omega(spec, [0.5, 0.0]) == 0.0
    assert mollifier.omega(spec, [0.4, 0.4]) == 0.0
    assert mollifier.omega(spec, [100.0, 0.0]) == 0.0


def test_omega_even_symmetry():
    spec = mollifier.make_spec(3, 0.7)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, size=(50, 3))
    vals_plus = mollifier.omega(spec, pts)
    vals_minus = mollifier.omega(spec, -pts)
    np.testing.assert_array_equal(vals_plus, vals_minus)


def test_omega_batch_matches_scalar():
    spec = mollifier.make_spec(2, 0.3)
    pts = np.array([[0.0, 0.0], [0.1, 0.05], [0.3, 0.0], [0.2, -0.21]])
    batch = mollifier.omega(spec, pts)
    assert batch.shape == (4,)
    for row, expected in zip(pts, batch):
        assert mollifier.omega(spec, row) == expected


def test_omega_gradient_matches_finite_differences():
    """The analytic gradient is taken in the subtracted (second) slot, so the
    finite difference of omega in its argument carries the opposite sign."""
    spec = mollifier.make_spec(2, 0.3)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        v = rng.uniform(-1.0, 1.0, size=2)
        v *= 0.8 * spec.radius * rng.uniform(0.1, 1.0) / np.linalg.norm(v)
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (mollifier.omega(spec, v + e) - mollifier.omega(spec, v - e)) / (2 * h)
        grad = mollifier.omega_gradient(spec, v)
        assert np.linalg.norm(fd + grad) <= 1e-6 * max(np.linalg.norm(grad), 1.0)


def test_omega_hessian_matches_finite_differences():
    spec = mollifier.make_spec(3, 0.4)
    rng = np.random.default_rng(12)
    h = 1e-5
    for _ in range(10):
        v = rng.uniform(-1.0, 1.0, size=3)
        v *= 0.75 * spec.radius * rng.uniform(0.1, 1.0) / np.linalg.norm(v)
        hess = mollifier.omega_hessian(spec, v)
        assert np.allclose(hess, hess.T, atol=0.0)
        fd = np.zeros((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            gp = -mollifier.omega_gradient(spec, v + e)
            gm = -mollifier.omega_gradient(spec, v - e)
            fd[:, j] = (gp - gm) / (2 * h)
        scale = max(np.abs(hess).max(), 1.0)
        assert np.abs(fd - hess).max() <= 1e-5 * scale


def test_omega_hessian_at_peak_is_known_diagonal():
    # at the center the mixed terms vanish and each diagonal entry is
    # -(2 / eps^2) * omega(0)
    spec = mollifier.make_spec(2, 0.5)
    hess = mollifier.omega_hessian(spec, [0.0, 0.0])
    expected = -(2.0 / spec.radius**2) * spec.c_eps * np.exp(-1.0)
    np.testing.assert_allclose(hess, expected * np.eye(2), rtol=1e-13)


def test_omega_derivatives_vanish_at_cutoff():
    spec = mollifier.make_spec(2, 0.25)
    for v in ([0.25, 0.0], [0.2, 0.2], [1.0, 1.0]):
        assert np.all(mollifier.omega_gradient(spec, v) == 0.0)
        assert np.all(mollifier.omega_hessian(spec, v) == 0.0)


def _unit_ball_indicator(eps, nodes=32):
    domain = geometry.ball([0.0, 0.0], 1.0)
    return mollifier.SmoothedIndicator(domain, eps, nodes_per_axis=nodes)


def test_eta_is_one_deep_inside_and_zero_far_outside():
    ind = _unit_ball_indicator(0.1)
    assert mollifier.eta(ind, [0.0, 0.0]) == 1.0
    assert mollifier.eta(ind, [0.3, -0.2]) == 1.0
    # outside the outer offset the support windows carry no mass
    assert mollifier.eta(ind, [1.5, 0.0]) == 0.0
    assert mollifier.eta(ind, [0.0, -2.0]) == 0.0


def test_eta_on_inner_offset_boundary():
    # on the boundary of K_eps the value should still be 1 up to the
    # interface treatment of the lattice cells
    ind = _unit_ball_indicator(0.05, nodes=48)
    for ang in (0.0, 0.7, 2.1):
        x = (1.0 + 0.05) * np.array([np.cos(ang), np.sin(ang)])
        assert mollifier.eta(ind, x) >= 1.0 - 1e-6


def test_eta_half_value_on_middle_offset():
    # centered on the boundary of K_2eps roughly half the bump mass is inside
    ind = _unit_ball_indicator(0.05, nodes=48)
    x = np.array([1.0 + 0.1, 0.0])
    assert abs(mollifier.eta(ind, x) - 0.5) < 0.02


def test_eta_monotone_along_outward_ray():
    ind = _unit_ball_indicator(0.1)
    direction = np.array([np.cos(0.4), np.sin(0.4)])
    radii = 1.0 + np.linspace(0.05, 0.35, 13)
    vals = [mollifier.eta(ind, r * direction) for r in radii]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-12)


def test_eta_gradient_zero_in_constant_regions():
    ind = _unit_ball_indicator(0.1)
    # deep inside, the normalization quotient cancels up to rounding residue
    assert np.abs(mollifier.eta_gradient(ind, [0.1, 0.2])).max() <= 1e-14
    assert np.abs(mollifier.eta_with_derivatives(ind, [0.1, 0.2])[2]).max() <= 1e-10
    # outside the outer offset the weighted sums are exactly zero
    assert np.all(mollifier.eta_gradient(ind, [2.0, 0.0]) == 0.0)
    assert np.all(mollifier.eta_with_derivatives(ind, [2.0, 0.0])[2] == 0.0)


def test_eta_gradient_matches_finite_differences_on_shell():
    ind = _unit_ball_indicator(0.1, nodes=32)
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(8):
        ang = rng.uniform(0.0, 2 * np.pi)
        r = 1.0 + rng.uniform(0.12, 0.28)
        x = r * np.array([np.cos(ang), np.sin(ang)])
        grad = mollifier.eta_gradient(ind, x)
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (mollifier.eta(ind, x + e) - mollifier.eta(ind, x - e)) / (2 * h)
        denom = max(np.linalg.norm(grad), 1.0)
        assert np.linalg.norm(fd - grad) / denom <= 1e-3


def test_eta_hessian_matches_gradient_differences_on_shell():
    ind = _unit_ball_indicator(0.1, nodes=32)
    x = 1.2 * np.array([np.cos(0.9), np.sin(0.9)])
    hess = mollifier.eta_with_derivatives(ind, x)[2]
    assert np.allclose(hess, hess.T, atol=0.0)
    h = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        gp = mollifier.eta_gradient(ind, x + e)
        gm = mollifier.eta_gradient(ind, x - e)
        fd[:, j] = (gp - gm) / (2 * h)
    scale = max(np.abs(hess).max(), 1.0)
    assert np.abs(fd - hess).max() / scale <= 1e-3


def test_eta_gradient_points_inward_on_shell():
    ind = _unit_ball_indicator(0.1)
    for ang in np.linspace(0.0, 2 * np.pi, 9, endpoint=False):
        x = 1.2 * np.array([np.cos(ang), np.sin(ang)])
        grad = mollifier.eta_gradient(ind, x)
        assert np.dot(grad, x) <= 1e-12


def test_eta_gradient_scale_tracks_inverse_eps():
    sup = {}
    for eps in (0.2, 0.1):
        ind = _unit_ball_indicator(eps)
        best = 0.0
        for ang in np.linspace(0.0, np.pi, 7):
            x = (1.0 + 2.0 * eps) * np.array([np.cos(ang), np.sin(ang)])
            best = max(best, np.linalg.norm(mollifier.eta_gradient(ind, x)))
        sup[eps] = eps * best
    ratio = sup[0.2] / sup[0.1]
    assert 0.5 < ratio < 2.0


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=2.0),
    ang=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_eta_stays_in_unit_interval(r, ang):
    ind = _unit_ball_indicator(0.15, nodes=16)
    val = mollifier.eta(ind, [r * np.cos(ang), r * np.sin(ang)])
    assert 0.0 <= val <= 1.0


def test_eta_deterministic_across_instances():
    a = _unit_ball_indicator(0.1)
    b = _unit_ball_indicator(0.1)
    pts = [[1.15, 0.1], [0.9, 0.75], [-1.2, 0.0]]
    for p in pts:
        assert mollifier.eta(a, p) == mollifier.eta(b, p)


def test_eta_repeatable_for_implicit_domains():
    # Each query projects its own lattice window; a node's fraction must not
    # depend on which other nodes share the batch, so an overlapping query in
    # between and a fresh indicator reproduce every bit.
    domain = geometry.ellipsoid([0.0, 0.0], [1.0, 0.7])
    ind = mollifier.SmoothedIndicator(domain, 0.1, nodes_per_axis=16)
    first = mollifier.eta_with_derivatives(ind, [1.2, 0.0])
    assert 0.0 < first[0] < 1.0
    mollifier.eta_with_derivatives(ind, [1.22, 0.04])
    again = mollifier.eta_with_derivatives(ind, [1.2, 0.0])
    fresh = mollifier.eta_with_derivatives(
        mollifier.SmoothedIndicator(domain, 0.1, nodes_per_axis=16), [1.2, 0.0]
    )
    for other in (again, fresh):
        assert other[0] == first[0]
        assert np.array_equal(other[1], first[1])
        assert np.array_equal(other[2], first[2])


@pytest.mark.parametrize(
    "domain, x",
    [
        (geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]), [1.3, 0.6]),
        (geometry.ellipsoid([0.1, 0.0, -0.1], [1.2, 1.0, 0.8]), [0.2, 1.2, 0.0]),
        (geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4), [0.9, 0.95]),
    ],
)
def test_membership_fractions_match_per_node_projection(domain, x):
    # Reference: every node projected on its own, no pruning. Nodes of K
    # (fraction 1) and nodes beyond the distance lower bound (fraction 0)
    # are skipped by the batch, so this checks that both shortcuts are exact.
    ind = mollifier.SmoothedIndicator(domain, 0.1, nodes_per_axis=8)
    Z = _reference_lattice_window(np.asarray(x), ind.eps, ind.spacing)
    sd = np.array([geometry.signed_boundary_distance(domain, z) for z in Z])
    expect = np.clip(0.5 - (sd - 2.0 * ind.eps) / ind.spacing, 0.0, 1.0)
    got = mollifier._membership_fractions(ind, Z)
    assert np.any(got == 1.0) and np.any(got == 0.0)
    assert np.any((got > 0.0) & (got < 1.0))
    np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12)


def test_eta_implicit_domain_interior_near_medial_axis():
    # x = (0.7, 0) lies on the medial axis of the 1.5 x 1 ellipse, where a
    # projection started from the radial point stalls for nearby nodes; eta
    # is exactly 1 there because every node of the window lies in K.
    domain = geometry.ellipsoid([0.0, 0.0], [1.5, 1.0])
    ind = mollifier.SmoothedIndicator(domain, 0.1)
    assert mollifier.eta(ind, [0.7, 0.0]) == 1.0
    # the same above 3 dimensions, where quasi-random nodes replace the lattice
    domain = geometry.ellipsoid([0.0] * 4, [1.5, 1.0, 1.0, 1.0])
    ind = mollifier.SmoothedIndicator(domain, 0.1, qmc_points=2**12)
    assert mollifier.eta(ind, [0.7, 0.0, 0.0, 0.0]) == 1.0


def test_eta_qmc_implicit_domain_matches_per_node_projection():
    # Reference: the quasi-random nodes classified by projecting each alone.
    domain = geometry.ellipsoid([0.0] * 4, [1.5, 1.0, 1.0, 1.0])
    ind = mollifier.SmoothedIndicator(domain, 0.1, qmc_points=2**10)
    x = np.array([0.0, 1.2, 0.0, 0.0])
    Z = mollifier._qmc_nodes(ind, x)
    sd = np.array([geometry.signed_boundary_distance(domain, z) for z in Z])
    V = x[None, :] - Z
    w = mollifier._bump_values(np.sum(V * V, axis=1), ind.eps)
    expect = np.sum(w * (sd <= 2.0 * ind.eps)) / np.sum(w)
    assert 0.0 < expect < 1.0
    assert abs(mollifier.eta(ind, x) - expect) <= 1e-12


# Reference for the bit-identity tests below: the full-window evaluation of
# eta, which computes every node of the window, including those beyond the
# bump's support, and keeps whole (N, n, n) Hessian terms. Kept verbatim.
def _reference_lattice_window(x, eps, d):
    axes_idx = []
    for xi in x:
        lo = int(np.floor((xi - eps) / d - 0.5))
        hi = int(np.ceil((xi + eps) / d - 0.5))
        axes_idx.append(np.arange(lo, hi + 1))
    grids = np.meshgrid(*axes_idx, indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=-1)
    return (idx + 0.5) * d


def _reference_bump_terms(V, eps, scale, order):
    v2 = np.sum(V * V, axis=1)
    w = scale * mollifier._bump_values(v2, eps)
    if order == 0:
        return w, None, None
    q = np.zeros_like(v2)
    mask = v2 < eps * eps
    q[mask] = 1.0 / (eps * eps - v2[mask])
    e2 = eps * eps
    grad = (2.0 * e2) * (q * q * w)[:, None] * V
    if order == 1:
        return w, grad, None
    outer = V[:, :, None] * V[:, None, :]
    coeff = 4.0 * e2 * e2 * q**4 * w - 8.0 * e2 * q**3 * w
    hess = coeff[:, None, None] * outer
    diag = -2.0 * e2 * q * q * w
    idx = np.arange(V.shape[1])
    hess[:, idx, idx] += diag[:, None]
    return w, grad, hess


def _reference_eta_core(ind, x, need_grad, need_hess):
    x = np.asarray(x, dtype=float)
    n = ind.domain.dimension
    eps = ind.eps

    if n <= 3:
        Z = _reference_lattice_window(x, eps, ind.spacing)
        frac = mollifier._membership_fractions(ind, Z)
    else:
        Z = mollifier._qmc_nodes(ind, x)
        frac = (mollifier._offset_distances(ind, Z, 0.0) <= 0.0).astype(float)

    V = x[None, :] - Z
    order = 2 if need_hess else int(need_grad)
    w, gz, hw = _reference_bump_terms(V, eps, 1.0, order)
    S = float(np.sum(w))
    N = float(np.sum(w * frac))
    value = min(max(N / S, 0.0), 1.0)

    grad = hess = None
    if order:
        gw = -gz
        gS = gw.sum(axis=0)
        gN = (gw * frac[:, None]).sum(axis=0)
        if need_grad:
            grad = gN / S - N * gS / (S * S)
        if need_hess:
            hS = hw.sum(axis=0)
            hN = (hw * frac[:, None, None]).sum(axis=0)
            s2 = S * S
            cross = np.outer(gN, gS) + np.outer(gS, gN)
            hess = hN / S - cross / s2 - N * hS / s2 + 2.0 * N * np.outer(gS, gS) / (s2 * S)
    return value, grad, hess


def _bytes(result):
    return [b"" if part is None else np.asarray(part, dtype=float).tobytes() for part in result]


def _probe_points(domain, eps, seed):
    # interior points, shell points, points just inside 3 eps and points far
    # outside: these multiples of eps along sampled boundary normals
    feet, normals = geometry.sample_offset_boundary(domain, 0.0, 2, seed)
    dists = (-3.0, -0.5, 1.3, 2.0, 2.7, 3.0 * (1.0 - 1e-9), 5.0)
    return [f + d * eps * nu for f, nu in zip(feet, normals) for d in dists]


@pytest.mark.parametrize(
    "domain",
    [
        geometry.ball([0.0, 0.0], 1.0),
        geometry.ellipsoid([0.1, -0.2], [1.5, 1.0]),
        geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4),
        geometry.ball([0.0, 0.0, 0.0], 1.0),
        geometry.ellipsoid([0.1, 0.0, -0.1], [1.2, 1.0, 0.8]),
        geometry.even_p_norm_ball([0.0, 0.0, 0.0], 1.0, 4),
        geometry.ball([0.0] * 4, 1.0),
    ],
    ids=["ball2", "ellipsoid2", "pball2", "ball3", "ellipsoid3", "pball3", "ball4_qmc"],
)
def test_eta_matches_full_window_evaluation_bit_for_bit(domain):
    # Nodes beyond the bump's support are skipped; that must move no bit of
    # eta, its gradient or its Hessian, for every combination of outputs.
    # qmc_points only acts above 3 dimensions
    ind = mollifier.SmoothedIndicator(domain, 0.1, qmc_points=2**12)
    values = []
    for x in _probe_points(domain, ind.eps, seed=3):
        for need_grad, need_hess in ((False, False), (True, False), (False, True), (True, True)):
            got = mollifier._eta_core(ind, x, need_grad, need_hess)
            expect = _reference_eta_core(ind, x, need_grad, need_hess)
            assert _bytes(got) == _bytes(expect), (x, need_grad, need_hess)
        values.append(got[0])
    # the points reach eta = 1, eta = 0 and the values in between
    assert 1.0 in values and 0.0 in values
    assert any(0.0 < v < 1.0 for v in values)


def test_omega_hessian_matches_full_matrices_bit_for_bit():
    spec = mollifier.make_spec(3, 0.1)
    V = np.random.default_rng(4).uniform(-0.1, 0.1, size=(500, 3))
    _, _, expect = _reference_bump_terms(V, spec.radius, spec.c_eps, 2)
    assert mollifier.omega_hessian(spec, V).tobytes() == expect.tobytes()


def test_omega_gradient_matches_full_rows_bit_for_bit():
    # about half of the offsets lie beyond the cutoff, whose zeros keep the
    # signs of the reference's products
    spec = mollifier.make_spec(3, 0.1)
    V = np.random.default_rng(4).uniform(-0.1, 0.1, size=(500, 3))
    _, expect, _ = _reference_bump_terms(V, spec.radius, spec.c_eps, 1)
    got = mollifier.omega_gradient(spec, V)
    assert got.flags.c_contiguous and got.tobytes() == expect.tobytes()
    for k in (0, 1, 499):
        assert mollifier.omega_gradient(spec, V[k]).tobytes() == expect[k].tobytes()


def _probe_values(model, domain, n_points):
    result = generator_probe.shell_sign_check(model, domain, 0.1, 0.0, n_points, seed=20260821)
    return result.values.tobytes()


def test_shell_probe_values_match_full_window_evaluation(monkeypatch):
    model = sde_model.brownian(3, 1.0)
    domain = geometry.ball([0.0, 0.0, 0.0], 1.0)
    got = _probe_values(model, domain, 8)
    monkeypatch.setattr(mollifier, "_eta_core", _reference_eta_core)
    assert got == _probe_values(model, domain, 8)


@forking
def test_split_shell_probe_values_match_full_window_evaluation(monkeypatch):
    # the benchmark's 2-D ball: 200 points on two CPUs, so that the second
    # share runs in a forked child
    forks = _on_cpus(monkeypatch, 2)
    model, domain = sde_model.rotational(1.0, 1.0), geometry.ball([0.0, 0.0], 1.0)
    got = _probe_values(model, domain, 200)
    assert len(forks) == 1
    _assert_no_child_left()
    monkeypatch.setattr(mollifier, "_eta_core", _reference_eta_core)
    assert got == _probe_values(model, domain, 200)


def test_ellipse_shell_probe_values_match_full_window_evaluation(monkeypatch):
    model, domain = sde_model.ou_inward(2), geometry.ellipsoid([0.0, 0.0], [1.5, 1.0])
    got = _probe_values(model, domain, 10)
    monkeypatch.setattr(mollifier, "_eta_core", _reference_eta_core)
    assert got == _probe_values(model, domain, 10)


def test_work_array_carries_nothing_between_points():
    # point b gives the same bytes alone as after a point whose window keeps
    # more nodes, for every combination of outputs in either order
    domain = geometry.ball([0.0, 0.0, 0.0], 1.0)
    ind = mollifier.SmoothedIndicator(domain, 0.1)
    points = _probe_points(domain, ind.eps, seed=3)
    kept = [mollifier._support_nodes(np.asarray(x), ind.eps, ind.spacing)[3].size for x in points]
    a, b = points[int(np.argmax(kept))], points[int(np.argmin(kept))]
    assert max(kept) > min(kept)
    mollifier._eta_core(ind, a, True, True)
    work = ind.work
    outputs = ((True, False), (False, True), (True, True))
    for first in outputs:
        for then in outputs:
            alone = mollifier._eta_core(mollifier.SmoothedIndicator(domain, 0.1), b, *then)
            mollifier._eta_core(ind, a, *first)
            assert _bytes(mollifier._eta_core(ind, b, *then)) == _bytes(alone)
    assert ind.work is work  # sized by the first window, then reused


def test_shell_probe_frees_its_work_array(monkeypatch):
    seen = []
    real = mollifier._work_arrays

    def recording(ind, *args):
        views = real(ind, *args)
        seen.append(weakref.ref(ind.work))
        return views

    monkeypatch.setattr(mollifier, "_work_arrays", recording)
    model, domain = sde_model.brownian(3, 1.0), geometry.ball([0.0, 0.0, 0.0], 1.0)
    generator_probe.shell_sign_check(model, domain, 0.1, 0.0, 4, seed=20260821)
    assert len(seen) == 4
    assert all(ref() is None for ref in seen)


@pytest.mark.parametrize(
    "domain, x",
    [
        (geometry.ball([0.0, 0.0], 1.0), [1.15, 0.1]),
        (geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]), [1.3, 0.6]),
        (geometry.ball([0.0, 0.0, 0.0], 1.0), [1.15, 0.1, 0.05]),
        (geometry.even_p_norm_ball([0.0, 0.0, 0.0], 1.0, 4), [0.9, 0.95, 0.1]),
    ],
)
def test_membership_fractions_only_see_the_bump_support(monkeypatch, domain, x):
    ind = mollifier.SmoothedIndicator(domain, 0.1)
    x = np.asarray(x)
    seen = []
    original = mollifier._membership_fractions

    def recording(ind, Z):
        seen.append(Z)
        return original(ind, Z)

    monkeypatch.setattr(mollifier, "_membership_fractions", recording)
    mollifier.eta_with_derivatives(ind, x)
    assert len(seen) == 1
    Z = seen[0]
    window = _reference_lattice_window(x, ind.eps, ind.spacing)
    inside = np.sum((x - window) ** 2, axis=1) < ind.eps**2
    assert 0 < Z.shape[0] == np.count_nonzero(inside) < window.shape[0]
    assert np.all(np.sum((x - Z) ** 2, axis=1) < ind.eps**2)


def test_expected_eta_mixes_known_values():
    ind = _unit_ball_indicator(0.1)
    points = np.array([[0.0, 0.0], [3.0, 0.0]])
    assert mollifier.expected_eta(ind, points) == 0.5
    assert mollifier.expected_eta(ind, [0.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        mollifier.expected_eta(ind, np.zeros((0, 2)))


def test_qmc_nodes_match_a_fresh_sobol_set():
    # Reference: the scrambled Sobol set built anew for each query.
    domain = geometry.ball([0.0] * 4, 1.0)
    x = np.array([0.3, -0.2, 0.1, 0.0])
    for eps, points in ((0.25, 2**12), (0.1, 2**12), (0.25, 2**10)):
        ind = mollifier.SmoothedIndicator(domain, eps, qmc_points=points)
        sob = stats.qmc.Sobol(d=4, scramble=True, seed=11)
        u = (2.0 * sob.random(points) - 1.0) * eps
        expect = x[None, :] - u[np.sum(u * u, axis=1) < eps**2]
        for _ in range(2):
            assert np.array_equal(mollifier._qmc_nodes(ind, x), expect)
    assert not mollifier._unit_qmc_offsets(4, 12).flags.writeable


def test_eta_qmc_fallback_dimension_four():
    domain = geometry.ball([0.0] * 4, 1.0)
    ind = mollifier.SmoothedIndicator(domain, 0.25, qmc_points=2**12)
    assert mollifier.eta(ind, [0.0] * 4) == 1.0
    assert mollifier.eta(ind, [2.5, 0.0, 0.0, 0.0]) == 0.0
    mid = mollifier.eta(ind, [1.5, 0.0, 0.0, 0.0])
    assert 0.3 < mid < 0.7


def test_smoothed_indicator_validates_parameters():
    domain = geometry.ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        mollifier.SmoothedIndicator(domain, 0.0)
    with pytest.raises(ValueError):
        mollifier.SmoothedIndicator(domain, 0.1, nodes_per_axis=2)
