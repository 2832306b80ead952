"""Tests for the bump function and the smoothed indicator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from viability import geometry, mollifier

# Frozen values of the unit-ball integral of exp(-1/(1-|u|^2)), computed by
# adaptive radial quadrature (n <= 3) and a scrambled Sobol volume estimate
# (n = 4) while building this suite.
I1 = 0.4439938161680794
I2 = 0.46651239317833
I3 = 0.4410888872766043
I4 = 0.3829755849984719


def test_unit_bump_integral_pins():
    assert abs(mollifier._unit_bump_integral(1) - I1) < 1e-12
    assert abs(mollifier._unit_bump_integral(2) - I2) < 1e-12
    assert abs(mollifier._unit_bump_integral(3) - I3) < 1e-12


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
    assert abs(c4 - 1.0 / I4) / (1.0 / I4) < 1e-2


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
    assert np.abs(mollifier.eta_hessian(ind, [0.1, 0.2])).max() <= 1e-10
    # outside the outer offset the weighted sums are exactly zero
    assert np.all(mollifier.eta_gradient(ind, [2.0, 0.0]) == 0.0)
    assert np.all(mollifier.eta_hessian(ind, [2.0, 0.0]) == 0.0)


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
    hess = mollifier.eta_hessian(ind, x)
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
    Z = mollifier._lattice_window(np.asarray(x), ind.eps, ind.spacing)
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
    w, _, _ = mollifier._bump_terms(x[None, :] - Z, ind.eps, 1.0, 0)
    expect = np.sum(w * (sd <= 2.0 * ind.eps)) / np.sum(w)
    assert 0.0 < expect < 1.0
    assert abs(mollifier.eta(ind, x) - expect) <= 1e-12


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
