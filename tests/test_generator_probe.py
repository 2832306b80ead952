"""Tests for the generator probe on the shell and the expectation gaps."""

import dataclasses

import numpy as np
import pytest

from conftest import _assert_no_child_left, _on_cpus, forking
from viability import generator_probe, geometry, mollifier, sde_model
from viability.errors import ImmediateExit


def unit_ball():
    return geometry.ball([0.0, 0.0], 1.0)


def indicator(eps, nodes=24):
    return mollifier.SmoothedIndicator(unit_ball(), eps, nodes_per_axis=nodes)


def test_apply_generator_zero_model_is_zero():
    model = sde_model.linear(np.zeros((2, 2)))
    ind = indicator(0.1)
    for x in ([0.0, 0.0], [1.15, 0.0], [0.8, 0.8]):
        assert generator_probe.apply_generator(model, ind, 0.0, x) == 0.0


def test_apply_generator_vanishes_off_support():
    model = sde_model.rotational()
    ind = indicator(0.1)
    # beyond the outer offset the indicator derivatives are exactly zero
    assert generator_probe.apply_generator(model, ind, 0.0, [2.0, 0.0]) == 0.0
    # deep inside they cancel to quadrature residue
    assert abs(generator_probe.apply_generator(model, ind, 0.0, [0.1, 0.0])) < 1e-8


def test_apply_generator_linear_in_drift():
    ind = indicator(0.1)
    x = [1.15, 0.05]
    one = generator_probe.apply_generator(sde_model.ou_inward(2, 1.0), ind, 0.0, x)
    two = generator_probe.apply_generator(sde_model.ou_inward(2, 2.0), ind, 0.0, x)
    assert two == pytest.approx(2.0 * one, abs=1e-12)
    assert one > 0.0  # inward drift pushes mass toward the domain


def test_default_shell_tolerance_closed_form():
    model = sde_model.ou_inward(2, rate=1.0)
    points = np.array([[1.1, 0.0], [0.0, 1.2]])
    eps = 0.1
    tol = generator_probe.default_shell_tolerance(model, points, 0.0, eps)
    assert tol == pytest.approx(1e-3 * 1.2 / eps**2, rel=1e-12)
    doubled = generator_probe.default_shell_tolerance(
        model, points, 0.0, eps, factor=2.0
    )
    assert doubled == pytest.approx(2.0 * tol, rel=1e-12)


def _reference_shell_tolerance(model, points, s, eps, factor=1.0):
    # the point-by-point loop that default_shell_tolerance replaced, verbatim
    sup_a = 0.0
    sup_sig = 0.0
    for x in points:
        a = model.drift(s, x)
        sup_a = max(sup_a, float(np.linalg.norm(a)))
        sig = sde_model.sigma(model, s, x)
        sup_sig = max(sup_sig, float(np.linalg.norm(sig, 2)))
    return 1e-3 * (sup_a + sup_sig) / (eps * eps) * factor


def _nan_drift(model):
    """model with a NaN drift at the points where x_0 > 0.5."""

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.where((x[..., 0] > 0.5)[..., None], np.nan, model.drift(t, x))

    return dataclasses.replace(model, drift=drift)


@pytest.mark.parametrize(
    "model",
    [
        sde_model.brownian(3),
        sde_model.rotational(),
        sde_model.ou_inward(2),
        sde_model.linear(
            [[-1.0, 0.3], [-0.2, -0.5]], [0.1, 0.0],
            B=[[[0.0, 0.4], [-0.4, 0.1]], [[0.2, 0.0], [0.3, -0.7]]], d=[[0.1, 0.2], [0.0, 0.3]],
        ),
        _nan_drift(sde_model.rotational()),
    ],
    ids=["brownian3", "rotational", "ou_inward2", "linear2", "nan_drift"],
)
def test_default_shell_tolerance_matches_the_point_loop_bit_for_bit(model):
    n = model.dimension
    domain = geometry.ball([0.1] * n, 1.0)
    feet, normals = geometry.sample_offset_boundary(domain, 0.0, 200, 5)
    points = feet + np.linspace(0.1, 0.3, 200)[:, None] * normals
    for s, eps, factor in ((0.0, 0.1, 1.0), (0.5, 0.05, 2.5)):
        got = generator_probe.default_shell_tolerance(model, points, s, eps, factor)
        expect = _reference_shell_tolerance(model, points, s, eps, factor)
        assert np.isfinite(got) and got.hex() == expect.hex()


def test_shell_sign_check_accepts_tangential_model():
    model = sde_model.rotational(spin=1.0, inward_rate=1.0)
    result = generator_probe.shell_sign_check(
        model, unit_ball(), eps=0.1, s=0.0, n_points=100, seed=7, nodes_per_axis=32
    )
    assert result.passed
    assert result.min_value >= -result.tolerance_used
    assert result.points.shape == (100, 2)
    assert all(t == geometry.REGION_SHELL for t in result.region_tags)
    assert np.all(result.distances > 0.1) and np.all(result.distances < 0.3)


def test_shell_sign_check_refuses_a_model_of_another_dimension():
    for model, n in ((sde_model.ou_inward(1), 1), (sde_model.brownian(3), 3)):
        with pytest.raises(ValueError, match=f"model has dimension {n}, the domain 2"):
            generator_probe.shell_sign_check(model, unit_ball(), eps=0.1, s=0.0, n_points=4, seed=7)


def test_shell_sign_check_rejects_outward_drift():
    model = sde_model.outward(2, rate=1.0)
    result = generator_probe.shell_sign_check(
        model, unit_ball(), eps=0.1, s=0.0, n_points=100, seed=7, nodes_per_axis=32
    )
    assert not result.passed
    assert result.min_value < -result.tolerance_used


def test_shell_sign_check_zero_model_is_exact():
    result = generator_probe.shell_sign_check(
        sde_model.linear(np.zeros((2, 2))), unit_ball(), eps=0.1, s=0.0,
        n_points=20, seed=7,
    )
    assert np.all(result.values == 0.0)
    assert result.tolerance_used == 0.0
    assert result.passed


def test_shell_sign_check_reproducible_and_thread_invariant():
    model = sde_model.rotational()
    kwargs = dict(eps=0.1, s=0.0, n_points=40, seed=9, nodes_per_axis=24)
    a = generator_probe.shell_sign_check(model, unit_ball(), **kwargs)
    b = generator_probe.shell_sign_check(model, unit_ball(), **kwargs)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.min_value == b.min_value


def _probe_3d_ball(n_points):
    return generator_probe.shell_sign_check(
        sde_model.brownian(3), geometry.ball([0.0, 0.0, 0.0], 1.0),
        eps=0.1, s=0.0, n_points=n_points, seed=11, nodes_per_axis=12,
    )


@forking
def test_split_probe_is_bit_identical_for_any_cpu_count(monkeypatch):
    """1, 2 or 3 CPUs give the same probe of the 3-D ball, bit for bit."""
    results = []
    for w in (1, 2, 3):
        forks = _on_cpus(monkeypatch, w)
        results.append(_probe_3d_ball(3 * generator_probe.MIN_POINTS_PER_SHARE))
        assert len(forks) == w - 1
        _assert_no_child_left()
    first = results[0]
    assert not first.passed  # Brownian motion leaves the ball
    for other in results[1:]:
        assert other.values.tobytes() == first.values.tobytes()
        assert other.points.tobytes() == first.points.tobytes()
        assert other.min_value == first.min_value
        assert other.passed == first.passed


class GeneratorFailure(Exception):
    pass


@forking
@pytest.mark.parametrize("failing_point", ["caller", "child"])
def test_failing_probe_share_raises_in_caller_and_leaves_no_child(
    monkeypatch, failing_point
):
    """apply_generator raising in the caller's share or in a child's share
    raises the same exception type in the caller, and every child is reaped."""
    n_points = 2 * generator_probe.MIN_POINTS_PER_SHARE
    points = _probe_3d_ball(n_points).points
    bad = points[0] if failing_point == "caller" else points[-1]
    real = generator_probe.apply_generator

    def apply_generator(model, ind, s, x):
        if np.array_equal(x, bad):
            raise GeneratorFailure("refused a probe point")
        return real(model, ind, s, x)

    monkeypatch.setattr(generator_probe, "apply_generator", apply_generator)
    forks = _on_cpus(monkeypatch, 2)
    with pytest.raises(GeneratorFailure, match="refused"):
        _probe_3d_ball(n_points)
    assert len(forks) == 1
    _assert_no_child_left()


@forking
def test_small_probe_forks_nothing(monkeypatch):
    """Under two shares' worth of points the probe runs in the caller alone."""
    forks = _on_cpus(monkeypatch, 4)
    result = generator_probe.shell_sign_check(
        sde_model.rotational(), unit_ball(), eps=0.1, s=0.0,
        n_points=2 * generator_probe.MIN_POINTS_PER_SHARE - 1, seed=9,
        nodes_per_axis=8,
    )
    assert result.values.shape == (2 * generator_probe.MIN_POINTS_PER_SHARE - 1,)
    assert not forks


def test_shell_sign_check_tolerance_override():
    model = sde_model.rotational()
    result = generator_probe.shell_sign_check(
        model,
        unit_ball(),
        eps=0.1,
        s=0.0,
        n_points=10,
        seed=7,
        tol_shell_factor=2.0,
    )
    expected = generator_probe.default_shell_tolerance(model, result.points, 0.0, 0.1, 2.0)
    assert result.tolerance_used == expected
    with pytest.raises(ValueError):
        generator_probe.shell_sign_check(
            sde_model.rotational(), unit_ball(), eps=0.1, s=0.0, n_points=0, seed=7
        )


def test_sample_initial_cloud_point_kind():
    pts = generator_probe.sample_initial_cloud(
        unit_ball(), {"kind": "point", "x": [0.2, 0.1]}, 5, seed=1
    )
    assert pts.shape == (5, 2)
    np.testing.assert_array_equal(pts, np.tile([0.2, 0.1], (5, 1)))
    with pytest.raises(ImmediateExit):
        generator_probe.sample_initial_cloud(
            unit_ball(), {"kind": "point", "x": [2.0, 0.0]}, 5, seed=1
        )


def test_sample_initial_cloud_points_kind():
    given = [[0.1, 0.0], [0.0, -0.4]]
    pts = generator_probe.sample_initial_cloud(
        unit_ball(), {"kind": "points", "points": given}, 2, seed=1
    )
    np.testing.assert_array_equal(pts, np.asarray(given))
    with pytest.raises(ImmediateExit):
        generator_probe.sample_initial_cloud(
            unit_ball(), {"kind": "points", "points": [[0.1, 0.0], [1.5, 0.0]]}, 2, 1
        )


@pytest.mark.parametrize(
    "cloud",
    [
        {"kind": "points", "points": [[0.1, 0.0]]},
        {"kind": "points", "points": [0.1, 0.0]},
        {"kind": "point", "x": [0.1, 0.0, 0.0]},
        {"kind": "uniform_ball", "center": [0.0, 0.0, 0.0], "radius": 0.1},
        # a point is one 1-D x of the domain's dimension
        {"kind": "point", "x": [[0.1, 0.0]]},
        # a kind without its key
        {"kind": "point"},
        {"kind": "points"},
    ],
)
def test_sample_initial_cloud_of_another_shape_is_refused(cloud):
    """A cloud that is not (count, n), or lacks its kind's key, raises
    ValueError naming its kind."""
    with pytest.raises(ValueError, match=repr(cloud["kind"])):
        generator_probe.sample_initial_cloud(unit_ball(), cloud, 5, seed=1)


def test_sample_initial_cloud_uniform_ball_default():
    pts = generator_probe.sample_initial_cloud(unit_ball(), None, 200, seed=4)
    assert pts.shape == (200, 2)
    radii = np.linalg.norm(pts, axis=1)
    # default radius is half the inner radius of the domain
    assert radii.max() <= 0.5 + 1e-12
    again = generator_probe.sample_initial_cloud(unit_ball(), None, 200, seed=4)
    np.testing.assert_array_equal(pts, again)
    with pytest.raises(ValueError):
        generator_probe.sample_initial_cloud(unit_ball(), {"kind": "spiral"}, 5, 1)


def test_statement5_gap_constant_regions_are_exact():
    ind = indicator(0.1)
    deep = np.array([[0.0, 0.0], [0.2, 0.1]])
    far = np.array([[3.0, 0.0], [0.0, -2.5]])
    assert generator_probe.statement5_gap(ind, deep, unit_ball()) == 0.0
    assert generator_probe.statement5_gap(ind, far, unit_ball()) == 0.0


def test_statement5_gap_positive_on_shell_cloud():
    ind = indicator(0.1)
    cloud = np.array([[1.08, 0.0], [0.0, 1.12], [-1.15, 0.0]])
    gap = generator_probe.statement5_gap(ind, cloud, unit_ball())
    assert gap > 0.01


def test_statement5_gap_nonnegative_on_mixed_cloud():
    ind = indicator(0.15)
    rng = np.random.default_rng(31)
    cloud = rng.uniform(-1.6, 1.6, size=(300, 2))
    gap = generator_probe.statement5_gap(ind, cloud, unit_ball())
    assert gap >= -1e-9


def test_statement5_gap_tightens_as_eps_shrinks():
    # on a fixed cloud just outside the boundary the surplus of the smoothed
    # indicator over the sharp one decays with the support radius
    angles = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    cloud = np.stack([1.08 * np.cos(angles), 1.08 * np.sin(angles)], axis=1)
    gaps = [
        generator_probe.statement5_gap(indicator(e), cloud, unit_ball())
        for e in (0.2, 0.1, 0.05)
    ]
    assert gaps[0] >= gaps[1] >= gaps[2] >= 0.0
    with pytest.raises(ValueError):
        generator_probe.statement5_gap(
            indicator(0.1), np.zeros((0, 2)), unit_ball()
        )


def test_lemma1_gap_zero_model_is_exactly_zero():
    gap, se = generator_probe.lemma1_gap(
        sde_model.linear(np.zeros((2, 2))), unit_ball(), eps=0.1, t_final=0.5, dt=0.05,
        n_paths=50, seed=3,
    )
    assert gap == 0.0
    assert se == 0.0


def test_lemma1_gap_invariant_dynamics():
    # contraction plus tangential noise keeps every path inside, where the
    # indicator is constant one, so the paired differences vanish
    gap, se = generator_probe.lemma1_gap(
        sde_model.rotational(spin=1.0, inward_rate=1.0),
        unit_ball(),
        eps=0.1,
        t_final=0.5,
        dt=0.01,
        n_paths=200,
        seed=5,
    )
    assert se >= 0.0
    assert gap >= -3.0 * se
    assert gap == 0.0


def test_lemma1_gap_ellipsoid_default_cloud():
    # The default start cloud puts lattice nodes near the medial axis of the
    # ellipse, where eta is exactly 1 and no projection is needed.
    gap, se = generator_probe.lemma1_gap(
        sde_model.ou_inward(2),
        geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]),
        0.1, 0.1, 0.01, 200, 3,
    )
    assert se >= 0.0
    assert gap >= -3.0 * se


def test_lemma1_gap_detects_leaking_dynamics():
    small = geometry.ball([0.0, 0.0], 0.5)
    gap, se = generator_probe.lemma1_gap(
        sde_model.brownian(2),
        small,
        eps=0.1,
        t_final=0.5,
        dt=0.01,
        n_paths=200,
        seed=5,
        initial_cloud={"kind": "point", "x": [0.0, 0.0]},
    )
    assert gap < -3.0 * se


def test_lemma1_gap_deterministic():
    args = dict(eps=0.1, t_final=0.2, dt=0.02, n_paths=40, seed=11)
    a = generator_probe.lemma1_gap(sde_model.brownian(2), unit_ball(), **args)
    b = generator_probe.lemma1_gap(sde_model.brownian(2), unit_ball(), **args)
    assert a == b
