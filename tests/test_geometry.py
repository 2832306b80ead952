import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from viability import geometry
from viability.errors import DegenerateGradient, NoConvergence


def unit_ball():
    return geometry.ball([0.0, 0.0], 1.0)


def test_signed_level_ball_cases():
    d = unit_ball()
    assert geometry.signed_level(d, [0.0, 0.0]) == pytest.approx(-1.0, abs=1e-15)
    assert geometry.signed_level(d, [2.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert geometry.signed_level(d, [0.0, -1.0]) == pytest.approx(0.0, abs=1e-15)


BUILT_IN_KINDS = [
    geometry.ball([0.3, -0.2], 1.0),
    geometry.ellipsoid([0.5, -0.5], [2.0, 1.0]),
    geometry.even_p_norm_ball([0.0, 0.1], 1.0, 4),
    geometry.ball([0.1, 0.0, -0.2], 1.0),
    geometry.ellipsoid([0.1, 0.0, -0.1], [1.2, 1.0, 0.8]),
    geometry.even_p_norm_ball([0.0, 0.1, 0.0], 1.0, 4),
]


def test_signed_level_batch_matches_scalar():
    # Bit for bit: a path replayed as a one-row block must stop where its row
    # in a batch stops.
    rng = np.random.default_rng(3)
    for d in BUILT_IN_KINDS:
        pts = d.center + rng.uniform(-2.0, 2.0, size=(300, d.dimension))
        batch = d.level_fn(pts)
        for row, expect in zip(pts, batch):
            assert d.level_fn(row) == expect
            assert d.level_fn(row[None, :])[0] == expect


def test_outward_normal_radial():
    d = unit_ball()
    np.testing.assert_allclose(geometry.outward_normal(d, [1.0, 0.0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(geometry.outward_normal(d, [0.0, -1.0]), [0.0, -1.0], atol=1e-15)


def test_outward_normal_ellipsoid_axis_point():
    # gradient (x/2, 2y) at (2, 0) normalizes to (1, 0)
    d = geometry.ellipsoid([0.0, 0.0], [2.0, 1.0])
    np.testing.assert_allclose(geometry.outward_normal(d, [2.0, 0.0]), [1.0, 0.0], atol=1e-14)


def test_outward_normal_degenerate_at_center():
    with pytest.raises(DegenerateGradient):
        geometry.outward_normal(unit_ball(), [0.0, 0.0])


def test_outward_normal_matches_fd_gradient():
    rng = np.random.default_rng(7)
    domains = [
        unit_ball(),
        geometry.ellipsoid([0.0, 0.0], [2.0, 1.0]),
        geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4),
    ]
    h = 1e-7
    for d in domains:
        for _ in range(34):
            z = geometry.sample_offset_boundary(d, 0.0, 1, int(rng.integers(1 << 30)))[0][0]
            g = np.zeros(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                g[j] = (d.level_fn(z + e) - d.level_fn(z - e)) / (2 * h)
            nu = geometry.outward_normal(d, z)
            fd = g / np.linalg.norm(g)
            assert np.linalg.norm(nu - fd) <= 1e-6  # |fd| = 1, so this is relative


def _scalar_outward_normal(domain, z):
    """Verbatim copy of the per-point normal that outward_normal_batch replaced."""
    g = domain.gradient_fn(z)
    ng = np.linalg.norm(g)
    if ng < geometry.GRAD_TOLERANCE:
        raise DegenerateGradient(f"|grad Q| = {ng:.3e} at {np.asarray(z)!r}")
    return g / ng


def _scalar_ball_gradient(center):
    """Verbatim copy of the ball's point gradient that the batch form replaced."""
    c = np.asarray(center, dtype=float)

    def grad(x):
        u = np.asarray(x, dtype=float) - c
        nu = np.linalg.norm(u)
        return u / nu if nu >= geometry.GRAD_TOLERANCE else np.zeros(c.size)

    return grad


@pytest.mark.parametrize("d", BUILT_IN_KINDS)
def test_outward_normal_batch_matches_the_scalar_normal_bit_for_bit(d):
    rng = np.random.default_rng(5)
    Z = d.center + rng.uniform(-2.0, 2.0, size=(300, d.dimension))
    batch = geometry.outward_normal_batch(d, Z)
    old = np.array([_scalar_outward_normal(d, z) for z in Z])
    assert batch.tobytes() == old.tobytes()
    assert np.array([geometry.outward_normal(d, z) for z in Z]).tobytes() == old.tobytes()
    if d.kind == "ball":
        grad = _scalar_ball_gradient(d.center)
        assert np.array([d.gradient_fn(z) for z in Z]).tobytes() == np.array(
            [grad(z) for z in Z]
        ).tobytes()


def test_outward_normal_batch_names_the_first_degenerate_row():
    Z = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]])
    Z[3] += 1e-14
    with pytest.raises(DegenerateGradient) as err:
        geometry.outward_normal_batch(unit_ball(), Z)
    with pytest.raises(DegenerateGradient) as one:
        _scalar_outward_normal(unit_ball(), Z[1])
    assert str(err.value) == str(one.value)


@pytest.mark.parametrize("d", BUILT_IN_KINDS)
def test_sample_offset_boundary_matches_the_per_foot_loop_bit_for_bit(d):
    # Verbatim copy of the per-foot loop that the batched normals replaced.
    def per_foot(domain, eps, count, seed):
        rng = geometry.generator(seed)
        samples = []
        for foot in domain.boundary_points(rng, count):
            nu = _scalar_outward_normal(domain, foot)
            z = foot + eps * nu
            samples.append((z, nu))
        return samples

    for eps in (0.0, 0.1):
        points, normals = geometry.sample_offset_boundary(d, eps, 100, 13)
        old = per_foot(d, eps, 100, 13)
        assert points.tobytes() == np.array([z for z, _ in old]).tobytes()
        assert normals.tobytes() == np.array([nu for _, nu in old]).tobytes()


def test_project_ball_radial_and_center_tie():
    d = unit_ball()
    foot, dist = geometry.project_to_boundary(d, [2.0, 0.0])
    np.testing.assert_allclose(foot, [1.0, 0.0], atol=1e-12)
    assert dist == pytest.approx(1.0, abs=1e-12)
    foot, dist = geometry.project_to_boundary(d, [0.0, 0.0])
    assert dist == pytest.approx(1.0, abs=1e-12)
    assert abs(d.level_fn(foot)) < 1e-10
    feet, dists = geometry.project_to_boundary_batch(d, [[2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(feet, [[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(dists, [1.0, 1.0])


def _parent_ball_projection(domain, x):
    # The scalar closed form that projected one point onto a ball before
    # balls were projected as a batch, kept verbatim as the reference.
    x = np.asarray(x, dtype=float)
    c, r = domain.center, domain.inner_radius
    u = x - c
    nu = np.linalg.norm(u)
    if nu < 1e-13:
        uhat = np.zeros(domain.dimension)
        uhat[0] = 1.0
    else:
        uhat = u / nu
    foot = c + r * uhat
    return foot, abs(nu - r)


@pytest.mark.parametrize(
    "center,radius",
    [
        ([0.3], 0.8),
        ([0.3, -0.7], 1.3),
        ([0.1, -0.2, 0.45], 0.9),
        ([0.1, -0.2, 0.45, 0.3], 1.1),
        ([0.1, -0.2, 0.45, 0.3, -0.6], 0.7),
        ([0.1, -0.2, 0.45, 0.3, -0.6, 0.05], 1.4),
    ],
)
def test_ball_projection_matches_the_closed_form_bit_for_bit(center, radius):
    domain = geometry.ball(center, radius)
    n = domain.dimension
    rng = np.random.default_rng(17)
    X = np.vstack([
        domain.center + rng.uniform(-3.0, 3.0, size=(2000, n)),  # outside and inside
        domain.center + rng.normal(scale=1e-3, size=(200, n)),  # near the center
        domain.center + rng.uniform(-1e-14, 1e-14, size=(50, n)),  # below the tie length
        domain.center,
    ])
    assert np.any(domain.level_fn(X) > 0.0) and np.any(domain.level_fn(X) < 0.0)
    expect = [_parent_ball_projection(domain, x) for x in X]
    want_feet = np.array([foot for foot, _ in expect])
    want_dists = np.array([dist for _, dist in expect])
    for batch in (X, np.asfortranarray(X)):
        feet, dists = geometry.project_to_boundary_batch(domain, batch)
        np.testing.assert_array_equal(feet, want_feet)
        np.testing.assert_array_equal(dists, want_dists)
    for x, (want_foot, want_dist) in zip(X, expect):
        foot, dist = geometry.project_to_boundary(domain, x)
        np.testing.assert_array_equal(foot, want_foot)
        np.testing.assert_array_equal(dist, want_dist)


@pytest.mark.parametrize(
    "center,radius",
    [([0.0, 0.0], 1.0), ([0.0, 0.0, 0.0], 0.7), ([0.0, 0.0], 3.7), ([0.3, -1.2, 2.5], 1.0)],
)
def test_ball_outside_is_exactly_a_positive_level_near_the_sphere(center, radius):
    """The closed-form exit test compares the sum of squares with the largest
    double whose rounded sqrt is at most r, not with r * r: on 50,000 points
    within a few ulps of the sphere it gives every decision of
    signed_level > 0, including sums of squares that r * r would call out."""
    _assert_outside_is_a_positive_level_near_the_boundary(geometry.ball(center, radius))


@pytest.mark.parametrize(
    "domain",
    [
        geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]),
        geometry.ellipsoid([0.3, -0.2, 0.1], [1.5, 1.0, 1.2]),
        geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4),
        geometry.even_p_norm_ball([0.0, 0.2, 0.0], 1.5, 4),
        geometry.even_p_norm_ball([0.1, -0.3], 0.7, 6),
    ],
    ids=["ellipse2d", "ellipsoid3d", "p4_ball2d", "p4_ball3d", "p6_ball2d"],
)
def test_outside_is_exactly_a_positive_level_near_the_boundary(domain):
    """The ellipsoid and the p-ball compare the level's sum with the level's
    constant: for finite doubles fl(q - k) > 0 exactly when q > k."""
    _assert_outside_is_a_positive_level_near_the_boundary(domain)


def _assert_outside_is_a_positive_level_near_the_boundary(domain):
    # 50,000 points a few ulps of the crossing distance from the boundary,
    # along uniform directions from the center
    rng = np.random.default_rng(41)
    u = rng.standard_normal((50_000, domain.dimension))
    u /= np.linalg.norm(u, axis=1)[:, None]
    ulps = rng.integers(-6, 7, size=50_000)[:, None]
    X = domain.center + u * (domain.ray_crossing(u)[:, None] * (1.0 + ulps * 2.0**-53))
    by_level = geometry.signed_level(domain, X) > 0.0
    assert 0 < by_level.sum() < len(X)
    np.testing.assert_array_equal(domain.outside(X), by_level)


def test_project_ellipsoid_axis_point():
    d = geometry.ellipsoid([0.0, 0.0], [2.0, 1.0])
    foot, dist = geometry.project_to_boundary(d, [3.0, 0.0])
    np.testing.assert_allclose(foot, [2.0, 0.0], atol=1e-8)
    assert dist == pytest.approx(1.0, abs=1e-8)


def test_project_ellipsoid_against_parameterized_search():
    d = geometry.ellipsoid([0.0, 0.0], [2.0, 1.0])
    x = np.array([1.3, 1.1])
    foot, dist = geometry.project_to_boundary(d, x)
    theta = np.linspace(0.0, 2.0 * np.pi, 400001)
    pts = np.stack([2.0 * np.cos(theta), np.sin(theta)], axis=1)
    brute = np.min(np.linalg.norm(pts - x, axis=1))
    assert dist == pytest.approx(brute, abs=1e-6)
    assert abs(d.level_fn(foot)) < 1e-10


def _ellipse_search(semiaxes, x):
    """dist(x, boundary) of an origin-centered ellipse: the 400,001-point
    theta scan, then a golden-section search around its best theta."""
    a, b = semiaxes
    theta = np.linspace(0.0, 2.0 * np.pi, 400001)
    i = int(np.argmin((a * np.cos(theta) - x[0]) ** 2 + (b * np.sin(theta) - x[1]) ** 2))

    def d2(t):
        return (a * math.cos(t) - x[0]) ** 2 + (b * math.sin(t) - x[1]) ** 2

    lo, hi = theta[i] - (theta[1] - theta[0]), theta[i] + (theta[1] - theta[0])
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        t1, t2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
        if d2(t1) < d2(t2):
            hi = t2
        else:
            lo = t1
    return math.sqrt(d2(0.5 * (lo + hi)))


def test_project_ellipse_interior_points_near_the_medial_axis():
    # The closed-form medial axis and the secular-equation solve: every
    # distance matches the refined boundary search to 1e-12.
    d = geometry.ellipsoid([0.0, 0.0], [1.5, 1.0])
    assert geometry.signed_boundary_distance(d, [0.7, 0.0]) == pytest.approx(-0.7797435475847172, abs=1e-15)
    foot, dist = geometry.project_to_boundary(d, [0.0, 0.0])
    assert dist == 1.0 and foot.tolist() == [0.0, 1.0]
    assert geometry.signed_boundary_distance(d, [0.0, 0.0]) == -1.0
    for x in ([0.7, 0.0], [0.0, 0.0], [0.7, 0.05], [-0.7, -0.05], [0.8, 1e-9], [0.83, 0.0], [1.2, 0.3]):
        foot, dist = geometry.project_to_boundary(d, x)
        assert geometry.signed_boundary_distance(d, x) == -dist
        assert abs(dist - _ellipse_search((1.5, 1.0), x)) < 1e-12
        assert abs(d.level_fn(foot)) < 1e-14
        assert np.linalg.norm(np.asarray(x) - foot) == pytest.approx(dist, rel=1e-14)


@pytest.mark.parametrize("semiaxes", [(1.5, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_project_ellipse_matches_the_refined_search(semiaxes):
    # Exterior rows, which the pipeline projects, and interior rows, about
    # a center off the origin.
    c = np.array([0.4, -0.3])
    d = geometry.ellipsoid(c, semiaxes)
    rng = np.random.default_rng(53)
    X = c + rng.uniform(-1.0, 1.0, size=(24, 2)) * 2.0 * np.array(semiaxes)
    assert np.any(d.level_fn(X) > 0.0) and np.any(d.level_fn(X) < 0.0)
    feet, dists = geometry.project_to_boundary_batch(d, X)
    for x, foot, dist in zip(X, feet, dists):
        assert abs(dist - _ellipse_search(semiaxes, x - c)) < 1e-12
        assert abs(d.level_fn(foot)) < 1e-14


def test_project_ellipsoid_with_equal_shortest_axes_on_its_medial_axis():
    # Semiaxes (1.5, 1, 1) turn the 1.5 x 1 ellipse about its long axis, so
    # on that axis the distance is the ellipse's and the foot is taken on
    # the first shortest axis, with a + sign.
    d = geometry.ellipsoid([0.0, 0.0, 0.0], [1.5, 1.0, 1.0])
    foot, dist = geometry.project_to_boundary(d, [0.0, 0.0, 0.0])
    assert dist == 1.0 and foot.tolist() == [0.0, 1.0, 0.0]
    for x0 in (0.0, 0.3, -0.5, 0.8):
        foot, dist = geometry.project_to_boundary(d, [x0, 0.0, 0.0])
        assert abs(dist - _ellipse_search((1.5, 1.0), [x0, 0.0])) < 1e-12
        assert foot[1] > 0.0 and foot[2] == 0.0
        assert abs(d.level_fn(foot)) < 1e-14


def test_project_ellipsoid_on_its_medial_plane():
    # Distinct semiaxes: the medial set is part of the plane of the two
    # longer axes, where the feet come in a +- pair across it. The oracle
    # refines a (phi, theta) scan of the surface by Nelder-Mead.
    a = np.array([1.5, 1.2, 1.0])
    d = geometry.ellipsoid([0.0, 0.0, 0.0], a)

    def surface(p):
        phi, theta = p
        return a * np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
        )

    phi, theta = np.meshgrid(np.linspace(0.0, np.pi, 301), np.linspace(0.0, 2.0 * np.pi, 601))
    grid = surface((phi, theta))
    for x in ([0.4, 0.2, 0.0], [0.0, 0.0, 0.0], [-0.6, 0.1, 0.0], [0.3, -0.3, 0.0]):
        x = np.array(x)
        best = np.unravel_index(np.argmin(np.sum((grid - x) ** 2, axis=-1)), phi.shape)
        fit = optimize.minimize(
            lambda p: np.sum((surface(p) - x) ** 2),
            [phi[best], theta[best]],
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-15},
        )
        foot, dist = geometry.project_to_boundary(d, x)
        assert fit.success and abs(dist - math.sqrt(fit.fun)) < 1e-12
        assert foot[2] > 0.0
        assert abs(d.level_fn(foot)) < 1e-14


def test_project_ellipsoid_converges_on_hard_rows():
    # Rows at many scales, each also with its shortest coordinate scaled by
    # 1e-20 and set to 0, and rows off the medial plane of the (1, 1.01, 3)
    # ellipsoid whose start lies far below the root: no row raises
    # NoConvergence, every foot is on the boundary, and each row has the
    # bits of its batch of one.
    rng = np.random.default_rng(59)
    cases = (
        ([0.0, 0.0], [1.5, 1.0], []),
        ([0.0, 0.0, 0.0], [1.0, 1.01, 3.0], [[1e-20, 0.015, 2.0], [1e-150, 0.015, 2.0], [0.0, 0.015, 2.0]]),
        ([0.0] * 4, [1.0, 1.0, 2.0, 2.5], []),
    )
    for c, a, extra in cases:
        d = geometry.ellipsoid(c, a)
        k = int(np.argmin(a))
        rows = [np.reshape(extra, (-1, len(c)))]
        for scale in (1e-12, 1e-3, 0.3, 0.9, 1.0, 1.1, 3.0, 1e6):
            U = rng.standard_normal((40, len(c))) * scale * np.array(a)
            V = U.copy()
            V[:, k] *= 1e-20
            W = U.copy()
            W[:, k] = 0.0
            rows += [U, V, W]
        X = np.array(c) + np.vstack(rows)
        feet, dists = geometry.project_to_boundary_batch(d, X)
        assert np.max(np.abs(d.level_fn(feet))) < 1e-14
        np.testing.assert_allclose(np.linalg.norm(X - feet, axis=1), dists, rtol=1e-13, atol=1e-15)
        for i in [*range(len(extra)), *rng.choice(X.shape[0], 60, replace=False)]:
            one_foot, one_dist = geometry.project_to_boundary_batch(d, X[i : i + 1])
            assert one_foot[0].tobytes() == feet[i].tobytes()
            assert one_dist[0].tobytes() == dists[i].tobytes()


def test_project_interior_point_general_kind():
    d = geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4)
    foot, dist = geometry.project_to_boundary(d, [0.3, 0.2])
    assert abs(d.level_fn(foot)) < 1e-10
    assert 0.0 < dist < 1.0


def test_offset_membership_tags():
    d = unit_ball()
    assert geometry.offset_membership(d, [1.05, 0.0], 0.1) == "in_K_eps"
    assert geometry.offset_membership(d, [1.2, 0.0], 0.1) == "in_shell_K3eps"
    assert geometry.offset_membership(d, [1.5, 0.0], 0.1) == "outside"
    assert geometry.offset_membership(d, [0.2, 0.0], 0.1) == "inside_K"
    assert geometry.offset_membership(d, [1.0, 0.0], 0.1) == "inside_K"


ORDER = {"inside_K": 0, "in_K_eps": 1, "in_shell_K3eps": 2, "outside": 3}


@settings(max_examples=60, deadline=None)
@given(
    r1=st.floats(0.0, 0.9),
    r2=st.floats(0.9, 2.0),
    angle=st.floats(0.0, 6.28),
    eps=st.floats(0.05, 0.3),
)
def test_offset_membership_monotone_along_rays(r1, r2, angle, eps):
    d = unit_ball()
    u = np.array([np.cos(angle), np.sin(angle)])
    t1 = geometry.offset_membership(d, r1 * u, eps)
    t2 = geometry.offset_membership(d, (r1 + r2) * u, eps)
    assert ORDER[t1] <= ORDER[t2]


def test_sample_offset_boundary_ball():
    d = unit_ball()
    for z, nu in zip(*geometry.sample_offset_boundary(d, 0.5, 64, 42)):
        assert np.linalg.norm(z) == pytest.approx(1.5, abs=1e-9)
        np.testing.assert_allclose(nu, z / np.linalg.norm(z), atol=1e-9)
        assert abs(np.linalg.norm(nu) - 1.0) < 1e-12


def test_sample_offset_boundary_eps_zero():
    d = geometry.ellipsoid([0.0, 0.0], [2.0, 1.0])
    for z, nu in zip(*geometry.sample_offset_boundary(d, 0.0, 32, 3)):
        assert abs(d.level_fn(z)) < 1e-9
        np.testing.assert_allclose(nu, geometry.outward_normal(d, z), atol=1e-12)


@pytest.mark.parametrize(
    "domain",
    [
        geometry.ellipsoid([0.0, 0.0], [2.0, 1.0]),
        geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4),
    ],
)
def test_sample_offset_boundary_reprojects_to_eps(domain):
    eps = 0.2
    for z in geometry.sample_offset_boundary(domain, eps, 48, 11)[0]:
        _, dist = geometry.project_to_boundary(domain, z)
        assert dist == pytest.approx(eps, abs=1e-6)
        assert domain.level_fn(z) > 0.0


def test_sampler_deterministic_and_prefix_stable():
    d = geometry.ellipsoid([0.0, 0.0], [2.0, 1.0])
    a, _ = geometry.sample_offset_boundary(d, 0.1, 20, 5)
    b, _ = geometry.sample_offset_boundary(d, 0.1, 20, 5)
    c, _ = geometry.sample_offset_boundary(d, 0.1, 50, 5)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c[:20])


def test_sampler_area_weighting_ellipsoid():
    # arclength of x^2/16 + y^2 = 1 concentrates where |x| is small; the
    # region |x| > 3.2 carries 0.2454 of the perimeter (dense quadrature),
    # while uniform-angle mapping would put 0.41 of the samples there
    d = geometry.ellipsoid([0.0, 0.0], [4.0, 1.0])
    pts, _ = geometry.sample_offset_boundary(d, 0.0, 4000, 17)
    frac_far = np.mean(np.abs(pts[:, 0]) > 3.2)
    assert abs(frac_far - 0.2454) < 0.03  # about 4 binomial standard errors


def test_ball_closed_forms_match_generic_tolerance():
    d = unit_ball()
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=2)
        foot, dist = geometry.project_to_boundary(d, x)
        r = np.linalg.norm(x)
        assert dist == pytest.approx(abs(r - 1.0), abs=1e-12)
        sd = geometry.signed_boundary_distance(d, x)
        assert sd == pytest.approx(r - 1.0, abs=1e-12)


def test_signed_boundary_distance_batch_matches_scalar():
    # Bit for bit: offset_membership uses the scalar form, the lattice the
    # batch form. Interior points other than the center are left out, since
    # the p-ball's projection from inside may stop at a stationary point.
    rng = np.random.default_rng(5)
    for d in BUILT_IN_KINDS:
        pts = d.center + rng.uniform(-2.0, 2.0, size=(100, d.dimension))
        pts = np.vstack([pts[d.level_fn(pts) > 0.0], d.center])
        batch = geometry.signed_boundary_distance_batch(d, pts)
        for row, expect in zip(pts, batch):
            assert geometry.signed_boundary_distance(d, row) == expect


@pytest.mark.parametrize(
    "domain",
    [
        geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]),
        geometry.ellipsoid([0.1, 0.0, -0.1], [1.2, 1.0, 0.8]),
        geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4),
    ],
    ids=["ellipse2d", "ellipsoid3d", "p4_ball"],
)
def test_project_to_boundary_batch_matches_batch_of_one(domain):
    n = domain.dimension
    rng = np.random.default_rng(31)
    outside = domain.center + rng.uniform(-2.5, 2.5, size=(40, n))
    outside = outside[domain.level_fn(outside) > 0.0]
    # interior points on the shortest axis, off the medial axis, and the center
    inside = domain.center + domain.inner_radius * np.outer([0.6, -0.3], np.eye(n)[-1])
    X = np.vstack([outside, inside, domain.center])
    feet, dists = geometry.project_to_boundary_batch(domain, X)
    assert feet.shape == X.shape and dists.shape == (X.shape[0],)
    for x, foot, dist in zip(X, feet, dists):
        one_foot, one_dist = geometry.project_to_boundary(domain, x)
        np.testing.assert_allclose(foot, one_foot, rtol=0.0, atol=1e-12)
        assert abs(dist - one_dist) <= 1e-12
    assert np.max(np.abs(domain.level_fn(feet))) < 1e-10
    if domain.kind == "ellipsoid":
        # the center's nearest point lies along the first shortest axis
        k = int(np.argmin(domain.ray_crossing(np.eye(n))))
        assert dists[-1] == domain.inner_radius
        np.testing.assert_allclose(
            feet[-1] - domain.center, domain.inner_radius * np.eye(n)[k], rtol=0.0, atol=1e-15
        )
    else:
        # the p-ball's Newton iteration starts the center along the first
        # axis and stays there
        np.testing.assert_allclose(feet[-1] - domain.center, dists[-1] * np.eye(n)[0], atol=1e-12)
    sd = geometry.signed_boundary_distance_batch(domain, X)
    np.testing.assert_array_equal(np.abs(sd), dists)
    assert np.all(sd[: outside.shape[0]] > 0.0) and np.all(sd[outside.shape[0]:] < 0.0)


@pytest.mark.parametrize(
    "domain",
    [
        geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]),
        geometry.ellipsoid([0.1, 0.0, -0.1], [1.2, 1.0, 0.8]),
        geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4),
        geometry.even_p_norm_ball([0.0, 0.2, 0.0], 1.5, 4),
    ],
    ids=["ellipse2d", "ellipsoid3d", "p4_ball2d", "p4_ball3d"],
)
def test_project_to_boundary_batch_rows_are_bit_identical(domain):
    # theorem_checker projects the ascent moves of many walks in one batch
    # and relies on each row matching its projection alone, bit for bit.
    # Points lie outside K: tangential moves from offset points and points
    # of a box around K.
    n = domain.dimension
    rng = np.random.default_rng(47)
    moves = []
    for z, nu in zip(*geometry.sample_offset_boundary(domain, 0.05, 30, 3)):
        t = rng.standard_normal(n)
        t -= np.dot(t, nu) * nu
        moves.append(z + rng.uniform(0.0, 0.2) * t)
    box = domain.center + rng.uniform(-2.5, 2.5, size=(60, n))
    X = np.vstack([moves, box[domain.level_fn(box) > 0.0]])
    feet, dists = geometry.project_to_boundary_batch(domain, X)
    for x, foot, dist in zip(X, feet, dists):
        one_feet, one_dists = geometry.project_to_boundary_batch(domain, x[None, :])
        assert one_feet[0].tobytes() == foot.tobytes()
        assert one_dists[0].tobytes() == dist.tobytes()
    subset = rng.permutation(X.shape[0])[: X.shape[0] // 3]
    sub_feet, sub_dists = geometry.project_to_boundary_batch(domain, X[subset])
    assert sub_feet.tobytes() == feet[subset].tobytes()
    assert sub_dists.tobytes() == dists[subset].tobytes()


def test_offset_membership_interior_point_of_implicit_domain():
    # Inside K the tag needs no projection; this point lies near the medial
    # axis of the ellipse, where a Newton iteration from the radial point
    # stalls and only the exact projection finds the nearest point.
    d = geometry.ellipsoid([0.0, 0.0], [1.5, 1.0])
    assert geometry.offset_membership(d, [0.7, 0.05], 0.1) == "inside_K"
    assert geometry.offset_membership(d, [1.55, 0.0], 0.1) == "in_K_eps"


MEMBERSHIP_DOMAINS = [
    unit_ball(),
    geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]),
    geometry.even_p_norm_ball([0.0, 0.1], 1.0, 4),
]


@pytest.mark.parametrize("domain", MEMBERSHIP_DOMAINS, ids=["ball", "ellipse", "pball"])
def test_offset_membership_of_a_batch_matches_its_points(domain, monkeypatch):
    rng = np.random.default_rng(19)
    eps = 0.1
    box = domain.center + rng.uniform(-1.9, 1.9, size=(200, 2))
    # a point of each K where the p-ball's Newton iteration stalls
    stalls = domain.center + [0.57, -0.52]
    boundary = geometry.sample_offset_boundary(domain, 0.0, 5, 1)[0]
    X = np.vstack([box, domain.center, stalls, boundary])
    inside = domain.level_fn(X) <= 0.0
    assert inside.any() and not inside.all()
    one = tuple(geometry.offset_membership(domain, x, eps) for x in X)
    assert set(one) == {"inside_K", "in_K_eps", "in_shell_K3eps", "outside"}
    # one distance call, over the rows outside K only
    seen = []
    batch_distance = geometry.signed_boundary_distance_batch

    def counted(domain, rows):
        seen.append(rows)
        return batch_distance(domain, rows)

    monkeypatch.setattr(geometry, "signed_boundary_distance_batch", counted)
    assert geometry.offset_membership(domain, X, eps) == one
    assert len(seen) == 1 and seen[0].tobytes() == X[~inside].tobytes()
    assert geometry.offset_membership(domain, X[inside], eps) == ("inside_K",) * inside.sum()
    assert len(seen) == 2 and seen[1].shape == (0, 2)
    if domain.kind == "even_p_norm_ball":
        with pytest.raises(NoConvergence):
            domain.project(stalls[None])


@pytest.mark.parametrize("missing", ["project", "outside"])
def test_an_implicit_domain_needs_a_projection(missing):
    d = unit_ball()
    fields = {f.name: getattr(d, f.name) for f in dataclasses.fields(d) if f.name != missing}
    with pytest.raises(TypeError, match=missing):
        geometry.ImplicitDomain(**fields)


def _bordered_newton(domain, X):
    """The generic projection that project_to_boundary_batch ran for kinds
    without a projection of their own, verbatim apart from the ray crossing
    written out and the module's names qualified."""
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    U = X - domain.center
    length = np.linalg.norm(U, axis=1)
    uhat = geometry._unit_rows(U, length)
    s = domain.ray_crossing(uhat)
    z = domain.center + s[:, None] * uhat
    g = domain.gradient_fn(z)
    g2 = np.sum(g * g, axis=1)
    mu = np.divide(np.sum((X - z) * g, axis=1), g2, out=np.zeros(m), where=g2 > 0)
    tol = geometry.PROJECT_TOL * (1.0 + length)
    eye = np.eye(n)

    def residual(x, z, mu):
        g = domain.gradient_fn(z)
        F = np.concatenate([z - x + mu[:, None] * g, domain.level_fn(z)[:, None]], axis=1)
        return F, g

    feet = np.empty_like(X)
    live, x = np.arange(m), X
    F, g = residual(x, z, mu)
    norm = np.linalg.norm(F, axis=1)
    for _ in range(geometry.PROJECT_MAX_ITER):
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
            f"projection did not converge in {geometry.PROJECT_MAX_ITER} iterations"
        )
    return feet, np.linalg.norm(X - feet, axis=1)


def _outcome(project, X):
    try:
        feet, dists = project(X)
    except NoConvergence as exc:
        return str(exc)
    return feet.tobytes(), dists.tobytes()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [4, 6])
def test_pball_projection_is_the_generic_newton_iteration_bit_for_bit(n, p):
    rng = np.random.default_rng(10 * n + p)
    c = rng.uniform(-0.3, 0.3, n)
    d = geometry.even_p_norm_ball(c, 1.3, p)
    box = c + rng.uniform(-2.5, 2.5, size=(200, n))
    e0 = np.eye(n)[0]
    axis = c + np.outer([1e-14, 3e-13, 0.5, 2.0, -1.7], e0)
    near_axis = c + np.array([0.5 * e0 + 1e-9, 2.0 * e0 - 1e-12, np.full(n, 1e-14)])
    exterior = box[d.level_fn(box) > 0.0]
    interior = box[d.level_fn(box) <= 0.0]
    # every row, alone, has the old outcome: the same bits or the same error
    for x in np.vstack([exterior, interior, c, axis, near_axis]):
        assert _outcome(d.project, x[None]) == _outcome(
            lambda X: _bordered_newton(d, X), x[None]
        )
    # and so does a batch of every row the iteration converges on
    converges = [x for x in interior if not isinstance(_outcome(d.project, x[None]), str)]
    X = np.vstack([exterior, converges, c, axis, near_axis])
    got = _outcome(d.project, X)
    assert not isinstance(got, str)
    assert got == _outcome(lambda X: _bordered_newton(d, X), X)
    assert geometry.project_to_boundary_batch(d, X)[0].tobytes() == got[0]


OFF_ORIGIN_ELLIPSOID_3D = geometry.ellipsoid([0.3, -0.2, 0.1], [1.5, 1.0, 1.2])


def test_bounding_and_inner_radius():
    cases = [
        (unit_ball(), 1.0, 1.0),
        (geometry.ellipsoid([0.0, 0.0], [2.0, 1.0]), 2.0, 1.0),
        (geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4), 2 ** 0.25, 1.0),
        (OFF_ORIGIN_ELLIPSOID_3D, 1.5, 1.0),
        (geometry.even_p_norm_ball([0.0, 0.1, 0.0], 1.0, 4), 3 ** 0.25, 1.0),
    ]
    rng = np.random.default_rng(19)
    for domain, bounding, inner in cases:
        assert domain.bounding_radius == bounding
        assert domain.inner_radius == inner
        c, n = domain.center, domain.dimension
        # boundary samples lie between the two spheres
        z, _ = geometry.sample_offset_boundary(domain, 0.0, 300, 9)
        r = np.linalg.norm(z - c, axis=1)
        assert np.all(r >= inner - 1e-12) and np.all(r <= bounding + 1e-12)
        # the ray crossing lies on the boundary
        u = rng.standard_normal((300, n))
        u /= np.linalg.norm(u, axis=1)[:, None]
        s = domain.ray_crossing(u)
        assert np.max(np.abs(domain.level_fn(c + s[:, None] * u))) <= 1e-12


@pytest.mark.parametrize(
    "domain",
    BUILT_IN_KINDS + [OFF_ORIGIN_ELLIPSOID_3D],
    ids=lambda d: f"{d.kind}{d.dimension}d{'_off_origin' if d is OFF_ORIGIN_ELLIPSOID_3D else ''}",
)
def test_distance_lower_bound(domain):
    # The lattice skips projecting a node whose bound is already past the
    # band, so the bound must not exceed the distance outside K and must not
    # be positive inside. Inside, projection can stop on the medial axis, so
    # interior bounds are compared with 0 only.
    rng = np.random.default_rng(29)
    X = np.vstack([domain.center + rng.uniform(-3.0, 3.0, size=(300, domain.dimension)), domain.center])
    outside = domain.level_fn(X) > 0.0
    assert 0 < outside.sum() < X.shape[0]
    bound = geometry.distance_lower_bound(domain, X)
    exact = geometry.signed_boundary_distance_batch(domain, X[outside])
    assert np.all(bound[outside] <= exact + 1e-12)
    assert np.all(bound[~outside] <= 0.0)


@pytest.mark.parametrize("domain", BUILT_IN_KINDS, ids=lambda d: f"{d.kind}{d.dimension}d")
def test_derivatives_of_a_batch_are_those_of_its_rows(domain):
    rng = np.random.default_rng(37)
    n = domain.dimension
    X = np.vstack([domain.center + rng.uniform(-2.0, 2.0, size=(50, n)), domain.center])
    np.testing.assert_array_equal(
        domain.gradient_fn(X), np.array([domain.gradient_fn(x) for x in X])
    )
    np.testing.assert_array_equal(
        np.broadcast_to(domain.hessian_fn(X), (X.shape[0], n, n)),
        np.array([domain.hessian_fn(x) for x in X]),
    )


def test_ball_gradient_normalizes_each_row():
    d = unit_ball()
    np.testing.assert_array_equal(d.gradient_fn([[2.0, 0.0], [0.0, 3.0]]), np.eye(2))
    # a single point keeps the bits of u / np.linalg.norm(u)
    for x in np.random.default_rng(41).uniform(-2.0, 2.0, size=(200, 2)):
        assert d.gradient_fn(x).tobytes() == (x / np.linalg.norm(x)).tobytes()


def test_from_config_dispatch():
    d = geometry.from_config({"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.0})
    assert d.kind == "ball" and d.dimension == 3
    with pytest.raises(ValueError):
        geometry.from_config({"kind": "torus"})
    with pytest.raises(ValueError):
        geometry.even_p_norm_ball([0.0, 0.0], 1.0, 3)


@pytest.mark.parametrize(
    "build, args",
    [
        (geometry.ball, ([0.0, 0.0], np.nan)),
        (geometry.ball, ([0.0, 0.0], np.inf)),
        (geometry.ball, ([np.nan, 0.0], 1.0)),
        (geometry.ellipsoid, ([0.0, 0.0], [np.nan, 1.0])),
        (geometry.ellipsoid, ([0.0, -np.inf], [1.0, 1.0])),
        (geometry.even_p_norm_ball, ([0.0, 0.0], np.nan, 4)),
    ],
    ids=["ball_nan_radius", "ball_inf_radius", "ball_nan_center", "ellipsoid_nan_semiaxis",
         "ellipsoid_inf_center", "p4_ball_nan_radius"],
)
def test_non_finite_parameters_are_refused(build, args):
    # a NaN radius passes r <= 0, and every level would then be NaN
    with pytest.raises(ValueError, match="finite"):
        build(*args)
