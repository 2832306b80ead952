"""Tests for SDE coefficient families and regularity spot checks."""

import numpy as np
import pytest

from viability import sde_model


def test_sigma_rotational_closed_form():
    model = sde_model.rotational(spin=1.0, inward_rate=1.0)
    x = np.array([0.7, -0.4])
    expected = np.array(
        [[x[1] ** 2, -x[0] * x[1]], [-x[0] * x[1], x[0] ** 2]]
    )
    np.testing.assert_allclose(sde_model.sigma(model, 0.0, x), expected, atol=1e-15)


def test_sigma_rotational_scales_with_spin_squared():
    base = sde_model.sigma(sde_model.rotational(spin=1.0), 0.0, [0.3, 0.5])
    scaled = sde_model.sigma(sde_model.rotational(spin=2.0), 0.0, [0.3, 0.5])
    np.testing.assert_allclose(scaled, 4.0 * base, rtol=1e-14)


def test_sigma_brownian_is_scaled_identity():
    model = sde_model.brownian(3, scale=0.5)
    got = sde_model.sigma(model, 0.0, [1.0, -2.0, 0.3])
    np.testing.assert_array_equal(got, 0.25 * np.eye(3))


def test_sigma_zero_model():
    model = sde_model.zero(2)
    assert np.all(sde_model.sigma(model, 0.0, [5.0, 5.0]) == 0.0)


def test_sigma_batch_shape_and_rows():
    model = sde_model.rotational()
    pts = np.array([[0.1, 0.2], [1.0, 0.0], [-0.5, 0.5]])
    batch = sde_model.sigma(model, 0.0, pts)
    assert batch.shape == (3, 2, 2)
    for row, pt in zip(batch, pts):
        np.testing.assert_array_equal(row, sde_model.sigma(model, 0.0, pt))


def test_sigma_positive_semidefinite():
    rng = np.random.default_rng(5)
    models = [
        sde_model.rotational(1.3, 0.7),
        sde_model.brownian(3, 0.8),
        sde_model.linear(
            np.zeros((2, 2)),
            B=[rng.normal(size=(2, 2)), rng.normal(size=(2, 2))],
            d=[rng.normal(size=2), rng.normal(size=2)],
        ),
    ]
    for model in models:
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=model.dimension)
            eigs = np.linalg.eigvalsh(sde_model.sigma(model, 0.0, x))
            assert eigs.min() >= -1e-12


def test_sigma_linear_matches_column_outer_products():
    B = [np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([[0.5, 0.0], [0.3, 0.9]])]
    d = [np.array([0.1, 0.0]), np.array([-0.2, 0.4])]
    model = sde_model.linear(np.zeros((2, 2)), B=B, d=d)
    x = np.array([0.6, -1.1])
    expected = np.zeros((2, 2))
    for Bk, dk in zip(B, d):
        b = Bk @ x + dk
        expected += np.outer(b, b)
    np.testing.assert_allclose(sde_model.sigma(model, 0.0, x), expected, atol=1e-14)


# (model, channel count k) for each family kind
FAMILIES = [
    (sde_model.brownian(3, scale=0.5), 3),
    (sde_model.ou_inward(2, rate=1.5), 0),
    (sde_model.rotational(spin=1.7, inward_rate=0.3), 1),
    (
        sde_model.linear(
            [[0.2, -1.0], [0.5, 0.1]],
            c=[0.3, -0.2],
            B=[[[1.0, 2.0], [0.0, -1.0]], [[0.5, 0.0], [0.3, 0.9]]],
            d=[[0.1, 0.0], [-0.2, 0.4]],
        ),
        2,
    ),
    (sde_model.zero(2), 2),
]
FAMILY_IDS = ["brownian", "ou_inward", "rotational", "linear", "zero"]


@pytest.mark.parametrize("model,k", FAMILIES, ids=FAMILY_IDS)
def test_diffusion_jacobian_matches_finite_differences(model, k):
    n = model.dimension
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=n)
        ana = sde_model.diffusion_jacobian(model, 0.0, x)
        num = sde_model._fd_jacobian(model, 0.0, x)
        assert ana.shape == num.shape == (k, n, n)
        np.testing.assert_allclose(ana, num, atol=1e-8)


def test_diffusion_jacobian_fd_fallback():
    """A hand-built model without an analytic Jacobian falls back to central
    finite differences; compare against the true derivative of the column."""

    def drift(t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        col = np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 0] ** 2], axis=-1)
        return col[..., None]

    model = sde_model.SdeModel(2, "custom", drift, diffusion, None, {})
    x = np.array([0.4, -0.8])
    got = sde_model.diffusion_jacobian(model, 0.0, x)
    expected = np.array(
        [[[x[1] * np.cos(x[0]), np.sin(x[0])], [2.0 * x[0], 0.0]]]
    )
    np.testing.assert_allclose(got, expected, atol=1e-6)


def test_linear_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        sde_model.linear(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sde_model.linear(np.zeros((2, 2)), B=[np.zeros((2, 2))])


def test_outward_drift_points_away_from_origin():
    model = sde_model.outward(2, rate=0.7)
    x = np.array([0.5, -0.25])
    np.testing.assert_allclose(model.drift(0.0, x), 0.7 * x, atol=1e-15)
    assert model.diffusion(0.0, x).shape == (2, 2)
    assert np.all(model.diffusion(0.0, x) == 0.0)


def test_builtin_families_are_autonomous():
    for model in (
        sde_model.brownian(2),
        sde_model.ou_inward(2, 1.5),
        sde_model.rotational(),
    ):
        x = np.array([0.3, 0.9])
        np.testing.assert_array_equal(model.drift(0.0, x), model.drift(7.0, x))
        np.testing.assert_array_equal(model.diffusion(0.0, x), model.diffusion(7.0, x))


@pytest.mark.parametrize("model,k", FAMILIES, ids=FAMILY_IDS)
def test_coefficients_broadcast_over_batches(model, k):
    n = model.dimension
    pts = np.random.default_rng(4).uniform(-3.0, 3.0, size=(4, n))
    batch_a = model.drift(0.0, pts)
    batch_b = model.diffusion(0.0, pts)
    assert batch_a.shape == (4, n)
    assert batch_b.shape == (4, n, k)
    for i, pt in enumerate(pts):
        assert model.diffusion(0.0, pt).shape == (n, k)
        np.testing.assert_array_equal(batch_a[i], model.drift(0.0, pt))
        np.testing.assert_array_equal(batch_b[i], model.diffusion(0.0, pt))


def test_check_regularity_brownian_passes():
    model = sde_model.brownian(1)
    report = sde_model.check_regularity(
        model, 2.0, ([-2.0], [2.0]), pairs=100, seed=1
    )
    assert report.passed
    assert report.lipschitz_estimate == 0.0
    assert report.growth_estimate <= 1.0
    assert report.sample_count == 100
    assert report.bound == 2.0


def test_check_regularity_refutes_too_small_bound():
    model = sde_model.ou_inward(2, rate=3.0)
    report = sde_model.check_regularity(
        model, 0.5, ([-1.0, -1.0], [1.0, 1.0]), pairs=100, seed=2
    )
    assert not report.passed
    assert report.lipschitz_estimate > 0.5


def test_check_regularity_zero_model_always_passes():
    model = sde_model.zero(2)
    report = sde_model.check_regularity(
        model, 1e-6, ([-5.0, -5.0], [5.0, 5.0]), pairs=50, seed=3
    )
    assert report.passed
    assert report.lipschitz_estimate == 0.0
    assert report.growth_estimate == 0.0


def test_check_regularity_deterministic_in_seed():
    model = sde_model.rotational()
    kwargs = dict(L=5.0, box=([-1.0, -1.0], [1.0, 1.0]), pairs=40)
    a = sde_model.check_regularity(model, seed=7, **kwargs)
    b = sde_model.check_regularity(model, seed=7, **kwargs)
    c = sde_model.check_regularity(model, seed=8, **kwargs)
    assert a == b
    # the Lipschitz ratio of this family is exactly 2 for every pair, so the
    # sampled growth maximum is the seed-sensitive field
    assert a.lipschitz_estimate == pytest.approx(2.0, abs=1e-12)
    assert a.growth_estimate != c.growth_estimate


def test_check_regularity_rejects_zero_pairs():
    with pytest.raises(ValueError):
        sde_model.check_regularity(
            sde_model.brownian(1), 1.0, ([-1.0], [1.0]), pairs=0, seed=1
        )


def test_from_config_dispatches_families():
    m = sde_model.from_config({"family": "brownian", "dimension": 3, "scale": 2.0})
    assert m.family == "brownian" and m.dimension == 3 and m.params["scale"] == 2.0
    m = sde_model.from_config({"family": "ou_inward", "dimension": 2, "rate": 0.4})
    assert m.family == "ou_inward" and m.params["rate"] == 0.4
    m = sde_model.from_config({"family": "rotational", "spin": 1.5})
    assert m.family == "rotational" and m.dimension == 2
    m = sde_model.from_config({"family": "linear", "A": [[0.0, 1.0], [-1.0, 0.0]]})
    assert m.family == "linear"
    with pytest.raises(ValueError):
        sde_model.from_config({"family": "pogo"})
