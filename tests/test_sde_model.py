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
    model = sde_model.linear(np.zeros((2, 2)))
    assert np.all(sde_model.sigma(model, 0.0, [5.0, 5.0]) == 0.0)


def test_sigma_batch_shape_and_rows():
    model = sde_model.rotational()
    pts = np.array([[0.1, 0.2], [1.0, 0.0], [-0.5, 0.5]])
    batch = sde_model.sigma(model, 0.0, pts)
    assert batch.shape == (3, 2, 2)
    for row, pt in zip(batch, pts):
        np.testing.assert_array_equal(row, sde_model.sigma(model, 0.0, pt))


def test_rotational_diffusion_has_the_bits_of_its_stacked_columns():
    """The (..., 2, 1) column is written into one array; it has the bits of
    spin * (-x_2, x_1) stacked, for a batch and a single point."""
    s = 1.7
    model = sde_model.rotational(spin=s, inward_rate=0.3)
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(300, 2))
    for x in (X, X[5], X[::2]):
        stacked = np.stack([-s * x[..., 1], s * x[..., 0]], axis=-1)[..., None]
        b = model.diffusion(0.0, x)
        assert b.shape == stacked.shape
        assert b.tobytes() == stacked.tobytes()


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
    (sde_model.linear(np.zeros((2, 2))), 2),
]
FAMILY_IDS = ["brownian", "ou_inward", "rotational", "linear", "zero"]


@pytest.mark.parametrize("model,k", FAMILIES, ids=FAMILY_IDS)
def test_diffusion_jacobian_matches_finite_differences(model, k):
    n = model.dimension
    X = np.random.default_rng(9).uniform(-1.5, 1.5, size=(5, n))
    for x in X:
        ana = sde_model.diffusion_jacobian(model, 0.0, x)
        num = sde_model._fd_jacobian(model, 0.0, x)
        assert ana.shape == num.shape == (k, n, n)
        np.testing.assert_allclose(ana, num, atol=1e-8)
    # a batch is the stack of its rows
    batch = sde_model.diffusion_jacobian(model, 0.0, X)
    rows = np.stack([sde_model.diffusion_jacobian(model, 0.0, x) for x in X])
    assert batch.shape == (5, k, n, n)
    assert batch.tobytes() == rows.tobytes()


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
    # a batch takes the differences row by row, so it is the stack of its rows
    X = np.array([[0.4, -0.8], [0.0, 0.0], [-1.3, 2.1]])
    batch = sde_model.diffusion_jacobian(model, 0.0, X)
    rows = np.stack([sde_model.diffusion_jacobian(model, 0.0, x) for x in X])
    assert batch.shape == (3, 1, 2, 2)
    assert batch.tobytes() == rows.tobytes()


def test_linear_rejects_inconsistent_shapes():
    for args in (
        dict(A=np.zeros((2, 3))),
        dict(A=np.zeros(2)),
        dict(A=0.0),
        dict(A=np.zeros((0, 0))),
        # n channels: one B matrix and one d vector per coordinate
        dict(A=np.zeros((2, 2)), B=[np.zeros((2, 2))]),
        dict(A=np.zeros((2, 2)), d=[np.zeros(2)]),
        # c, B_k and d_k are not broadcast
        dict(A=-np.eye(2), c=[0.5]),
        dict(A=-np.eye(2), c=[0.5, 0.5, 0.5]),
        dict(A=-np.eye(2), B=[np.zeros((1, 2)), np.zeros((1, 2))]),
        dict(A=-np.eye(2), B=[np.zeros((2, 1)), np.zeros((2, 1))]),
        dict(A=-np.eye(2), d=[[0.1], [0.2]]),
        dict(A=-np.eye(2), d=[0.1, 0.2]),
        # every entry is finite
        dict(A=[[np.nan, 0.0], [0.0, -1.0]]),
        dict(A=-np.eye(2), c=[np.inf, 0.0]),
        dict(A=-np.eye(2), B=[[[np.nan, 0.0], [0.0, 0.0]], np.zeros((2, 2))]),
        dict(A=-np.eye(2), d=[[0.0, -np.inf], [0.0, 0.0]]),
    ):
        with pytest.raises(ValueError):
            sde_model.linear(**args)


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
    model = sde_model.linear(np.zeros((2, 2)))
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


def _per_pair_regularity(model, L, box, pairs, seed, times=(0.0,)):
    """Verbatim copy of the per-pair loop that the batched check replaced."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rng = sde_model.generator(seed)
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
    return sde_model.RegularityReport(max_lip, max_growth, pairs, float(L), passed)


def _bits(report):
    return (
        np.array([report.lipschitz_estimate, report.growth_estimate]).tobytes(),
        report.sample_count, report.bound, report.passed,
    )


REGULARITY_MODELS = {
    "brownian3": lambda: sde_model.brownian(3, 0.7),
    "ou_inward2": lambda: sde_model.ou_inward(2, 1.3),
    "rotational": lambda: sde_model.rotational(0.9, 0.4),
    "linear3": lambda: sde_model.linear(
        [[-1.0, 0.2, 0.0], [-0.1, -0.9, 0.3], [0.0, -0.2, -1.1]],
        [0.05, 0.0, -0.05],
        [[[0.2, 0.0, 0.1], [0.1, 0.3, 0.0], [0.0, -0.1, 0.2]],
         [[0.0, -0.1, 0.2], [0.2, 0.0, 0.1], [0.1, 0.1, -0.2]],
         [[0.1, 0.2, 0.0], [-0.2, 0.1, 0.1], [0.0, 0.3, 0.1]]],
        [[0.1, 0.2, -0.1], [0.0, 0.1, 0.3], [0.2, -0.1, 0.1]],
    ),
}


@pytest.mark.parametrize("family", sorted(REGULARITY_MODELS))
@pytest.mark.parametrize("times", [(0.0,), (0.0, 0.5)])
def test_check_regularity_matches_the_per_pair_loop_bit_for_bit(family, times):
    model = REGULARITY_MODELS[family]()
    n = model.dimension
    center = np.linspace(-0.3, 0.2, n)
    for L, box, pairs, seed in (
        (10.0, (center - 2.0, center + 2.0), 200, 20260821),
        (1.0, (center - 0.5, center + 1.5), 37, 7),
        (10.0, (center, center), 25, 3),  # lo == hi: every pair is skipped
    ):
        new = sde_model.check_regularity(model, L, box, pairs, seed, times=times)
        old = _per_pair_regularity(model, L, box, pairs, seed, times=times)
        assert _bits(new) == _bits(old)
    degenerate = sde_model.check_regularity(model, 10.0, (center, center), 25, 3, times=times)
    assert np.array(degenerate.lipschitz_estimate).tobytes() == np.array(0.0).tobytes()


def test_check_regularity_draws_the_pairs_in_one_call():
    # one (pairs, 2, n) draw reads the stream as the pairs drawn one by one
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 3.0])
    one_by_one = sde_model.generator(5)
    pairs = [[one_by_one.uniform(lo, hi) for _ in (0, 1)] for _ in range(40)]
    at_once = sde_model.generator(5).uniform(lo, hi, size=(40, 2, 3))
    assert at_once.tobytes() == np.array(pairs).tobytes()


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
    # a declaration's keys reach the builder uncast, so the builder checks them
    assert sde_model.ou_inward(np.int64(2)).dimension == 2
    for build in (sde_model.brownian, sde_model.ou_inward):
        for dimension in (None, 0, 2.0, "2"):
            with pytest.raises(ValueError):
                build(dimension)


# Verbatim copies of the per-family closures that the one affine record
# replaced (with _affine, which the old linear summed through; its
# finite-difference self test is left out).
def _reference_brownian(dimension: int, scale: float = 1.0):
    n = dimension
    s = float(scale)
    b = s * np.eye(n)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def diffusion(t, x):
        return np.broadcast_to(b, np.shape(x) + (n,))

    def jac(t, x):
        return np.zeros((n, n, n))

    return sde_model.SdeModel(n, "brownian", drift, diffusion, jac, {"scale": s})


def _reference_ou_inward(dimension: int, rate: float = 1.0):
    n = dimension
    r = float(rate)

    def drift(t, x):
        return -r * np.asarray(x, dtype=float)

    def diffusion(t, x):
        return np.zeros(np.shape(x) + (0,))

    def jac(t, x):
        return np.zeros((0, n, n))

    return sde_model.SdeModel(n, "ou_inward", drift, diffusion, jac, {"rate": r})


def _reference_rotational(spin: float = 1.0, inward_rate: float = 1.0):
    s, rho = float(spin), float(inward_rate)

    def drift(t, x):
        return -rho * np.asarray(x, dtype=float)

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        b = np.empty(x.shape + (1,))
        np.multiply(x[..., 1], -s, out=b[..., 0, 0])
        np.multiply(x[..., 0], s, out=b[..., 1, 0])
        return b

    def jac(t, x):
        out = np.zeros((1, 2, 2))
        out[0, 0, 1] = -s
        out[0, 1, 0] = s
        return out

    return sde_model.SdeModel(
        2, "rotational", drift, diffusion, jac, {"spin": s, "inward_rate": rho}
    )


def _reference_linear(A, c=None, B=None, d=None):
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
        return _reference_affine(A, c, np.asarray(x, dtype=float))

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return np.stack([_reference_affine(Bk, dk, x) for Bk, dk in zip(B, d)], axis=-1)

    jac_stack = np.stack(B)

    def jac(t, x):
        return jac_stack

    return sde_model.SdeModel(
        n, "linear", drift, diffusion, jac,
        {"A": A, "c": c, "B": [Bk for Bk in B], "d": [dk for dk in d]},
    )


def _reference_affine(M, v, x):
    return sum((x[..., j, None] * M[:, j] for j in range(M.shape[1])), v)


LINEAR_SPARSE = dict(
    A=[[-1.0, 0.0, 0.3], [0.0, 0.0, 0.0], [0.2, -0.5, -0.8]],
    c=[0.0, 0.1, -0.2],
    B=[[[0.0, 0.4, 0.0], [-0.3, 0.0, 0.0], [0.0, 0.0, 0.0]],
       [[0.2, 0.0, -0.1], [0.0, 0.0, 0.0], [0.0, 0.5, 0.0]],
       np.zeros((3, 3))],
    d=[[0.0, 0.05, 0.0], [0.0, 0.0, 0.0], [0.1, -0.1, 0.2]],
)
# (new model, reference model, whether the reference may differ in the sign
# of an exact-zero entry: the old linear started every sum at v and added
# the structurally zero terms, so 0.0 + -0.0 came out as 0.0)
REFERENCE_PAIRS = {
    "brownian1": (sde_model.brownian(1, 0.7), _reference_brownian(1, 0.7), False),
    "brownian3": (sde_model.brownian(3, 1.3), _reference_brownian(3, 1.3), False),
    "brownian2_negative": (sde_model.brownian(2, -0.5), _reference_brownian(2, -0.5), False),
    "ou_inward2": (sde_model.ou_inward(2, 1.5), _reference_ou_inward(2, 1.5), False),
    "ou_inward3": (sde_model.ou_inward(3, -0.4), _reference_ou_inward(3, -0.4), False),
    "rotational": (sde_model.rotational(1.7, 0.3), _reference_rotational(1.7, 0.3), False),
    "linear_sparse": (sde_model.linear(**LINEAR_SPARSE), _reference_linear(**LINEAR_SPARSE), True),
    "linear_zero": (sde_model.linear(np.zeros((2, 2))), _reference_linear(np.zeros((2, 2))), False),
    "outward": (sde_model.outward(2, 0.7), _reference_linear(0.7 * np.eye(2)), True),
}


def _points(n):
    """Random rows, rows with exact +-0.0 coordinates, and all-zero rows."""
    X = np.random.default_rng(n).uniform(-2.0, 2.0, size=(64, n))
    X[::3, 0] = 0.0
    X[1::3, -1] = -0.0
    X[2::5] = 0.0
    X[4::7] = -0.0
    return X


@pytest.mark.parametrize("name", sorted(REFERENCE_PAIRS))
def test_affine_record_matches_the_per_family_closures(name):
    new, old, zero_sign_may_differ = REFERENCE_PAIRS[name]
    assert (new.dimension, new.family) == (old.dimension, old.family)
    X = _points(new.dimension)
    for x in (X, X[::2], *X[:12]):
        for f, g in ((new.drift, old.drift), (new.diffusion, old.diffusion)):
            got, want = np.asarray(f(0.0, x)), np.asarray(g(0.0, x))
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            if zero_sign_may_differ:
                got, want = got + 0.0, want + 0.0  # -0.0 + 0.0 is 0.0
            assert got.tobytes() == want.tobytes()
        # the Jacobian is the stored stack, for a point or each row of a batch
        stack = old.jacobian(0.0, x[..., 0, :] if x.ndim == 2 else x)
        jac = new.jacobian(0.0, x)
        assert jac.shape == x.shape[:-1] + stack.shape
        assert jac.tobytes() == np.broadcast_to(stack, jac.shape).tobytes()


# One model per built-in family; each coefficient is an _affine_map evaluator.
LAYOUT_FAMILIES = {
    "brownian": sde_model.brownian(3, 1.3),
    "ou_inward": sde_model.ou_inward(3, 0.4),
    "rotational": sde_model.rotational(1.7, 0.3),
    "linear": sde_model.linear(**LINEAR_SPARSE),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_FAMILIES))
def test_affine_map_keeps_a_c_ordered_batch_c_ordered(name):
    """A C-ordered batch, as the check and the probe pass, gets C-ordered
    coefficients; brownian's constant diffusion stays the read-only stride-0
    view it always was, since rows.row_dot's bits depend on the strides."""
    model = LAYOUT_FAMILIES[name]
    X = _points(model.dimension)
    assert model.drift(0.0, X).flags.c_contiguous
    b = model.diffusion(0.0, X)
    if name == "brownian":
        assert b.strides[0] == 0 and not b.flags.writeable
    else:
        assert b.flags.c_contiguous


@pytest.mark.parametrize("name", sorted(LAYOUT_FAMILIES))
def test_affine_map_follows_a_coordinate_major_batch(name):
    """A Fortran-ordered batch, as the simulator passes, gets Fortran-ordered
    coefficients with the bits of the C-ordered batch."""
    model = LAYOUT_FAMILIES[name]
    X = _points(model.dimension)
    XF = np.asfortranarray(X)
    assert XF.flags.f_contiguous and not XF.flags.c_contiguous
    for f in (model.drift, model.diffusion):
        got = f(0.0, XF)
        assert got.flags.f_contiguous
        assert got.tobytes() == f(0.0, X).tobytes()
