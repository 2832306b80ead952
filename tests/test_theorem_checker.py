"""Tests for the boundary condition profiles and their verdict rules."""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest

from viability import geometry, sde_model, theorem_checker
from viability.theorem_checker import (
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    CheckerConfig,
)

EPS_GRID = (0.2, 0.1, 0.05, 0.025)


def unit_ball():
    return geometry.ball([0.0, 0.0], 1.0)


def test_condition2_profile_tangential_noise_vanishes():
    # the rotational noise column is orthogonal to every centered circle
    model = sde_model.rotational(spin=1.0, inward_rate=1.0)
    prof = theorem_checker.condition2_profile(
        model, unit_ball(), EPS_GRID, (0.0,), 100, seed=5
    )
    assert all(v <= 1e-12 for v in prof)


def test_condition2_profile_normal_noise_saturates():
    model = sde_model.brownian(1)
    domain = geometry.ball([0.0], 1.0)
    prof = theorem_checker.condition2_profile(
        model, domain, EPS_GRID, (0.0,), 50, seed=5
    )
    # the offset surface in one dimension is two points with normals +-1
    assert prof == [1.0, 1.0, 1.0, 1.0]


def test_condition2_profile_planar_brownian_near_one():
    model = sde_model.brownian(2)
    prof = theorem_checker.condition2_profile(
        model, unit_ball(), EPS_GRID, (0.0,), 100, seed=5
    )
    for v in prof:
        assert 0.95 <= v <= 1.0 + 1e-12


def test_condition2_verdict_all_below_threshold_holds():
    assert (
        theorem_checker.condition2_verdict([1e-14, 2e-15, 0.0], (0.2, 0.1, 0.05))
        == VERDICT_HOLDS
    )
    # absolute branch: small but nonvanishing sups still count as tangent
    assert (
        theorem_checker.condition2_verdict([0.04, 0.04, 0.04], (0.2, 0.1, 0.05))
        == VERDICT_HOLDS
    )


def test_condition2_verdict_quadratic_decay_holds():
    eps = np.array(EPS_GRID)
    prof = (eps**2).tolist()
    assert theorem_checker.condition2_verdict(prof, EPS_GRID) == VERDICT_HOLDS


def test_condition2_verdict_constant_profile_fails():
    assert (
        theorem_checker.condition2_verdict([1.0, 1.0, 1.0, 1.0], EPS_GRID)
        == VERDICT_FAILS
    )


def test_condition2_verdict_linear_decay_fails():
    # sup proportional to eps is not o(eps): the ratio never decreases
    eps = np.array(EPS_GRID)
    assert theorem_checker.condition2_verdict(eps.tolist(), EPS_GRID) == VERDICT_FAILS


def test_condition2_verdict_slow_decay_inconclusive():
    eps = np.array(EPS_GRID)
    prof = (eps**1.2).tolist()
    assert (
        theorem_checker.condition2_verdict(prof, EPS_GRID) == VERDICT_INCONCLUSIVE
    )


def test_condition2_verdict_rejects_misaligned_input():
    with pytest.raises(ValueError):
        theorem_checker.condition2_verdict([1.0, 1.0], (0.2, 0.1))
    with pytest.raises(ValueError):
        theorem_checker.condition2_verdict([1.0, 1.0, 1.0], (0.2, 0.1))


def test_condition3_value_rotational_closed_form():
    """a . nu = -rho (1 + eps) and the correction contributes +s^2 (1+eps)/2,
    so the functional is (1 + eps)(s^2/2 - rho) on the offset circle."""
    for spin, rho in ((1.0, 1.0), (2.0, 0.5), (0.7, 1.3)):
        model = sde_model.rotational(spin=spin, inward_rate=rho)
        eps = 0.1
        point, normal = np.array([1.0 + eps, 0.0]), np.array([1.0, 0.0])
        got = theorem_checker.condition3_value(model, 0.0, point, normal)
        expected = (1.0 + eps) * (0.5 * spin**2 - rho)
        assert got == pytest.approx(expected, abs=1e-14)


def test_condition3_value_pure_drift():
    model = sde_model.ou_inward(2, rate=1.0)
    point, normal = np.array([0.0, 1.05]), np.array([0.0, 1.0])
    got = theorem_checker.condition3_value(model, 0.0, point, normal)
    assert got == pytest.approx(-1.05, abs=1e-14)


def test_condition3_value_zero_model():
    model = sde_model.linear(np.zeros((2, 2)))
    point, normal = np.array([1.1, 0.0]), np.array([1.0, 0.0])
    assert theorem_checker.condition3_value(model, 0.0, point, normal) == 0.0


def test_condition3_profile_rotational_exact_sups():
    # the functional is constant on each offset circle, so sampling and
    # refinement cannot move the sup
    model = sde_model.rotational(spin=1.0, inward_rate=1.0)
    prof = theorem_checker.condition3_profile(
        model, unit_ball(), EPS_GRID, (0.0,), 100, seed=5
    )
    expected = [-(1.0 + e) / 2.0 for e in EPS_GRID]
    np.testing.assert_allclose(prof, expected, atol=1e-12)


def test_condition3_profile_honors_time_grid():
    def drift(t, x):
        return -(1.0 + t) * np.asarray(x, dtype=float)

    def diffusion(t, x):
        return np.zeros(np.shape(x) + (1,))

    def jac(t, x):
        return np.zeros(np.shape(x)[:-1] + (1, 2, 2))

    model = sde_model.SdeModel(2, "custom", drift, diffusion, jac, {})
    late = theorem_checker.condition3_profile(
        model, unit_ball(), (0.2, 0.1, 0.05), (1.0,), 50, seed=5
    )
    mixed = theorem_checker.condition3_profile(
        model, unit_ball(), (0.2, 0.1, 0.05), (0.0, 1.0), 50, seed=5
    )
    np.testing.assert_allclose(late, [-2.4, -2.2, -2.1], atol=1e-10)
    # the sup over times picks the least negative contribution
    np.testing.assert_allclose(mixed, [-1.2, -1.1, -1.05], atol=1e-10)


def test_condition3_verdict_rules():
    assert theorem_checker.condition3_verdict([-1.0, -1.0, -1.0]) == VERDICT_HOLDS
    assert theorem_checker.condition3_verdict([-1.0, -1.0, 0.1]) == VERDICT_FAILS
    # the two smallest sups must clear the margin for a holds verdict
    assert (
        theorem_checker.condition3_verdict([-1.0, -1.0, -1e-5])
        == VERDICT_INCONCLUSIVE
    )
    assert (
        theorem_checker.condition3_verdict([-1.0, -1e-5, -1.0])
        == VERDICT_INCONCLUSIVE
    )
    with pytest.raises(ValueError):
        theorem_checker.condition3_verdict([-1.0, -1.0])


def test_verdicts_recomputable_from_stored_profiles():
    model = sde_model.rotational()
    report = theorem_checker.theorem1_report(model, unit_ball())
    assert (
        theorem_checker.condition2_verdict(
            report.cond2_sup, report.eps_grid, report.delta_abs, report.p_min
        )
        == report.cond2_verdict
    )
    assert (
        theorem_checker.condition3_verdict(report.cond3_sup, report.delta_margin)
        == report.cond3_verdict
    )


def test_theorem1_report_rotational_predicts_invariance():
    model = sde_model.rotational(spin=1.0, inward_rate=1.0)
    report = theorem_checker.theorem1_report(model, unit_ball())
    assert report.cond2_verdict == VERDICT_HOLDS
    assert report.cond3_verdict == VERDICT_HOLDS
    assert report.regularity is not None and report.regularity.passed
    assert report.invariance_predicted is True
    assert report.errors == []
    np.testing.assert_allclose(
        report.cond2_ratio,
        np.array(report.cond2_sup) / np.array(report.eps_grid),
        rtol=1e-15,
    )


def test_theorem1_report_normal_noise_refuted():
    model = sde_model.brownian(1)
    domain = geometry.ball([0.0], 1.0)
    report = theorem_checker.theorem1_report(model, domain)
    assert report.cond2_verdict == VERDICT_FAILS
    assert report.invariance_predicted is False


def test_theorem1_report_contraction_predicts_invariance():
    model = sde_model.ou_inward(2, rate=1.0)
    report = theorem_checker.theorem1_report(model, unit_ball())
    assert report.cond2_verdict == VERDICT_HOLDS
    assert report.cond3_verdict == VERDICT_HOLDS
    assert report.invariance_predicted is True
    np.testing.assert_allclose(
        report.cond3_sup, [-(1.0 + e) for e in report.eps_grid], atol=1e-12
    )


def test_theorem1_report_outward_drift_refuted():
    model = sde_model.outward(2, rate=1.0)
    report = theorem_checker.theorem1_report(model, unit_ball())
    assert report.cond3_verdict == VERDICT_FAILS
    assert report.invariance_predicted is False


def test_theorem1_report_deterministic():
    model = sde_model.rotational()
    a = theorem_checker.theorem1_report(model, unit_ball())
    b = theorem_checker.theorem1_report(model, unit_ball())
    assert a == b


def test_theorem1_report_validates_inputs():
    with pytest.raises(ValueError):
        theorem_checker.theorem1_report(sde_model.brownian(3), unit_ball())
    cfg = CheckerConfig(eps_grid=(0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        theorem_checker.theorem1_report(sde_model.rotational(), unit_ball(), cfg)


def test_regularity_failure_blocks_prediction():
    # a bound the rotational family cannot satisfy (its ratio is exactly 2)
    cfg = CheckerConfig(lipschitz_L=1.0)
    report = theorem_checker.theorem1_report(sde_model.rotational(), unit_ball(), cfg)
    assert report.regularity is not None and not report.regularity.passed
    assert report.cond2_verdict == VERDICT_HOLDS
    assert report.cond3_verdict == VERDICT_HOLDS
    assert report.invariance_predicted is False


# Verbatim copies of the per-start ascent that the lockstep walks replaced,
# and of the scalar tangent basis and condition functionals that the array
# code replaced (REFINE_TOP and REFINE_STEPS are unchanged, so they are taken
# from the module). The sups and the moves of the walks must match them bit
# for bit. The copies take their samples one at a time, as Sample records.
REFINE_TOP = theorem_checker.REFINE_TOP
REFINE_STEPS = theorem_checker.REFINE_STEPS
child_seed = theorem_checker.child_seed


@dataclass(frozen=True)
class Sample:
    """A point of S_eps together with its outward normal."""

    point: np.ndarray
    normal: np.ndarray


def _samples(points, normals):
    """The rows of an offset sample's arrays as Sample records."""
    return [Sample(point=z, normal=nu) for z, nu in zip(points, normals)]


def _tangent_basis(nu: np.ndarray) -> list[np.ndarray]:
    n = nu.shape[0]
    basis = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        t = e - np.dot(e, nu) * nu
        for b in basis:
            t = t - np.dot(t, b) * b
        norm = np.linalg.norm(t)
        if norm > 1e-8:
            basis.append(t / norm)
        if len(basis) == n - 1:
            break
    return basis


def _tangency(model):
    """The condition-2 functional: max over channels of |b_j . nu|."""

    def pointwise(s, smp):
        b = model.diffusion(s, smp.point)
        return max(
            (abs(float(np.dot(b[:, k], smp.normal))) for k in range(b.shape[-1])),
            default=0.0,
        )

    return pointwise


def condition3_value(model, domain, s, sample):
    """Drift pressure along the normal with the diffusion correction:
    a . nu - 1/2 sum_k nu^T (Db_k) b_k evaluated at the sample point."""
    z, nu = sample.point, sample.normal
    a = model.drift(s, z)
    jac = sde_model.diffusion_jacobian(model, s, z)
    b = model.diffusion(s, z)
    corr = 0.0
    for k in range(b.shape[-1]):
        corr += float(nu @ jac[k] @ b[:, k])
    return float(np.dot(a, nu)) - 0.5 * corr


def _reproject(domain, eps, x):
    foot, _ = geometry.project_to_boundary(domain, x)
    nu = geometry.outward_normal(domain, foot)
    return Sample(point=foot + eps * nu, normal=nu)


def _refine_sup(domain, eps, samples, objective, values):
    best = float(np.max(values))
    order = np.argsort(values)[::-1][:REFINE_TOP]
    scale = max(eps, 0.05 * domain.bounding_radius)
    for start in order:
        sample = samples[start]
        current = float(values[start])
        step = 0.5 * scale
        for _ in range(REFINE_STEPS):
            improved = False
            for t in _tangent_basis(sample.normal):
                for sgn in (1.0, -1.0):
                    cand = _reproject(domain, eps, sample.point + sgn * step * t)
                    val = objective(cand)
                    if val > current:
                        sample, current, improved = cand, val, True
            if not improved:
                step *= 0.5
                if step < 1e-6 * scale:
                    break
        best = max(best, current)
    return best


def _profile(model, domain, eps_grid, time_grid, samples_per_eps, seed, pointwise):
    theorem_checker._validate_grid(eps_grid)
    sups = []
    for e_idx, eps in enumerate(eps_grid):
        samples = _samples(*geometry.sample_offset_boundary(
            domain, eps, samples_per_eps, child_seed(seed, e_idx)
        ))
        objective = lambda smp: max(pointwise(s, smp) for s in time_grid)
        values = np.array([objective(smp) for smp in samples])
        sups.append(_refine_sup(domain, eps, samples, objective, values))
    return sups


LINEAR_2D = dict(
    A=[[-1.0, 0.3], [-0.2, -0.8]],
    c=[0.1, 0.0],
    B=[[[0.2, 0.0], [0.1, 0.3]], [[0.0, -0.1], [0.2, 0.0]]],
    d=[[0.1, 0.2], [0.0, 0.1]],
)
LINEAR_3D = dict(
    A=[[-1.0, 0.2, 0.0], [-0.1, -0.9, 0.3], [0.0, -0.2, -1.1]],
    c=[0.05, 0.0, -0.05],
    B=[[[0.2, 0.0, 0.1], [0.1, 0.3, 0.0], [0.0, -0.1, 0.2]],
       [[0.0, -0.1, 0.2], [0.2, 0.0, 0.1], [0.1, 0.1, -0.2]],
       [[0.1, 0.2, 0.0], [-0.2, 0.1, 0.1], [0.0, 0.3, 0.1]]],
    d=[[0.1, 0.2, -0.1], [0.0, 0.1, 0.3], [0.2, -0.1, 0.1]],
)
LINEAR_4D = dict(
    A=[[-1.0, 0.2, 0.0, 0.1], [-0.1, -0.9, 0.3, 0.0],
       [0.0, -0.2, -1.1, 0.2], [0.1, 0.0, -0.1, -0.8]],
    c=[0.05, 0.0, -0.05, 0.02],
    B=[[[0.2, 0.0, 0.1, 0.0], [0.1, 0.3, 0.0, -0.1], [0.0, -0.1, 0.2, 0.1], [0.1, 0.0, 0.0, 0.2]],
       [[0.0, -0.1, 0.2, 0.1], [0.2, 0.0, 0.1, 0.0], [0.1, 0.1, -0.2, 0.0], [0.0, 0.2, 0.1, 0.1]],
       [[0.1, 0.2, 0.0, -0.1], [-0.2, 0.1, 0.1, 0.0], [0.0, 0.3, 0.1, 0.2], [0.1, 0.0, -0.1, 0.0]],
       [[0.0, 0.1, 0.0, 0.2], [0.1, -0.1, 0.2, 0.0], [0.2, 0.0, 0.0, 0.1], [0.0, 0.1, 0.3, -0.2]]],
    d=[[0.1, 0.2, -0.1, 0.0], [0.0, 0.1, 0.3, -0.1], [0.2, -0.1, 0.1, 0.1], [0.1, 0.0, 0.2, -0.2]],
)


def _nan_model():
    """A 2-D model that returns NaN at some samples at one of two times.

    The drift is NaN at the first time where x_0 > 0.6, so condition 3 keeps
    that NaN; the noise is NaN at the second time where x_0 < -0.6, and
    condition 2 keeps the first time's finite value there. np.maximum or
    np.fmax over the times would change the sups.
    """

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        bad = (x[..., 0] > 0.6) & (t == 0.0)
        return np.where(bad[..., None], np.nan, -(1.0 + t) * x)

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        b = np.stack([-0.3 * x[..., 1], 0.3 * x[..., 0] + 0.1], axis=-1)[..., None]
        bad = (x[..., 0] < -0.6) & (t > 0.0)
        return np.where(bad[..., None, None], np.nan, b)

    def jac(t, x):
        out = np.zeros(np.shape(x)[:-1] + (1, 2, 2))
        out[..., 0, 0, 1] = -0.3
        out[..., 0, 1, 0] = 0.3
        return out

    return sde_model.SdeModel(2, "nan_at_some_samples", drift, diffusion, jac, {})


ASCENT_CASES = {
    "ball2d_rotational": (lambda: geometry.ball([0.0, 0.0], 1.0),
                          lambda: sde_model.rotational(0.7, 0.5), (0.0,)),
    "ball3d_brownian": (lambda: geometry.ball([0.0, 0.0, 0.0], 1.0),
                        lambda: sde_model.brownian(3), (0.0,)),
    "ellipse2d_brownian": (lambda: geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]),
                           lambda: sde_model.brownian(2, 0.5), (0.0,)),
    "ellipsoid3d_ou": (lambda: geometry.ellipsoid([0.1, 0.0, -0.1], [1.2, 1.0, 0.8]),
                       lambda: sde_model.ou_inward(3), (0.0,)),
    "p4_ball2d_rotational": (lambda: geometry.even_p_norm_ball([0.0, 0.0], 1.0, 4),
                             lambda: sde_model.rotational(0.7, 0.5), (0.0,)),
    "p4_ball3d_brownian": (lambda: geometry.even_p_norm_ball([0.0, 0.0, 0.0], 1.0, 4),
                           lambda: sde_model.brownian(3), (0.0,)),
    "ball1d_brownian": (lambda: geometry.ball([0.0], 1.0),
                        lambda: sde_model.brownian(1), (0.0,)),
    "ellipse2d_linear_two_times": (lambda: geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]),
                                   lambda: sde_model.linear(**LINEAR_2D), (0.0, 0.5)),
    # every channel of B and d is nonzero, so each per-channel dot runs on a
    # strided column of the (n, k) diffusion matrix
    "ellipsoid3d_linear_three_channels": (
        lambda: geometry.ellipsoid([0.3, -0.2, 0.1], [1.5, 1.0, 1.2]),
        lambda: sde_model.linear(**LINEAR_3D), (0.0,)),
    # three tangent basis vectors, so six moves per sweep
    "ellipsoid4d_linear_four_channels": (
        lambda: geometry.ellipsoid([0.2, -0.1, 0.1, 0.0], [1.4, 1.0, 1.2, 0.9]),
        lambda: sde_model.linear(**LINEAR_4D), (0.0,)),
    # ROADMAP item 1's case 2: the normal part of the noise is 0.002 sin(theta)
    "offcentre_disk_rotational": (lambda: geometry.ball([0.02, 0.0], 1.0),
                                  lambda: sde_model.rotational(0.1, 1.0), (0.0,)),
    "ball2d_nan_two_times": (lambda: geometry.ball([0.0, 0.0], 1.0), _nan_model, (0.0, 0.5)),
    # no Jacobian: the condition-3 functional takes finite differences row by row
    "ellipse2d_linear_fd_jacobian": (
        lambda: geometry.ellipsoid([0.0, 0.0], [1.5, 1.0]),
        lambda: replace(sde_model.linear(**LINEAR_2D), jacobian=None), (0.0,)),
}


@pytest.mark.parametrize("case", sorted(ASCENT_CASES))
def test_lockstep_sups_match_per_start_ascent_bit_for_bit(case):
    make_domain, make_model, times = ASCENT_CASES[case]
    domain, model = make_domain(), make_model()
    count, seed = 24, 7
    per_start = [
        _profile(model, domain, EPS_GRID, times, count, seed, _tangency(model)),
        _profile(model, domain, EPS_GRID, times, count, seed,
                 partial(condition3_value, model, domain)),
    ]
    lockstep = [
        theorem_checker.condition2_profile(model, domain, EPS_GRID, times, count, seed),
        theorem_checker.condition3_profile(model, domain, EPS_GRID, times, count, seed),
    ]
    report = theorem_checker.theorem1_report(
        model, domain, CheckerConfig(eps_grid=EPS_GRID, samples_per_eps=count,
                                     time_grid=times, seed=seed)
    )
    # a non-finite sup is named in the errors, each eps once; no other error
    assert report.errors == [
        f"condition{c}: non-finite sup at eps={eps}"
        for c, prof in ((2, per_start[0]), (3, per_start[1]))
        for v, eps in zip(prof, EPS_GRID)
        if not np.isfinite(v)
    ]
    for old, new in zip(per_start, lockstep):
        assert np.array(new).tobytes() == np.array(old).tobytes()
    assert np.array(report.cond2_sup).tobytes() == np.array(per_start[0]).tobytes()
    assert np.array(report.cond3_sup).tobytes() == np.array(per_start[1]).tobytes()


@pytest.mark.parametrize(
    "case",
    ["ball2d_rotational", "ellipse2d_brownian", "p4_ball3d_brownian", "ball1d_brownian",
     "ellipsoid4d_linear_four_channels"],
)
def test_each_walk_evaluates_the_per_start_candidates(case):
    # Each move of a lockstep sweep takes one move of every live walk, in
    # walk order (eps by eps, best start first). So the points the objective
    # sees are the samples, then the per-start sequences interleaved move by
    # move.
    # The batched objective sees the rows of each call in order, so the
    # recorder concatenates the rows of every call.
    make_domain, make_model, _ = ASCENT_CASES[case]
    domain, model = make_domain(), make_model()
    tangency = _tangency(model)
    stages = theorem_checker._offset_samples(domain, EPS_GRID, 16, 3)

    def recorder(seen):
        def objective(smp):
            seen.append(smp.point.tobytes())
            return tangency(0.0, smp)

        return objective

    walks = []
    for eps, (Z, N) in zip(EPS_GRID, stages):
        samples = _samples(Z, N)
        values = np.array([tangency(0.0, smp) for smp in samples])
        for start in np.argsort(values)[::-1][:REFINE_TOP]:
            seen = []
            _refine_sup(domain, eps, [samples[start]], recorder(seen), values[[start]])
            walks.append(seen)
    expected = [z.tobytes() for Z, _ in stages for z in Z]
    for r in range(max(map(len, walks))):
        expected += [seen[r] for seen in walks if r < len(seen)]

    batched = theorem_checker._tangency(model)

    def rows_recorder(s, Z, N):
        seen.extend(z.tobytes() for z in Z)
        return batched(s, Z, N)

    seen = []
    theorem_checker._profile(domain, EPS_GRID, stages, (0.0,), rows_recorder)
    assert seen == expected
    sampled = sum(len(Z) for Z, _ in stages)
    if domain.dimension == 1:
        assert len(seen) == sampled
    else:
        assert len(seen) > sampled


def test_theorem1_report_draws_the_offset_samples_once(monkeypatch):
    calls = []
    draw = geometry.sample_offset_boundary

    def counted(domain, eps, count, seed):
        calls.append((eps, seed))
        return draw(domain, eps, count, seed)

    monkeypatch.setattr(geometry, "sample_offset_boundary", counted)
    report = theorem_checker.theorem1_report(
        sde_model.rotational(), unit_ball(), CheckerConfig(samples_per_eps=20)
    )
    assert report.errors == []
    assert [eps for eps, _ in calls] == list(EPS_GRID)
    assert len({seed for _, seed in calls}) == len(EPS_GRID)


@pytest.mark.parametrize(
    "times, named",
    [((0.0, 0.5), ["condition3"]), ((0.5,), ["condition2", "condition3"])],
)
def test_theorem1_report_names_each_non_finite_sup(times, named):
    """A NaN coefficient at a sample makes that eps's sup NaN. The report
    names each such eps in its errors and leaves the sups and verdicts as
    the verdict rules give them."""
    model = _nan_model()
    cfg = CheckerConfig(samples_per_eps=24, time_grid=times, seed=7)
    report = theorem_checker.theorem1_report(model, unit_ball(), cfg)
    sups = {"condition2": report.cond2_sup, "condition3": report.cond3_sup}
    for condition, prof in sups.items():
        assert np.isnan(prof).all() if condition in named else np.isfinite(prof).all()
    assert report.errors == [
        f"{condition}: non-finite sup at eps={eps}" for condition in named for eps in EPS_GRID
    ]
    assert report.cond2_verdict == theorem_checker.condition2_verdict(
        report.cond2_sup, report.eps_grid, report.delta_abs, report.p_min
    )
    assert report.cond3_verdict == theorem_checker.condition3_verdict(
        report.cond3_sup, report.delta_margin
    )
    assert report.invariance_predicted is False


def test_theorem1_report_records_a_failed_draw_for_both_conditions():
    report = theorem_checker.theorem1_report(
        sde_model.rotational(), unit_ball(), CheckerConfig(samples_per_eps=0)
    )
    assert report.errors == ["condition2: count must be >= 1", "condition3: count must be >= 1"]
    assert report.cond2_sup == [] and report.cond3_sup == []
    assert report.invariance_predicted is False


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tangent_bases_match_the_scalar_basis_bit_for_bit(n):
    rng = np.random.default_rng(n)
    N = rng.standard_normal((40, n))
    N /= np.linalg.norm(N, axis=1)[:, None]
    # normals along an axis, and within 1e-9 of one, skip that axis
    near = np.eye(n)[:, ::-1].copy()
    near[:, 0] += 1e-9
    N = np.concatenate([N, np.eye(n), -np.eye(n), near / np.linalg.norm(near, axis=1)[:, None]])
    basis, count = theorem_checker._tangent_bases(N)
    assert basis.shape == (len(N), n - 1, n)
    for nu, rows, c in zip(N, basis, count):
        scalar = _tangent_basis(nu)
        assert c == len(scalar) == n - 1
        assert rows[:c].tobytes() == np.array(scalar).reshape(c, n).tobytes()


@pytest.mark.parametrize("case", sorted(ASCENT_CASES))
def test_batched_functionals_match_the_scalar_ones_bit_for_bit(case):
    make_domain, make_model, times = ASCENT_CASES[case]
    domain, model = make_domain(), make_model()
    Z, N = geometry.sample_offset_boundary(domain, 0.1, 30, 11)
    samples = _samples(Z, N)
    tangency, scalar = theorem_checker._tangency(model), _tangency(model)
    pressure = theorem_checker._pressure(model)
    for s in times:
        assert tangency(s, Z, N).tobytes() == np.array([scalar(s, smp) for smp in samples]).tobytes()
        old = np.array([condition3_value(model, domain, s, smp) for smp in samples])
        assert pressure(s, Z, N).tobytes() == old.tobytes()
        # the public per-point value is the batch code on a batch of one
        one = [theorem_checker.condition3_value(model, s, z, nu) for z, nu in zip(Z, N)]
        assert np.array(one).tobytes() == old.tobytes()


def test_profile_refuses_an_empty_time_grid():
    stages = theorem_checker._offset_samples(unit_ball(), EPS_GRID, 4, 1)
    tangency = theorem_checker._tangency(sde_model.rotational())
    with pytest.raises(ValueError, match="time_grid"):
        theorem_checker._profile(unit_ball(), EPS_GRID, stages, (), tangency)
