"""Tests for the boundary condition profiles and their verdict rules."""

from functools import partial

import numpy as np
import pytest

from viability import geometry, sde_model, theorem_checker
from viability.geometry import BoundarySample
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
        sample = BoundarySample(
            point=np.array([1.0 + eps, 0.0]), normal=np.array([1.0, 0.0])
        )
        got = theorem_checker.condition3_value(model, unit_ball(), 0.0, sample)
        expected = (1.0 + eps) * (0.5 * spin**2 - rho)
        assert got == pytest.approx(expected, abs=1e-14)


def test_condition3_value_pure_drift():
    model = sde_model.ou_inward(2, rate=1.0)
    sample = BoundarySample(
        point=np.array([0.0, 1.05]), normal=np.array([0.0, 1.0])
    )
    got = theorem_checker.condition3_value(model, unit_ball(), 0.0, sample)
    assert got == pytest.approx(-1.05, abs=1e-14)


def test_condition3_value_zero_model():
    model = sde_model.zero(2)
    sample = BoundarySample(
        point=np.array([1.1, 0.0]), normal=np.array([1.0, 0.0])
    )
    assert theorem_checker.condition3_value(model, unit_ball(), 0.0, sample) == 0.0


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
        return np.zeros((1, 2, 2))

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


# Verbatim copies of the per-start ascent that the lockstep walks replaced
# (REFINE_TOP, REFINE_STEPS and _tangent_basis are unchanged, so they are
# taken from the module). The sups and the moves of the walks must match
# them bit for bit.
REFINE_TOP = theorem_checker.REFINE_TOP
REFINE_STEPS = theorem_checker.REFINE_STEPS
_tangent_basis = theorem_checker._tangent_basis
child_seed = theorem_checker.child_seed


def _reproject(domain, eps, x):
    foot, _ = geometry.project_to_boundary(domain, x)
    nu = geometry.outward_normal(domain, foot)
    return BoundarySample(point=foot + eps * nu, normal=nu)


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
        samples = geometry.sample_offset_boundary(
            domain, eps, samples_per_eps, child_seed(seed, e_idx)
        )
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
}


@pytest.mark.parametrize("case", sorted(ASCENT_CASES))
def test_lockstep_sups_match_per_start_ascent_bit_for_bit(case):
    make_domain, make_model, times = ASCENT_CASES[case]
    domain, model = make_domain(), make_model()
    count, seed = 24, 7
    per_start = [
        _profile(model, domain, EPS_GRID, times, count, seed, theorem_checker._tangency(model)),
        _profile(model, domain, EPS_GRID, times, count, seed,
                 partial(theorem_checker.condition3_value, model, domain)),
    ]
    lockstep = [
        theorem_checker.condition2_profile(model, domain, EPS_GRID, times, count, seed),
        theorem_checker.condition3_profile(model, domain, EPS_GRID, times, count, seed),
    ]
    report = theorem_checker.theorem1_report(
        model, domain, CheckerConfig(eps_grid=EPS_GRID, samples_per_eps=count,
                                     time_grid=times, seed=seed)
    )
    assert report.errors == []
    for old, new in zip(per_start, lockstep):
        assert np.array(new).tobytes() == np.array(old).tobytes()
    assert np.array(report.cond2_sup).tobytes() == np.array(per_start[0]).tobytes()
    assert np.array(report.cond3_sup).tobytes() == np.array(per_start[1]).tobytes()


@pytest.mark.parametrize(
    "case", ["ball2d_rotational", "ellipse2d_brownian", "p4_ball3d_brownian", "ball1d_brownian"]
)
def test_each_walk_evaluates_the_per_start_candidates(case):
    # The lockstep rounds take one move of every live walk, in walk order
    # (eps by eps, best start first). So the points the objective sees are
    # the samples, then the per-start sequences interleaved round by round.
    make_domain, make_model, _ = ASCENT_CASES[case]
    domain, model = make_domain(), make_model()
    tangency = theorem_checker._tangency(model)
    stages = theorem_checker._offset_samples(domain, EPS_GRID, 16, 3)

    def recorder(seen):
        def pointwise(s, smp):
            seen.append(smp.point.tobytes())
            return tangency(s, smp)

        return pointwise

    walks = []
    for eps, samples in zip(EPS_GRID, stages):
        values = np.array([tangency(0.0, smp) for smp in samples])
        for start in np.argsort(values)[::-1][:REFINE_TOP]:
            seen = []
            record = recorder(seen)
            _refine_sup(domain, eps, [samples[start]], lambda smp: record(0.0, smp),
                        values[[start]])
            walks.append(seen)
    expected = [smp.point.tobytes() for samples in stages for smp in samples]
    for r in range(max(map(len, walks))):
        expected += [seen[r] for seen in walks if r < len(seen)]

    seen = []
    theorem_checker._profile(domain, EPS_GRID, stages, (0.0,), recorder(seen))
    assert seen == expected
    if domain.dimension == 1:
        assert len(seen) == sum(map(len, stages))
    else:
        assert len(seen) > sum(map(len, stages))


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


def test_theorem1_report_records_a_failed_draw_for_both_conditions():
    report = theorem_checker.theorem1_report(
        sde_model.rotational(), unit_ball(), CheckerConfig(samples_per_eps=0)
    )
    assert report.errors == ["condition2: count must be >= 1", "condition3: count must be >= 1"]
    assert report.cond2_sup == [] and report.cond3_sup == []
    assert report.invariance_predicted is False
