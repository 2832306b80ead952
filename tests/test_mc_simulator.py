"""Tests for Euler-Maruyama simulation and exit-probability estimation."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viability import geometry, mc_simulator, sde_model, seeds
from viability.errors import ImmediateExit, NonFinite


def test_wilson_interval_basic_properties():
    lo, hi = mc_simulator.wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    lo0, hi0 = mc_simulator.wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    lon, hin = mc_simulator.wilson_interval(100, 100)
    assert hin == 1.0 and lon < 1.0
    with pytest.raises(ValueError):
        mc_simulator.wilson_interval(0, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.data())
def test_wilson_interval_contains_point_estimate(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    lo, hi = mc_simulator.wilson_interval(k, n)
    p = k / n
    assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_interval_mirror_symmetry():
    lo, hi = mc_simulator.wilson_interval(30, 100)
    lo2, hi2 = mc_simulator.wilson_interval(70, 100)
    assert lo2 == pytest.approx(1.0 - hi, abs=1e-12)
    assert hi2 == pytest.approx(1.0 - lo, abs=1e-12)


def test_em_step_zero_model_is_identity():
    model = sde_model.zero(2)
    x = np.array([0.3, -0.7])
    out = mc_simulator.em_step(model, 0.0, x, 0.01, np.zeros(2))
    np.testing.assert_array_equal(out, x)


def test_em_step_pure_drift():
    model = sde_model.ou_inward(2, rate=2.0)
    x = np.array([1.0, -1.0])
    out = mc_simulator.em_step(model, 0.0, x, 0.1, np.zeros(2))
    np.testing.assert_allclose(out, x - 0.2 * x, atol=1e-15)


def test_em_step_diffusion_uses_increments():
    model = sde_model.brownian(2, scale=3.0)
    x = np.zeros(2)
    dW = np.array([0.5, -0.2])
    out = mc_simulator.em_step(model, 0.0, x, 0.01, dW)
    np.testing.assert_allclose(out, 3.0 * dW, atol=1e-15)


def _affine_model():
    """A linear model whose drift and noise columns all depend on x."""
    return sde_model.linear(
        [[-0.7, 0.3], [0.2, -0.9]],
        c=[0.1, -0.3],
        B=[[[0.3, -0.1], [0.7, 0.2]], [[-0.4, 0.6], [0.1, 0.3]]],
        d=[[0.2, 0.1], [-0.1, 0.3]],
    )


def test_em_step_batch_matches_single():
    rng = np.random.default_rng(17)
    X = rng.uniform(-1.0, 1.0, size=(6, 2))
    dW = rng.normal(size=(6, 2)) * 0.1
    for model in (sde_model.rotational(spin=1.2, inward_rate=0.4), _affine_model()):
        batch = mc_simulator.em_step(model, 0.3, X, 0.01, dW)
        for i in range(6):
            single = mc_simulator.em_step(model, 0.3, X[i], 0.01, dW[i])
            np.testing.assert_array_equal(batch[i], single)


def test_em_step_rejects_bad_dt_and_overflow():
    model = sde_model.outward(1, rate=1.0)
    with pytest.raises(ValueError):
        mc_simulator.em_step(model, 0.0, np.array([1.0]), 0.0, np.zeros(1))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite):
            mc_simulator.em_step(model, 0.0, np.array([1e308]), 2.0, np.zeros(1))


def test_deterministic_path_first_order_accuracy():
    """With no noise the scheme is explicit Euler; the global error at the
    horizon should shrink linearly in dt."""
    model = sde_model.ou_inward(1, rate=1.0)
    domain = geometry.ball([0.0], 10.0)
    exact = np.exp(-1.0)
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        res = mc_simulator.simulate_path(model, domain, [1.0], 1.0, dt, seed=1)
        assert not res.exited
        errors.append(abs(res.final_state[0] - exact))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.3)
    assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.3)


def test_exit_time_of_outward_flow():
    # x' = x from x0 = 1 crosses radius 2 at t = ln 2
    model = sde_model.outward(1, rate=1.0)
    domain = geometry.ball([0.0], 2.0)
    res = mc_simulator.simulate_path(model, domain, [1.0], 2.0, 1e-3, seed=1)
    assert res.exited
    assert res.exit_time == pytest.approx(np.log(2.0), abs=2e-3)
    assert res.steps_taken == round(res.exit_time / 1e-3)


def test_contraction_never_exits():
    model = sde_model.ou_inward(2, rate=1.0)
    domain = geometry.ball([0.0, 0.0], 1.0)
    est = mc_simulator.exit_probability(
        model, domain, [0.9, 0.0], T=1.0, dt=0.01, n_paths=50, seed=3
    )
    assert est.n_exits == 0
    assert est.p_hat == 0.0
    assert est.ci_low == 0.0
    assert est.n_nonfinite == 0


def test_exit_probability_independent_of_blocking():
    model = sde_model.brownian(2)
    domain = geometry.ball([0.0, 0.0], 1.0)
    kwargs = dict(x0=[0.5, 0.0], T=0.3, dt=0.01, n_paths=300, seed=11)
    base = mc_simulator.exit_probability(model, domain, **kwargs)
    small_blocks = mc_simulator.exit_probability(model, domain, block=7, **kwargs)
    large_blocks = mc_simulator.exit_probability(model, domain, block=64, **kwargs)
    assert base.n_exits == small_blocks.n_exits == large_blocks.n_exits
    assert base.p_hat == small_blocks.p_hat == large_blocks.p_hat
    assert 0 < base.n_exits < 300


def test_isolated_path_matches_blocked_rows():
    """A path simulated alone must consume its stream exactly as inside a
    vectorized block."""
    huge = geometry.ball([0.0, 0.0], 1e9)
    starts = np.tile([0.1, -0.2], (5, 1))
    for model in (sde_model.brownian(2), _affine_model()):
        finals = mc_simulator.final_states(model, starts, T=0.1, dt=0.01, seed=21)
        for i in range(5):
            solo = mc_simulator.simulate_path(
                model, huge, starts[i], 0.1, 0.01, seed=21, path_index=i
            )
            assert not solo.exited
            np.testing.assert_array_equal(solo.final_state, finals[i])


def test_isolated_exiting_paths_match_kernel_rows():
    """Paths that exit at different steps, on both sides of a window
    boundary, stop at the same step alone as in a block, and their exits add
    up to the blocked estimate."""
    model = sde_model.brownian(2)
    domain = geometry.ball([0.0, 0.0], 1.0)
    n_paths, T, dt, seed = 30, 0.4, 2.5e-4, 31
    starts = np.tile([0.5, 0.0], (n_paths, 1))
    states, steps, exited, nonfinite = mc_simulator._simulate_block(
        model, domain, starts, T, dt, seed, 0
    )
    assert not nonfinite.any()
    exit_steps = steps[exited]
    assert 0 < exited.sum() < n_paths
    assert len(set(exit_steps)) == exited.sum()
    assert exit_steps.min() < mc_simulator.WINDOW < exit_steps.max()
    for i in range(n_paths):
        solo = mc_simulator.simulate_path(
            model, domain, starts[i], T, dt, seed=seed, path_index=i
        )
        assert solo.exited == exited[i]
        assert solo.steps_taken == steps[i]
        np.testing.assert_array_equal(solo.final_state, states[i])
    est = mc_simulator.exit_probability(
        model, domain, [0.5, 0.0], T, dt, n_paths, seed, block=7
    )
    assert est.n_exits == exited.sum()


def test_span_generator_draws_what_path_generator_draws(monkeypatch):
    """The one re-keyed generator of a block hands each path, row for row
    over two windows, the increments its own path_generator stream gives."""
    W, extra, first_index, seed = mc_simulator.WINDOW, 37, 3, 19
    recorded = []

    def recording_update(model, t, x, dt, dW):
        recorded.append(np.array(dW))
        return x

    monkeypatch.setattr(mc_simulator, "_em_update", recording_update)
    starts = np.zeros((4, 2))
    mc_simulator._simulate_block(
        sde_model.zero(2), None, starts, float(W + extra), 1.0, seed, first_index
    )
    drawn = np.stack(recorded, axis=1)  # (path, step, channel); sqrt(dt) = 1
    assert drawn.shape == (4, W + extra, 2)
    for i in range(4):
        gen = seeds.path_generator(seed, first_index + i)
        ref = np.concatenate([gen.standard_normal((W, 2)), gen.standard_normal((extra, 2))])
        assert drawn[i].tobytes() == ref.tobytes()


forking = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="paths are sharded only where os.fork and os.sched_getaffinity exist",
)


def _on_cpus(monkeypatch, w):
    """Report w CPUs to the simulator; return the list of forked child pids."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))
    forks, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _leaky_model():
    """Brownian motion whose drift sends a coordinate below -0.9 to infinity,
    so some paths exit the unit disk, some overflow and the rest survive."""
    return dataclasses.replace(
        sde_model.brownian(2), drift=lambda t, x: np.where(x < -0.9, np.inf, 0.0)
    )


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
@pytest.mark.parametrize("block", [mc_simulator.DEFAULT_BLOCK, 7])
def test_sharded_paths_are_bit_identical_for_any_cpu_count(monkeypatch, block):
    """1, 2 or 3 CPUs give the same per-path outcomes and estimates: a horizon
    over WINDOW steps (states saved across windows), exits on both sides of a
    window boundary, overflowing paths, and a path count that is not a
    multiple of the span."""
    model, domain = _leaky_model(), geometry.ball([0.0, 0.0], 1.0)
    n_paths, T, dt, seed = 31, 0.4, 2.5e-4, 31
    starts = np.tile([0.5, 0.0], (n_paths, 1))
    outcomes, estimates = [], []
    for w in (1, 2, 3):
        forks = _on_cpus(monkeypatch, w)
        with np.errstate(invalid="ignore"):
            outcomes.append(
                mc_simulator._simulate_spans(model, domain, starts, T, dt, seed, block)
            )
            estimates.append(
                mc_simulator.exit_probability(
                    model, domain, [0.5, 0.0], T, dt, n_paths, seed, block
                )
            )
        assert len(forks) == 2 * (w - 1)
        _assert_no_child_left()
    states, steps, exited, nonfinite = outcomes[0]
    assert exited.any() and nonfinite.any() and not (exited | nonfinite).all()
    assert steps[exited].min() < mc_simulator.WINDOW < steps[exited].max()
    assert estimates[0].n_nonfinite == nonfinite.sum() > 0
    for other in outcomes[1:]:
        assert [a.tobytes() for a in other] == [a.tobytes() for a in outcomes[0]]
    assert estimates[0] == estimates[1] == estimates[2]


@forking
def test_sharded_final_states_are_bit_identical_for_any_cpu_count(monkeypatch):
    model = _affine_model()
    starts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(23, 2))
    dt = 2.0**-10
    T = (mc_simulator.WINDOW + 37) * dt
    finals = []
    for w in (1, 2, 3):
        forks = _on_cpus(monkeypatch, w)
        finals.append(mc_simulator.final_states(model, starts, T, dt, seed=5))
        assert len(forks) == w - 1
        _assert_no_child_left()
    assert finals[0].tobytes() == finals[1].tobytes() == finals[2].tobytes()


class DriftFailure(Exception):
    pass


@forking
@pytest.mark.parametrize("failing_rows", ["caller", "child"])
def test_failing_span_raises_in_caller_and_leaves_no_child(monkeypatch, failing_rows):
    """A drift that raises in the caller's share or in a child's share raises
    the same exception type in the caller, and every child is reaped."""

    def drift(t, x):
        if (x[..., 0] > 5.0).any():
            raise DriftFailure("drift refused a start point")
        return np.zeros_like(x)

    model = dataclasses.replace(sde_model.brownian(2), drift=drift)
    starts = np.zeros((40, 2))
    rows = slice(0, 20) if failing_rows == "caller" else slice(20, 40)
    starts[rows, 0] = 10.0
    forks = _on_cpus(monkeypatch, 2)
    with pytest.raises(DriftFailure, match="refused"):
        mc_simulator.final_states(model, starts, 0.1, 0.01, seed=3)
    assert len(forks) == 1
    _assert_no_child_left()


def _full_window_reference(model, domain, starts, n_steps, dt, seed, first_index):
    """Each path alone: whole (WINDOW, n) windows from its stream, em_step."""
    W = mc_simulator.WINDOW
    states = np.array(starts, dtype=float)
    steps = np.full(len(starts), n_steps)
    exited = np.zeros(len(starts), dtype=bool)
    for i in range(len(starts)):
        gen = seeds.path_generator(seed, first_index + i)
        x = states[i]
        for s in range(n_steps):
            if s % W == 0:
                dW = gen.standard_normal((W, x.size)) * np.sqrt(dt)
            x = mc_simulator.em_step(model, s * dt, x, dt, dW[s % W])
            if domain is not None and geometry.signed_level(domain, x[None])[0] > 0.0:
                exited[i], steps[i] = True, s + 1
                break
        states[i] = x
    return states, steps, exited


@pytest.mark.parametrize("extra", [-424, 0, 5])
@pytest.mark.parametrize("with_domain", [True, False])
def test_kernel_matches_full_window_reference(extra, with_domain):
    """Drawing only the rows up to the horizon leaves every increment a path
    uses equal to the full-window layout."""
    n_steps = mc_simulator.WINDOW + extra
    dt = 2.0**-12
    model = sde_model.brownian(3)
    domain = geometry.ball([0.0, 0.0, 0.0], 0.8) if with_domain else None
    starts = np.zeros((12, 3))
    states, steps, exited, nonfinite = mc_simulator._simulate_block(
        model, domain, starts, n_steps * dt, dt, 5, 3
    )
    ref_states, ref_steps, ref_exited = _full_window_reference(
        model, domain, starts, n_steps, dt, 5, 3
    )
    np.testing.assert_array_equal(states, ref_states)
    np.testing.assert_array_equal(steps, ref_steps)
    np.testing.assert_array_equal(exited, ref_exited)
    assert not nonfinite.any()
    if with_domain:
        assert 0 < exited.sum() < len(starts)
    else:
        assert not exited.any()


def test_exit_count_monotone_in_horizon():
    # with a shared seed, the trajectory prefix is identical, so any path
    # that exits by the shorter horizon also exits by the longer one
    model = sde_model.brownian(2)
    domain = geometry.ball([0.0, 0.0], 1.0)
    short = mc_simulator.exit_probability(
        model, domain, [0.5, 0.0], T=0.25, dt=0.01, n_paths=200, seed=13
    )
    long = mc_simulator.exit_probability(
        model, domain, [0.5, 0.0], T=0.5, dt=0.01, n_paths=200, seed=13
    )
    assert short.n_exits <= long.n_exits


def test_brownian_final_state_statistics():
    model = sde_model.brownian(1)
    starts = np.zeros((4000, 1))
    finals = mc_simulator.final_states(model, starts, T=1.0, dt=0.01, seed=29)
    assert abs(finals.mean()) < 0.05
    assert abs(finals.var() - 1.0) < 0.07


def test_dt_convergence_study_zero_model():
    model = sde_model.zero(2)
    domain = geometry.ball([0.0, 0.0], 1.0)
    out = mc_simulator.dt_convergence_study(
        model, domain, [0.0, 0.0], T=0.1, dt_list=[0.05, 0.025], n_paths=10, seed=1
    )
    assert len(out) == 2
    assert all(est.n_exits == 0 for est in out)
    with pytest.raises(ValueError):
        mc_simulator.dt_convergence_study(
            model, domain, [0.0, 0.0], T=0.1, dt_list=[0.025, 0.05], n_paths=10, seed=1
        )


def test_start_outside_domain_raises():
    model = sde_model.brownian(2)
    domain = geometry.ball([0.0, 0.0], 1.0)
    with pytest.raises(ImmediateExit):
        mc_simulator.simulate_path(model, domain, [2.0, 0.0], 1.0, 0.01, seed=1)
    with pytest.raises(ImmediateExit):
        mc_simulator.exit_probability(
            model, domain, [2.0, 0.0], T=1.0, dt=0.01, n_paths=10, seed=1
        )


# The simulator reads a domain's level only, so a domain built for it alone
# leaves the boundary operations as placeholders.
SIMULATOR_ONLY = dict(
    bounding_radius=np.inf, inner_radius=np.inf, ray_crossing=None, boundary_points=None
)


def _whole_space(n):
    """Domain whose level is -1 everywhere, so no path can ever exit."""
    return geometry.ImplicitDomain(
        dimension=n,
        kind="custom",
        center=np.zeros(n),
        level_fn=lambda x: np.sum(np.asarray(x, dtype=float) * 0.0, axis=-1) - 1.0,
        gradient_fn=lambda x: np.zeros(n),
        hessian_fn=lambda x: np.zeros((n, n)),
        **SIMULATOR_ONLY,
    )


def test_overflowing_paths_counted_not_raised_in_estimates():
    # strong outward drift with dt = 1 multiplies the state by 51 every step
    # until it overflows; the domain cannot be exited, so the only way out of
    # the loop is the nonfinite counter
    model = sde_model.outward(1, rate=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        est = mc_simulator.exit_probability(
            model, _whole_space(1), [1.0], T=200.0, dt=1.0, n_paths=4, seed=1
        )
    assert est.n_nonfinite == 4
    assert est.n_exits == 0


def test_overflow_with_finite_level_counts_as_nonfinite():
    # the level stays -1.0 at inf and nan states, so only the finiteness
    # test of the state itself can stop these paths
    domain = geometry.ImplicitDomain(
        dimension=1,
        kind="custom",
        center=np.zeros(1),
        level_fn=lambda x: np.full(np.shape(x)[:-1], -1.0),
        gradient_fn=lambda x: np.zeros(1),
        hessian_fn=lambda x: np.zeros((1, 1)),
        **SIMULATOR_ONLY,
    )
    model = sde_model.outward(1, rate=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        est = mc_simulator.exit_probability(
            model, domain, [1.0], T=200.0, dt=1.0, n_paths=4, seed=1
        )
    assert est.n_nonfinite == 4
    assert est.n_exits == 0


@pytest.mark.parametrize(
    "domain",
    [geometry.ball([0.0, 0.0], 10.0), geometry.ellipsoid([0.0, 0.0], [10.0, 5.0])],
)
def test_overflow_on_builtin_domains_is_nonfinite_not_exit(domain):
    # the first step overflows to (inf, 0), whose level is +inf: the path
    # must be counted as non-finite, not as an exit
    model = sde_model.outward(2, rate=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        est = mc_simulator.exit_probability(
            model, domain, [5.0, 0.0], T=1.0, dt=0.5, n_paths=3, seed=1
        )
        with pytest.raises(NonFinite):
            mc_simulator.simulate_path(model, domain, [5.0, 0.0], 1.0, 0.5, seed=1)
    assert est.n_nonfinite == 3
    assert est.n_exits == 0


def test_overflow_raises_for_single_path_and_final_states():
    model = sde_model.outward(1, rate=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            mc_simulator.simulate_path(
                model, _whole_space(1), [1.0], 200.0, 1.0, seed=1
            )
        with pytest.raises(NonFinite):
            mc_simulator.final_states(model, np.array([[1.0]]), 200.0, 1.0, seed=1)


def test_invalid_time_parameters():
    model = sde_model.zero(1)
    domain = geometry.ball([0.0], 1.0)
    with pytest.raises(ValueError):
        mc_simulator.simulate_path(model, domain, [0.0], 1.0, 2.0, seed=1)
    with pytest.raises(ValueError):
        mc_simulator.simulate_path(model, domain, [0.0], 0.0, 0.1, seed=1)
    with pytest.raises(ValueError):
        mc_simulator.exit_probability(
            model, domain, [0.0], T=1.0, dt=0.1, n_paths=0, seed=1
        )


def _refuse_keys(seed, indices):
    raise AssertionError("a model without noise channels derived path keys")


def test_noise_free_model_derives_no_keys_and_draws_nothing(monkeypatch):
    """ou_inward has no noise channels: over a horizon longer than WINDOW
    steps, no span derives keys, and each final state is the plain drift
    loop's, with an empty increment at every step."""
    monkeypatch.setattr(mc_simulator, "path_keys", _refuse_keys)
    model, domain = sde_model.ou_inward(2), geometry.ball([0.0, 0.0], 1.0)
    dt = 2.0**-10
    n_steps = mc_simulator.WINDOW + 37
    est = mc_simulator.exit_probability(
        model, domain, [0.5, 0.0], n_steps * dt, dt, n_paths=9, seed=3, block=4
    )
    assert est.n_exits == 0 and est.n_nonfinite == 0
    starts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(9, 2))
    finals = mc_simulator.final_states(model, starts, n_steps * dt, dt, seed=3, block=4)
    x = starts
    for s in range(n_steps):
        x = mc_simulator._em_update(model, s * dt, x, dt, np.empty((9, 0)))
    assert finals.tobytes() == x.tobytes()


def test_later_spans_draw_what_path_generator_draws():
    """With spans of 3 paths, the spans starting at paths 3 and 6 key each
    row from path_generator(seed, row), over two windows."""
    model, seed = _affine_model(), 13
    dt = 2.0**-10
    W, extra = mc_simulator.WINDOW, 37
    starts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(7, 2))
    finals = mc_simulator.final_states(model, starts, (W + extra) * dt, dt, seed, block=3)
    for i in range(7):
        gen = seeds.path_generator(seed, i)
        dW = np.concatenate([gen.standard_normal((W, 2)), gen.standard_normal((extra, 2))])
        dW *= np.sqrt(dt)
        x = starts[i : i + 1]
        for s in range(W + extra):
            x = mc_simulator._em_update(model, s * dt, x, dt, dW[s : s + 1])
        assert finals[i].tobytes() == x[0].tobytes()


def test_no_start_points_give_no_final_states(monkeypatch):
    forks = _on_cpus(monkeypatch, 2) if hasattr(os, "sched_getaffinity") else []
    finals = mc_simulator.final_states(sde_model.brownian(2), np.zeros((0, 2)), 1.0, 0.1, 1)
    assert finals.shape == (0, 2)
    assert not forks


def test_block_below_one_is_refused():
    model, domain = sde_model.brownian(2), geometry.ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="block must be >= 1"):
        mc_simulator.exit_probability(model, domain, [0.0, 0.0], 1.0, 0.1, 10, 1, block=0)
    with pytest.raises(ValueError, match="block must be >= 1"):
        mc_simulator.final_states(model, np.zeros((3, 2)), 1.0, 0.1, 1, block=0)
    with pytest.raises(ValueError, match="block must be >= 1"):
        mc_simulator.final_states(model, np.zeros((0, 2)), 1.0, 0.1, 1, block=0)
    with pytest.raises(ValueError, match="block must be >= 1"):
        mc_simulator.dt_convergence_study(
            model, domain, [0.0, 0.0], 1.0, [0.1, 0.05], 10, 1, block=-1
        )
