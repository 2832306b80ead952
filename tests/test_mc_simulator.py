"""Tests for Euler-Maruyama simulation and exit-probability estimation."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _assert_no_child_left, _on_cpus, forking
from viability import geometry, mc_simulator, sde_model, seeds
from viability.errors import ImmediateExit, NonFinite


def test_wilson_interval_basic_properties():
    lo, hi = mc_simulator.wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    lo0, hi0 = mc_simulator.wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    lon, hin = mc_simulator.wilson_interval(100, 100)
    assert hin == 1.0 and lon < 1.0
    for k, n in ((0, 0), (5, 3), (-1, 10), (2.5, 10)):
        with pytest.raises(ValueError):
            mc_simulator.wilson_interval(k, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.data())
def test_wilson_interval_contains_point_estimate(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    lo, hi = mc_simulator.wilson_interval(k, n)
    p = k / n
    assert 0.0 <= lo <= p <= hi <= 1.0


@pytest.mark.parametrize("k,n", [(0, 2000), (5, 100), (100, 100)])
def test_wilson_interval_ends_are_floats(k, n):
    """Both ends are Python floats, whether clipped to 0 or 1 or not."""
    assert [type(end) for end in mc_simulator.wilson_interval(k, n)] == [float, float]


def test_wilson_interval_mirror_symmetry():
    lo, hi = mc_simulator.wilson_interval(30, 100)
    lo2, hi2 = mc_simulator.wilson_interval(70, 100)
    assert lo2 == pytest.approx(1.0 - hi, abs=1e-12)
    assert hi2 == pytest.approx(1.0 - lo, abs=1e-12)


def _zero_model(n):
    """All coefficients zero (frozen paths), with n noise channels."""
    return sde_model.linear(np.zeros((n, n)))


def em_step(model, t, x, dt, dW):
    """One explicit Euler-Maruyama step; dW carries the sqrt(dt) scaling.

    Works on a single state (n,) or a batch (m, n) with dW of matching shape.
    Raises NonFinite when the step leaves the representable range. The
    reference the block loop is checked against.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    out = mc_simulator._em_update(model, t, np.asarray(x, float), dt, np.asarray(dW, float))
    if not np.all(np.isfinite(out)):
        raise NonFinite("state overflowed during an Euler-Maruyama step")
    return out


def _replay(model, domain, x, T, dt, seed, path_index=0):
    """Path path_index alone: a one-row _simulate_block. Returns its (state,
    steps, exited, nonfinite)."""
    x = np.asarray(x, dtype=float)
    out = mc_simulator._simulate_block(model, domain, x[None], T, dt, seed, path_index)
    return [a[0] for a in out]


def test_em_step_zero_model_is_identity():
    model = _zero_model(2)
    x = np.array([0.3, -0.7])
    out = em_step(model, 0.0, x, 0.01, np.zeros(2))
    np.testing.assert_array_equal(out, x)


def test_em_step_pure_drift():
    model = sde_model.ou_inward(2, rate=2.0)
    x = np.array([1.0, -1.0])
    out = em_step(model, 0.0, x, 0.1, np.zeros(2))
    np.testing.assert_allclose(out, x - 0.2 * x, atol=1e-15)


def test_em_step_diffusion_uses_increments():
    model = sde_model.brownian(2, scale=3.0)
    x = np.zeros(2)
    dW = np.array([0.5, -0.2])
    out = em_step(model, 0.0, x, 0.01, dW)
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
        batch = em_step(model, 0.3, X, 0.01, dW)
        for i in range(6):
            single = em_step(model, 0.3, X[i], 0.01, dW[i])
            np.testing.assert_array_equal(batch[i], single)


def _em_out_of_place(model, t, x, dt, dW):
    """The EM formula summed into fresh arrays: x + a dt, then + b_k dW_k."""
    out = x + model.drift(t, x) * dt
    b = model.diffusion(t, x)
    for k in range(b.shape[-1]):
        out = out + b[..., k] * dW[..., k : k + 1]
    return out


def test_em_update_in_place_has_the_bits_of_the_out_of_place_formula():
    """Accumulating in one array reorders x + a dt to a dt + x, which IEEE
    addition leaves bit for bit the same, for a batch and a single state."""
    rng = np.random.default_rng(23)
    X = rng.uniform(-3.0, 3.0, size=(500, 2))
    models = (
        sde_model.rotational(spin=1.3, inward_rate=0.7),
        sde_model.brownian(2, scale=0.4),
        sde_model.ou_inward(2, rate=1.9),
        _affine_model(),
    )
    for model in models:
        k = model.diffusion(0.0, X).shape[-1]
        dW = rng.normal(size=(500, k)) * 0.03
        for x, w in ((X, dW), (X[3], dW[3])):
            new = mc_simulator._em_update(model, 0.2, x, 0.001, w)
            assert new.tobytes() == _em_out_of_place(model, 0.2, x, 0.001, w).tobytes()


def test_em_step_rejects_bad_dt_and_overflow():
    model = sde_model.outward(1, rate=1.0)
    with pytest.raises(ValueError):
        em_step(model, 0.0, np.array([1.0]), 0.0, np.zeros(1))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite):
            em_step(model, 0.0, np.array([1e308]), 2.0, np.zeros(1))


def test_deterministic_path_first_order_accuracy():
    """With no noise the scheme is explicit Euler; the global error at the
    horizon should shrink linearly in dt."""
    model = sde_model.ou_inward(1, rate=1.0)
    domain = geometry.ball([0.0], 10.0)
    exact = np.exp(-1.0)
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        state, _, exited, _ = _replay(model, domain, [1.0], 1.0, dt, seed=1)
        assert not exited
        errors.append(abs(state[0] - exact))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.3)
    assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.3)


def test_exit_time_of_outward_flow():
    # x' = x from x0 = 1 crosses radius 2 at t = ln 2
    model = sde_model.outward(1, rate=1.0)
    domain = geometry.ball([0.0], 2.0)
    _, steps, exited, _ = _replay(model, domain, [1.0], 2.0, 1e-3, seed=1)
    exit_time = steps * 1e-3
    assert exited
    assert exit_time == pytest.approx(np.log(2.0), abs=2e-3)
    assert steps == round(exit_time / 1e-3)


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


def test_exit_probability_independent_of_blocking(monkeypatch):
    model = sde_model.brownian(2)
    domain = geometry.ball([0.0, 0.0], 1.0)
    kwargs = dict(x0=[0.5, 0.0], T=0.3, dt=0.01, n_paths=300, seed=11)
    base = mc_simulator.exit_probability(model, domain, **kwargs)
    monkeypatch.setattr(mc_simulator, "BLOCK", 7)
    small_blocks = mc_simulator.exit_probability(model, domain, **kwargs)
    monkeypatch.setattr(mc_simulator, "BLOCK", 64)
    large_blocks = mc_simulator.exit_probability(model, domain, **kwargs)
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
            state, _, exited, _ = _replay(
                model, huge, starts[i], 0.1, 0.01, seed=21, path_index=i
            )
            assert not exited
            np.testing.assert_array_equal(state, finals[i])


def test_isolated_exiting_paths_match_kernel_rows(monkeypatch):
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
        solo_state, solo_steps, solo_exited, _ = _replay(
            model, domain, starts[i], T, dt, seed=seed, path_index=i
        )
        assert solo_exited == exited[i]
        assert solo_steps == steps[i]
        np.testing.assert_array_equal(solo_state, states[i])
    monkeypatch.setattr(mc_simulator, "BLOCK", 7)
    est = mc_simulator.exit_probability(model, domain, [0.5, 0.0], T, dt, n_paths, seed)
    assert est.n_exits == exited.sum()


def test_span_generator_draws_what_path_generator_draws(monkeypatch):
    """The one re-keyed generator of a block hands each path, over two
    windows, the increments its own path_generator stream gives: k normals
    per step, one per noise channel, in (step, channel) order. The zero
    model has k = n = 2; rotational has one channel in two dimensions and
    reads one normal per step."""
    W, extra, first_index, seed = mc_simulator.WINDOW, 37, 3, 19
    recorded = []

    def recording_update(model, t, x, dt, dW):
        recorded.append(np.array(dW))
        return x

    monkeypatch.setattr(mc_simulator, "_em_update", recording_update)
    starts = np.zeros((4, 2))
    for model, k in ((_zero_model(2), 2), (sde_model.rotational(), 1)):
        recorded.clear()
        mc_simulator._simulate_block(
            model, None, starts, float(W + extra), 1.0, seed, first_index
        )
        drawn = np.stack(recorded, axis=1)  # (path, step, channel); sqrt(dt) = 1
        assert drawn.shape == (4, W + extra, k)
        for i in range(4):
            ref = seeds.path_generator(seed, first_index + i).standard_normal((W + extra, k))
            assert drawn[i].tobytes() == ref.tobytes()


def _leaky_model():
    """Brownian motion whose drift sends a coordinate below -0.9 to infinity,
    so some paths exit the unit disk, some overflow and the rest survive."""
    return dataclasses.replace(
        sde_model.brownian(2), drift=lambda t, x: np.where(x < -0.9, np.inf, 0.0)
    )


@forking
@pytest.mark.parametrize("block", [mc_simulator.BLOCK, 7])
def test_sharded_paths_are_bit_identical_for_any_cpu_count(monkeypatch, block):
    """1, 2 or 3 CPUs give the same per-path outcomes and estimates: a horizon
    over WINDOW steps (states saved across windows), exits on both sides of a
    window boundary, overflowing paths, and a path count that is not a
    multiple of the block or of the CPU count. The model has noise channels,
    so its repeated starts are distinct paths and still split over the CPUs."""
    monkeypatch.setattr(mc_simulator, "BLOCK", block)
    model, domain = _leaky_model(), geometry.ball([0.0, 0.0], 1.0)
    n_paths, T, dt, seed = 31, 0.4, 2.5e-4, 31
    starts = np.tile([0.5, 0.0], (n_paths, 1))
    outcomes, estimates = [], []
    for w in (1, 2, 3):
        forks = _on_cpus(monkeypatch, w)
        with np.errstate(invalid="ignore"):
            outcomes.append(
                mc_simulator._simulate_rows(model, domain, starts, T, dt, seed)
            )
            estimates.append(
                mc_simulator.exit_probability(model, domain, [0.5, 0.0], T, dt, n_paths, seed)
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


@pytest.mark.parametrize("window", [7, 300])
def test_window_width_does_not_change_any_path(monkeypatch, window):
    """A path's increments are its stream read in order, whatever the window
    width: windows of 7 and 300 steps give every path's (states, steps,
    exited, nonfinite) of the default width bit for bit, over horizons of
    several windows, with exits and overflowing paths."""
    cases = [
        (_leaky_model(), geometry.ball([0.0, 0.0], 1.0), np.tile([0.5, 0.0], (40, 1)), 0.4, 2.5e-4),
        (sde_model.rotational(), geometry.ball([0.0, 0.0], 1.0), np.tile([0.5, 0.0], (16, 1)), 1.0, 1e-3),
        (sde_model.brownian(3), geometry.ball([0.0] * 3, 1.0), np.zeros((64, 3)), 0.25, 1e-3),
        (_affine_model(), None, np.random.default_rng(2).uniform(-1.0, 1.0, (9, 2)), 0.7, 1e-3),
    ]
    width = mc_simulator.WINDOW
    with np.errstate(invalid="ignore"):
        default = [mc_simulator._simulate_block(m, d, x, T, dt, 11, 3) for m, d, x, T, dt in cases]
        monkeypatch.setattr(mc_simulator, "WINDOW", window)
        narrow = [mc_simulator._simulate_block(m, d, x, T, dt, 11, 3) for m, d, x, T, dt in cases]
    for old, new in zip(default, narrow):
        assert [a.tobytes() for a in new] == [a.tobytes() for a in old]
    _, steps, exited, nonfinite = default[0]
    stops = steps[exited | nonfinite]
    assert exited.any() and nonfinite.any()
    # paths stop in different windows of either width
    assert np.unique(stops // window).size > 1 and np.unique(stops // width).size > 1
    assert default[2][2].any()


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
    """Each path alone: whole (WINDOW, k) windows from its stream, one normal
    per step and noise channel, em_step (the copy above). A path whose step
    overflows stops there with the out-of-place formula's state."""
    W = mc_simulator.WINDOW
    states = np.array(starts, dtype=float)
    steps = np.full(len(starts), n_steps)
    exited, nonfinite = np.zeros((2, len(starts)), dtype=bool)
    for i in range(len(starts)):
        gen = seeds.path_generator(seed, first_index + i)
        x = states[i]
        k = model.diffusion(0.0, x).shape[-1]
        for s in range(n_steps):
            if s % W == 0:
                dW = gen.standard_normal((W, k)) * np.sqrt(dt)
            try:
                x = em_step(model, s * dt, x, dt, dW[s % W])
            except NonFinite:
                x = _em_out_of_place(model, s * dt, x, dt, dW[s % W])
                nonfinite[i], steps[i] = True, s + 1
                break
            if domain is not None and geometry.signed_level(domain, x[None])[0] > 0.0:
                exited[i], steps[i] = True, s + 1
                break
        states[i] = x
    return states, steps, exited, nonfinite


# (model, domain, starts): brownian has k = n = 3 noise channels; rotational
# has k = 1 in two dimensions, and its tangential noise carries paths out of
# a disk off the origin.
REFERENCE_CASES = (
    (sde_model.brownian(3), geometry.ball([0.0, 0.0, 0.0], 0.8), np.zeros((12, 3))),
    (sde_model.rotational(spin=1.5), geometry.ball([0.5, 0.0], 0.4), np.tile([0.5, 0.0], (12, 1))),
)


@pytest.mark.parametrize("extra", [-424, 0, 5])
@pytest.mark.parametrize("with_domain", [True, False])
def test_kernel_matches_full_window_reference(extra, with_domain):
    """Drawing only the rows up to the horizon leaves every increment a path
    uses equal to the full-window layout, for k = n and for k < n."""
    n_steps = mc_simulator.WINDOW + extra
    dt = 2.0**-12
    for model, domain, starts in REFERENCE_CASES:
        domain = domain if with_domain else None
        states, steps, exited, nonfinite = mc_simulator._simulate_block(
            model, domain, starts, n_steps * dt, dt, 5, 3
        )
        ref_states, ref_steps, ref_exited, ref_nonfinite = _full_window_reference(
            model, domain, starts, n_steps, dt, 5, 3
        )
        np.testing.assert_array_equal(states, ref_states)
        np.testing.assert_array_equal(steps, ref_steps)
        np.testing.assert_array_equal(exited, ref_exited)
        assert not nonfinite.any() and not ref_nonfinite.any()
        if with_domain:
            assert 0 < exited.sum() < len(starts)
        else:
            assert not exited.any()


def _cubic_model():
    """A non-affine model, a = c - x**3 with a constant diffusion, whose
    callables ignore the layout they are given: the drift comes back
    C-ordered for any input, and the diffusion is a stride-0 view."""
    b = np.array([[0.6, 0.2], [0.0, 0.5]])
    c = np.array([0.4, 0.0])

    def drift(t, x):
        return np.ascontiguousarray(c - np.asarray(x, dtype=float) ** 3)

    def diffusion(t, x):
        return np.broadcast_to(b, np.shape(x) + (2,))

    return sde_model.SdeModel(2, "cubic", drift, diffusion, None, {})


def test_kernel_runs_any_model_whatever_layout_it_returns(monkeypatch):
    """The coordinate-major loop makes no layout demand of a model: a
    non-affine model whose callables return C-ordered arrays and a stride-0
    diffusion gets em_step's bits, path by path, over windows of 16 steps and
    draw chunks of 5 paths (a short last chunk), with paths that exit in
    different windows and one that overflows on its second step."""
    monkeypatch.setattr(mc_simulator, "WINDOW", 16)
    monkeypatch.setattr(mc_simulator, "CHUNK", 5)
    model = _cubic_model()
    # the level x_1 - 0.5: paths leave across the line x_1 = 0.5
    def level(x):
        return np.asarray(x, dtype=float)[..., 0] - 0.5

    domain = geometry.ImplicitDomain(
        dimension=2,
        kind="custom",
        center=np.zeros(2),
        level_fn=level,
        gradient_fn=lambda x: np.array([1.0, 0.0]),
        hessian_fn=lambda x: np.zeros((2, 2)),
        outside=lambda X: level(X) > 0.0,
        **SIMULATOR_ONLY,
    )
    starts = np.zeros((12, 2))
    starts[5, 1] = 1e100  # -x**3 dt throws it to -1.6e298, then past the range
    n_steps, dt = 100, 2.0**-6
    with np.errstate(over="ignore", invalid="ignore"):
        got = mc_simulator._simulate_block(model, domain, starts, n_steps * dt, dt, 7, 4)
        want = _full_window_reference(model, domain, starts, n_steps, dt, 7, 4)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    states, steps, exited, nonfinite = got
    assert list(np.flatnonzero(nonfinite)) == [5] and steps[5] == 2
    assert 0 < exited.sum() < 11
    assert np.unique(steps[exited] // 16).size > 1


@forking
def test_states_come_back_c_ordered(monkeypatch):
    """The loop holds states coordinate-major, but _simulate_block,
    _simulate_rows and final_states hand back C-ordered (m, n) arrays:
    lemma1_gap feeds final states to rows.row_dot, whose bits depend on the
    strides."""
    model = _affine_model()
    domain = geometry.ball([0.0, 0.0], 1.5)
    starts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(40, 2))
    states = mc_simulator._simulate_block(model, domain, starts, 0.5, 0.01, 9, 0)[0]
    assert states.flags.c_contiguous
    monkeypatch.setattr(mc_simulator, "BLOCK", 16)
    for w in (1, 2):
        _on_cpus(monkeypatch, w)
        rows = mc_simulator._simulate_rows(model, domain, starts, 0.5, 0.01, 9)[0]
        finals = mc_simulator.final_states(model, starts, 0.5, 0.01, seed=9)
        assert rows.flags.c_contiguous and finals.flags.c_contiguous
        assert rows.tobytes() == states.tobytes()
        _assert_no_child_left()


def _ball_exit_series(n, t, terms=40):
    """P(a standard Brownian motion from the centre of the unit ball in
    R^n leaves it by time t), for n = 2 or 3: the eigenfunction series
    1 - 2 sum (-1)^(k+1) exp(-k^2 pi^2 t / 2) in 3-D, and
    1 - sum 2 / (j_k J_1(j_k)) exp(-j_k^2 t / 2) over the zeros j_k of J_0
    in 2-D."""
    if n == 3:
        k = np.arange(1, terms + 1)
        return 1.0 - 2.0 * np.sum((-1.0) ** (k + 1) * np.exp(-k * k * np.pi**2 * t / 2.0))
    from scipy.special import j1, jn_zeros

    j = jn_zeros(0, terms)
    return 1.0 - np.sum(2.0 / (j * j1(j)) * np.exp(-j * j * t / 2.0))


def test_ball_exit_series_values():
    assert _ball_exit_series(3, 0.25) == pytest.approx(0.43193, abs=1e-5)
    assert _ball_exit_series(2, 0.25) == pytest.approx(0.24603, abs=1e-5)


# Tolerance in standard errors. Over seeds 1-20 at 4096 paths, z ranged
# from -3.4 to +2.9 in 3-D and from -2.5 to +2.3 in 2-D at dt 0.005, 0.004
# and 0.0025; at dt 0.004 the series taken at T instead of the horizon
# shifts the mean z by -0.7 in 3-D.
EXIT_Z_TOL = 4.0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dt", [0.0025, 0.004])
def test_brownian_exit_estimate_matches_the_series(n, dt):
    """An oracle that is not more Monte Carlo: EM exits of Brownian motion
    from the centre of the unit ball, observed only at grid times, match the
    continuous exit probability from the ball of radius
    R = 1 + 0.5826 sqrt(dt) (Broadie, Glasserman and Kou 1997), which by
    scaling is P_1(t / R^2), taken at the simulated horizon
    round(T / dt) dt: dt 0.004 runs 62 steps, to 0.248."""
    T, n_paths = 0.25, 4096
    horizon = mc_simulator._n_steps(T, dt) * dt
    R = 1.0 + 0.5826 * np.sqrt(dt)
    p = _ball_exit_series(n, horizon / R**2)
    est = mc_simulator.exit_probability(
        sde_model.brownian(n), geometry.ball([0.0] * n, 1.0), np.zeros(n), T, dt, n_paths, seed=1
    )
    z = (est.p_hat - p) / np.sqrt(p * (1.0 - p) / n_paths)
    assert abs(z) <= EXIT_Z_TOL, (n, dt, est.p_hat, p, z)


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
    model = _zero_model(2)
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
    for n_paths in (1, 10):
        with pytest.raises(ImmediateExit):
            mc_simulator.exit_probability(
                model, domain, [2.0, 0.0], T=1.0, dt=0.01, n_paths=n_paths, seed=1
            )
    with pytest.raises(ImmediateExit):
        mc_simulator.dt_convergence_study(
            model, domain, [2.0, 0.0], T=1.0, dt_list=[0.01], n_paths=10, seed=1
        )


def test_x0_of_the_wrong_shape_is_refused():
    """A start point must have the domain's dimension: a 1-D x0 on a disk
    would broadcast against the disk's centre. It must be finite too: from
    a NaN start every path is non-finite and none counts as an exit."""
    model = sde_model.ou_inward(2)
    domain = geometry.ball([0.5, 0.0], 1.0)
    for x0, shape in (([0.1], r"\(1,\)"), ([[0.5, 0.0]], r"\(1, 2\)"), (0.5, r"\(\)")):
        with pytest.raises(ValueError, match=shape + r".*\(2,\)"):
            mc_simulator.exit_probability(model, domain, x0, T=1.0, dt=0.1, n_paths=4, seed=1)
        with pytest.raises(ValueError, match=shape + r".*\(2,\)"):
            mc_simulator.dt_convergence_study(
                model, domain, x0, T=1.0, dt_list=[0.1, 0.05], n_paths=4, seed=1
            )
    for x0 in ([np.nan, 0.0], [0.5, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="x0 must be finite"):
            mc_simulator.exit_probability(model, domain, x0, T=1.0, dt=0.1, n_paths=4, seed=1)
        with pytest.raises(ValueError, match="x0 must be finite"):
            mc_simulator.dt_convergence_study(
                model, domain, x0, T=1.0, dt_list=[0.1, 0.05], n_paths=4, seed=1
            )
    est = mc_simulator.exit_probability(model, domain, [0.5, 0.0], T=1.0, dt=0.1, n_paths=4, seed=1)
    assert est.n_exits == 0


def test_model_of_another_dimension_is_refused():
    """The model must have the domain's dimension and the start points'
    width: a 1-D drift would broadcast over 2-D states, and a 3-D noise
    would fail inside the step with NumPy's message."""
    disk = geometry.ball([0.0, 0.0], 1.0)
    for model, n in ((sde_model.ou_inward(1), 1), (sde_model.brownian(3), 3)):
        with pytest.raises(ValueError, match=f"model has dimension {n}, the domain 2"):
            mc_simulator.exit_probability(model, disk, [0.1, 0.0], T=1.0, dt=0.1, n_paths=4, seed=1)
        with pytest.raises(ValueError, match=f"model has dimension {n}, the domain 2"):
            mc_simulator.dt_convergence_study(
                model, disk, [0.1, 0.0], T=1.0, dt_list=[0.1, 0.05], n_paths=4, seed=1
            )
        with pytest.raises(ValueError, match=f"model has dimension {n}, the start points 2"):
            mc_simulator.final_states(model, np.zeros((4, 2)), T=1.0, dt=0.1, seed=1)
    with pytest.raises(ValueError, match=r"shape \(2,\), need \(m, 2\)"):
        mc_simulator.final_states(sde_model.brownian(2), np.zeros(2), T=1.0, dt=0.1, seed=1)


def test_ball_exit_test_stops_every_path_where_the_level_does():
    """The simulator's closed-form exit test on a ball stops each path at
    the step a positive signed_level does, over two windows with exits in
    both, and with no call of signed_level inside the time loop."""
    model, domain = sde_model.brownian(2), geometry.ball([0.1, -0.2], 0.9)
    starts = np.tile([0.4, -0.1], (40, 1))
    T, dt = 0.4, 2.5e-4
    by_level = dataclasses.replace(
        domain, outside=lambda X: geometry.signed_level(domain, X) > 0.0
    )
    by_level = mc_simulator._simulate_block(model, by_level, starts, T, dt, 9, 0)
    calls = []
    real_level = mc_simulator.signed_level
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc_simulator, "signed_level", lambda d, x: calls.append(1) or real_level(d, x))
        closed = mc_simulator._simulate_block(model, domain, starts, T, dt, 9, 0)
    assert not calls
    assert [a.tobytes() for a in closed] == [a.tobytes() for a in by_level]
    steps, exited = closed[1], closed[2]
    assert steps[exited].min() < mc_simulator.WINDOW < steps[exited].max()


# The simulator reads a domain's level (at the start point) and its exit
# test only, so a domain built for it alone leaves the boundary operations as
# placeholders.
SIMULATOR_ONLY = dict(
    bounding_radius=np.inf,
    inner_radius=np.inf,
    ray_crossing=None,
    boundary_points=None,
    project=None,
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
        outside=lambda X: np.zeros(len(X), dtype=bool),
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
        outside=lambda X: np.zeros(len(X), dtype=bool),
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
        _, steps, exited, nonfinite = _replay(model, domain, [5.0, 0.0], 1.0, 0.5, seed=1)
    assert est.n_nonfinite == 3
    assert est.n_exits == 0
    assert nonfinite and not exited and steps == 1


def test_overflow_raises_for_single_path_and_final_states():
    """One overflowing path: final_states raises, and exit_probability
    counts it as non-finite."""
    model = sde_model.outward(1, rate=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        est = mc_simulator.exit_probability(
            model, _whole_space(1), [1.0], T=200.0, dt=1.0, n_paths=1, seed=1
        )
        for starts in (np.array([[1.0]]), np.array([[0.5], [1.0]])):
            with pytest.raises(NonFinite):
                mc_simulator.final_states(model, starts, 200.0, 1.0, seed=1)
    assert est.n_nonfinite == 1 and est.n_exits == 0


def test_invalid_time_parameters():
    model = _zero_model(1)
    domain = geometry.ball([0.0], 1.0)
    for T, dt in ((1.0, 2.0), (0.0, 0.1), (1.0, 0.0), (1.0, -0.1)):
        with pytest.raises(ValueError):
            mc_simulator.exit_probability(model, domain, [0.0], T, dt, n_paths=1, seed=1)
        with pytest.raises(ValueError):
            mc_simulator.final_states(model, np.zeros((1, 1)), T, dt, seed=1)
    with pytest.raises(ValueError):
        mc_simulator.exit_probability(
            model, domain, [0.0], T=1.0, dt=0.1, n_paths=0, seed=1
        )


def _refuse_keys(seed, indices):
    raise AssertionError("a model without noise channels derived path keys")


def test_noise_free_model_derives_no_keys_and_draws_nothing(monkeypatch):
    """ou_inward has no noise channels: over a horizon longer than WINDOW
    steps, no block derives keys, and each final state is the plain drift
    loop's, with an empty increment at every step."""
    monkeypatch.setattr(mc_simulator, "path_keys", _refuse_keys)
    monkeypatch.setattr(mc_simulator, "BLOCK", 4)
    model, domain = sde_model.ou_inward(2), geometry.ball([0.0, 0.0], 1.0)
    dt = 2.0**-10
    n_steps = mc_simulator.WINDOW + 37
    est = mc_simulator.exit_probability(
        model, domain, [0.5, 0.0], n_steps * dt, dt, n_paths=9, seed=3
    )
    assert est.n_exits == 0 and est.n_nonfinite == 0
    starts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(9, 2))
    finals = mc_simulator.final_states(model, starts, n_steps * dt, dt, seed=3)
    x = starts
    for s in range(n_steps):
        x = mc_simulator._em_update(model, s * dt, x, dt, np.empty((9, 0)))
    assert finals.tobytes() == x.tobytes()


def test_later_spans_draw_what_path_generator_draws(monkeypatch):
    """With blocks of 3 paths, the blocks starting at paths 3 and 6 key each
    row from path_generator(seed, row), over two windows."""
    monkeypatch.setattr(mc_simulator, "BLOCK", 3)
    model, seed = _affine_model(), 13
    dt = 2.0**-10
    W, extra = mc_simulator.WINDOW, 37
    starts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(7, 2))
    finals = mc_simulator.final_states(model, starts, (W + extra) * dt, dt, seed)
    for i in range(7):
        gen = seeds.path_generator(seed, i)
        dW = np.concatenate([gen.standard_normal((W, 2)), gen.standard_normal((extra, 2))])
        dW *= np.sqrt(dt)
        x = starts[i : i + 1]
        for s in range(W + extra):
            x = mc_simulator._em_update(model, s * dt, x, dt, dW[s : s + 1])
        assert finals[i].tobytes() == x[0].tobytes()


def _refuse_call(t, x):
    raise AssertionError("a model was called with no start points")


def test_no_start_points_give_no_final_states(monkeypatch):
    """No rows fork nothing and call no model coefficient."""
    model = dataclasses.replace(
        sde_model.brownian(2), drift=_refuse_call, diffusion=_refuse_call
    )
    forks = _on_cpus(monkeypatch, 2) if hasattr(os, "sched_getaffinity") else []
    finals = mc_simulator.final_states(model, np.zeros((0, 2)), 1.0, 0.1, 1)
    assert finals.shape == (0, 2)
    assert not forks


def _refuse_fork():
    raise AssertionError("a noise-free stage forked")


@pytest.mark.parametrize("with_domain", [False, True])
def test_noise_free_rows_run_each_distinct_start_once(monkeypatch, with_domain):
    """An outward drift with no noise channels (ou_inward at a negative
    rate): _simulate_rows runs each distinct start once, and every row gets
    what a one-row _simulate_block from its start gives, bit for bit:
    repeated starts, starts that differ only in the sign of a zero, and a
    start whose first step overflows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    real_block, block_rows = mc_simulator._simulate_block, []

    def counting_block(model, domain, starts, *args):
        block_rows.append(len(starts))
        return real_block(model, domain, starts, *args)

    monkeypatch.setattr(mc_simulator, "_simulate_block", counting_block)
    model = sde_model.ou_inward(2, rate=-10.0)
    domain = geometry.ball([0.0, 0.0], 1.0) if with_domain else None
    starts = np.array(
        [[0.5, 0.0], [1.7e308, 0.0], [0.5, 0.0], [0.0, 0.0], [-0.0, 0.0],
         [0.5, -0.0], [0.0, 0.0], [1.7e308, 0.0], [0.5, 0.0]]
    )
    T, dt, seed = 1.0, 0.01, 3
    with np.errstate(over="ignore", invalid="ignore"):
        got = mc_simulator._simulate_rows(model, domain, starts, T, dt, seed)
        alone = [real_block(model, domain, x[None], T, dt, seed, i) for i, x in enumerate(starts)]
    assert block_rows == [5]
    for i, one in enumerate(alone):
        assert [a[i].tobytes() for a in got] == [a[0].tobytes() for a in one]
    states, steps, exited, nonfinite = got
    assert nonfinite.tolist() == [False, True] + [False] * 5 + [True, False]
    assert steps[1] == 1
    assert exited[0] == with_domain and not exited[3:5].any()
    assert np.signbit(states[4, 0]) and not np.signbit(states[3, 0])
    assert np.signbit(states[5, 1]) and not np.signbit(states[0, 1])


@forking
def test_noise_free_exit_probability_forks_nothing(monkeypatch):
    """ou_inward's 2000 paths from one start are one path: on two CPUs the
    estimate forks nothing, whether no path exits or every path does."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", _refuse_fork)
    model, domain = sde_model.ou_inward(2), geometry.ellipsoid([0.0, 0.0], [1.0, 0.7])
    est = mc_simulator.exit_probability(model, domain, [0.5, 0.0], 1.0, 1e-3, 2000, seed=7)
    assert (est.n_paths, est.n_exits, est.n_nonfinite) == (2000, 0, 0)
    est = mc_simulator.exit_probability(
        sde_model.ou_inward(2, rate=-1.0), domain, [0.5, 0.0], 1.0, 1e-3, 2000, seed=7
    )
    assert (est.n_paths, est.n_exits, est.n_nonfinite) == (2000, 2000, 0)
