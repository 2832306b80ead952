"""Acceptance gate: nine criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the gate lines; each test
asserts the criterion at its stated tolerance, so a plain pytest run enforces
the same gate. Frozen reference values were computed by independent oracles
(adaptive radial quadrature, a symbolic boundary-functional reduction, a
reflection-series exit probability, and a dt = 1e-5 pin run) before the
implementation existed.
"""

import json
import time

import numpy as np

from viability import (
    cli_runner,
    generator_probe,
    geometry,
    mc_simulator,
    mollifier,
    sde_model,
    theorem_checker,
)

SEED = 20260821

# Dirichlet heat-kernel series over the disk eigenvalues (zeros of J0) for a
# planar Brownian motion leaving the unit disk from the center by T = 1, and
# the Euler-Maruyama estimate of the same probability from a dt = 1e-5 pin
# run (discrete monitoring biases the scheme low).
BROWNIAN_EXIT_CONTINUOUS = 0.9111102839150845
BROWNIAN_EXIT_EM_PIN = 0.9085


def gate(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def unit_ball(n=2):
    return geometry.ball([0.0] * n, 1.0)


def test_criterion_1_mollifier_normalization():
    start = time.perf_counter()
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    for n in (1, 2, 3):
        for eps in (0.25, 1.0):
            spec = mollifier.make_spec(n, eps)
            # second quadrature, independent of the radial rule behind c_eps
            mass = mollifier.lattice_mass(spec, 64)
            worst[n] = max(worst[n], abs(mass - 1.0))
    elapsed = time.perf_counter() - start
    ok = (
        worst[1] <= 1e-6
        and worst[2] <= 1e-6
        and worst[3] <= 1e-4
        and elapsed <= 10.0
    )
    detail = (
        f"|mass-1| = {worst[1]:.1e}/{worst[2]:.1e}/{worst[3]:.1e} "
        f"for n=1/2/3, {elapsed:.1f}s"
    )
    assert gate(1, "mollifier normalization", ok, detail), detail


def test_criterion_2_smoothed_indicator_shape():
    eps = 0.05
    ind = mollifier.SmoothedIndicator(unit_ball(), eps, nodes_per_axis=48)
    rng = np.random.default_rng(SEED)

    # 100 points in the closed outer offset K_eps, edge cases included
    angs = rng.uniform(0.0, 2 * np.pi, size=100)
    radii = np.concatenate(
        [np.full(10, 1.0 + eps), rng.uniform(0.0, 1.0 + eps, size=90)]
    )
    pts_in = np.stack([radii * np.cos(angs), radii * np.sin(angs)], axis=1)
    vals_in = np.array([mollifier.eta(ind, p) for p in pts_in])
    one_dev = float(np.abs(vals_in - 1.0).max())

    # 100 points beyond the support; the interface treatment inflates the
    # support by half a lattice cell, so stay one full cell past 3 eps
    cell = 2.0 * eps / 48
    radii_out = rng.uniform(1.0 + 3 * eps + cell, 3.0, size=100)
    angs_out = rng.uniform(0.0, 2 * np.pi, size=100)
    pts_out = np.stack(
        [radii_out * np.cos(angs_out), radii_out * np.sin(angs_out)], axis=1
    )
    vals_out = np.array([mollifier.eta(ind, p) for p in pts_out])
    all_zero = bool(np.all(vals_out == 0.0))

    # 1000 arbitrary points stay in [0, 1] within slack
    pts_any = rng.uniform(-2.0, 2.0, size=(1000, 2))
    vals_any = np.array([mollifier.eta(ind, p) for p in pts_any])
    in_range = bool(np.all(vals_any >= -1e-12) and np.all(vals_any <= 1.0 + 1e-12))

    # eps * max |grad eta| stays within a factor 2 across eps
    scaled = []
    for e in (0.2, 0.1, 0.05):
        ind_e = mollifier.SmoothedIndicator(unit_ball(), e, nodes_per_axis=48)
        best = 0.0
        for k in range(60):
            ang = 2 * np.pi * k / 60
            d = e * (1.0 + 2.0 * ((k * 7) % 60) / 60)
            x = (1.0 + d) * np.array([np.cos(ang), np.sin(ang)])
            best = max(best, float(np.linalg.norm(mollifier.eta_gradient(ind_e, x))))
        scaled.append(e * best)
    spread = max(scaled) / min(scaled)

    ok = one_dev <= 2e-3 and all_zero and in_range and spread <= 2.0
    detail = (
        f"max|eta-1| = {one_dev:.1e} on K_eps, outside zero = {all_zero}, "
        f"range ok = {in_range}, grad-scale spread = {spread:.2f}"
    )
    assert gate(2, "smoothed indicator shape", ok, detail), detail


def test_criterion_3_derivative_correctness():
    start = time.perf_counter()
    spec = mollifier.make_spec(2, 0.3)
    rng = np.random.default_rng(SEED + 1)
    h = 1e-6
    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(100):
        v = rng.normal(size=2)
        v *= 0.85 * spec.radius * rng.uniform(0.05, 1.0) ** 0.5 / np.linalg.norm(v)
        grad = -mollifier.omega_gradient(spec, v)  # derivative in the argument
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (mollifier.omega(spec, v + e) - mollifier.omega(spec, v - e)) / (
                2 * h
            )
        worst_grad = max(
            worst_grad, float(np.linalg.norm(fd - grad) / np.linalg.norm(grad))
        )
        hess = mollifier.omega_hessian(spec, v)
        hfd = np.zeros((2, 2))
        hstep = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = hstep
            gp = -mollifier.omega_gradient(spec, v + e)
            gm = -mollifier.omega_gradient(spec, v - e)
            hfd[:, j] = (gp - gm) / (2 * hstep)
        worst_hess = max(
            worst_hess, float(np.abs(hfd - hess).max() / np.abs(hess).max())
        )

    eps = 0.05
    ind = mollifier.SmoothedIndicator(unit_ball(), eps, nodes_per_axis=48)
    worst_eta = 0.0
    for k in range(20):
        ang = 2 * np.pi * k / 20 + 0.05
        d = eps * (1.1 + 1.8 * (k % 5) / 5)
        x = (1.0 + d) * np.array([np.cos(ang), np.sin(ang)])
        grad = mollifier.eta_gradient(ind, x)
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (mollifier.eta(ind, x + e) - mollifier.eta(ind, x - e)) / (2 * h)
        worst_eta = max(
            worst_eta, float(np.linalg.norm(fd - grad) / np.linalg.norm(grad))
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_grad <= 1e-6
        and worst_hess <= 1e-5
        and worst_eta <= 1e-3
        and elapsed <= 60.0
    )
    detail = (
        f"omega grad/hess rel = {worst_grad:.1e}/{worst_hess:.1e}, "
        f"eta grad rel = {worst_eta:.1e}, {elapsed:.1f}s"
    )
    assert gate(3, "derivative correctness", ok, detail), detail


def test_criterion_4_boundary_conditions_positive_case():
    model = sde_model.rotational(spin=1.0, inward_rate=1.0)
    report = theorem_checker.theorem1_report(model, unit_ball())
    sup_ok = all(v <= 1e-10 for v in report.cond2_sup)
    smallest_eps = report.eps_grid[-1]
    derived = -(1.0 + smallest_eps) / 2.0
    c3_ok = abs(report.cond3_sup[-1] - derived) <= 1e-2
    ok = sup_ok and c3_ok and report.invariance_predicted is True
    detail = (
        f"max cond2_sup = {max(report.cond2_sup):.1e}, "
        f"cond3_sup({smallest_eps}) = {report.cond3_sup[-1]:.6f} "
        f"vs {derived}, predicted = {report.invariance_predicted}"
    )
    assert gate(4, "tangential model predicted invariant", ok, detail), detail


def test_criterion_5_boundary_conditions_negative_case():
    model = sde_model.brownian(2, scale=1.0)
    report = theorem_checker.theorem1_report(model, unit_ball())
    in_band = all(0.95 <= v <= 1.0 + 1e-12 for v in report.cond2_sup)
    ok = in_band and report.invariance_predicted is False
    detail = (
        f"cond2_sup = {[round(v, 3) for v in report.cond2_sup]}, "
        f"verdict = {report.cond2_verdict}, predicted = {report.invariance_predicted}"
    )
    assert gate(5, "normal noise refuted", ok, detail), detail


def test_criterion_6_generator_shell_probe():
    start = time.perf_counter()
    good = generator_probe.shell_sign_check(
        sde_model.rotational(spin=1.0, inward_rate=1.0),
        unit_ball(),
        eps=0.1,
        s=0.0,
        n_points=200,
        seed=SEED,
        nodes_per_axis=48,
    )
    bad = generator_probe.shell_sign_check(
        sde_model.outward(2, rate=1.0),
        unit_ball(),
        eps=0.1,
        s=0.0,
        n_points=200,
        seed=SEED,
        nodes_per_axis=48,
    )
    elapsed = time.perf_counter() - start
    ok = good.passed and not bad.passed and elapsed <= 300.0
    detail = (
        f"tangential min = {good.min_value:.4f} >= -{good.tolerance_used:.4f}, "
        f"outward min = {bad.min_value:.2f} < -{bad.tolerance_used:.4f}, "
        f"{elapsed:.1f}s"
    )
    assert gate(6, "generator sign on the shell", ok, detail), detail


def test_criterion_7_monte_carlo_cross_check():
    start = time.perf_counter()
    study = mc_simulator.dt_convergence_study(
        sde_model.rotational(spin=1.0, inward_rate=1.0),
        unit_ball(),
        [0.5, 0.0],
        T=1.0,
        dt_list=[1e-3, 1e-4],
        n_paths=10_000,
        seed=SEED,
    )
    coarse, fine = study
    rot_ok = coarse.p_hat <= 0.001 and (
        fine.p_hat <= coarse.p_hat or fine.ci_low <= coarse.ci_high
    )

    bm = mc_simulator.exit_probability(
        sde_model.brownian(2, scale=1.0),
        unit_ball(),
        [0.0, 0.0],
        T=1.0,
        dt=1e-3,
        n_paths=10_000,
        seed=SEED,
    )
    bm_ok = bm.ci_low > 0.05 and abs(bm.p_hat - BROWNIAN_EXIT_EM_PIN) <= 0.02
    elapsed = time.perf_counter() - start
    ok = rot_ok and bm_ok and elapsed <= 600.0
    detail = (
        f"tangential exit = {coarse.p_hat:.4f} -> {fine.p_hat:.4f}, "
        f"brownian exit = {bm.p_hat:.4f} (pin {BROWNIAN_EXIT_EM_PIN}, "
        f"continuous {BROWNIAN_EXIT_CONTINUOUS:.4f}), CI low = {bm.ci_low:.4f}, "
        f"{elapsed:.0f}s"
    )
    assert gate(7, "monte carlo cross-check", ok, detail), detail


def test_criterion_8_expectation_gaps():
    gap, se = generator_probe.lemma1_gap(
        sde_model.rotational(spin=1.0, inward_rate=1.0),
        unit_ball(),
        eps=0.1,
        t_final=1.0,
        dt=0.01,
        n_paths=5_000,
        seed=SEED,
    )
    lemma_ok = gap >= -3.0 * se

    rng = np.random.default_rng(SEED + 2)
    angs = rng.uniform(0.0, 2 * np.pi, size=100)
    clouds = {
        "inside": np.stack(
            [0.5 * np.cos(angs), 0.5 * np.sin(angs)], axis=1
        ) * rng.uniform(0.0, 1.0, size=(100, 1)),
        "outside": np.stack(
            [2.5 * np.cos(angs), 2.5 * np.sin(angs)], axis=1
        ),
        # distance 0.12 outside: inside K_eps at eps = 0.2, on the shell for
        # the smaller radii, so the surplus decays visibly
        "shell": np.stack(
            [1.12 * np.cos(angs), 1.12 * np.sin(angs)], axis=1
        ),
    }
    quad_tol = 1e-9
    gaps_ok = True
    for cloud in clouds.values():
        ind = mollifier.SmoothedIndicator(unit_ball(), 0.1, nodes_per_axis=48)
        if generator_probe.statement5_gap(ind, cloud, unit_ball()) < -quad_tol:
            gaps_ok = False
    shell_gaps = [
        generator_probe.statement5_gap(
            mollifier.SmoothedIndicator(unit_ball(), e, nodes_per_axis=48),
            clouds["shell"],
            unit_ball(),
        )
        for e in (0.2, 0.1, 0.05)
    ]
    decreasing = shell_gaps[0] >= shell_gaps[1] >= shell_gaps[2]
    ok = lemma_ok and gaps_ok and decreasing
    detail = (
        f"horizon gap = {gap:.2e} (se {se:.1e}), cloud gaps ok = {gaps_ok}, "
        f"shell gaps = {[round(g, 4) for g in shell_gaps]}"
    )
    assert gate(8, "expectation monotonicity gaps", ok, detail), detail


def test_criterion_9_deterministic_reports(tmp_path):
    config = {
        "model": {"family": "rotational", "spin": 1.0, "inward_rate": 1.0},
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "seed": SEED,
        "check": {"samples_per_eps": 40},
        "probe": {"n_points": 30},
        "sim": {"x0": [0.5, 0.0], "T": 0.5, "dt": 0.01, "n_paths": 300},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    texts = []
    for name, threads in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / name
        cli_runner.run(str(cfg_path), "full", out_dir=out, threads=threads)
        raw = (out / "report.json").read_text(encoding="utf-8")
        texts.append(
            "\n".join(l for l in raw.splitlines() if '"timestamp"' not in l)
        )
    ok = texts[0] == texts[1] == texts[2]
    detail = (
        f"rerun identical = {texts[0] == texts[1]}, "
        f"thread-count invariant = {texts[0] == texts[2]}"
    )
    assert gate(9, "deterministic reports", ok, detail), detail
