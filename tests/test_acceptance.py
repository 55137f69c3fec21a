"""End-to-end acceptance checks, one per shipped criterion.

Each test prints a single [PASS]/[FAIL] line with the measured values before
asserting, so a plain `pytest -s tests/test_acceptance.py` doubles as the
acceptance report.
"""
import math

import numpy as np
import sympy as sp

from hamkit import (
    DampingSchedule,
    GaussianLocationModel,
    KernelSpec,
    KineticMetric,
    MatrixGroupState,
    PhasePoint,
    Problem,
    dissipative_leapfrog_step,
    fit_rate,
    information_tensor,
    ksd_u_statistic,
    mmd_squared,
    natural_gradient_step,
    overdamped_em_step,
    problems,
    run_hmc_chain,
    run_lie_optimizer,
    run_optimizer,
    run_rattle_optimizer,
    sm_ngd_fit,
    sphere_constraint,
    stein_kernel,
    trace_objective,
)
from hamkit.bench import _envelope
from hamkit.samplers import DiffusionSpec, complete_recipe_drift


def _report(num, desc, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})")


def test_criterion_1_rate_table():
    # (a) quartic objective with vanishing damping gamma = 3/t: power-law fit
    # of the block-maximum envelope of the optimality gap.
    prob = problems.quartic(2)
    traj = run_optimizer(PhasePoint([1.5, -1.0], [0.0, 0.0]), prob, 0.05, None,
                         DampingSchedule.vanishing(r=3.0, t0=1.0), 100000)
    exponent, r2_a = fit_rate(_envelope(traj, 40, spacing="log"),
                              "power_law", burn_in=0.3)

    # (b) strongly convex quadratic with critical constant damping:
    # exponential fit of the gap.
    prob_b = problems.quadratic(3, mu=1.0)
    traj_b = run_optimizer(PhasePoint([2.0, -1.0, 0.5], np.zeros(3)), prob_b,
                           0.05, None, DampingSchedule.constant(2.0), 4000)
    rate, r2_b = fit_rate(traj_b, "exponential", burn_in=0.2)

    ok_a = -2.3 <= exponent <= -1.7 and r2_a >= 0.98
    ok_b = r2_b >= 0.99
    _report(1, "convergence-rate table",
            ok_a and ok_b,
            f"quartic envelope exponent = {exponent:.3f}, r2 = {r2_a:.4f}; "
            f"quadratic exponential rate = {rate:.3f}, r2 = {r2_b:.4f}")
    assert ok_b
    assert ok_a, (
        "the quartic envelope decays faster than the shipped window "
        f"[-2.3, -1.7]: measured {exponent:.3f}")


def test_criterion_2_shadow_energy_order():
    prob = problems.quadratic(1)
    drifts = []
    for dt in (0.1, 0.05):
        traj = run_optimizer(PhasePoint([1.0], [0.0]), prob, dt,
                             KineticMetric.identity(1), DampingSchedule.zero(),
                             10000)
        drifts.append(float(np.max(np.abs(traj.extra - traj.extra[0]))))
    ratio = drifts[0] / drifts[1]
    ok = 3.5 <= ratio <= 4.5
    _report(2, "energy-drift halving ratio (order 2)", ok,
            f"ratio = {ratio:.3f}, drifts = {drifts[0]:.3e} / {drifts[1]:.3e}")
    assert ok


def test_criterion_3_reversibility_and_volume():
    prob = problems.quadratic(3, mu=1.3)
    args = (0.1, KineticMetric.identity(3), DampingSchedule.zero(), prob)
    x0 = PhasePoint([0.7, -0.4, 1.2], [0.2, 1.1, -0.3])
    x = x0
    for _ in range(50):
        x = dissipative_leapfrog_step(x, 0.0, *args)
    x = x.flip_momentum()
    for _ in range(50):
        x = dissipative_leapfrog_step(x, 0.0, *args)
    x = x.flip_momentum()
    rev_err = max(float(np.max(np.abs(x.q - x0.q))),
                  float(np.max(np.abs(x.p - x0.p))))

    # One conservative step on a quadratic is affine, so central differences
    # recover its Jacobian exactly; a large h keeps round-off negligible.
    args2 = (0.1, KineticMetric.identity(2), DampingSchedule.zero(),
             problems.quadratic(2, mu=0.8))

    def step_map(z):
        y = dissipative_leapfrog_step(PhasePoint(z[:2], z[2:]), 0.0, *args2)
        return np.concatenate([y.q, y.p])

    z0 = np.array([0.3, -0.6, 0.9, 0.1])
    h = 0.5
    jac = np.empty((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        jac[:, j] = (step_map(z0 + e) - step_map(z0 - e)) / (2.0 * h)
    det_err = abs(float(np.linalg.det(jac)) - 1.0)

    ok = rev_err <= 1e-9 and det_err <= 1e-10
    _report(3, "time reversibility and volume preservation", ok,
            f"reversibility error = {rev_err:.2e}, |det J - 1| = {det_err:.2e}")
    assert ok


def test_criterion_4_acceleration_ordinal():
    n, dt, g_scalar, max_steps, target = 50, 0.05, 0.05, 3000, 1e-4
    wins = []
    details = []
    for seed in range(5):
        c_mat = np.random.default_rng(seed).standard_normal((n, n))
        prob = trace_objective(c_mat)
        st0 = MatrixGroupState(np.eye(n), np.zeros((n, n)))
        steps = {}
        for gamma in (1.0, 1000.0):
            traj, _ = run_lie_optimizer(
                st0, prob, dt, g_scalar, DampingSchedule.constant(gamma),
                max_steps, target_gap=target)
            steps[gamma] = (int(traj.steps[-1])
                            if traj.reason == "target_reached"
                            else max_steps + 1)
        wins.append(steps[1.0] < steps[1000.0])
        details.append(f"{steps[1.0]}<{steps[1000.0]}")
    ok = all(wins)
    _report(4, "underdamped regime reaches the target first on SO(50)", ok,
            "steps gamma=1 vs gamma=1000 per seed: " + ", ".join(details))
    assert ok


def test_criterion_5_constraint_fidelity():
    d, radius = 3, 1.0
    c_vec = np.array([1.0, -2.0, 0.5])
    prob = Problem(d, value=lambda q: float(c_vec @ q),
                   grad=lambda q: c_vec,
                   f_star=-radius * float(np.linalg.norm(c_vec)),
                   name="linear_on_sphere")
    q0 = np.array([0.0, 0.6, 0.8])
    traj, x_end = run_rattle_optimizer(
        PhasePoint(q0, np.zeros(d)), prob, 0.05,
        KineticMetric.scaled_identity(d, 0.05),
        DampingSchedule.constant(2.0), sphere_constraint(radius), 10000)
    residual = float(np.max(traj.extra))
    q_star = -radius * c_vec / np.linalg.norm(c_vec)
    opt_err = float(np.linalg.norm(x_end.q - q_star))
    ok = residual <= 1e-9 and opt_err <= 1e-8
    _report(5, "sphere constraint fidelity and minimiser recovery", ok,
            f"max residual = {residual:.2e}, minimiser error = {opt_err:.2e}")
    assert ok


def test_criterion_6_hmc_correctness():
    prob = problems.standard_gaussian(10)
    g = KineticMetric.identity(10)
    rng = np.random.default_rng(0)
    chain, samples = run_hmc_chain(prob, g, 0.2, 5, 100000, rng)
    mean_err = float(np.max(np.abs(samples.mean(axis=0))))
    var_err = float(np.max(np.abs(samples.var(axis=0) - 1.0)))

    grid = (0.01, 0.05, 0.1, 0.2, 0.4)
    streams = [np.random.default_rng(s) for s in
               np.random.SeedSequence(1).spawn(len(grid))]
    accs = []
    for dt, stream in zip(grid, streams):
        sub, _ = run_hmc_chain(prob, g, dt, max(1, round(2.0 / dt)), 3000,
                               stream, keep_samples=False)
        accs.append(sub.acceptance_rate)
    # allow 0.01 of Monte Carlo slack on the monotonicity comparison
    monotone = all(a >= b - 0.01 for a, b in zip(accs, accs[1:]))

    ok = mean_err <= 0.03 and var_err <= 0.05 and monotone
    _report(6, "HMC moments and step-size acceptance curve", ok,
            f"max |mean| = {mean_err:.4f}, max |var-1| = {var_err:.4f}, "
            f"acceptance = {[f'{a:.3f}' for a in accs]}, "
            f"incidents = {chain.incidents}")
    assert ok


def test_criterion_7_euler_maruyama_bias():
    d = 2000
    prob = problems.standard_gaussian(d)
    rng = np.random.default_rng(2)
    variances = []
    for dt in (0.5, 0.25, 0.1):
        q = np.zeros(d)
        acc, kept = 0.0, 0
        n_steps, burn = 3000, 500
        for k in range(n_steps):
            q = overdamped_em_step(q, prob, dt, 1.0, rng)
            if k >= burn:
                acc += float(q @ q) / d
                kept += 1
        variances.append(acc / kept)
    analytic = 1.0 / (1.0 - 0.25)  # 1 / (1 - dt/2) at dt = 0.5
    rel = abs(variances[0] - analytic) / analytic
    biases = [abs(v - 1.0) for v in variances]
    monotone = biases[0] > biases[1] > biases[2]
    ok = rel <= 0.02 and monotone
    _report(7, "Euler-Maruyama stationary bias", ok,
            f"variance at dt=0.5 is {variances[0]:.4f} "
            f"(analytic {analytic:.4f}, rel err {rel:.4f}); "
            f"biases = {[f'{b:.3f}' for b in biases]}")
    assert ok


def test_criterion_8_ksd_calibration():
    kernel = KernelSpec.gaussian(1.0)
    score = lambda x: -x  # noqa: E731
    rng = np.random.default_rng(3)
    vals = np.array([ksd_u_statistic(rng.standard_normal((200, 1)), score,
                                     kernel) for _ in range(500)])
    se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
    z_null = abs(float(vals.mean())) / se

    draws = np.random.default_rng(4).standard_normal((500, 1))
    mis_val, mis_se = ksd_u_statistic(draws, lambda x: -(x - 1.0), kernel,
                                      with_stderr=True)
    ratio = mis_val / mis_se

    ok = z_null < 4.0 and mis_val > 0 and ratio >= 5.0
    _report(8, "KSD unbiased at truth, powered against mean shift", ok,
            f"null |z| = {z_null:.2f}, mismatch statistic/stderr = {ratio:.1f}")
    assert ok


def test_criterion_9_sm_ngd_fitting():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((200, 2)) + 1.5
    model = GaussianLocationModel(np.zeros(2))
    theta, history = sm_ngd_fit(data, model, rng, n_iter=50, step=1.0)
    iters = len(history) - 1
    err = float(np.linalg.norm(theta - data.mean(axis=0)))

    # scale invariance of the natural-gradient step (power-of-two factor)
    grad = 0.5 * model.sm_theta_grad(data)
    g_tensor = information_tensor(model, 200, np.random.default_rng(6))
    step_a = natural_gradient_step(model.theta, grad, g_tensor, 1.0)
    step_b = natural_gradient_step(model.theta, 4.0 * grad, 4.0 * g_tensor, 1.0)
    invariant = bool(np.array_equal(step_a, step_b))

    ok = err <= 1e-6 and iters <= 50 and invariant
    _report(9, "score-matching NGD fit and scale invariance", ok,
            f"error = {err:.2e} in {iters} iterations, "
            f"bit-identical under rescaling = {invariant}")
    assert ok


def test_criterion_10_oracle_equivalences():
    # (a) expanded Stein kernel vs symbolic density-weighted form
    xs, ys = sp.symbols("xs ys")
    qx, qy = sp.exp(-xs ** 2 / 2), sp.exp(-ys ** 2 / 2)
    base = sp.exp(-(xs - ys) ** 2 / 2)
    oracle = sp.lambdify((xs, ys),
                         sp.diff(qx * qy * base, xs, ys) / (qx * qy), "numpy")
    kernel = KernelSpec.gaussian(1.0)
    score = lambda x: -x  # noqa: E731
    rng = np.random.default_rng(7)
    stein_rel = 0.0
    for _ in range(1000):
        a, b = rng.standard_normal(2) * 1.5
        want = float(oracle(a, b))
        got = stein_kernel([a], [b], score, kernel)
        stein_rel = max(stein_rel, abs(got - want) / max(abs(want), 1e-12))

    # (b) complete-recipe drift: analytic divergence vs finite differences
    prob = problems.quadratic(2, mu=0.7)
    s_field = lambda x: np.array([[1.0 + x[1] ** 2, 0.0], [0.0, 1.0]])  # noqa: E731
    a_field = lambda x: np.array([[0.0, x[0]], [-x[0], 0.0]])  # noqa: E731
    spec_fd = DiffusionSpec(s_field, a_field)
    spec_exact = DiffusionSpec(s_field, a_field,
                               divergence=lambda x: np.array([0.0, -1.0]))
    drift_err = 0.0
    for _ in range(50):
        x = rng.standard_normal(2)
        drift_err = max(drift_err, float(np.max(np.abs(
            complete_recipe_drift(x, prob, spec_fd)
            - complete_recipe_drift(x, prob, spec_exact)))))

    # (c) empirical MMD^2 between N(0,1) and N(1,1) vs the closed-form value
    def expected_k(mu, s2, sig2=1.0):
        return math.sqrt(sig2 / (sig2 + s2)) * math.exp(
            -mu * mu / (2 * (sig2 + s2)))

    population = 2 * expected_k(0.0, 2.0) - 2 * expected_k(1.0, 2.0)
    stream = np.random.default_rng(8)
    vals = [mmd_squared(stream.standard_normal((2000, 1)),
                        stream.standard_normal((2000, 1)) + 1.0,
                        kernel) for _ in range(10)]
    mmd_se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    mmd_dev = abs(float(np.mean(vals)) - population)

    ok = stein_rel <= 1e-10 and drift_err <= 1e-8 and mmd_dev <= 3 * mmd_se
    _report(10, "estimator oracle equivalences", ok,
            f"Stein rel err = {stein_rel:.2e}, drift err = {drift_err:.2e}, "
            f"MMD dev = {mmd_dev:.2e} vs 3*se = {3 * mmd_se:.2e}")
    assert ok
