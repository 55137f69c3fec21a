import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamkit import (
    DampingSchedule,
    DivergenceError,
    DomainError,
    FitDomainError,
    HamkitError,
    KineticMetric,
    NumericOverflowError,
    OptimizerConfig,
    PhasePoint,
    Problem,
    Trajectory,
    dissipative_leapfrog_step,
    evaluate_hamiltonian,
    fit_rate,
    gradient_flow_step,
    problems,
    run_optimizer,
)
from hamkit import integrators
from hamkit.bench import _envelope
from helpers import constant_problem


def make_cfg(prob, step, num_steps, schedule, q0, p0=None, metric="auto", **kw):
    p0 = np.zeros_like(np.atleast_1d(q0)) if p0 is None else p0
    return OptimizerConfig(step=step, num_steps=num_steps, schedule=schedule,
                           x0=PhasePoint(q0, p0), metric=metric, **kw)


class TestStepExamples:
    def test_free_drift(self):
        prob = constant_problem(1)
        cfg = make_cfg(prob, 1.0, 1, DampingSchedule.zero(), np.array([0.0]),
                       np.array([1.0]), metric=KineticMetric.identity(1))
        y = dissipative_leapfrog_step(cfg.x0, 0.0, cfg, prob)
        assert y.q == pytest.approx(1.0)
        assert y.p == pytest.approx(1.0)

    def test_harmonic_small_step(self):
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 0.1, 1, DampingSchedule.zero(), np.array([1.0]),
                       np.array([0.0]), metric=KineticMetric.identity(1))
        y = dissipative_leapfrog_step(cfg.x0, 0.0, cfg, prob)
        assert y.q == pytest.approx(0.995, abs=1e-12)
        assert y.p == pytest.approx(-0.09975, abs=1e-12)

    def test_damped_free_drift(self):
        # constant gamma with Delta_eta = ln 2 over the half step
        prob = constant_problem(1)
        gamma = 2.0 * math.log(2.0)  # gamma * (dt/2) = ln 2 at dt = 1
        cfg = make_cfg(prob, 1.0, 1, DampingSchedule.constant(gamma),
                       np.array([0.0]), np.array([1.0]),
                       metric=KineticMetric.identity(1))
        y = dissipative_leapfrog_step(cfg.x0, 0.0, cfg, prob)
        assert y.q == pytest.approx(0.625, abs=1e-12)   # cosh(ln2) = 1.25
        assert y.p == pytest.approx(0.25, abs=1e-12)

    def test_zero_damping_is_classical_leapfrog(self):
        prob = problems.quadratic(2, 1.3)
        g = KineticMetric([[1.2, 0.1], [0.1, 0.9]])
        cfg = make_cfg(prob, 0.07, 1, DampingSchedule.zero(),
                       np.array([0.4, -0.2]), np.array([0.9, 0.3]), metric=g)
        y = dissipative_leapfrog_step(cfg.x0, 0.0, cfg, prob)
        # classical kick-drift-kick by hand
        p_half = cfg.x0.p - 0.5 * 0.07 * prob.grad(cfg.x0.q)
        q_new = cfg.x0.q + 0.07 * g.inv_mul(p_half)
        p_new = p_half - 0.5 * 0.07 * prob.grad(q_new)
        assert np.array_equal(y.q, q_new)
        assert np.array_equal(y.p, p_new)


_U = 2.0 ** -53   # unit roundoff
_SCHEDULES = st.one_of(
    st.tuples(st.just("constant"), st.floats(0.1, 3.0)).map(
        lambda c: (DampingSchedule.constant(c[1]), 0.0)),
    st.tuples(st.floats(1.0, 4.0), st.floats(0.5, 2.0), st.floats(0.0, 5.0)).map(
        lambda v: (DampingSchedule.vanishing(r=v[0], t0=v[1]), v[1] + v[2])))


class TestDampedStepGeometry:
    """One damped step is conformally symplectic: its Jacobian J satisfies
    J^T Omega J = e^{-2 De} Omega and det J = e^{-2 d De}, with De the damping
    integral over the first half step, up to the central-difference error."""

    D = 3

    @staticmethod
    def step(cfg, prob, t_k, z):
        d = z.size // 2
        y = dissipative_leapfrog_step(PhasePoint(z[:d], z[d:]), t_k, cfg, prob)
        return np.concatenate([y.q, y.p])

    def rounding(self, cfg, prob, t_k, de, z):
        """Bound on the 2-norm of the rounding error of the step from z.  The
        step rounds an entry at most 3d + 16 times: d in g^{-1} p, 2 in the
        drift, 2 in dt cosh(De), 6 in the two half kicks, 4 in the two decays
        and their exp, and d + 1 in each of the two quartic gradients
        (q.q) q.  Each time it errs by at most u M, with M bounding |q|,
        |p_{k+1/2}| <= |p_k| + dt |grad f| and h |g^{-1} p|, h = dt cosh(De),
        at both ends.  The sub-steps after a rounding amplify it at most by
        the product of their Lipschitz bounds: 1 + h ||g^{-1}|| for the drift
        and 1 + (dt/2) ||H(q)|| for a half kick at q, H(q) = |q|^2 I + 2 q q^T
        the quartic's Hessian; a decay e^{-De} <= 1 does not amplify."""
        d, dt = self.D, cfg.step
        h_inv = dt * math.cosh(de) * np.linalg.norm(cfg.metric.g_inv, 2)
        ends = [z, self.step(cfg, prob, t_k, z)]
        m = max(np.linalg.norm(w[:d]) + np.linalg.norm(w[d:])
                + dt * np.linalg.norm(prob.grad(w[:d])) for w in ends)
        m *= 1.0 + h_inv
        kicks = [1.0 + 0.5 * dt * 3.0 * float(w[:d] @ w[:d]) for w in ends]
        lip = kicks[0] * (1.0 + h_inv) * kicks[1]
        return math.sqrt(2 * d) * (3 * d + 16) * _U * m * lip

    @given(sched=_SCHEDULES, seed=st.integers(0, 2**32 - 1),
           dt=st.floats(0.02, 0.2))
    @settings(max_examples=40, deadline=None)
    def test_conformally_symplectic(self, sched, seed, dt):
        sched, t_k = sched
        d, n, h = self.D, 2 * self.D, 1e-5
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))   # a dense SPD metric, eigenvalues >= 0.5
        g = KineticMetric(a @ a.T / d + 0.5 * np.eye(d))
        z = rng.uniform(-1.5, 1.5, n)
        prob = problems.quartic(d)
        cfg = make_cfg(prob, dt, 1, sched, z[:d], z[d:], metric=g)
        de = sched.delta_eta(t_k, t_k + 0.5 * dt)

        def jacobian(h):   # central differences, one column per coordinate
            return np.column_stack([
                (self.step(cfg, prob, t_k, z + h * e)
                 - self.step(cfg, prob, t_k, z - h * e)) / (2.0 * h)
                for e in np.eye(n)])

        jac, jac_half = jacobian(h), jacobian(0.5 * h)
        # E = jac_half - J: rounding as in TestLeapfrogGeometry (each step
        # errs by eps, z +- h e_j by u |z|), truncation about (jac - jac_half) / 3
        eps = self.rounding(cfg, prob, t_k, de, z)
        rounding = math.sqrt(n) * 2.0 * (eps + _U * np.abs(z).max()
                                         * np.linalg.norm(jac_half, 2)) / h
        err = rounding + np.linalg.norm(jac - jac_half) / 3.0
        omega = np.block([[np.zeros((d, d)), np.eye(d)],
                          [-np.eye(d), np.zeros((d, d))]])
        # (J + E)^T Omega (J + E) - J^T Omega J = E^T Omega (J + E)
        # + (J + E)^T Omega E - E^T Omega E, and ||Omega|| = 1
        defect = jac_half.T @ omega @ jac_half - math.exp(-2.0 * de) * omega
        assert np.abs(defect).max() <= 2.0 * err * np.linalg.norm(jac_half, 2) + err**2
        # det as in TestLeapfrogGeometry.test_unit_jacobian, relative to e^{-2 d De}
        first_order = np.linalg.norm(np.linalg.inv(jac_half)) * err
        assert first_order < 0.01
        det = math.exp(-2.0 * d * de)
        assert abs(np.linalg.det(jac_half) - det) <= 2.0 * det * first_order


class TestGradientFlow:
    def test_single_step(self):
        prob = problems.quadratic(1)
        assert gradient_flow_step(np.array([1.0]), 0.1, prob) == pytest.approx(0.9)

    def test_fixed_point(self):
        prob = problems.quadratic(2)
        q = np.zeros(2)
        assert np.array_equal(gradient_flow_step(q, 0.3, prob), q)

    def test_unstable_step_diverges(self):
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 2.5, 100, DampingSchedule.zero(), np.array([1.0]))
        traj = run_optimizer(cfg, prob, method="gradient_flow")
        assert traj.reason == "diverged"
        assert traj.steps[-1] <= 50


class TestRunOptimizer:
    def test_strongly_convex_constant_damping(self):
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 0.1, 2000, DampingSchedule.constant(1.0),
                       np.array([5.0]))
        traj = run_optimizer(cfg, prob)
        assert traj.reason == "completed"
        assert traj.gaps[-1] < 1e-10

    def test_constant_objective(self):
        prob = constant_problem(3, c=2.0)
        cfg = make_cfg(prob, 0.1, 50, DampingSchedule.constant(1.0),
                       np.ones(3))
        traj = run_optimizer(cfg, prob)
        assert np.all(traj.gaps == 0.0)

    def test_zero_steps_rejected(self):
        with pytest.raises(DomainError):
            make_cfg(problems.quadratic(1), 0.1, 0, DampingSchedule.zero(),
                     np.array([1.0]))

    @pytest.mark.parametrize("field, value", [
        ("metric", np.eye(1)), ("metric", "identity"), ("num_steps", 2.5),
        ("num_steps", True), ("record_every", 1.5), ("record_every", 0),
        ("step", math.inf), ("step", math.nan), ("step", 0.0),
        ("target_gap", -1.0), ("target_gap", 0.0), ("target_gap", math.nan),
        ("divergence_threshold", math.nan), ("divergence_threshold", 0.0)])
    def test_bad_field_refused(self, field, value):
        kw = {"step": 0.1, "num_steps": 10, field: value}
        with pytest.raises(DomainError, match=field):
            OptimizerConfig(schedule=DampingSchedule.zero(),
                            x0=PhasePoint([1.0], [0.0]), **kw)

    def test_numpy_integer_run_length_accepted(self):
        cfg = make_cfg(problems.quadratic(1), 0.1, np.int64(4),
                       DampingSchedule.zero(), np.array([1.0]),
                       record_every=np.int64(2))
        assert len(run_optimizer(cfg, problems.quadratic(1))) == 3

    def test_bad_method(self):
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 0.1, 10, DampingSchedule.zero(), np.array([1.0]))
        with pytest.raises(DomainError):
            run_optimizer(cfg, prob, method="newton")

    def test_recording_length_and_spacing(self):
        prob = problems.quadratic(2)
        cfg = make_cfg(prob, 0.1, 10, DampingSchedule.zero(), np.ones(2),
                       record_every=3)
        traj = run_optimizer(cfg, prob)
        assert len(traj) == math.ceil(10 / 3) + 1
        # interior spacing is dt * record_every
        assert np.allclose(np.diff(traj.times[:-1]), 0.3)
        assert np.all(traj.gaps >= -1e-12)

    def test_target_gap_termination(self):
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 0.1, 5000, DampingSchedule.constant(1.0),
                       np.array([5.0]), target_gap=1e-6)
        traj = run_optimizer(cfg, prob)
        assert traj.reason == "target_reached"
        assert traj.gaps[-1] < 1e-6
        assert traj.steps[-1] < 5000

    def test_lyapunov_descent(self):
        prob = problems.quadratic(2, mu=2.0)
        cfg = make_cfg(prob, 0.05, 500, DampingSchedule.constant(2.0),
                       np.array([3.0, -1.0]))
        traj = run_optimizer(cfg, prob)
        energies = traj.extra[10:]
        assert np.all(np.diff(energies) <= 1e-9)

    def test_overdamped_limit_approaches_gradient_flow(self):
        prob = problems.quadratic(2, mu=1.0)
        dt = 0.05
        deviations = []
        for gamma in (1e2, 1e3):
            cfg = make_cfg(prob, dt, 200, DampingSchedule.constant(gamma),
                           np.array([2.0, -1.0]))
            traj = run_optimizer(cfg, prob)
            # overdamped limit: first step dt/4 (momentum starts at zero),
            # every later step an effective gradient step of dt/2
            q = np.array([2.0, -1.0])
            dev, first = 0.0, True
            for v in traj.values[1:]:
                q = gradient_flow_step(q, dt / 4.0 if first else dt / 2.0, prob)
                first = False
                dev = max(dev, abs(prob.value(q) - v))
            deviations.append(dev)
        assert deviations[1] < deviations[0]
        assert deviations[1] < 1e-12

    def test_divergence_reason_recorded(self):
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 10.0, 2000, DampingSchedule.zero(),
                       np.array([1.0]))
        traj = run_optimizer(cfg, prob)
        assert traj.reason == "diverged"
        assert abs(traj.values[-1]) > cfg.divergence_threshold

    def test_divergence_error_carries_step(self):
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 10.0, 2000, DampingSchedule.zero(),
                       np.array([1.0]), divergence_threshold=math.inf,
                       record_every=1000)
        # the index at which a loop over the public step first goes non-finite
        x, first = cfg.x0, None
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, cfg.num_steps + 1):
                try:
                    x = dissipative_leapfrog_step(x, 0.0, cfg, prob)
                except DivergenceError:
                    first = k
                    break
        assert first is not None
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc_info:
            run_optimizer(cfg, prob)
        assert exc_info.value.step == first

    @pytest.mark.parametrize("fused", [True, False])
    def test_overflowing_value_leaves_the_gradients_divergence(
            self, counting_problem, fused):
        # at |q| ~ 1e104 the quartic's ||q||^4 / 4 is inf while its gradient
        # ||q||^2 q is inf too: the run raises the step's DivergenceError, at
        # the index where a loop over the public step (which never evaluates
        # f) first fails
        prob, _ = counting_problem(problems.quartic(2), fused=fused)
        cfg = make_cfg(prob, 1e52, 50, DampingSchedule.zero(),
                       np.array([1.8, 0.0]), metric=KineticMetric.identity(2),
                       divergence_threshold=math.inf)
        x, first = cfg.x0, None
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, cfg.num_steps + 1):
                try:
                    x = dissipative_leapfrog_step(x, 0.0, cfg, prob)
                except DivergenceError:
                    first = k
                    break
            assert first is not None
            with pytest.raises(DivergenceError) as exc_info:
                run_optimizer(cfg, prob)
        assert exc_info.value.step == first

    def test_quartic_value_overflow_ends_in_a_package_error(self):
        # undamped at step 10 from |q| = 1.8, an iterate lands where the
        # quartic's f is inf but its gradient is finite (1.2e77 < |q| <
        # 5.6e102); the run ends in a typed error, not a bare OverflowError
        prob = problems.quartic(2)
        cfg = make_cfg(prob, 10.0, 50, DampingSchedule.zero(),
                       np.array([1.8, 0.0]), metric=KineticMetric.identity(2),
                       divergence_threshold=math.inf)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(HamkitError):
            run_optimizer(cfg, prob)

    @pytest.mark.parametrize("grad", [
        lambda q: 2.0 * q * np.exp(q.dot(q)),   # inf where f overflows
        lambda q: 2.0 * q,                      # finite where f overflows
    ], ids=["inf-grad", "finite-grad"])
    def test_value_overflow_error_becomes_divergence(self, grad):
        # the first drift lands at q = 30, where math.exp(q . q) raises
        # OverflowError; the run re-raises it as the step's DivergenceError
        prob = Problem(1, value=lambda q: math.exp(q.dot(q)), grad=grad)
        cfg = make_cfg(prob, 0.1, 10, DampingSchedule.zero(), np.array([0.0]),
                       np.array([300.0]), metric=KineticMetric.identity(1),
                       divergence_threshold=math.inf)
        with np.errstate(over="ignore"), \
                pytest.raises(DivergenceError, match="overflow") as exc_info:
            run_optimizer(cfg, prob)
        assert exc_info.value.step == 1
        assert isinstance(exc_info.value.__cause__, OverflowError)

    def test_cosh_overflow_raises_divergence(self):
        # gamma dt / 2 = 5000 > 710: cosh(De) leaves the float range
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 0.1, 10, DampingSchedule.constant(1e5),
                       np.array([1.0]))
        with pytest.raises(DivergenceError, match=r"t=0\.0.*De = 5000"):
            dissipative_leapfrog_step(cfg.x0, 0.0, cfg, prob)
        with pytest.raises(DivergenceError, match="cosh") as exc_info:
            run_optimizer(cfg, prob)
        assert exc_info.value.step == 1

    @pytest.mark.parametrize("term", ["potential", "kinetic"])
    def test_non_finite_energy_term_raises(self, term):
        # q stays finite and no stop rule fires; one term of H is non-finite
        prob = Problem(1, value=lambda q: math.inf if q[0] > 1.5 else float(q @ q),
                       grad=lambda q: 2.0 * q)
        cfg = make_cfg(prob, 0.1, 200, DampingSchedule.zero(), np.array([1.0]),
                       np.array([3.0] if term == "potential" else [1e200]),
                       metric=KineticMetric.identity(1),
                       divergence_threshold=math.inf)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericOverflowError, match=term):
            run_optimizer(cfg, prob)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           st.floats(0.01, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_time_reversibility(self, start, dt):
        prob = problems.quadratic(2, 1.3)
        cfg = make_cfg(prob, dt, 1, DampingSchedule.zero(),
                       np.array(start[:2]), np.array(start[2:]),
                       metric=KineticMetric.identity(2))
        x0 = cfg.x0
        x = x0
        for _ in range(40):
            x = dissipative_leapfrog_step(x, 0.0, cfg, prob)
        x = x.flip_momentum()
        for _ in range(40):
            x = dissipative_leapfrog_step(x, 0.0, cfg, prob)
        x = x.flip_momentum()
        assert np.max(np.abs(x.q - x0.q)) < 1e-9
        assert np.max(np.abs(x.p - x0.p)) < 1e-9


class TestFitRate:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 100.0, 100)
        gaps = t ** -2.0
        traj = Trajectory(np.arange(100), t, gaps, gaps, np.zeros(100))
        slope, r2 = fit_rate(traj, "power_law", burn_in=0.0)
        assert slope == pytest.approx(-2.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 100)
        gaps = np.exp(-3.0 * t)
        traj = Trajectory(np.arange(100), t, gaps, gaps, np.zeros(100))
        rate, r2 = fit_rate(traj, "exponential", burn_in=0.0)
        assert rate == pytest.approx(3.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points(self):
        t = np.linspace(1.0, 2.0, 5)
        traj = Trajectory(np.arange(5), t, t, t, np.zeros(5))
        with pytest.raises(FitDomainError):
            fit_rate(traj, "power_law")

    def test_nonpositive_gap(self):
        t = np.linspace(1.0, 2.0, 20)
        gaps = np.linspace(1.0, -0.1, 20)
        traj = Trajectory(np.arange(20), t, gaps, gaps, np.zeros(20))
        with pytest.raises(FitDomainError):
            fit_rate(traj, "power_law", burn_in=0.0)

    def test_power_law_needs_positive_times(self):
        # a constant schedule starts at t = 0, where log t is -inf
        t = np.linspace(0.0, 2.0, 20)
        gaps = np.exp(-t)
        traj = Trajectory(np.arange(20), t, gaps, gaps, np.zeros(20))
        with pytest.raises(FitDomainError, match="time"):
            fit_rate(traj, "power_law", burn_in=0.0)
        assert fit_rate(traj, "exponential", burn_in=0.0)[0] == \
            pytest.approx(1.0, abs=1e-9)

    def test_missing_gaps(self):
        t = np.linspace(1.0, 2.0, 20)
        traj = Trajectory(np.arange(20), t, t, None, np.zeros(20))
        with pytest.raises(FitDomainError):
            fit_rate(traj)


@pytest.mark.parametrize("r", [1.5, 3.0])
def test_quartic_r_law(r):
    # Su, Boyd & Candes (arXiv:1503.01243): under gamma = r/t the gap of
    # f = |q|^p decays as t^(-2rp/(p+2)); p = 4 gives -4r/3.  The fit is the
    # optimize_quartic workload's: log envelope of 40 blocks, burn-in 0.3.
    cfg = make_cfg(problems.quartic(2), 0.05, 15000,
                   DampingSchedule.vanishing(r=r, t0=1.0), np.array([1.8, 0.0]))
    traj = run_optimizer(cfg, problems.quartic(2))
    exponent, _ = fit_rate(_envelope(traj, 40, spacing="log"), "power_law",
                           burn_in=0.3)
    assert exponent == pytest.approx(-2.0 * r * 4 / (4 + 2), abs=0.2)


class TestTrajectoryCsv:
    def test_format_and_determinism(self):
        prob = problems.quadratic(1)
        cfg = make_cfg(prob, 0.1, 20, DampingSchedule.constant(1.0),
                       np.array([2.0]))
        bodies = []
        for _ in range(2):
            traj = run_optimizer(cfg, prob)
            buf = io.StringIO()
            traj.to_csv(buf)
            bodies.append(buf.getvalue())
        assert bodies[0] == bodies[1]
        lines = bodies[0].strip().split("\n")
        assert lines[0] == "step,time,value,gap,energy"
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert len(first) == 5
        # full round-trip precision
        assert float(first[2]) == traj.values[0]

    def test_missing_gaps_write_nan(self):
        traj = Trajectory(np.arange(2), np.array([0.0, 0.5]),
                          np.array([1.0, -0.0]), None, np.array([2.0, 3.0]))
        buf = io.StringIO()
        assert traj.to_csv(buf) == buf.getvalue()
        assert buf.getvalue().splitlines()[1:] == [
            "0,0.00000000000000000e+00,1.00000000000000000e+00,nan,"
            "2.00000000000000000e+00",
            "1,5.00000000000000000e-01,-0.00000000000000000e+00,nan,"
            "3.00000000000000000e+00"]

    def test_rows_across_chunks(self):
        # rows are formatted a chunk at a time: the text must not show it
        n = 2 * integrators._CSV_CHUNK + 1   # the short column ends on a chunk
        rng = np.random.default_rng(16)
        cols = [np.arange(n)] + [rng.standard_normal(n) for _ in range(4)]
        traj = Trajectory(*cols)
        expected = "step,time,value,gap,energy\n" + "".join(
            "%d,%.17e,%.17e,%.17e,%.17e\n" % row
            for row in zip(*(c.tolist() for c in cols)))
        assert traj.to_csv(io.StringIO()) == expected
        with pytest.raises(ValueError):
            Trajectory(cols[0], *cols[1:4], cols[4][:-1]).to_csv(io.StringIO())

