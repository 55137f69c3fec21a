import io
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from hamkit import (
    ConstraintSet,
    ConstraintSolveError,
    DampingSchedule,
    DivergenceError,
    GeometryError,
    KineticMetric,
    MatrixGroupState,
    PhasePoint,
    lie_group_step,
    problems,
    project_momentum,
    rattle_step,
    run_lie_optimizer,
    run_rattle_optimizer,
    skew_part,
    so_trace_minimum,
    sphere_constraint,
    trace_objective,
)
from hamkit import manifold
from hamkit.core import Problem
from hamkit.errors import DomainError
from hamkit.manifold import (_TAYLOR, _check_skew, _expm, _group_defect,
                             _lie_stepper, _rattle_step)
from helpers import (constant_problem, lie_step_with_skew_map,
                     rattle_step_always_kicking, two_form_of_step)


def random_skew(n, rng):
    m = rng.standard_normal((n, n))
    return skew_part(m)


class TestMatrixGroupState:
    def test_invariants_enforced(self):
        with pytest.raises(GeometryError):
            MatrixGroupState(2.0 * np.eye(3), np.zeros((3, 3)))
        with pytest.raises(GeometryError):
            MatrixGroupState(np.eye(3), np.eye(3))  # not skew

    @pytest.mark.parametrize("q, p", [
        (np.full((3, 3), np.nan), np.zeros((3, 3))),
        (np.eye(3), np.full((3, 3), np.nan)),
        (np.diag([np.inf, 1.0, 1.0]), np.zeros((3, 3))),
        (np.eye(2), [[0.0, -1e308], [1e308, 0.0]]),   # skew_part(P) is inf
    ], ids=["nan-Q", "nan-P", "inf-Q", "overflowing-P"])
    def test_non_finite_refused(self, q, p):
        with np.errstate(over="ignore"), \
                pytest.raises(DomainError, match="finite"):
            MatrixGroupState(q, p)

    @pytest.mark.parametrize("which, match", [("Q", "orthogonal"),
                                              ("P", "skew")])
    def test_group_defect_refuses_nan(self, which, match):
        # Q goes to the per-step orthogonality check, P to the skew check
        # that only MatrixGroupState runs
        m = np.eye(3) if which == "Q" else np.zeros((3, 3))
        m[0, 1] = np.nan
        with pytest.raises(GeometryError, match=match):
            (_group_defect if which == "Q" else _check_skew)(m)

    def test_holds_the_skew_part(self):
        # a P within SKEW_TOL of skew is stored as skew_part(P), exactly skew
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((4, 4))
        p = random_skew(4, rng) + 1e-12 * (sym + sym.T)
        st = MatrixGroupState(np.eye(4), p)
        assert not np.array_equal(p, -p.T)
        assert np.array_equal(st.P, skew_part(p))
        assert np.array_equal(st.P, -st.P.T)

    def test_callers_arrays_stay_writeable(self):
        q, p = np.eye(3), random_skew(3, np.random.default_rng(0))
        st = MatrixGroupState(q, p)
        q[0, 0], p[0, 1] = 5.0, 6.0
        assert not np.shares_memory(q, st.Q) and not np.shares_memory(p, st.P)
        assert st.Q[0, 0] == 1.0 and st.P[0, 1] != 6.0
        with pytest.raises(ValueError):
            st.Q[0, 0] = 5.0


class TestTraceMinimumOracle:
    def test_oracle_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = rng.standard_normal((4, 4))
            f_star, q_star = so_trace_minimum(c)
            assert np.linalg.det(q_star) == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(q_star.T @ q_star - np.eye(4))) < 1e-12
            assert np.trace(c @ q_star) == pytest.approx(f_star, abs=1e-12)
            # no random rotation does better
            for _ in range(50):
                q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
                if np.linalg.det(q) < 0:
                    q[:, 0] *= -1.0
                assert np.trace(c @ q) >= f_star - 1e-10

    def test_trace_objective_is_a_problem_with_its_minimiser(self):
        c = np.random.default_rng(7).standard_normal((4, 4))
        prob = trace_objective(c)
        assert isinstance(prob, Problem)
        assert prob.dim == 16
        assert prob.value(prob.q_star) - prob.f_star == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(prob.grad(np.eye(4)), c.T)

    def test_two_by_two_brute_force(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((2, 2))
        f_star, _ = so_trace_minimum(c)
        thetas = np.linspace(0.0, 2.0 * math.pi, 100001)
        rots = np.stack([np.cos(thetas), -np.sin(thetas),
                         np.sin(thetas), np.cos(thetas)], axis=1)
        vals = rots @ np.array([c[0, 0], c[0, 1], c[1, 0], c[1, 1]])
        assert abs(vals.min() - f_star) < 1e-7


    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_value_is_a_sum_of_the_products(self, n):
        # f(Q) = Tr(C Q) = sum_ij C_ji Q_ij.  A dot product of m = n^2 terms,
        # in any order, errs from the exact sum by at most
        # gamma_m = m u / (1 - m u) times sum |C_ji Q_ij| (u = eps / 2), and
        # fsum of the rounded products by at most u times it: n^2 eps bounds
        # both.  Q's layout must not change the bits.
        rng = np.random.default_rng(n)
        c = rng.standard_normal((n, n))
        prob = trace_objective(c)
        q = scipy.linalg.expm(random_skew(n, rng))   # in SO(n)
        for Q in (q, np.asfortranarray(q), q.T):   # q.T: a transposed view
            f = prob.value(Q)
            assert f == prob.value(np.ascontiguousarray(Q))
            products = (c.T * Q).ravel()
            bound = n * n * np.finfo(float).eps * math.fsum(np.abs(products))
            assert abs(f - math.fsum(products)) <= bound

    @pytest.mark.parametrize("c", [
        np.ones((3, 4)), np.ones(3), np.ones((2, 2, 2)), np.array(2.0),
        np.array([[1.0, math.nan], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [-math.inf, 1.0]])],
        ids=["3x4", "1-d", "3-d", "0-d", "nan", "inf"])
    @pytest.mark.parametrize("build", [so_trace_minimum, trace_objective])
    def test_cost_matrix_refused(self, build, c):
        with pytest.raises(DomainError, match=re.escape(f"shape {c.shape}")):
            build(c)


class TestExpm:
    U = 2.0 ** -53

    # one case per Taylor degree (||A||_1 just under its theta_m, above the
    # degree before's) and one that scales by 2^-2 and squares twice
    BRANCHES = [(0.99 * theta, 0) for _, theta in _TAYLOR] + [(3.0, 2)]

    @pytest.mark.parametrize("norm, squarings", BRANCHES,
                             ids=[f"m{m}" for m, _ in _TAYLOR] + ["squaring"])
    @pytest.mark.parametrize("kind", ["skew", "general"])
    def test_matches_scipy_in_each_branch(self, kind, norm, squarings):
        # Either evaluation rounds a product of n x n matrices by at most
        # n u |X| |Y| an entry, its terms sum in norm to at most e^||A||_1,
        # and each squaring at most doubles an error from before it; the
        # bound allows 4 times that for the two together.
        n = 10
        a = np.random.default_rng(0).standard_normal((n, n))
        if kind == "skew":
            a = skew_part(a)
        A = a * (norm / np.abs(a).sum(axis=0).max())
        theta_16 = _TAYLOR[-1][1]
        assert math.ceil(math.log2(max(norm / theta_16, 1.0))) == squarings
        error = np.abs(_expm(A) - scipy.linalg.expm(A)).sum(axis=0).max()
        assert error <= 4 * 2 ** squarings * n * self.U * math.exp(norm)

    @given(hst.integers(2, 12), hst.integers(0, 2**32 - 1),
           hst.floats(0.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_skew_exponential_is_orthogonal(self, n, seed, norm):
        # A product of n x n matrices errs by at most n u |X| |Y| an entry,
        # n^2 u in the Frobenius norm for X, Y near orthogonal.  The Taylor
        # polynomial, near orthogonal, leaves E^T E - I within about that; a
        # squaring (E^2)^T E^2 - I = E^T (E^T E - I) E + (E^T E - I) at most
        # doubles it and adds its own product's n^2 u, so s squarings end
        # within 2^s (n^2 u + n^2 u).
        a = skew_part(np.random.default_rng(seed).standard_normal((n, n)))
        A = a * (norm / np.abs(a).sum(axis=0).max())
        s = max(0, math.ceil(math.log2(norm / _TAYLOR[-1][1]))) if norm else 0
        e = _expm(A)
        assert (np.linalg.norm(e.T @ e - np.eye(n))
                <= 2 ** (s + 1) * n * n * self.U)

    @pytest.mark.parametrize("A", [
        np.full((3, 3), np.nan), np.diag([np.inf, 0.0, 0.0]),
        1e300 * skew_part(np.arange(9.0).reshape(3, 3)),   # > 2^53 theta_16
        np.diag([1000.0, 0.0])],                          # exp(A) overflows
        ids=["nan", "inf", "huge", "overflowing"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_without_warning(self, A):
        assert not np.isfinite(_expm(A)).all()


class TestLieGroupStep:
    def test_pure_geodesic(self):
        rng = np.random.default_rng(3)
        p = random_skew(3, rng)
        st = MatrixGroupState(np.eye(3), p)
        prob = trace_objective(np.zeros((3, 3)))
        out = lie_group_step(st, 0.0, 0.5, 2.0, DampingSchedule.zero(), prob)
        assert np.allclose(out.Q, scipy.linalg.expm(0.5 * p / 2.0), atol=1e-13)
        assert np.allclose(out.P, p, atol=1e-14)

    def test_output_orthogonal(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((5, 5))
        st = MatrixGroupState(np.eye(5), random_skew(5, rng))
        out = lie_group_step(st, 0.0, 0.1, 0.1, DampingSchedule.constant(1.0),
                             trace_objective(c))
        assert out.orthogonality_defect() < 1e-12

    def test_so3_converges_to_oracle_minimum(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((3, 3))
        prob = trace_objective(c)
        st = MatrixGroupState(np.eye(3), np.zeros((3, 3)))
        sched = DampingSchedule.constant(1.0)
        for k in range(5000):
            st = lie_group_step(st, k * 0.05, 0.05, 0.05, sched, prob)
        assert prob.value(st.Q) - prob.f_star < 1e-6

    def test_group_preserved_over_long_run(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((4, 4))
        st = MatrixGroupState(np.eye(4), random_skew(4, rng))
        traj, _ = run_lie_optimizer(st, trace_objective(c), 0.05, 0.05,
                                    DampingSchedule.constant(0.5), 10000,
                                    record_every=100)
        assert np.max(traj.extra) <= 1e-8

    def test_cosh_overflow_raises_divergence(self):
        # gamma dt / 2 = 2500 > 710: cosh(De) leaves the float range
        prob = trace_objective(np.eye(3))
        st = MatrixGroupState(np.eye(3), np.zeros((3, 3)))
        with pytest.raises(DivergenceError, match="cosh") as exc_info:
            run_lie_optimizer(st, prob, 0.05, 0.05,
                              DampingSchedule.constant(1e5), 10)
        assert exc_info.value.step == 1

    @given(hst.integers(0, 2**32 - 1), hst.floats(0.01, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_reversibility_no_force(self, seed, dt):
        rng = np.random.default_rng(seed)
        q0 = scipy.linalg.expm(random_skew(4, rng))
        st0 = MatrixGroupState(q0, random_skew(4, rng))
        prob = trace_objective(np.zeros((4, 4)))
        st = st0
        for _ in range(30):
            st = lie_group_step(st, 0.0, dt, 1.0, DampingSchedule.zero(), prob)
        st = MatrixGroupState(st.Q, -st.P)
        for _ in range(30):
            st = lie_group_step(st, 0.0, dt, 1.0, DampingSchedule.zero(), prob)
        st = MatrixGroupState(st.Q, -st.P)
        assert np.linalg.norm(st.Q - st0.Q) < 1e-9
        assert np.linalg.norm(st.P - st0.P) < 1e-9

    @given(hst.integers(0, 2**32 - 1), hst.floats(0.01, 0.1))
    @settings(max_examples=30, deadline=None)
    def test_reversibility_with_force(self, seed, dt):
        n, steps, u = 6, 10, 2.0 ** -53
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((n, n))
        c /= np.linalg.norm(c, 2)   # ||C||_2 = 1
        prob = trace_objective(c)
        st0 = MatrixGroupState(scipy.linalg.expm(random_skew(n, rng)),
                               random_skew(n, rng))
        flights = [st0]
        st = st0
        for k in range(2 * steps):
            if k == steps:
                st = MatrixGroupState(st.Q, -st.P)
            st = lie_group_step(st, 0.0, dt, 1.0, DampingSchedule.zero(), prob)
            flights.append(st)
        st = MatrixGroupState(st.Q, -st.P)
        # Rounding only: with zero damping the step is reversible.  A step
        # rounds an entry at most 17n + 12 times: n in each of the two
        # products Q^T C^T, 2 in each of the two skew parts (the kicks'; P
        # stays exactly skew without one), 4 in each half kick, and for the
        # drift Q expm(dt P) fewer than (8 + s) n in `_expm` (at most 6
        # products of n x n matrices and the sums of its Taylor blocks, then
        # s squarings, s <= 6 while ||dt P||_1 <= 64 theta_16 = 50), then n
        # in the product by Q: at most 17n + 12.  The bound keeps 17n + 16,
        # the count when the step also took the skew part of each momentum.
        # Each time it errs by at most u M, M bounding an entry of Q
        # (orthogonal, so <= 1), of P and of (dt/2) skew(Q^T C^T) (<= dt/2);
        # over the n^2 entries a step errs by n (17n + 16) u M (Frobenius
        # norm).  A later step amplifies an error
        # at most by (1 + (dt/2) ||C||_2)^2 (1 + dt): a half kick is
        # (dt/2) ||C||_2-Lipschitz in Q, the drift dt-Lipschitz in P (the
        # derivative of expm at a skew matrix has norm <= 1) and 1-Lipschitz
        # in Q, and skew_part is a projection.  The flip is an isometry, so
        # the round trip errs by at most 2 * steps such errors, each
        # amplified 2 * steps times.
        m = max(1.0 + np.abs(s.P).max() + 0.5 * dt for s in flights)
        eps = n * (17 * n + 16) * u * m
        lip = (1.0 + 0.5 * dt) ** 2 * (1.0 + dt)
        bound = 2 * steps * eps * lip ** (2 * steps)
        assert np.linalg.norm(st.Q - st0.Q) <= bound
        assert np.linalg.norm(st.P - st0.P) <= bound

    SCHEDULES = {"zero": DampingSchedule.zero(),
                 "constant": DampingSchedule.constant(0.7),
                 "vanishing": DampingSchedule.vanishing(3.0, 1.0)}

    @given(hst.integers(2, 8), hst.integers(0, 2**32 - 1),
           hst.floats(0.0, 10.0), hst.sampled_from(sorted(SCHEDULES)),
           hst.floats(0.01, 0.3), hst.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_steps_stay_skew_without_a_momentum_map(self, n, seed, scale, kind,
                                                    dt, g_scalar):
        # P - (dt/2) K and exp(-De) P - (dt/2) K are exactly skew when P and
        # K are, so the step equals one that projects them with skew_part.
        # np.array_equal treats -0.0 and 0.0 as equal: these checks do not
        # see the sign of a zero.
        rng = np.random.default_rng(seed)
        prob = trace_objective(rng.standard_normal((n, n)))
        sched = self.SCHEDULES[kind]
        Q = scipy.linalg.expm(random_skew(n, rng))
        P = scale * skew_part(rng.standard_normal((n, n)))
        step, x, t = _lie_stepper(dt, g_scalar, sched, prob), \
            (Q, P, None, None, None), sched.start_time()
        for _ in range(5):
            Q_ref, P_ref = lie_step_with_skew_map(Q, P, t, dt, g_scalar, sched,
                                                  prob)
            x = step(x, t)
            Q, P = x[:2]
            assert np.array_equal(P, -P.T)
            assert np.array_equal(Q, Q_ref) and np.array_equal(P, P_ref)
            t += dt

    @given(hst.sampled_from([3, 5]), hst.integers(0, 2**32 - 1),
           hst.floats(0.02, 0.1), hst.sampled_from([0.0, 2.0]))
    @settings(max_examples=30, deadline=None)
    def test_step_is_conformally_symplectic(self, n, seed, dt, gamma):
        # In the ambient coordinates (Q, Pi = Q P) the step maps the tangents
        # u, v of two curves (Q e^{eps A}, P + eps B), A and B skew, with
        # omega(D Phi u, D Phi v) = e^{-gamma dt} omega(u, v).  Rounding, as
        # in test_reversibility_with_force: a curve point rounds an entry
        # fewer than 16n + 2 times (Q expm(eps A), P + eps B), a step fewer
        # than 17n + 16 times, and forming Pi adds n, each time by at most
        # u M, M bounding an entry of Q, P and the half kick; over the n^2
        # entries of a matrix that is n times as much in the Frobenius norm.
        # A step amplifies an earlier error at most by
        # lip = (1 + dt/2)^2 (1 + h / g_scalar), h = dt cosh(De): the half
        # kicks are (dt/2)-Lipschitz in Q (||C||_2 = 1), the drift is
        # (h / g_scalar)-Lipschitz in P and 1-Lipschitz in Q.
        u, g_scalar = 2.0 ** -53, 0.7
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((n, n))
        c /= np.linalg.norm(c, 2)
        sched = (DampingSchedule.constant(gamma) if gamma
                 else DampingSchedule.zero())
        lie_step = _lie_stepper(dt, g_scalar, sched, trace_objective(c))
        q0 = scipy.linalg.expm(random_skew(n, rng))
        p0 = random_skew(n, rng)
        de = sched.delta_eta(0.0, 0.5 * dt)
        big = 1.0 + 2.0 * np.abs(p0).max() + dt
        lip = (1.0 + 0.5 * dt) ** 2 * (1.0 + dt * math.cosh(de) / g_scalar)

        def curve(a, b):
            return lambda eps: ((q0 @ scipy.linalg.expm(eps * a), p0 + eps * b),
                                n * (17 * n + 2) * u * big)

        def step(x, err):
            Q, P, *_ = lie_step((*x, None, None, None), 0.0)
            return (Q, P), lip * (err + n * (18 * n + 16) * u * big)

        curves = [curve(random_skew(n, rng), random_skew(n, rng))
                  for _ in range(2)]
        (w_in, b_in), (w_out, b_out) = two_form_of_step(
            step, curves, 1e-5, coords=lambda x: (x[0], x[0] @ x[1]))
        factor = math.exp(-2.0 * de)
        assert abs(w_out - factor * w_in) <= b_out + factor * b_in

    def test_each_step_calls_expm_once(self, count_calls):
        # the drift looks `_expm` up in the module at each call, so a wrapper
        # set on it by name after the first step still sees every later one
        rng = np.random.default_rng(8)
        prob, sched = trace_objective(rng.standard_normal((4, 4))), \
            DampingSchedule.constant(1.0)
        st = MatrixGroupState(np.eye(4), random_skew(4, rng))
        st = lie_group_step(st, 0.0, 0.05, 0.05, sched, prob)
        calls = count_calls(manifold, "_expm")
        for k in range(1, 4):
            st = lie_group_step(st, 0.05 * k, 0.05, 0.05, sched, prob)
            assert len(calls) == k
        run_lie_optimizer(st, prob, 0.05, 0.05, sched, 5)
        assert len(calls) == 3 + 5

    @pytest.mark.parametrize("case", ["nan-gradient", "huge-P"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_exponent_raises_divergence(self, case):
        # the exponent dt P / g_scalar is NaN after a NaN kick, and beyond
        # what `_expm` scales for a finite but huge P: either step ends in
        # DivergenceError, with no RuntimeWarning on the way
        prob = trace_objective(np.eye(3))
        P = np.zeros((3, 3))
        if case == "nan-gradient":
            prob = Problem(9, value=lambda Q: 0.0,
                           grad=lambda Q: np.full((3, 3), np.nan))
        else:
            P = 1e300 * skew_part(np.arange(9.0).reshape(3, 3))
        st, sched = MatrixGroupState(np.eye(3), P), DampingSchedule.zero()
        with pytest.raises(DivergenceError, match="non-finite"):
            lie_group_step(st, 0.0, 0.05, 0.05, sched, prob)
        with pytest.raises(DivergenceError, match="non-finite") as exc_info:
            run_lie_optimizer(st, prob, 0.05, 0.05, sched, 10)
        assert exc_info.value.step == 1

    def test_value_overflow_error_becomes_divergence(self):
        # a half turn in the first step takes Q[0, 0] from 1 to -1, where
        # math.exp raises OverflowError; the run ends in DivergenceError
        prob = Problem(4, value=lambda Q: math.exp(800.0 * (1.0 - Q[0, 0])),
                       grad=lambda Q: np.zeros((2, 2)))
        st = MatrixGroupState(np.eye(2), [[0.0, -math.pi], [math.pi, 0.0]])
        with pytest.raises(DivergenceError, match="overflow") as exc_info:
            run_lie_optimizer(st, prob, 1.0, 1.0, DampingSchedule.zero(), 3)
        assert exc_info.value.step == 1
        assert isinstance(exc_info.value.__cause__, OverflowError)

    def test_underdamped_beats_overdamped(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((10, 10))
        prob = trace_objective(c)
        st = MatrixGroupState(np.eye(10), np.zeros((10, 10)))
        steps = {}
        for gamma in (1.0, 1000.0):
            traj, _ = run_lie_optimizer(st, prob, 0.05, 0.05,
                                        DampingSchedule.constant(gamma), 3000,
                                        target_gap=1e-4)
            steps[gamma] = (traj.steps[-1] if traj.reason == "target_reached"
                            else 3001)
        assert steps[1.0] < steps[1000.0]


class TestProjectMomentum:
    def test_tangent_momentum_unchanged(self):
        g = KineticMetric.identity(2)
        cons = sphere_constraint()
        q = np.array([1.0, 0.0])
        p = np.array([0.0, 3.0])  # already tangent at (1, 0)
        assert np.allclose(project_momentum(q, p, g, cons), p, atol=1e-14)

    def test_sphere_radial_removal(self):
        g = KineticMetric.identity(2)
        out = project_momentum(np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                               g, sphere_constraint())
        assert np.allclose(out, [0.0, 1.0], atol=1e-14)

    def test_idempotent_two_constraints(self):
        rng = np.random.default_rng(10)
        jac_rows = rng.standard_normal((2, 5))
        cons = ConstraintSet(2, value=lambda q: jac_rows @ q,
                             jacobian=lambda q: jac_rows)
        g = KineticMetric(np.diag(rng.uniform(0.5, 2.0, 5)))
        q = rng.standard_normal(5)
        for _ in range(20):
            p = rng.standard_normal(5)
            once = project_momentum(q, p, g, cons)
            twice = project_momentum(q, once, g, cons)
            assert np.max(np.abs(once - twice)) < 1e-12

    def test_annihilates_constraint_directions(self):
        rng = np.random.default_rng(11)
        g = KineticMetric([[1.4, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]])
        cons = sphere_constraint()
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        jac = cons.jacobian(q)
        for _ in range(100):
            v = rng.standard_normal(3)
            residual = jac @ g.inv_mul(project_momentum(q, v, g, cons))
            assert np.max(np.abs(residual)) < 1e-12

    def test_rank_deficient_jacobian(self):
        jac_rows = np.array([[1.0, 0.0], [1.0, 0.0]])  # duplicated row
        cons = ConstraintSet(2, value=lambda q: jac_rows @ q,
                             jacobian=lambda q: jac_rows)
        with pytest.raises(GeometryError):
            project_momentum(np.zeros(2), np.ones(2),
                             KineticMetric.identity(2), cons)

    def test_nonfinite_r_g(self):
        jac_rows = np.array([[np.inf, 0.0]])
        cons = ConstraintSet(1, value=lambda q: jac_rows @ q,
                             jacobian=lambda q: jac_rows)
        with np.errstate(invalid="ignore"), pytest.raises(GeometryError):
            project_momentum(np.zeros(2), np.ones(2),
                             KineticMetric.identity(2), cons)

    @pytest.mark.parametrize("extra_rows", [0, 1], ids=["sphere", "sphere+plane"])
    @given(hst.lists(hst.floats(-3.0, 3.0), min_size=3, max_size=3),
           hst.lists(hst.floats(-5.0, 5.0), min_size=3, max_size=3),
           hst.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_refuses_where_cholesky_fails_else_annihilates(self, extra_rows,
                                                            q, p, scale):
        # GeometryError exactly where scipy's Cholesky factorisation of R_g
        # fails, reading the lower triangle as np.linalg.cholesky does (R_g
        # is symmetric only to rounding).  Otherwise L_g p meets the
        # cotangent condition J g^{-1} (L_g p) = 0 up to rounding: the
        # factor L and W = L^{-1} J (m x d) come out backward stable, so
        # W^T W g^{-1} p errs by about (m + d) u kappa(R_g) |p| at most, and
        # J g^{-1} maps that, with the check's own rounding, by at most
        # |J|_2 / scale (g = scale I, where L_g is the orthogonal projector
        # off J's rows and |L_g p| <= |p|).  An operation that underflows
        # errs by up to eta = 2^-1074 more, before the map and in the check
        # itself.  The bound allows 8 times that (and is inf where kappa is).
        u = 2.0 ** -53
        q, p = np.array(q), np.array(p)
        plane = np.array([[1.0, -2.0, 0.5]])
        jacobian = lambda q: np.vstack([2.0 * q[None, :], plane[:extra_rows]])
        cons = ConstraintSet(1 + extra_rows, value=lambda q: jacobian(q) @ q,
                             jacobian=jacobian)
        g = KineticMetric.scaled_identity(3, scale)
        jac = jacobian(q)
        r_g = jac @ g.g_inv @ jac.T
        try:
            scipy.linalg.cho_factor(r_g, lower=True)
        except scipy.linalg.LinAlgError:
            with pytest.raises(GeometryError):
                project_momentum(q, p, g, cons)
            return
        projected = project_momentum(q, p, g, cons)
        eta = np.finfo(float).smallest_subnormal
        bound = 8 * (r_g.shape[0] + 3) * (
            np.linalg.cond(r_g) * np.linalg.norm(jac, 2) / scale
            * (u * np.linalg.norm(p) + eta) + eta)
        assert np.linalg.norm(jac @ g.inv_mul(projected)) <= bound


class TestRattle:
    def test_sphere_linear_objective(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal(3)
        prob = Problem(3, value=lambda q: float(c @ q), grad=lambda q: c,
                       f_star=-float(np.linalg.norm(c)))
        q0 = rng.standard_normal(3)
        q0 /= np.linalg.norm(q0)
        g = KineticMetric.scaled_identity(3, 0.05)
        traj, x_end = run_rattle_optimizer(
            PhasePoint(q0, np.zeros(3)), prob, 0.05, g,
            DampingSchedule.constant(1.0), sphere_constraint(), 4000)
        assert np.max(traj.extra) <= 1e-10
        assert prob.value(x_end.q) - prob.f_star < 1e-8
        assert np.linalg.norm(x_end.q + c / np.linalg.norm(c)) < 1e-4

    def test_constraint_preservation_bound(self):
        rng = np.random.default_rng(13)
        prob = problems.quadratic(3)
        cons = sphere_constraint(newton_tol=1e-11)
        q0 = rng.standard_normal(3)
        q0 /= np.linalg.norm(q0)
        g = KineticMetric.scaled_identity(3, 0.05)
        # momentum on the metric's scale keeps the per-step displacement
        # moderate, where the fixed-Jacobian Newton solve contracts
        p0 = 0.05 * rng.standard_normal(3)
        traj, _ = run_rattle_optimizer(PhasePoint(q0, p0),
                                       prob, 0.05, g,
                                       DampingSchedule.constant(0.5), cons, 2000)
        assert np.max(traj.extra) <= 10 * cons.newton_tol

    @given(hst.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_sphere_residual_bound_from_random_start(self, seed):
        rng = np.random.default_rng(seed)
        prob = problems.quadratic(3)
        cons = sphere_constraint(newton_tol=1e-11)
        q0 = rng.standard_normal(3)
        q0 /= np.linalg.norm(q0)
        g = KineticMetric.scaled_identity(3, 0.05)
        p0 = 0.05 * rng.standard_normal(3)   # small momentum, as above
        traj, _ = run_rattle_optimizer(PhasePoint(q0, p0), prob, 0.05, g,
                                       DampingSchedule.constant(0.5), cons, 200)
        assert np.max(traj.extra) <= 10 * cons.newton_tol

    def test_cosh_overflow_raises_divergence(self):
        q0 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DivergenceError, match="cosh") as exc_info:
            run_rattle_optimizer(PhasePoint(q0, np.zeros(3)), problems.quadratic(3),
                                 0.05, KineticMetric.identity(3),
                                 DampingSchedule.constant(1e5),
                                 sphere_constraint(), 10)
        assert exc_info.value.step == 1

    def test_singular_newton_system_raises(self):
        # from q off the unit sphere the drift leaves psi = 3 to correct, but
        # at dt = 1e-170 the Newton matrix, of order dt^2, underflows to zero
        x = PhasePoint(np.array([2.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(GeometryError, match="singular Newton system"):
            rattle_step(x, 0.0, 1e-170, KineticMetric.identity(3),
                        DampingSchedule.zero(), constant_problem(3),
                        sphere_constraint())

    # q = e1 with velocity e2 drifts off the unit sphere; with no force and
    # no damping, the 7th Newton solve is the first to bring |psi| (1.9e-11)
    # within the default tolerance of 1e-10
    NEWTON_CASE = (PhasePoint(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
                   0.0, 0.3, KineticMetric.identity(3), DampingSchedule.zero(),
                   constant_problem(3))

    def test_newton_accepts_its_last_iterate_within_tol(self):
        x, *args = self.NEWTON_CASE
        y, lam = rattle_step(x, *args, sphere_constraint(newton_max_iter=7))
        y_ref, lam_ref = rattle_step(x, *args, sphere_constraint())
        assert np.array_equal(y.q, y_ref.q) and np.array_equal(y.p, y_ref.p)
        assert np.array_equal(lam, lam_ref)
        assert abs(y.q @ y.q - 1.0) <= 1e-10
        with pytest.raises(ConstraintSolveError) as exc:
            rattle_step(x, *args, sphere_constraint(newton_max_iter=6))
        assert exc.value.residual > 1e-10

    def test_zero_newton_budget_takes_a_feasible_step(self):
        x, *args = self.NEWTON_CASE
        at_rest = PhasePoint(x.q, np.zeros(3))
        y, lam = rattle_step(at_rest, *args, sphere_constraint(newton_max_iter=0))
        assert np.array_equal(y.q, x.q) and np.array_equal(lam, [0.0])
        with pytest.raises(ConstraintSolveError):
            rattle_step(x, *args, sphere_constraint(newton_max_iter=0))

    @pytest.mark.parametrize("kwargs", [{"newton_tol": 0.0}, {"newton_tol": -1e-10},
                                        {"newton_tol": math.inf},
                                        {"newton_tol": math.nan},
                                        {"newton_max_iter": -1},
                                        {"newton_max_iter": 2.5},
                                        {"newton_max_iter": True},
                                        {"newton_max_iter": 3.0}])
    def test_newton_settings_checked(self, kwargs):
        with pytest.raises(DomainError, match="newton"):
            sphere_constraint(**kwargs)

    @pytest.mark.parametrize("m", [0, -1, 1.5, True])
    def test_a_constraint_set_needs_a_constraint(self, m):
        # m = 1.5 and m = True used to give a set of one constraint
        with pytest.raises(DomainError, match="m >= 1"):
            ConstraintSet(m, value=lambda q: np.zeros(0),
                          jacobian=lambda q: np.zeros((0, q.size)))

    def test_numpy_integer_counts_accepted(self):
        cons = ConstraintSet(np.int64(1), value=lambda q: q.dot(q) - 1.0,
                             jacobian=lambda q: 2.0 * q[None, :],
                             newton_max_iter=np.int64(7))
        assert (cons.m, cons.newton_max_iter) == (1, 7)

    def test_constraint_value_shape_checked(self):
        # one constraint whose callable returns two values
        x, *args = self.NEWTON_CASE
        cons = ConstraintSet(1, value=lambda q: np.array([q @ q - 1.0, 0.0]),
                             jacobian=lambda q: 2.0 * q[None, :])
        with pytest.raises(DomainError, match=r"\(1,\).*\(2,\)"):
            rattle_step(x, *args, cons)

    def test_non_finite_constraint_value_raises(self):
        # psi(q) = sqrt(1.2 - |q|^2) - sqrt(0.2) is NaN once |q|^2 > 1.2,
        # where the first drift from e1 lands; NaN must not pass as within tol
        c = np.array([1.0, 0.3, -0.2])
        prob = Problem(3, value=lambda q: float(c @ q), grad=lambda q: c)
        cons = ConstraintSet(
            1, value=lambda q: np.sqrt(1.2 - q @ q) - math.sqrt(0.2),
            jacobian=lambda q: -q[None, :] / np.sqrt(1.2 - q @ q))
        x = PhasePoint(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        with np.errstate(invalid="ignore"), \
                pytest.raises(ConstraintSolveError, match="non-finite") as exc:
            run_rattle_optimizer(x, prob, 0.5,
                                 KineticMetric.scaled_identity(3, 0.05),
                                 DampingSchedule.constant(0.1), cons, 50)
        assert math.isnan(exc.value.residual)

    @given(hst.integers(0, 2**32 - 1), hst.booleans(),
           hst.sampled_from(sorted(TestLieGroupStep.SCHEDULES)))
    @settings(max_examples=30, deadline=None)
    def test_step_equals_an_always_kicking_reference(self, seed, newton, kind):
        # with no Newton iteration (lambda = 0) the drift applies no
        # multiplier kick; with one it is unchanged.  np.array_equal treats
        # -0.0 and 0.0 as equal: these checks do not see the sign of a zero.
        rng = np.random.default_rng(seed)
        q0 = rng.standard_normal(3)
        q0 /= np.linalg.norm(q0)
        c = rng.uniform(-1.0, 1.0, 3)
        prob = Problem(3, value=lambda q: float(c @ q), grad=lambda q: c)
        v = rng.standard_normal(3)
        v -= (v @ q0) * q0
        # a drift of dt |p| <= 1e-6 leaves psi at about (dt |p|)^2 <= 1e-12,
        # within tol, over 10 steps in which the force adds at most 2e-3 to
        # |p|; one of dt |p| >= 1e-3 needs a Newton solve
        dt, speed = (0.05, rng.uniform(0.02, 1.0)) if newton else (1e-4, 1e-3)
        g, sched, cons = (KineticMetric.identity(3),
                          TestLieGroupStep.SCHEDULES[kind], sphere_constraint())
        x = PhasePoint(q0, speed * v / np.linalg.norm(v))
        t = sched.start_time()
        for _ in range(10):
            y, lam = rattle_step(x, t, dt, g, sched, prob, cons)
            y_ref, lam_ref = rattle_step_always_kicking(x, t, dt, g, sched,
                                                        prob, cons)
            assert np.any(lam != 0.0) == newton
            assert np.array_equal(y.q, y_ref.q) and np.array_equal(y.p, y_ref.p)
            assert np.array_equal(lam, lam_ref)
            x, t = y, t + dt

    @given(hst.integers(0, 2**32 - 1), hst.booleans())
    @settings(max_examples=20, deadline=None)
    def test_undamped_sphere_geodesic_is_reversible(self, seed, newton):
        # RATTLE at gamma = 0 is time-reversible when each Newton solve is
        # exact.  Solved to |psi| <= tol instead, a step leaves lambda off by
        # at most tol / (d psi / d lambda) = tol / (2 dt^2) (sphere, g = I),
        # which moves q by dt^2 times that, tol / 2, and p by dt times it,
        # tol / (2 dt), i.e. q by tol / 2 over the next step.  Free motion on
        # the sphere amplifies position errors at most linearly, so 2N steps
        # end within sum_k (tol / 2)(1 + (2N - k)) <= (2N)^2 tol / 2.  Rounding
        # (about 10 u per entry and step) adds 2N * 10 u.
        rng = np.random.default_rng(seed)
        q0 = rng.standard_normal(3)
        q0 /= np.linalg.norm(q0)
        v = rng.standard_normal(3)
        v -= (v @ q0) * q0
        # a drift of dt |p| = 1e-6 leaves psi at about (dt |p|)^2 = 1e-12,
        # inside tol: no Newton system is formed; dt |p| >= 1e-3 needs one
        dt, speed = (0.05, rng.uniform(0.02, 1.0)) if newton else (1e-3, 1e-3)
        g, sched, prob = (KineticMetric.identity(3), DampingSchedule.zero(),
                          constant_problem(3))
        cons = sphere_constraint()
        p0 = speed * v / np.linalg.norm(v)
        x, n, u = PhasePoint(q0, p0), 20, 2.0 ** -53
        for leg in range(2):
            for _ in range(n):
                x, lam = rattle_step(x, 0.0, dt, g, sched, prob, cons)
                assert np.any(lam != 0.0) == newton
                # the projection leaves J g^{-1} p at rounding level: about
                # d + 4 roundings on entries of size |J| |p|
                jac = cons.jacobian(x.q)
                bound = 8 * u * np.linalg.norm(jac) * np.linalg.norm(x.p)
                assert np.max(np.abs(jac @ g.inv_mul(x.p))) <= bound
            x = x.flip_momentum()
        bound = (2 * n) ** 2 * cons.newton_tol / 2 + 2 * n * 10 * u
        assert np.max(np.abs(x.q - q0)) <= bound
        assert np.max(np.abs(x.p - p0)) <= bound / dt

    @given(hst.integers(0, 2**32 - 1), hst.booleans(), hst.floats(0.02, 0.1),
           hst.sampled_from([0.0, 2.0]))
    @settings(max_examples=30, deadline=None)
    def test_step_is_conformally_symplectic(self, seed, newton, dt, gamma):
        # On the unit sphere in R^3 (g = I, f = q.A q / 2, ||A||_2 = 1) the
        # step maps the tangents u, v of two curves (q + eps a normalised,
        # p + eps b projected onto q-perp) with omega(D Phi u, D Phi v) =
        # e^{-gamma dt} omega(u, v) when it solves the constraint exactly.
        # It leaves |psi| = r <= newton_tol instead: after Newton, or after
        # a drift that needs none.  lambda is then off by
        # r / |d psi / d lambda| = r / (2 h dt e^{-De}), h = dt cosh(De),
        # which moves q by r / 2 and p by r / (2 h), and with them the second
        # kick and projection: a stepped point errs by at most
        # r (1 + 2M)(1 + 1/h).  Rounding: a curve point rounds an entry fewer
        # than 2d + 8 times, a step fewer than 6d + 36 (two kicks, two
        # projections with their Cholesky factor and W = L^{-1} J, the
        # drift, Newton's last update and the multiplier kick), each time by
        # at most u M, M bounding |q| = 1, |p| and dt |grad f|.  A step
        # amplifies an earlier error at most by
        # lip = (1 + dt)^2 (1 + 2h)(1 + 2M)^2: the kicks are (dt/2)-Lipschitz,
        # the drift h-Lipschitz in p, and the projection p - (q.p) q
        # 2|p|-Lipschitz in q.  Without Newton the step is
        # shortened so that (h |p|)^2 stays below newton_tol.
        u, d, tol = 2.0 ** -53, 3, 1e-13
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        a = (a + a.T) / np.linalg.norm(a + a.T, 2)
        prob = Problem(d, value=lambda q: 0.5 * q.dot(a.dot(q)),
                       grad=lambda q: a.dot(q))
        g, cons = KineticMetric.identity(d), sphere_constraint(newton_tol=tol)
        sched = (DampingSchedule.constant(gamma) if gamma
                 else DampingSchedule.zero())
        dt, speed = (dt, rng.uniform(0.2, 1.0)) if newton else (dt / 200, 1e-4)
        q0 = rng.standard_normal(d)
        q0 /= np.linalg.norm(q0)
        p0 = rng.standard_normal(d)
        p0 -= p0.dot(q0) * q0
        p0 *= speed / np.linalg.norm(p0)
        de = sched.delta_eta(0.0, 0.5 * dt)
        h = dt * math.cosh(de)
        big = 1.0 + 2.0 * speed + dt
        lip = (1.0 + dt) ** 2 * (1.0 + 2.0 * h) * (1.0 + 2.0 * big) ** 2

        def curve(da, db):
            def point(eps):
                q = q0 + eps * da
                q = q / np.linalg.norm(q)
                p = p0 + eps * db
                err = math.sqrt(2 * d) * (2 * d + 8) * u * big
                return (q, p - p.dot(q) * q), err
            return point

        def step(x, err):
            q, p, *_, r, lam = _rattle_step((*x, *[None] * 6), 0.0, dt, g,
                                            sched, prob, cons)
            assert np.any(lam != 0.0) == newton and r <= tol
            rounding = math.sqrt(2 * d) * (6 * d + 36) * u * big
            return (q, p), (lip * (err + rounding)
                            + r * (1.0 + 2.0 * big) * (1.0 + 1.0 / h))

        (w_in, b_in), (w_out, b_out) = two_form_of_step(
            step, [curve(*rng.standard_normal((2, d))) for _ in range(2)], 1e-5)
        factor = math.exp(-2.0 * de)
        assert abs(w_out - factor * w_in) <= b_out + factor * b_in


class TestManifoldCsv:
    def test_extra_column_names(self):
        rng = np.random.default_rng(15)
        c = rng.standard_normal((3, 3))
        st = MatrixGroupState(np.eye(3), np.zeros((3, 3)))
        traj, _ = run_lie_optimizer(st, trace_objective(c), 0.05, 0.05,
                                    DampingSchedule.constant(1.0), 10)
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == \
            "step,time,value,gap,orthogonality_defect"

        prob = problems.quadratic(2)
        q0 = np.array([1.0, 0.0])
        traj2, _ = run_rattle_optimizer(
            PhasePoint(q0, np.zeros(2)), prob, 0.05,
            KineticMetric.identity(2), DampingSchedule.constant(1.0),
            sphere_constraint(), 10)
        buf2 = io.StringIO()
        traj2.to_csv(buf2)
        assert buf2.getvalue().splitlines()[0] == \
            "step,time,value,gap,constraint_residual"


@pytest.mark.parametrize("field, value", [
    ("num_steps", 2.5), ("num_steps", -1), ("num_steps", 0),
    ("num_steps", True), ("record_every", 0), ("record_every", 1.5),
    ("dt", 0.0), ("dt", -0.05), ("dt", math.inf), ("dt", math.nan),
    ("target_gap", -1.0), ("target_gap", 0.0), ("target_gap", math.nan),
    ("g_scalar", math.inf), ("g_scalar", math.nan)])
@pytest.mark.filterwarnings("error")
def test_manifold_runs_check_their_length(field, value):
    # both runs take the flat run's rule: integers >= 1 and no bool, dt
    # finite and > 0, target_gap None or finite and > 0; the SO(n) run's
    # g_scalar is finite and > 0.  Each is refused before the first step.
    kw = {"dt": 0.05, "g_scalar": 0.05, "num_steps": 10, "record_every": 1,
          field: value}
    dt, g_scalar, n = kw.pop("dt"), kw.pop("g_scalar"), kw.pop("num_steps")
    st = MatrixGroupState(np.eye(3), np.zeros((3, 3)))
    with pytest.raises(DomainError, match=field):
        run_lie_optimizer(st, trace_objective(np.eye(3)), dt, g_scalar,
                          DampingSchedule.constant(1.0), n, **kw)
    if field == "g_scalar":
        return
    with pytest.raises(DomainError, match=field):
        run_rattle_optimizer(
            PhasePoint([1.0, 0.0], np.zeros(2)), problems.quadratic(2), dt,
            KineticMetric.identity(2), DampingSchedule.constant(1.0),
            sphere_constraint(), n, **kw)


def test_lie_run_refuses_a_state_of_another_size(counting_problem):
    prob, calls = counting_problem(trace_objective(np.eye(3)))
    with pytest.raises(DomainError, match="state 16, problem 9"):
        run_lie_optimizer(MatrixGroupState(np.eye(4), np.zeros((4, 4))), prob,
                          0.05, 0.05, DampingSchedule.constant(1.0), 10)
    assert not calls


@pytest.mark.parametrize("g_dim, prob_dim", [(2, 3), (3, 2)])
def test_rattle_run_checks_its_dimensions(counting_problem, g_dim, prob_dim):
    # a 3-d state: the metric or the problem has another dimension
    prob, calls = counting_problem(problems.quadratic(prob_dim))
    with pytest.raises(DomainError, match="dimension mismatch: state 3"):
        run_rattle_optimizer(
            PhasePoint([1.0, 0.0, 0.0], np.zeros(3)), prob, 0.05,
            KineticMetric.identity(g_dim), DampingSchedule.constant(1.0),
            sphere_constraint(), 10)
    assert not calls


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_sphere_radius_refused(radius):
    with pytest.raises(DomainError, match="radius must be finite and > 0"):
        sphere_constraint(radius)
