import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_solve

from hamkit import (
    ChainState,
    DampingSchedule,
    DomainError,
    KineticMetric,
    NumericOverflowError,
    PhasePoint,
    Problem,
    evaluate_hamiltonian,
    hmc_draw,
    leapfrog_trajectory,
    problems,
    run_optimizer,
)
from hamkit.core import _central_diffs

_FD_STEP = float(np.cbrt(np.finfo(float).eps))


def fd_grad(value, q):
    """Central differences of `value` at q, with step _FD_STEP * max(1, |q_j|)
    in coordinate j: the oracle for hand-written gradients."""
    return _central_diffs(value, q, _FD_STEP * np.maximum(1.0, np.abs(q)))


class TestPhasePoint:
    def test_basic(self):
        x = PhasePoint([1.0, 2.0], [3.0, 4.0])
        assert x.dim == 2
        y = x.flip_momentum()
        assert np.array_equal(y.q, x.q)
        assert np.array_equal(y.p, -x.p)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            PhasePoint([1.0], [1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PhasePoint([np.nan], [0.0])
        with pytest.raises(DomainError):
            PhasePoint([0.0], [np.inf])

    def test_immutable(self):
        x = PhasePoint([1.0], [2.0])
        with pytest.raises(ValueError):
            x.q[0] = 5.0

    def test_callers_arrays_stay_writeable(self):
        q, p = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        x = PhasePoint(q, p)
        q[0], p[0] = 5.0, 6.0
        assert not np.shares_memory(q, x.q) and not np.shares_memory(p, x.p)
        assert np.array_equal(x.q, [1.0, 2.0])
        assert np.array_equal(x.p, [3.0, 4.0])


class TestKineticMetric:
    def test_symmetry_and_inverse(self):
        g = KineticMetric([[2.0, 0.5], [0.5, 1.0]])
        assert np.max(np.abs(g.g - g.g.T)) == 0.0
        assert np.max(np.abs(g.g @ g.g_inv - np.eye(2))) <= 1e-10

    def test_not_pd_rejected(self):
        with pytest.raises(DomainError):
            KineticMetric([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1

    def test_scaled_identity(self):
        g = KineticMetric.scaled_identity(3, 0.1)
        assert np.allclose(g.g, 0.1 * np.eye(3))
        assert np.allclose(g.inv_mul(np.ones(3)), 10.0 * np.ones(3))
        with pytest.raises(DomainError):
            KineticMetric.scaled_identity(3, -1.0)

    def test_quad_inv(self):
        g = KineticMetric.identity(2)
        assert g.quad_inv(np.array([3.0, 4.0])) == pytest.approx(25.0)

    @given(c=st.sampled_from([1.0, 0.05, 0.2, 3.0, 0.1, 7.3])
           | st.floats(1e-4, 1e4), d=st.integers(1, 50), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_scaled_identity_products_equal_dense(self, c, d, data):
        # a multiple of I multiplies as a scalar, and I not at all, bit for bit
        # the dense result; every example also checks g = I
        p = data.draw(hnp.arrays(np.float64, d, elements=st.floats(-1e6, 1e6)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        for g in (KineticMetric.scaled_identity(d, c), KineticMetric.identity(d)):
            assert g._scale is not None
            assert np.array_equal(g.inv_mul(p), g.g_inv @ p)
            assert g.quad_inv(p) == float(p @ g.g_inv @ p)
            assert np.array_equal(g.sample_momentum(np.random.default_rng(seed)),
                                  g.chol @ np.random.default_rng(seed).standard_normal(d))

    @pytest.mark.parametrize("p", [[-0.0, 0.0, 1.5, -2.0], [np.inf, -np.inf, -0.0, 3.0],
                                   [np.nan, -0.0, np.inf, 1.0], [-np.nan, 2.0]])
    def test_unit_metric_products_are_one_times_p_bit_for_bit(self, p):
        # g = I skips its products: x * 1.0 is x, bit for bit, also for -0,
        # +-inf and NaN (where a dense product would not be); inv_mul
        # returns p itself
        p = np.array(p)
        g = KineticMetric.identity(p.size)

        def bits(a):
            return np.asarray(a, float).view(np.uint64)

        assert g.inv_mul(p) is p
        assert np.array_equal(bits(g.inv_mul(p)), bits(1.0 * p))
        assert bits(g.quad_inv(p)) == bits(float((1.0 * p) @ p))
        z = np.random.default_rng(3).standard_normal(p.size)
        assert np.array_equal(bits(g.sample_momentum(np.random.default_rng(3))),
                              bits(1.0 * z))

    @staticmethod
    def cho_solve_inverse(g):
        # the inverse the metric was built from before it dropped scipy
        g = 0.5 * (g + g.T)
        g_inv = cho_solve((np.linalg.cholesky(g), True), np.eye(len(g)))
        return 0.5 * (g_inv + g_inv.T)

    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scaled_identity=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_diagonal_inverse_is_cho_solve_bit_for_bit(self, d, seed,
                                                       scaled_identity):
        # every metric the CLI builds is a multiple of I; a 1-ulp change in
        # g_inv would move every step of a run with a non-unit metric.  Two
        # LU solves on the factor miss by 1 ulp for about a quarter of the
        # scales at d = 1, hence many random scales per example.
        rng = np.random.default_rng(seed)
        for _ in range(50):
            scales = np.exp(rng.uniform(-14.0, 14.0, 1 if scaled_identity else d))
            g = np.diag(np.broadcast_to(scales, d))
            assert np.array_equal(KineticMetric(g).g_inv, self.cho_solve_inverse(g))

    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           shift=st.floats(0.05, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_inverse_matches_cho_solve(self, d, seed, shift):
        # a general SPD metric (condition number below about 100): within
        # 1e-13 relative; 20,000 draws of this family differed by <= 1.2e-15
        a = np.random.default_rng(seed).standard_normal((d, d))
        g = a @ a.T / d + shift * np.eye(d)
        expected = self.cho_solve_inverse(g)
        got = KineticMetric(g).g_inv
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("g", [[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 2.0]]])
    def test_other_metrics_take_the_dense_products(self, g):
        assert KineticMetric(g)._scale is None

    @given(d=st.integers(2, 40), diagonal=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_dense_products_equal_matmul_bit_for_bit(self, d, diagonal, data):
        # the dense products call ndarray.dot, the cheaper call to the BLAS
        # routine `@` reaches; a 1-ulp change would move every step of a run
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        if diagonal:
            g = np.diag(np.exp(rng.uniform(-5.0, 5.0, d)))
        else:
            a = rng.standard_normal((d, d))
            g = a @ a.T / d + rng.uniform(0.05, 1.0) * np.eye(d)
        g = KineticMetric(g)
        assert g._scale is None
        p = data.draw(hnp.arrays(np.float64, d, elements=st.floats(-1e6, 1e6)))

        def bits(a):
            return np.asarray(a, float).view(np.uint64)

        assert np.array_equal(bits(g.inv_mul(p)), bits(g.g_inv @ p))
        assert bits(g.quad_inv(p)) == bits(float(p @ g.g_inv @ p))
        z = np.random.default_rng(seed).standard_normal(d)
        assert np.array_equal(bits(g.sample_momentum(np.random.default_rng(seed))),
                              bits(g.chol @ z))

    def test_momentum_sampling_covariance(self):
        rng = np.random.default_rng(0)
        g = KineticMetric([[2.0, 0.3], [0.3, 1.0]])
        draws = np.array([g.sample_momentum(rng) for _ in range(20000)])
        cov = np.cov(draws.T)
        assert np.max(np.abs(cov - g.g)) < 0.05


class TestDampingSchedule:
    def test_delta_eta_constant(self):
        s = DampingSchedule.constant(1.0)
        assert s.delta_eta(0.0, 0.1) == pytest.approx(0.1, abs=1e-15)

    def test_delta_eta_vanishing(self):
        s = DampingSchedule.vanishing(r=3.0)
        assert s.delta_eta(1.0, 2.0) == pytest.approx(3.0 * math.log(2.0))

    def test_delta_eta_zero(self):
        s = DampingSchedule.zero()
        assert s.delta_eta(0.0, 123.0) == 0.0

    def test_vanishing_domain(self):
        s = DampingSchedule.vanishing(r=3.0, t0=1.0)
        with pytest.raises(DomainError):
            s.delta_eta(0.5, 2.0)

    def test_reversed_interval(self):
        with pytest.raises(DomainError):
            DampingSchedule.constant(1.0).delta_eta(2.0, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            DampingSchedule.constant(0.0)
        with pytest.raises(DomainError):
            DampingSchedule.vanishing(r=-1.0)

    @pytest.mark.parametrize("kind, field", [("constant", "gamma"),
                                             ("vanishing", "r"),
                                             ("vanishing", "t0")])
    def test_non_finite_parameters_refused(self, kind, field):
        # each used to be accepted; its run then ended in "non-finite state
        # ... step size too large?" after a numpy RuntimeWarning
        with pytest.raises(DomainError,
                           match=f"damping {field} must be finite"):
            DampingSchedule(kind, **{field: math.inf})

    @given(st.floats(1.0, 50.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, a, d1, d2):
        b, c = a + d1, a + d1 + d2
        for s in (DampingSchedule.constant(0.7),
                  DampingSchedule.vanishing(3.0, t0=1.0),
                  DampingSchedule.zero()):
            lhs = s.delta_eta(a, b) + s.delta_eta(b, c)
            assert lhs == pytest.approx(s.delta_eta(a, c), abs=1e-12)


class TestEvaluateHamiltonian:
    def test_origin(self):
        prob = problems.quadratic(2)
        x = PhasePoint(np.zeros(2), np.zeros(2))
        assert evaluate_hamiltonian(x, KineticMetric.identity(2), prob) == 0.0

    def test_scalar(self):
        prob = problems.quadratic(1)
        x = PhasePoint([1.0], [2.0])
        assert evaluate_hamiltonian(x, KineticMetric.identity(1), prob) == pytest.approx(2.5)

    def test_scaled_metric(self):
        prob = problems.quadratic(2)
        x = PhasePoint([1.0, 1.0], [1.0, 0.0])
        g = KineticMetric.scaled_identity(2, 2.0)
        assert evaluate_hamiltonian(x, g, prob) == pytest.approx(1.25)

    def test_overflow_names_term(self):
        bad = Problem(1, value=lambda q: math.inf, grad=lambda q: q)
        x = PhasePoint([1.0], [1.0])
        with pytest.raises(NumericOverflowError, match="potential"):
            evaluate_hamiltonian(x, KineticMetric.identity(1), bad)

    def test_dimension_mismatch(self):
        prob = problems.quadratic(2)
        with pytest.raises(DomainError):
            evaluate_hamiltonian(PhasePoint([1.0], [1.0]),
                                 KineticMetric.identity(1), prob)

    @pytest.mark.parametrize("entry", ["hamiltonian", "leapfrog_optimizer",
                                       "gradient_flow", "hmc_draw",
                                       "leapfrog_trajectory"])
    def test_every_entry_point_names_the_three_dimensions(self, entry):
        # a 1-d state and metric against a 2-d problem, refused before any
        # step by the same check, with the same message
        x, g = PhasePoint([1.0], [0.0]), KineticMetric.identity(1)
        prob = problems.quadratic(2)
        run = (x, prob, 0.1, g, DampingSchedule.constant(1.0), 3)
        calls = {
            "hamiltonian": lambda: evaluate_hamiltonian(x, g, prob),
            "leapfrog_optimizer": lambda: run_optimizer(*run),
            "gradient_flow": lambda: run_optimizer(*run, method="gradient_flow"),
            "hmc_draw": lambda: hmc_draw(ChainState(x), prob, g, 0.1, 2,
                                         np.random.default_rng(0)),
            "leapfrog_trajectory": lambda: leapfrog_trajectory(x, prob, g, 0.1, 2),
        }
        with pytest.raises(DomainError, match=re.escape(
                "dimension mismatch: state 1, metric 1, problem 2")):
            calls[entry]()


def same_bits(a, b):
    """a and b have one shape and the same float64 bits (-0.0 is not 0.0)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# every built-in: those with a fused form, and those that adapt
_BUILT_INS = {"quadratic": problems.quadratic(3, 1.3),
              "quartic-2": problems.quartic(2), "quartic-5": problems.quartic(5),
              "standard_gaussian": problems.standard_gaussian(4),
              "rosenbrock": problems.rosenbrock(), "banana": problems.banana(),
              "gaussian_mixture": problems.gaussian_mixture_1d()}


class TestProblems:
    def test_q_star_is_a_copy(self):
        qs = np.array([1.0, 2.0])
        prob = Problem(2, value=lambda q: 0.0, grad=np.zeros_like, q_star=qs)
        qs[0] = 5.0
        assert np.array_equal(prob.q_star, [1.0, 2.0])

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, 0])
    def test_dimension_must_be_an_integer(self, dim):
        # 2.5 used to give dim 2, and True dim 1
        with pytest.raises(DomainError, match="dim must be an integer"):
            Problem(dim, value=lambda q: 0.0, grad=np.zeros_like)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_BUILT_INS)), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1e-3, 1.0, 1e3]))
    def test_fused_form_is_the_separate_calls_bits(self, name, seed, scale):
        prob = _BUILT_INS[name]
        q_rows = scale * np.random.default_rng(seed).standard_normal((7, prob.dim))
        # far from its modes the mixture's density underflows to 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for q in q_rows:
                f, grad = prob.value_and_grad(q)
                assert isinstance(f, float) and same_bits(f, prob.value(q))
                assert same_bits(grad, prob.grad(q))

    @pytest.mark.parametrize("norm", [1.3e77, 1e100, 1.3e154, 1e200])
    def test_quartic_value_is_inf_past_the_float_range(self, norm):
        # ||q||^4 / 4 > 1.8e308 from ||q|| = 1.2e77; below 1.3e154, ||q||^2
        # is finite and Python's float power raises instead of returning inf
        prob, q = problems.quartic(2), np.array([0.6 * norm, 0.8 * norm])
        with np.errstate(over="ignore"):
            f, grad = prob.value_and_grad(q)
            assert f == prob.value(q) == math.inf
            assert same_bits(grad, prob.grad(q))

    @pytest.mark.parametrize("prob", [
        problems.quadratic(3, 1.3),
        problems.quartic(2),
        problems.rosenbrock(),
        problems.gaussian_mixture_1d(),
        problems.banana(),
        problems.standard_gaussian(4),
    ], ids=lambda p: p.name)
    def test_grad_matches_finite_differences(self, prob):
        rng = np.random.default_rng(42)
        for _ in range(10):
            q = rng.standard_normal(prob.dim)
            fd = fd_grad(prob.value, q)
            grad = prob.grad(q)
            scale = max(np.linalg.norm(grad), 1.0)
            assert np.max(np.abs(grad - fd)) / scale < 1e-5

    def test_certified_minima(self):
        for prob in (problems.quadratic(2), problems.quartic(3),
                     problems.rosenbrock()):
            assert prob.value(prob.q_star) == pytest.approx(prob.f_star, abs=1e-12)
            assert np.max(np.abs(prob.grad(prob.q_star))) < 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 5, 12])
    def test_fd_gradient_matches_coordinate_loop(self, dim):
        # the step is _FD_STEP * max(1, |q_j|) per coordinate, bit for bit
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))

        def value(q):
            return float(np.sin(q) @ a @ np.cos(q) + q @ q ** 3)

        for scale in (1e-3, 1.0, 1e3):
            q = scale * rng.standard_normal(dim)
            ref = np.empty(dim)
            for i in range(dim):
                h = _FD_STEP * max(1.0, abs(q[i]))
                e = np.zeros(dim)
                e[i] = h
                ref[i] = (value(q + e) - value(q - e)) / (2 * h)
            assert np.array_equal(fd_grad(value, q), ref)

    def test_central_diffs_per_coordinate_steps(self):
        # a matrix-valued f with one step per coordinate: slice j is the
        # difference along e_j over 2 h_j
        def f(x):
            return np.outer(np.sin(x), x ** 2)

        x = np.array([0.3, -1.2, 2.0])
        h = np.array([1e-3, 2e-4, 5e-2])
        ref = [(f(x + h[j] * e) - f(x - h[j] * e)) / (2.0 * h[j])
               for j, e in enumerate(np.eye(3))]
        assert np.array_equal(_central_diffs(f, x, h), np.array(ref))
