import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamkit import (
    ChainState,
    DampingSchedule,
    DiffusionSpec,
    DivergenceError,
    DomainError,
    KineticMetric,
    PhasePoint,
    complete_recipe_drift,
    evaluate_hamiltonian,
    hmc_draw,
    leapfrog_trajectory,
    mcmc_estimate,
    overdamped_em_step,
    problems,
    run_hmc_chain,
    write_samples_csv,
)
from hamkit import samplers
from hamkit.core import Problem, _all_finite
from hamkit.integrators import gradient_flow_step
from hamkit.samplers import _FD_STEP, _leapfrog
from helpers import constant_problem


class TestChainState:
    def test_invariant(self):
        with pytest.raises(DomainError):
            ChainState(PhasePoint([0.0], [0.0]), steps=1, accepted=2)

    def test_moments(self):
        chain = ChainState.start(np.zeros(2))
        assert chain.acceptance_rate == 0.0

    def test_carries_only_what_the_next_draw_reads(self):
        # no running moments: estimates come from the draws
        assert [f.name for f in dataclasses.fields(ChainState)] == [
            "x", "steps", "accepted", "incidents"]


class TestLeapfrog:
    def test_free_drift(self):
        prob = constant_problem(2)
        g = KineticMetric.scaled_identity(2, 2.0)
        x = PhasePoint(np.array([0.0, 1.0]), np.array([2.0, -4.0]))
        y = leapfrog_trajectory(x, prob, g, 0.1, 7)
        assert np.allclose(y.q, x.q + 7 * 0.1 * g.inv_mul(x.p), atol=1e-14)
        assert np.array_equal(y.p, x.p)

    def test_reversibility(self):
        prob = problems.banana()
        g = KineticMetric.identity(2)
        x0 = PhasePoint(np.array([0.3, -0.8]), np.array([1.0, 0.4]))
        y = leapfrog_trajectory(x0, prob, g, 0.05, 30)
        z = leapfrog_trajectory(y.flip_momentum(), prob, g, 0.05, 30)
        z = z.flip_momentum()
        assert np.max(np.abs(z.q - x0.q)) < 1e-9
        assert np.max(np.abs(z.p - x0.p)) < 1e-9

    def test_energy_error_order_two(self):
        prob = problems.quadratic(1)
        g = KineticMetric.identity(1)

        def max_err(dt):
            x = PhasePoint([1.0], [0.0])
            h0 = 0.5
            err = 0.0
            for _ in range(int(round(2 * math.pi / dt))):
                x = leapfrog_trajectory(x, prob, g, dt, 1)
                err = max(err, abs(0.5 * x.p[0] ** 2 + 0.5 * x.q[0] ** 2 - h0))
            return err

        ratio = max_err(0.1) / max_err(0.05)
        assert 3.0 < ratio < 5.0

    @pytest.mark.parametrize("d", [1, 3])
    def test_divergence_step_and_no_gradient_at_a_non_finite_position(self, d):
        # V = -(k/2)|q|^2 multiplies |q| by about k dt^2 a step, so q passes
        # through finite values whose |q|^2 overflows before q itself does
        k, dt, L = 1e20, 1.0, 40

        def grad(q):
            assert np.isfinite(q).all()
            return -k * q

        prob = Problem(d, value=lambda q: -0.5 * k * float(q @ q), grad=grad)
        g = KineticMetric.identity(d)
        x = PhasePoint(np.ones(d), np.zeros(d))
        with np.errstate(over="ignore", invalid="ignore"):
            q, p = x.q, x.p - 0.5 * dt * grad(x.q)
            overflowed = False
            for step in range(L):   # plain loop with entry-wise checks
                q = q + dt * p
                if not np.isfinite(q).all():
                    break
                overflowed |= not math.isfinite(np.vdot(q, q))
                p = p - dt * grad(q)
            with pytest.raises(DivergenceError) as exc:
                leapfrog_trajectory(x, prob, g, dt, L)
        assert overflowed and step < L - 1
        assert exc.value.step == step
        assert "position" in str(exc.value)

    @pytest.mark.parametrize("x", [[1.0, -2.0], [1e200, -1e200], [1e300, np.nan],
                                   [np.inf, 0.0], [-np.inf], [np.nan],
                                   np.full((3, 3), 1e170), [[1.0, np.inf]]])
    def test_all_finite_is_the_entrywise_check(self, x):
        # and silently, also where the sum of squares overflows
        x = np.asarray(x, float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _all_finite(x) == np.isfinite(x).all()


_U = 2.0 ** -53   # unit roundoff


def _banana_hessian(q, curvature=0.5, scale=2.0):
    """Hessian of V for problems.banana() at its default parameters."""
    x, c = q[0], curvature
    shift = q[1] + c * (x * x - scale * scale)
    return np.array([[1.0 / scale ** 2 + 4.0 * c * c * x * x + 2.0 * c * shift,
                      2.0 * c * x],
                     [2.0 * c * x, 1.0]])


_FLIGHT_TARGETS = {   # name: (problem, Hessian of V)
    "banana": (problems.banana(), _banana_hessian),
    "gaussian": (problems.standard_gaussian(3), lambda q: np.eye(3)),
}


# dt and L where the flights' Lipschitz bound (see `rounding`) stays below
# about 1e3, so that the rounding bounds stay far below the O(dt^2) errors
# a wrong leapfrog makes
_FLIGHTS = dict(target=st.sampled_from(sorted(_FLIGHT_TARGETS)), dense=st.booleans(),
                seed=st.integers(0, 2**32 - 1), dt=st.floats(0.02, 0.1),
                L=st.integers(1, 10))


class TestLeapfrogGeometry:
    """The leapfrog flight is reversible and preserves volume, up to rounding
    and, for its Jacobian, the central-difference truncation."""

    @staticmethod
    def case(target, dense, seed):
        prob, hess = _FLIGHT_TARGETS[target]
        rng = np.random.default_rng(seed)
        d = prob.dim
        if dense:   # a random SPD metric with eigenvalues >= 0.5
            a = rng.standard_normal((d, d))
            g = KineticMetric(a @ a.T / d + 0.5 * np.eye(d))
            assert g._scale is None
        else:
            g = KineticMetric.identity(d)
        return prob, hess, g, rng.uniform(-1.5, 1.5, 2 * d)

    @staticmethod
    def flight(prob, g, dt, L, z):
        d = z.size // 2
        q, p, _, _ = _leapfrog(z[:d], z[d:], prob.grad(z[:d]), prob, g, dt, L,
                               prob.value_and_grad)
        return np.concatenate([q, p])

    def rounding(self, prob, hess, g, dt, L, z):
        """(bound on the 2-norm of the rounding error of the flight from z,
        Lipschitz bound of the flight).  A step rounds an entry at most d + 8
        times (d in g^{-1} p, two in the drift, four in the two half kicks,
        two in a gradient of a few terms), each time by at most u M, with M
        bounding |q|, |p_{k+1/2}| <= |p_k| + dt |grad V| and dt |g^{-1} p|
        along the flight.  Later steps amplify an error at most by the product
        of the steps' Lipschitz bounds, 1 + dt ||g^{-1}|| for a drift and
        1 + (dt/2) ||H(q_k)|| for a half kick at q_k."""
        d = z.size // 2
        inv_norm = np.linalg.norm(g.g_inv, 2)
        states = [z] + [self.flight(prob, g, dt, k, z) for k in range(1, L + 1)]
        m = max((np.linalg.norm(w[:d]) + np.linalg.norm(w[d:])
                 + dt * np.linalg.norm(prob.grad(w[:d]))) for w in states)
        m *= 1.0 + dt * inv_norm
        kicks = [1.0 + 0.5 * dt * np.linalg.norm(hess(w[:d]), 2) for w in states]
        lip = (1.0 + dt * inv_norm) ** L * np.prod(kicks[:-1]) * np.prod(kicks[1:])
        return L * math.sqrt(2 * d) * (d + 8) * _U * m * lip, lip

    @given(**_FLIGHTS)
    @settings(max_examples=40, deadline=None)
    def test_reversible(self, target, dense, seed, dt, L):
        prob, hess, g, z = self.case(target, dense, seed)
        d = prob.dim
        flip = np.concatenate([np.ones(d), -np.ones(d)])
        back = flip * self.flight(prob, g, dt, L, flip * self.flight(prob, g, dt, L, z))
        # each flight errs by at most eps, the first one's error amplified
        # by the second flight's Lipschitz bound
        eps, lip = self.rounding(prob, hess, g, dt, L, z)
        assert np.linalg.norm(back - z) <= eps * (1.0 + lip)

    @given(**_FLIGHTS)
    @settings(max_examples=40, deadline=None)
    def test_unit_jacobian(self, target, dense, seed, dt, L):
        prob, hess, g, z = self.case(target, dense, seed)
        n, h = z.size, 1e-5

        def jacobian(h):   # central differences, one column per coordinate
            return np.column_stack([
                (self.flight(prob, g, dt, L, z + h * e)
                 - self.flight(prob, g, dt, L, z - h * e)) / (2.0 * h)
                for e in np.eye(n)])

        jac, jac_half = jacobian(h), jacobian(0.5 * h)
        # rounding: each flight errs by at most eps and z +- h e_j by u |z|,
        # which the Jacobian carries into the flight, so a column of
        # jac_half errs by (eps + u |z| ||J||) / (h / 2) (2-norm).
        # Truncation: a central difference errs by c h^2 + O(h^4), so jac_half
        # errs by about (jac - jac_half) / 3.
        eps, _ = self.rounding(prob, hess, g, dt, L, z)
        rounding = math.sqrt(n) * 2.0 * (eps + _U * np.abs(z).max()
                                         * np.linalg.norm(jac_half, 2)) / h
        err = rounding + np.linalg.norm(jac - jac_half) / 3.0
        # det(J + E) = det(J) (1 + tr(J^{-1} E) + ...), |tr(J^{-1} E)| <=
        # ||J^{-1}||_F ||E||_F; twice that covers the higher-order terms
        # while ||J^{-1}||_F ||E||_F is small, which the first assert checks
        first_order = np.linalg.norm(np.linalg.inv(jac_half)) * err
        assert first_order < 0.01
        assert abs(np.linalg.det(jac_half) - 1.0) <= 2.0 * first_order


class TestHmc:
    def test_constant_potential_always_accepts(self):
        prob = constant_problem(2)
        g = KineticMetric.identity(2)
        chain = ChainState.start(np.zeros(2))
        rng = np.random.default_rng(0)
        for _ in range(50):
            chain = hmc_draw(chain, prob, g, 0.5, 3, rng)
        assert chain.acceptance_rate == 1.0

    def test_exact_flow_has_zero_energy_change(self):
        # the analytic harmonic flow conserves H, so the Metropolis
        # probability min(1, e^{-dH}) is exactly 1
        rng = np.random.default_rng(1)
        g = KineticMetric.identity(1)
        for _ in range(20):
            q, p = rng.standard_normal(1), rng.standard_normal(1)
            t = rng.uniform(0.0, 10.0)
            q2 = q * math.cos(t) + p * math.sin(t)
            p2 = -q * math.sin(t) + p * math.cos(t)
            dh = (0.5 * p2 @ p2 + 0.5 * q2 @ q2) - (0.5 * p @ p + 0.5 * q @ q)
            assert min(1.0, math.exp(-dh)) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_moments(self):
        prob = problems.standard_gaussian(2)
        g = KineticMetric.identity(2)
        chain, samples = run_hmc_chain(prob, g, 0.2, 5, 20000,
                                       np.random.default_rng(2))
        assert np.max(np.abs(samples.mean(axis=0))) < 0.05
        assert np.max(np.abs(samples.var(axis=0) - 1.0)) < 0.08

    def test_rejection_keeps_position_flips_momentum(self):
        # a wildly unstable step is always rejected
        prob = problems.quadratic(1)
        g = KineticMetric.identity(1)
        chain = ChainState.start(np.array([100.0]))
        out = hmc_draw(chain, prob, g, 5.0, 20, np.random.default_rng(3))
        assert out.accepted == 0
        assert out.x.q == pytest.approx(100.0)

    def test_nonfinite_counts_incident(self):
        steep = Problem(1, value=lambda q: float(q @ q) ** 4,
                        grad=lambda q: 8.0 * float(q @ q) ** 3 * q)
        chain = ChainState.start(np.array([5.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            out = hmc_draw(chain, steep, KineticMetric.identity(1), 2.0, 10,
                           np.random.default_rng(4))
        assert out.incidents == 1
        assert out.accepted == 0

    def test_jitter_validation(self):
        chain = ChainState.start(np.zeros(1))
        with pytest.raises(DomainError):
            hmc_draw(chain, problems.quadratic(1), KineticMetric.identity(1),
                     0.1, 5, np.random.default_rng(0), jitter=1.5)

    def test_jitter_runs_every_step_count(self, monkeypatch):
        # jitter 0.5 at L = 4 draws the flight length uniformly from the
        # closed range [2, 4]
        lengths = []
        leapfrog = samplers._leapfrog

        def counted(q, p, grad, prob, g, dt, L, at_end):
            lengths.append(L)
            return leapfrog(q, p, grad, prob, g, dt, L, at_end)

        monkeypatch.setattr(samplers, "_leapfrog", counted)
        run_hmc_chain(problems.standard_gaussian(2), KineticMetric.identity(2),
                      0.1, 4, 200, np.random.default_rng(0), jitter=0.5,
                      keep_samples=False)
        assert set(lengths) == {2, 3, 4}

    def test_acceptance_monotone_in_step(self):
        # fixed flight length L * dt = 0.4
        prob = problems.standard_gaussian(5)
        g = KineticMetric.identity(5)
        accs = []
        for dt in (0.01, 0.05, 0.1, 0.2, 0.4):
            chain, _ = run_hmc_chain(prob, g, dt, max(1, round(0.4 / dt)),
                                     1500, np.random.default_rng(6), keep_samples=False)
            accs.append(chain.acceptance_rate)
        assert all(a >= b - 0.02 for a, b in zip(accs, accs[1:]))

    def test_stationarity_from_exact_start(self):
        prob = problems.standard_gaussian(1)
        g = KineticMetric.identity(1)
        n_chains, n_steps = 400, 40
        finals = np.empty(n_chains)
        for i, seed in enumerate(np.random.SeedSequence(7).spawn(n_chains)):
            stream = np.random.default_rng(seed)
            chain = ChainState.start(stream.standard_normal(1))
            for _ in range(n_steps):
                chain = hmc_draw(chain, prob, g, 0.3, 3, stream)
            finals[i] = chain.x.q[0]
        se = 1.0 / math.sqrt(n_chains)
        assert abs(finals.mean()) < 4 * se
        se2 = math.sqrt(2.0 / n_chains)
        assert abs(finals.var() - 1.0) < 4 * se2

    def test_detailed_balance_proxy_on_mixture(self):
        # two-state down-projection of the 1-d mixture: sign of q
        prob = problems.gaussian_mixture_1d()
        g = KineticMetric.identity(1)
        rng = np.random.default_rng(8)
        chain = ChainState.start(np.array([2.0]))
        signs = []
        for _ in range(4000):
            chain = hmc_draw(chain, prob, g, 0.3, 10, rng)
            signs.append(chain.x.q[0] > 0)
        n01 = sum(1 for a, b in zip(signs, signs[1:]) if not a and b)
        n10 = sum(1 for a, b in zip(signs, signs[1:]) if a and not b)
        assert n01 + n10 > 20  # the chain actually mixes
        z = abs(n01 - n10) / math.sqrt(n01 + n10)
        assert z < 4.0


def _steep():
    return Problem(2, value=lambda q: float(q @ q) ** 4,
                   grad=lambda q: 8.0 * float(q @ q) ** 3 * q)


def _exp_well():
    # V overflows (math.exp raises OverflowError) before grad V does
    return Problem(1, value=lambda q: math.exp(float(q @ q)),
                   grad=lambda q: 2.0 * q * math.exp(min(float(q @ q), 700.0)))


def _reference_chain(prob, g, dt, L, n_draws, rng, q0, jitter):
    """Textbook Metropolis-corrected leapfrog HMC, one draw at a time, from
    leapfrog_trajectory and evaluate_hamiltonian with the same rng calls."""
    x = PhasePoint(q0, np.zeros_like(q0))
    accepted = incidents = 0
    samples = np.empty((n_draws, q0.size))
    for i in range(n_draws):
        z0 = PhasePoint(x.q, g.sample_momentum(rng))
        l_min = max(1, math.ceil((1.0 - jitter) * L))
        l_run = int(rng.integers(l_min, L + 1)) if l_min < L else L
        try:
            z = leapfrog_trajectory(z0, prob, g, dt, l_run)
            d_h = (evaluate_hamiltonian(z, g, prob)
                   - evaluate_hamiltonian(z0, g, prob))
        except ArithmeticError:   # DivergenceError, NumericOverflowError
            d_h = math.inf
        if not math.isfinite(d_h):
            incidents += 1
            d_h = math.inf
        u = rng.random()
        accept = d_h <= 0.0 or u < math.exp(-d_h)
        x = z if accept else z0.flip_momentum()
        accepted += accept
        samples[i] = x.q
    return x, accepted, incidents, samples


_HMC_CASES = {
    # name: (problem, dt, L, jitter, q0)
    "L1": (problems.standard_gaussian(3), 0.3, 1, 0.0, [0.5, -1.0, 2.0]),
    "L3": (problems.standard_gaussian(3), 0.3, 3, 0.0, [0.5, -1.0, 2.0]),
    "L1-jitter": (problems.standard_gaussian(3), 0.3, 1, 0.5, [0.5, -1.0, 2.0]),
    "L3-jitter": (problems.standard_gaussian(3), 0.3, 3, 0.5, [0.5, -1.0, 2.0]),
    "rejections": (problems.standard_gaussian(3), 1.9, 3, 0.0, [0.5, -1.0, 2.0]),
    "banana": (problems.banana(), 0.4, 3, 0.5, [1.0, 0.5]),
    "divergent-flights": (_steep(), 1.0, 3, 0.5, [0.5, -0.3]),
    "overflowing-energy": (_exp_well(), 1.0, 3, 0.0, [0.2]),
}


def _hmc_metrics(d):
    """The identity, a scaled identity (both multiply by a scalar inside
    KineticMetric) and, for d > 1, a non-diagonal SPD metric (dense)."""
    metrics = {"identity": KineticMetric.identity(d),
               "scaled": KineticMetric.scaled_identity(d, 3.0)}
    if d > 1:
        metrics["spd"] = KineticMetric(np.eye(d) + 0.4 * np.ones((d, d))
                                       + 0.1 * np.diag(np.arange(d)))
    return metrics


def assert_same_chain(a, b):
    assert np.array_equal(a.x.q, b.x.q) and np.array_equal(a.x.p, b.x.p)
    assert (a.steps, a.accepted, a.incidents) == (b.steps, b.accepted, b.incidents)


class TestHmcTransition:
    """hmc_draw against a reference loop, and the evaluations of each draw."""

    @pytest.mark.parametrize("case", sorted(_HMC_CASES))
    def test_matches_reference_loop(self, case):
        prob, dt, L, jitter, q0 = _HMC_CASES[case]
        q0 = np.array(q0)
        n = 150
        for name, g in _hmc_metrics(prob.dim).items():
            with np.errstate(over="ignore", invalid="ignore"):
                chain, samples = run_hmc_chain(prob, g, dt, L, n,
                                               np.random.default_rng(11),
                                               q0=q0, jitter=jitter)
                x, accepted, incidents, ref = _reference_chain(
                    prob, g, dt, L, n, np.random.default_rng(11), q0, jitter)
            assert np.array_equal(samples, ref), name
            assert np.array_equal(chain.x.q, x.q)
            assert np.array_equal(chain.x.p, x.p)
            assert (chain.steps, chain.accepted, chain.incidents) == (n, accepted, incidents)
            if name != "identity":
                continue
            if case == "rejections":
                assert 0 < accepted < n // 2
            if case in ("divergent-flights", "overflowing-energy"):
                assert incidents > 0 and accepted > 0

    @pytest.mark.parametrize("case", ["banana", "rejections", "divergent-flights",
                                      "overflowing-energy"])
    def test_chain_equals_chained_draws(self, case):
        prob, dt, L, jitter, q0 = _HMC_CASES[case]
        n = 120
        for g in _hmc_metrics(prob.dim).values():
            rng = np.random.default_rng(14)
            chain = ChainState.start(q0)
            with np.errstate(over="ignore", invalid="ignore"):
                run, samples = run_hmc_chain(prob, g, dt, L, n,
                                             np.random.default_rng(14),
                                             q0=q0, jitter=jitter)
                for i in range(n):
                    chain = hmc_draw(chain, prob, g, dt, L, rng, jitter=jitter)
                    assert np.array_equal(samples[i], chain.x.q)
            assert_same_chain(run, chain)
        assert 0 < chain.accepted < n

    @pytest.mark.parametrize("n_draws", [10, 200])
    def test_chain_work_counts(self, count_calls, n_draws):
        prob, L = problems.standard_gaussian(5), 4
        grads = count_calls(Problem, "grad")
        values = count_calls(Problem, "value")
        fused = count_calls(Problem, "value_and_grad")
        points = count_calls(PhasePoint, "__post_init__")
        states = count_calls(ChainState, "__post_init__")
        chain, _ = run_hmc_chain(prob, KineticMetric.identity(5), 0.3, L,
                                 n_draws, np.random.default_rng(15), q0=np.ones(5))
        assert 0 < chain.accepted and chain.incidents == 0
        # the start and each flight's end: V and grad V from one fused call
        assert len(fused) == n_draws + 1
        assert len(grads) == n_draws * (L - 1)
        assert values == []
        assert len(points) <= 2 and len(states) <= 2

    @pytest.mark.parametrize("keep_samples", [True, False])
    def test_negative_draw_count(self, keep_samples):
        with pytest.raises(DomainError, match="n_draws"):
            run_hmc_chain(problems.standard_gaussian(2), KineticMetric.identity(2),
                          0.1, 3, -1, np.random.default_rng(0),
                          keep_samples=keep_samples)

    def test_chain_checks_arguments(self):
        prob, g = problems.standard_gaussian(2), KineticMetric.identity(2)
        with pytest.raises(DomainError, match="dimension mismatch"):
            run_hmc_chain(prob, g, 0.1, 3, 5, np.random.default_rng(0), q0=np.zeros(3))
        with pytest.raises(DomainError, match="L must be"):
            run_hmc_chain(prob, g, 0.1, 0, 5, np.random.default_rng(0))
        with pytest.raises(DomainError, match="jitter"):
            run_hmc_chain(prob, g, 0.1, 3, 5, np.random.default_rng(0), jitter=1.5)
        with pytest.raises(DomainError, match="non-finite"):
            run_hmc_chain(prob, g, 0.1, 3, 5, np.random.default_rng(0),
                          q0=[0.0, math.nan])

    def test_gradient_and_value_calls_per_draw(self):
        calls = {"grad": 0, "value": 0}
        base = problems.standard_gaussian(4)

        def value(q):
            calls["value"] += 1
            return base.value(q)

        def grad(q):
            calls["grad"] += 1
            return base.grad(q)

        prob = Problem(4, value=value, grad=grad)
        g = KineticMetric.identity(4)
        rng = np.random.default_rng(12)
        L = 5
        chain = ChainState.start(np.ones(4))
        for _ in range(41):   # each draw evaluates V and grad V at its start
            calls.update(grad=0, value=0)
            chain = hmc_draw(chain, prob, g, 1.9, L, rng)
            assert calls == {"grad": L + 1, "value": 2}
        assert 0 < chain.accepted < chain.steps   # both branches were taken

    def test_fused_calls_per_draw(self, counting_problem):
        # V and grad V at the start and at each flight's end from one call;
        # the adapter's separate calls give the same chain, bit for bit
        base, g, L = problems.standard_gaussian(4), KineticMetric.identity(4), 5
        prob, calls = counting_problem(base)
        plain, _ = counting_problem(base, fused=False)
        rng, plain_rng = np.random.default_rng(12), np.random.default_rng(12)
        chain = ref = ChainState.start(np.ones(4))
        for _ in range(41):
            calls.clear()
            chain = hmc_draw(chain, prob, g, 1.9, L, rng)
            ref = hmc_draw(ref, plain, g, 1.9, L, plain_rng)
            assert calls == {"value_and_grad": 2, "grad": L - 1}
            assert_same_chain(chain, ref)
        assert 0 < chain.accepted < chain.steps

    def test_dimension_mismatch(self):
        chain = ChainState.start(np.zeros(2))
        with pytest.raises(DomainError, match="dimension mismatch"):
            hmc_draw(chain, problems.standard_gaussian(3),
                     KineticMetric.identity(2), 0.1, 3, np.random.default_rng(0))
        with pytest.raises(DomainError, match="dimension mismatch"):
            hmc_draw(chain, problems.standard_gaussian(2),
                     KineticMetric.identity(3), 0.1, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("entry", ["hmc_draw", "leapfrog_trajectory",
                                       "run_hmc_chain"])
    @pytest.mark.filterwarnings("error")
    def test_step_size_refused(self, entry, dt):
        # dt = 0 used to give acceptance 1.0 from a chain that never moved,
        # and NaN or inf one incident per draw with a RuntimeWarning
        prob, g = problems.quadratic(1), KineticMetric.identity(1)
        rng = np.random.default_rng(0)
        calls = {"hmc_draw": lambda: hmc_draw(ChainState.start(np.zeros(1)),
                                              prob, g, dt, 3, rng),
                 "leapfrog_trajectory": lambda: leapfrog_trajectory(
                     PhasePoint([1.0], [0.0]), prob, g, dt, 3),
                 "run_hmc_chain": lambda: run_hmc_chain(prob, g, dt, 3, 50, rng)}
        with pytest.raises(DomainError, match="dt"):
            calls[entry]()

    def test_needs_a_leapfrog_step(self):
        with pytest.raises(DomainError, match="L must be"):
            hmc_draw(ChainState.start(np.zeros(1)), problems.quadratic(1),
                     KineticMetric.identity(1), 0.1, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("L", [2.5, True])
    @pytest.mark.parametrize("entry", ["hmc_draw", "leapfrog_trajectory",
                                       "run_hmc_chain"])
    def test_leapfrog_count_refused(self, entry, L):
        # L = 2.5 used to end in an untyped TypeError from range(), and
        # L = True ran as one leapfrog step
        prob, g = problems.quadratic(1), KineticMetric.identity(1)
        rng = np.random.default_rng(0)
        calls = {"hmc_draw": lambda: hmc_draw(ChainState.start(np.zeros(1)),
                                              prob, g, 0.1, L, rng),
                 "leapfrog_trajectory": lambda: leapfrog_trajectory(
                     PhasePoint([1.0], [0.0]), prob, g, 0.1, L),
                 "run_hmc_chain": lambda: run_hmc_chain(prob, g, 0.1, L, 50, rng)}
        with pytest.raises(DomainError, match="L must be an integer"):
            calls[entry]()

    @pytest.mark.parametrize("n_draws", [2.5, True])
    def test_draw_count_refused(self, n_draws):
        # both used to end in an untyped TypeError from numpy
        with pytest.raises(DomainError, match="n_draws must be an integer"):
            run_hmc_chain(problems.quadratic(1), KineticMetric.identity(1), 0.1,
                          3, n_draws, np.random.default_rng(0))

    def test_numpy_integer_counts_accepted(self):
        prob, g = problems.quadratic(1), KineticMetric.identity(1)
        chain, samples = run_hmc_chain(prob, g, 0.1, np.int64(3), np.int64(5),
                                       np.random.default_rng(0))
        assert chain.steps == 5 and samples.shape == (5, 1)
        assert hmc_draw(chain, prob, g, 0.1, np.int64(3),
                        np.random.default_rng(0)).steps == 6
        leapfrog_trajectory(PhasePoint([1.0], [0.0]), prob, g, 0.1, np.int64(3))


class TestLangevin:
    def test_em_noise_free_is_gradient_flow(self):
        prob = problems.quadratic(3)
        q = np.array([1.0, 2.0, -3.0])
        a = overdamped_em_step(q, prob, 0.2, math.inf, np.random.default_rng(0))
        b = gradient_flow_step(q, 0.2, prob)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("beta", [1.0, math.inf])
    @pytest.mark.filterwarnings("error")
    def test_em_step_size_refused(self, dt, beta):
        # dt = -0.1 used to raise an untyped math domain error, and dt = 0
        # returned q unchanged
        with pytest.raises(DomainError, match="dt"):
            overdamped_em_step(np.ones(2), problems.quadratic(2), dt, beta,
                               np.random.default_rng(0))

    def test_em_stationary_variance_bias(self):
        prob = problems.standard_gaussian(1000)
        rng = np.random.default_rng(2)
        dt = 0.5
        q = np.zeros(1000)
        acc, count = 0.0, 0
        for k in range(400):
            q = overdamped_em_step(q, prob, dt, 1.0, rng)
            if k >= 100:
                acc += float(q @ q) / 1000
                count += 1
        assert acc / count == pytest.approx(1.0 / (1.0 - dt / 2.0), rel=0.02)


class TestCompleteRecipe:
    def test_pure_reversible(self):
        prob = problems.standard_gaussian(2)
        spec = DiffusionSpec(s_field=lambda x: np.eye(2),
                             a_field=lambda x: np.zeros((2, 2)),
                             divergence=lambda x: np.zeros(2))
        x = np.array([0.7, -0.2])
        assert np.allclose(complete_recipe_drift(x, prob, spec),
                           -prob.grad(x), atol=1e-14)

    def test_constant_irreversible(self):
        prob = problems.standard_gaussian(2)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        spec = DiffusionSpec(s_field=lambda x: np.zeros((2, 2)),
                             a_field=lambda x: a)
        x = np.array([0.5, 1.5])
        assert np.allclose(complete_recipe_drift(x, prob, spec),
                           -a @ prob.grad(x), atol=1e-10)

    def test_state_dependent_divergence(self):
        prob = problems.standard_gaussian(2)
        s_field = lambda x: np.diag([1.0 + x[0] ** 2, 1.0])
        analytic_div = lambda x: np.array([2.0 * x[0], 0.0])
        spec_fd = DiffusionSpec(s_field=s_field,
                                a_field=lambda x: np.zeros((2, 2)))
        spec_an = DiffusionSpec(s_field=s_field,
                                a_field=lambda x: np.zeros((2, 2)),
                                divergence=analytic_div)
        x = np.array([0.8, -0.3])
        drift_fd = complete_recipe_drift(x, prob, spec_fd)
        drift_an = complete_recipe_drift(x, prob, spec_an)
        assert np.max(np.abs(drift_fd - drift_an)) < 1e-8
        expected = analytic_div(x) - s_field(x) @ x
        assert np.allclose(drift_an, expected, atol=1e-12)

    def test_invariant_violations(self):
        prob = problems.standard_gaussian(2)
        bad_s = DiffusionSpec(s_field=lambda x: np.array([[1.0, 1.0], [0.0, 1.0]]),
                              a_field=lambda x: np.zeros((2, 2)))
        with pytest.raises(DomainError):
            complete_recipe_drift(np.zeros(2), prob, bad_s)
        bad_a = DiffusionSpec(s_field=lambda x: np.eye(2),
                              a_field=lambda x: np.eye(2))
        with pytest.raises(DomainError):
            complete_recipe_drift(np.zeros(2), prob, bad_a)
        neg_s = DiffusionSpec(s_field=lambda x: -np.eye(2),
                              a_field=lambda x: np.zeros((2, 2)))
        with pytest.raises(DomainError):
            complete_recipe_drift(np.zeros(2), prob, neg_s)

    @pytest.mark.parametrize("name, field", [
        ("S", [[1.0, math.nan], [math.nan, 1.0]]),
        ("A", [[0.0, math.inf], [-math.inf, 0.0]]),
        ("A", [[0.0, -math.inf], [math.inf, 0.0]])])
    def test_nonfinite_field_refused(self, name, field, recwarn):
        # symmetric and antisymmetric as far as a > test sees, which a NaN
        # fails: S(x) used to give the drift a NaN entry, and A(x) a NaN
        # drift with RuntimeWarnings
        fields = {"S": np.eye(2), "A": np.zeros((2, 2)), name: np.array(field)}
        with pytest.raises(DomainError, match=rf"^{name}\(x\) is non-finite"):
            complete_recipe_drift(np.zeros(2), problems.standard_gaussian(2),
                                  DiffusionSpec(lambda x: fields["S"],
                                                lambda x: fields["A"]))
        assert not recwarn.list

    @pytest.mark.parametrize("dim", [1, 2, 5, 12])
    def test_fd_divergence_matches_coordinate_loop(self, dim):
        rng = np.random.default_rng(dim)
        c = rng.standard_normal((dim, dim))

        def s_field(x):
            t = np.tanh(x)
            return np.eye(dim) + np.outer(t, t)

        def a_field(x):
            m = np.outer(np.sin(x), c @ x)
            return m - m.T

        spec = DiffusionSpec(s_field, a_field)
        for _ in range(3):
            x = rng.standard_normal(dim)
            ref = np.zeros(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = _FD_STEP
                dm = (spec.total(x + e) - spec.total(x - e)) / (2.0 * _FD_STEP)
                ref += dm[:, j]
            assert np.array_equal(spec.div_total(x), ref)

    def test_irreversible_preserves_gaussian_moments(self):
        # EM simulation of the full recipe with A != 0, initialised at the
        # target, keeps moments near target values
        prob = problems.standard_gaussian(2)
        a = np.array([[0.0, 0.8], [-0.8, 0.0]])
        spec = DiffusionSpec(s_field=lambda x: np.eye(2),
                             a_field=lambda x: a,
                             divergence=lambda x: np.zeros(2))
        rng = np.random.default_rng(3)
        n_chains, n_steps, dt = 300, 150, 1e-2
        xs = rng.standard_normal((n_chains, 2))
        for _ in range(n_steps):
            noise = rng.standard_normal((n_chains, 2))
            for i in range(n_chains):
                xs[i] = (xs[i] + dt * complete_recipe_drift(xs[i], prob, spec)
                         + math.sqrt(2 * dt) * noise[i])
        se = 1.0 / math.sqrt(n_chains)
        assert np.max(np.abs(xs.mean(axis=0))) < 4 * se
        assert np.max(np.abs(xs.var(axis=0) - 1.0)) < 4 * math.sqrt(2.0 / n_chains) + 0.05


class TestMcmcEstimate:
    def test_constant(self):
        mean, se = mcmc_estimate(np.zeros(200), lambda x: 3.0)
        assert mean == 3.0
        assert se == 0.0

    def test_clt(self):
        draws = np.random.default_rng(4).standard_normal(5000)
        mean, se = mcmc_estimate(draws, lambda x: float(x[0]))
        assert abs(mean) < 4 * se

    def test_second_moment(self):
        draws = np.random.default_rng(5).standard_normal(5000)
        mean, _ = mcmc_estimate(draws, lambda x: float(x[0]) ** 2)
        assert mean == pytest.approx(1.0, abs=0.1)

    def test_too_few(self):
        with pytest.raises(DomainError):
            mcmc_estimate(np.zeros(50), lambda x: 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_f_refused(self, bad, recwarn):
        # used to return (nan, nan) or (inf, nan) with a RuntimeWarning
        draws = np.arange(200.0)
        with pytest.raises(DomainError, match="non-finite at row 7$"):
            mcmc_estimate(draws, lambda x: bad if x[0] in (7.0, 9.0) else 1.0)
        assert not recwarn.list


class TestSamplesCsv:
    def test_format(self):
        samples = np.array([[1.0, 2.0], [3.0, 4.0]])
        buf = io.StringIO()
        write_samples_csv(buf, samples, chain_id=7)
        assert buf.getvalue().splitlines() == [
            "chain,step,q_1,q_2",
            "7,0,1.00000000000000000e+00,2.00000000000000000e+00",
            "7,1,3.00000000000000000e+00,4.00000000000000000e+00"]
