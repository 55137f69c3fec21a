"""Samplers: HMC with Metropolis correction, the overdamped Langevin
(Euler-Maruyama) step, recipe drift.

An HMC chain steps raw arrays (`_hmc_transition`); validated `PhasePoint` and
`ChainState` objects exist only at its edges.  `run_hmc_chain` carries V and
grad V from draw to draw; `hmc_draw`, the same step, evaluates them afresh.
Every random draw comes from the `rng` argument, a numpy Generator such as
`np.random.default_rng(seed)`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PhasePoint, _all_finite, _as_samples, _central_diffs,
                   _check_count, _check_dims, _check_positive, _rows)
from .errors import DivergenceError, DomainError
from .integrators import _write_csv, gradient_flow_step

__all__ = [
    "ChainState",
    "DiffusionSpec",
    "hmc_draw",
    "leapfrog_trajectory",
    "overdamped_em_step",
    "complete_recipe_drift",
    "mcmc_estimate",
    "run_hmc_chain",
    "write_samples_csv",
]


@dataclass(frozen=True)
class ChainState:
    """Current phase point with its step, acceptance and incident tallies.
    No moments: estimates come from the draws (the samples of
    `run_hmc_chain`, `mcmc_estimate`)."""

    x: PhasePoint
    steps: int = 0
    accepted: int = 0
    incidents: int = 0          # non-finite energy differences seen

    def __post_init__(self):
        if self.accepted > self.steps:
            raise DomainError("acceptance tally cannot exceed step count")

    @classmethod
    def start(cls, q):
        q = np.atleast_1d(np.asarray(q, float))
        return cls(PhasePoint(q, np.zeros_like(q)))

    @property
    def acceptance_rate(self):
        return self.accepted / self.steps if self.steps else 0.0


def _leapfrog(q, p, grad, prob, g, dt, L, at_end):
    """L leapfrog steps from (q, p) given grad = grad V(q).

    The gradient at q_L comes from `at_end(q_L)`, which returns (V(q_L) or
    None, grad V(q_L)).  Returns (q_L, p_L, V(q_L) or None, grad V(q_L));
    raises DivergenceError at the first non-finite position, before any
    evaluation there, or at a non-finite final momentum.
    """
    inv_mul, grad_v = g.inv_mul, prob.grad
    p = p - 0.5 * dt * grad
    for i in range(L):
        if i:
            grad = grad_v(q)
            p = p - dt * grad
        q = q + dt * inv_mul(p)
        if not _all_finite(q):
            raise DivergenceError("leapfrog position diverged", step=i)
    v, grad = at_end(q)
    p = p - 0.5 * dt * grad
    if not _all_finite(p):
        raise DivergenceError("leapfrog momentum diverged", step=L - 1)
    return q, p, v, grad


def leapfrog_trajectory(x, prob, g, dt, L):
    """L leapfrog steps (half kick / full drift / half kick) for
    H = (1/2) p^T g^{-1} p + V(q); V itself is never evaluated."""
    _check_hmc(x.q, prob, g, dt, L, 0.0)
    q, p, _, _ = _leapfrog(x.q, x.p, prob.grad(x.q), prob, g, dt, L,
                           lambda q: (None, prob.grad(q)))
    return PhasePoint(q, p)


def _check_hmc(q, prob, g, dt, L, jitter):
    _check_positive("step size dt", dt)
    if not 0.0 <= jitter <= 1.0:
        raise DomainError("jitter must lie in [0, 1]")
    _check_count("L", L, 1)
    _check_dims(q.size, g, prob)


def _hmc_transition(q, v0, grad0, prob, g, dt, L, rng, jitter):
    """`hmc_draw` on raw arrays from position q with V(q), grad V(q) (None:
    evaluate them).  Returns (q, p, V, grad V, accepted, incident) of the
    new state; arguments are not checked.  V and grad V at q (when not
    given) and at the flight's end each come from one fused call."""
    p = g.sample_momentum(rng)
    l_min = max(1, math.ceil((1.0 - jitter) * L))
    l_run = int(rng.integers(l_min, L + 1)) if l_min < L else L
    try:
        if grad0 is None:
            v0, grad0 = prob.value_and_grad(q)
        q1, p1, v1, grad1 = _leapfrog(q, p, grad0, prob, g, dt, l_run,
                                      prob.value_and_grad)
        # H = (1/2) p^T g^{-1} p + V, as evaluate_hamiltonian forms it; a
        # non-finite term makes d_h non-finite.
        d_h = (0.5 * g.quad_inv(p1) + v1) - (0.5 * g.quad_inv(p) + v0)
    except (DivergenceError, ArithmeticError):
        d_h = math.inf
    incident = not math.isfinite(d_h)   # counts as a rejection
    u = rng.random()
    if not incident and (d_h <= 0.0 or u < math.exp(-d_h)):
        return q1, p1, v1, grad1, True, incident
    return q, -p, v0, grad0, False, incident


def hmc_draw(chain, prob, g, dt, L, rng, jitter=0.0):
    """One HMC transition: momentum refresh, leapfrog flight, Metropolis test.

    The refreshed momentum is p ~ N(0, g) (equivalently velocity g^{-1} p ~
    N(0, g^{-1})), drawn through the cached Cholesky factor.  With jitter in
    (0, 1] the number of leapfrog steps is uniform on
    [ceil((1-jitter) L), L].  A non-finite energy difference counts as a
    rejection and increments the incident counter.  On rejection the stored
    state keeps the position with the refreshed momentum flipped.

    V and grad V at the current position and at the flight's end each come
    from one `prob.value_and_grad` call, so a draw of L steps calls
    value_and_grad twice and grad L - 1 times.  `run_hmc_chain` carries them
    from one draw to the next instead.
    """
    _check_hmc(chain.x.q, prob, g, dt, L, jitter)
    q, p, _, _, accepted, incident = _hmc_transition(
        chain.x.q, None, None, prob, g, dt, L, rng, jitter)
    return ChainState(PhasePoint(q, p), chain.steps + 1, chain.accepted + accepted,
                      chain.incidents + incident)


def overdamped_em_step(q, prob, dt, beta, rng):
    """Euler-Maruyama step q - dt grad V(q) + sqrt(2 dt / beta) xi."""
    if not beta > 0:
        raise DomainError("inverse temperature beta must be positive")
    _check_positive("step size dt", dt)
    if math.isinf(beta):
        return gradient_flow_step(np.asarray(q, float), dt, prob)
    q = np.asarray(q, float)
    q_new = q - dt * prob.grad(q) + math.sqrt(2.0 * dt / beta) * rng.standard_normal(q.size)
    if not np.isfinite(q_new).all():
        raise DivergenceError("Euler-Maruyama step diverged")
    return q_new


_FD_STEP = 1e-5   # DiffusionSpec's central-difference step, without a divergence


@dataclass
class DiffusionSpec:
    """Matrix fields S (symmetric PSD) and A (antisymmetric) of a
    target-preserving diffusion, plus how to take their divergence."""

    s_field: callable
    a_field: callable
    divergence: callable = None   # analytic x -> vector div(A + S), row-wise

    def validate_at(self, x):
        s = np.asarray(self.s_field(x), float)
        a = np.asarray(self.a_field(x), float)
        for name, field in (("S(x)", s), ("A(x)", a)):   # NaN passes a >
            if not _all_finite(field):
                raise DomainError(f"{name} is non-finite at the sampled point")
        if np.max(np.abs(s - s.T)) > 1e-12:
            raise DomainError("S(x) is not symmetric at the sampled point")
        if np.max(np.abs(a + a.T)) > 1e-12:
            raise DomainError("A(x) is not antisymmetric at the sampled point")
        if np.min(np.linalg.eigvalsh(s)) < -1e-12:
            raise DomainError("S(x) has a negative eigenvalue at the sampled point")
        return s, a

    def total(self, x):
        return np.asarray(self.s_field(x), float) + np.asarray(self.a_field(x), float)

    def div_total(self, x):
        """(div M)_i = sum_j dM_ij/dx_j for M = A + S."""
        if self.divergence is not None:
            return np.asarray(self.divergence(x), float)
        dm = _central_diffs(self.total, np.asarray(x, float), _FD_STEP)
        return np.trace(dm, axis1=0, axis2=2)   # dm[j] = dM/dx_j


def complete_recipe_drift(x, prob, spec):
    """Drift of the general target-preserving diffusion:
    -(A + S) grad V + div(A + S), divergence row-wise."""
    x = np.atleast_1d(np.asarray(x, float))
    s, a = spec.validate_at(x)
    return -(a + s) @ prob.grad(x) + spec.div_total(x)


def mcmc_estimate(samples, f):
    """Sample mean of f with a batch-means standard error.

    Uses floor(sqrt(n)) batches; requires at least 100 samples, and f
    finite at each of them.
    """
    samples = _as_samples(samples)
    n = samples.shape[0]
    if n < 100:
        raise DomainError(f"mcmc_estimate needs >= 100 samples, got {n}")
    fs = _rows(f, samples).reshape(n)
    if not _all_finite(fs):
        raise DomainError(f"f is non-finite at row "
                          f"{np.flatnonzero(~np.isfinite(fs))[0]}")
    mean = float(fs.mean())
    n_batches = int(math.floor(math.sqrt(n)))
    batch_size = n // n_batches
    used = n_batches * batch_size
    batch_means = fs[:used].reshape(n_batches, batch_size).mean(axis=1)
    stderr = float(batch_means.std(ddof=1) / math.sqrt(n_batches))
    return mean, stderr


def run_hmc_chain(prob, g, dt, L, n_draws, rng, q0=None, jitter=0.0,
                  keep_samples=True):
    """Drive a single HMC chain, draw for draw as chained `hmc_draw` calls;
    returns (final ChainState, samples array).  Estimates come from the
    samples, one row per draw (None unless keep_samples)."""
    _check_count("n_draws", n_draws, 0)
    x = ChainState.start(np.zeros(prob.dim) if q0 is None else q0).x
    _check_hmc(x.q, prob, g, dt, L, jitter)
    q, p, v, grad, accepted, incidents = x.q, x.p, None, None, 0, 0
    samples = np.empty((n_draws, prob.dim)) if keep_samples else None
    for i in range(n_draws):
        q, p, v, grad, acc, inc = _hmc_transition(q, v, grad, prob, g, dt, L,
                                                  rng, jitter)
        accepted, incidents = accepted + acc, incidents + inc
        if keep_samples:
            samples[i] = q
    return ChainState(PhasePoint(q, p), n_draws, accepted, incidents), samples


def write_samples_csv(path_or_file, samples, chain_id=0):
    """CSV dump: chain,step,q_1..q_d, one row per sample."""
    samples = _as_samples(samples)
    n, d = samples.shape
    return _write_csv(path_or_file,
                      ",".join(["chain", "step"] + [f"q_{i + 1}" for i in range(d)]),
                      ["%d"] * 2 + ["%.17e"] * d,
                      [np.full(n, chain_id), np.arange(n), *samples.T])
