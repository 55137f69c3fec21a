"""Phase-space primitives: states, kinetic metrics, damping schedules, objectives.

Everything here is immutable after construction; the operations at the
bottom are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericOverflowError

__all__ = [
    "PhasePoint",
    "KineticMetric",
    "DampingSchedule",
    "Problem",
    "evaluate_hamiltonian",
]


def _vector(x, name):
    """A frozen float copy of x; the caller's array stays writeable."""
    arr = np.array(x, dtype=float, ndmin=1)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size < 1:
        raise DomainError(f"{name} must have length >= 1")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _as_samples(x):
    """x as an (n, d) float array; a 1-d x is n points in one dimension."""
    arr = np.asarray(x, float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DomainError(f"samples must be (n, d) arrays, got shape {arr.shape}")
    return arr


def _rows(f, x_arr):
    """f at each row of x_arr, stacked along a new first axis: the one loop
    over the points of a batch, which adapts a per-point callable where no
    row-wise form is given."""
    return np.asarray([f(row) for row in x_arr], float)


def _central_diffs(f, x, h):
    """(f(x + h_j e_j) - f(x - h_j e_j)) / (2 h_j) for each coordinate j,
    stacked along a new first axis; h is a scalar or one step per coordinate."""
    steps = np.diag(np.broadcast_to(np.asarray(h, float), x.shape))
    diffs = _rows(f, x + steps) - _rows(f, x - steps)
    # .T moves the coordinate axis last, where the steps broadcast
    return (diffs.T / (2.0 * steps.diagonal())).T


def _check_positive(name, x):
    """DomainError naming `name` unless x is finite and > 0."""
    if not 0 < x < math.inf:   # NaN fails too
        raise DomainError(f"{name} must be finite and > 0, got {x!r}")


def _check_count(name, n, least):
    """DomainError naming `name` unless n is an integer (not a bool) >= least."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < least:
        raise DomainError(f"{name} must be an integer, {name} >= {least}; "
                          f"got {n!r}")


def _all_finite(x):
    """np.isfinite(x).all(), scanning x only when its sum of squares (finite iff
    every entry is, or it overflowed) reads non-finite.  np.vdot forms that
    sum silently; x.dot(x) warns when it overflows."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


@dataclass(frozen=True)
class PhasePoint:
    """Position/momentum pair (q, p) in flat phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _vector(self.q, "q"))
        object.__setattr__(self, "p", _vector(self.p, "p"))
        if self.q.shape != self.p.shape:
            raise DomainError(
                f"q and p must have identical length, got {self.q.size} and {self.p.size}"
            )

    @property
    def dim(self):
        return self.q.size

    def flip_momentum(self):
        return PhasePoint(self.q, -self.p)


class KineticMetric:
    """Constant symmetric positive-definite kinetic metric g.

    Caches the inverse and the Cholesky factor (g = L L^T); the factor is
    used for Gaussian momentum draws.  Positive-definiteness is certified at
    construction by the factorisation itself.  If g^{-1} and the factor are
    exact multiples of I, their products are scalings (bit-identical on finite
    p), and a scale of exactly 1.0 is skipped: x * 1.0 is x, bit for bit.
    """

    def __init__(self, g):
        g = np.asarray(g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DomainError(f"metric must be a square matrix, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise DomainError("metric contains non-finite entries")
        g = 0.5 * (g + g.T)  # exactly symmetric by construction
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise DomainError("metric is not positive definite") from exc
        # inv(L)^T inv(L) gives cho_solve's bits when L is diagonal
        inv_chol = np.linalg.inv(chol)
        g_inv = inv_chol.T @ inv_chol
        g_inv = 0.5 * (g_inv + g_inv.T)
        defect = np.max(np.abs(g @ g_inv - np.eye(g.shape[0])))
        if defect > 1e-10:
            raise DomainError(
                f"metric too ill-conditioned: |g g_inv - I| = {defect:.3e} > 1e-10"
            )
        self.g = g
        self.g_inv = g_inv
        self.chol = chol
        scaled = all(np.array_equal(a, a[0, 0] * np.eye(len(a))) for a in (g_inv, chol))
        self._scale = float(g_inv[0, 0]) if scaled else None
        self._chol_scale = float(chol[0, 0]) if scaled else None
        for a in (self.g, self.g_inv, self.chol):
            a.flags.writeable = False

    @classmethod
    def identity(cls, d):
        return cls(np.eye(d))

    @classmethod
    def scaled_identity(cls, d, c):
        if c <= 0:
            raise DomainError("metric scale must be positive")
        return cls(c * np.eye(d))

    @property
    def dim(self):
        return self.g.shape[0]

    def inv_mul(self, p):
        """g^{-1} p.  For g = I this is p itself, not a copy: do not write
        into the result."""
        s = self._scale
        if s is None:
            return self.g_inv.dot(p)
        return p if s == 1.0 else s * p

    def quad_inv(self, p):
        """p^T g^{-1} p."""
        s = self._scale
        if s is None:
            return float(p.dot(self.g_inv).dot(p))
        return float((p if s == 1.0 else s * p).dot(p))

    def sample_momentum(self, rng):
        """Draw p ~ N(0, g), i.e. velocity g^{-1} p ~ N(0, g^{-1})."""
        z = rng.standard_normal(self.dim)
        c = self._chol_scale
        if c is None:
            return self.chol.dot(z)
        return z if c == 1.0 else c * z


@dataclass(frozen=True)
class DampingSchedule:
    """Damping coefficient gamma(t) with exact closed-form integrals.

    Supported kinds: 'constant' (gamma(t) = gamma), 'vanishing'
    (gamma(t) = r/t, defined for t >= t0 > 0) and 'zero'.
    """

    kind: str
    gamma: float = 0.0
    r: float = 3.0
    t0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "vanishing", "zero"):
            raise DomainError(f"unknown damping kind {self.kind!r}")
        fields = {"constant": ("gamma",), "vanishing": ("r", "t0")}
        for name in fields.get(self.kind, ()):
            _check_positive(f"{self.kind} damping {name}", getattr(self, name))

    @classmethod
    def constant(cls, gamma):
        return cls(kind="constant", gamma=float(gamma))

    @classmethod
    def vanishing(cls, r=3.0, t0=1.0):
        return cls(kind="vanishing", r=float(r), t0=float(t0))

    @classmethod
    def zero(cls):
        return cls(kind="zero")

    def start_time(self):
        """Earliest admissible time for this schedule."""
        return self.t0 if self.kind == "vanishing" else 0.0

    def delta_eta(self, t_a, t_b):
        """Exact integral of gamma over [t_a, t_b]."""
        if t_a > t_b:
            raise DomainError(f"delta_eta requires t_a <= t_b, got ({t_a}, {t_b})")
        if self.kind == "constant":
            return self.gamma * (t_b - t_a)
        if self.kind == "zero":
            return 0.0
        if t_a < self.t0:
            raise DomainError(f"vanishing schedule undefined at t={t_a} < t0={self.t0}")
        return self.r * math.log(t_b / t_a)


class Problem:
    """Differentiable objective f (doubling as negative log-density V) with its
    user-supplied gradient and, when known, its minimum f_star at q_star.

    `value_and_grad(q)`, optional, returns (f(q), grad f(q)) from one call,
    for the kick of every optimiser run (flat, SO(n) and RATTLE) and the end
    of an HMC flight, which need both at one point.  A problem that supplies
    it writes it with the expressions of `value` and `grad`, so that it
    returns the same bits; without it the method makes the two separate
    calls.

    `value`, `grad` and `value_and_grad` must be deterministic functions of
    q: an optimiser run that comes back to a state it was in replays the
    steps that followed it and stops calling them (`integrators._run_steps`).
    """

    def __init__(self, dim, value, grad, f_star=None, q_star=None, name="",
                 value_and_grad=None):
        _check_count("dim", dim, 1)
        self.dim = int(dim)
        self._value = value
        self._grad = grad
        self._value_and_grad = value_and_grad
        self.f_star = None if f_star is None else float(f_star)
        self.q_star = None if q_star is None else np.array(q_star, float)
        self.name = name

    def value(self, q):
        return float(self._value(np.asarray(q, float)))

    def grad(self, q):
        return np.asarray(self._grad(np.asarray(q, float)), float)

    def value_and_grad(self, q):
        """(f(q), grad f(q)), as `value` and `grad` return them."""
        if self._value_and_grad is None:
            return self.value(q), self.grad(q)
        f, g = self._value_and_grad(np.asarray(q, float))
        return float(f), np.asarray(g, float)


def _check_dims(dim, g, prob):
    """DomainError unless a state of length `dim`, metric g and problem agree."""
    if dim != g.dim or dim != prob.dim:
        raise DomainError(f"dimension mismatch: state {dim}, metric {g.dim}, "
                          f"problem {prob.dim}")


def evaluate_hamiltonian(x, g, prob):
    """H(q, p) = (1/2) p^T g^{-1} p + f(q)."""
    _check_dims(x.dim, g, prob)
    kinetic = 0.5 * g.quad_inv(x.p)
    potential = prob.value(x.q)
    if not math.isfinite(kinetic):
        raise NumericOverflowError("kinetic term (1/2) p^T g^{-1} p is non-finite")
    if not math.isfinite(potential):
        raise NumericOverflowError("potential term f(q) is non-finite")
    return kinetic + potential
