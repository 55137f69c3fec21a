"""Optimisation beyond flat space: SO(n) group steps and constrained RATTLE."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import PhasePoint, Problem
from .errors import ConstraintSolveError, DomainError, GeometryError
from .integrators import _conformal_step, _run_steps

__all__ = [
    "MatrixGroupState",
    "ConstraintSet",
    "lie_group_step",
    "rattle_step",
    "project_momentum",
    "skew_part",
    "trace_objective",
    "so_trace_minimum",
    "sphere_constraint",
    "run_lie_optimizer",
    "run_rattle_optimizer",
]

ORTHO_TOL = 1e-8
SKEW_TOL = 1e-10


def skew_part(m):
    """Antisymmetric part (m - m^T) / 2."""
    return 0.5 * (m - m.T)


@dataclass(frozen=True)
class MatrixGroupState:
    """Group element Q in SO(n) paired with algebra element P (skew)."""

    Q: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, float)
        P = np.asarray(self.P, float)
        if Q.shape != P.shape or Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DomainError("Q and P must be square matrices of equal shape")
        defect = np.linalg.norm(Q.T @ Q - np.eye(Q.shape[0]))
        if defect > ORTHO_TOL:
            raise GeometryError(f"Q is not orthogonal: ||Q^T Q - I||_F = {defect:.3e}")
        skew_defect = np.linalg.norm(P + P.T)
        if skew_defect > SKEW_TOL:
            raise GeometryError(f"P is not skew: ||P + P^T||_F = {skew_defect:.3e}")
        Q.flags.writeable = False
        P.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "P", P)

    @property
    def n(self):
        return self.Q.shape[0]

    def orthogonality_defect(self):
        return float(np.linalg.norm(self.Q.T @ self.Q - np.eye(self.n)))

    def flip_momentum(self):
        return MatrixGroupState(self.Q, -self.P)


def so_trace_minimum(C):
    """Closed-form minimum of Tr(C Q) over Q in SO(n).

    With C = U diag(sigma) V^T, Tr(C Q) = sum_i sigma_i d_i over sign choices
    d_i = +-1 subject to the determinant parity; the minimum flips every sign
    except, when parity forbids it, the one paired with the smallest sigma.
    """
    C = np.asarray(C, float)
    u, s, vt = np.linalg.svd(C)
    d = -np.ones(len(s))
    parity = np.linalg.det(u @ vt)  # +-1
    if parity * np.prod(d) < 0:
        d[-1] = 1.0  # smallest singular value absorbs the parity constraint
    q_star = vt.T @ np.diag(d) @ u.T
    return float(s @ d), q_star


def trace_objective(C):
    """f(Q) = Tr(C Q) over n x n matrices (dim n^2), with its certified
    minimum and minimiser over SO(n)."""
    C = np.asarray(C, float)
    f_star, q_star = so_trace_minimum(C)
    return Problem(C.size, value=lambda Q: np.trace(C @ Q), grad=lambda Q: C.T,
                   f_star=f_star, q_star=q_star, name="trace_objective")


def lie_group_step(st, t_k, dt, g_scalar, sched, prob, mode="skew_projection"):
    """One damped leapfrog step on SO(n) with exact exponential update.

    The drift is Q exp((dt cosh(De) / g_scalar) P_{k+1/2}) and the momentum
    map is skew_part.  skew_projection (default) uses the trivialised
    gradient skew(Q^T df/dQ); paper_literal applies the printed
    trace-weighted force verbatim (kept for fidelity testing only).
    """
    if mode not in ("skew_projection", "paper_literal"):
        raise DomainError(f"unknown lie step mode {mode!r}")
    if not g_scalar > 0:
        raise DomainError("g_scalar must be positive")
    if mode == "skew_projection":
        def kick(Q, P):
            return skew_part(Q.T @ prob.grad(Q))
    else:  # printed force Tr[d_Q f(Q) . Q . P] P_k, (d_Q f)_ij = df/dQ_ji
        def kick(Q, P):
            return float(np.trace(prob.grad(Q).T @ Q @ P)) * st.P

    Q, P = _conformal_step(
        st.Q, st.P, t_k, dt, sched, kick,
        drift=lambda Q, P, h, decay: (Q @ scipy.linalg.expm((h / g_scalar) * P), P),
        project=lambda Q, P: skew_part(P))
    return MatrixGroupState(Q, P)


class ConstraintSet:
    """Equality constraints psi_a(q) = 0 with Jacobian rows dpsi_a/dq."""

    def __init__(self, m, value, jacobian, newton_tol=1e-10, newton_max_iter=50):
        self.m = int(m)
        self._value = value
        self._jacobian = jacobian
        self.newton_tol = float(newton_tol)
        self.newton_max_iter = int(newton_max_iter)

    def value(self, q):
        if self.m == 0:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self._value(q), float))

    def jacobian(self, q):
        if self.m == 0:
            return np.zeros((0, q.size))
        jac = np.atleast_2d(np.asarray(self._jacobian(q), float))
        if jac.shape != (self.m, q.size):
            raise DomainError(
                f"jacobian must have shape ({self.m}, {q.size}), got {jac.shape}"
            )
        return jac

    @classmethod
    def unconstrained(cls):
        return cls(0, None, None)


def _sup_norm(v):  # max |v_i|; 0.0 for the empty residual of no constraints
    return float(np.max(np.abs(v), initial=0.0))


def sphere_constraint(radius=1.0, **kwargs):
    """psi(q) = ||q||^2 - radius^2."""
    return ConstraintSet(
        1,
        value=lambda q: np.array([float(q @ q) - radius * radius]),
        jacobian=lambda q: 2.0 * q[None, :],
        **kwargs,
    )


def project_momentum(q, p, g, cons):
    """Oblique projector L_g p with L_g = I - J^T R_g^{-1} J g^{-1}.

    L_g annihilates J g^{-1} (the constrained cotangent condition) and is
    idempotent.  A rank-deficient J or a non-finite R_g = J g^{-1} J^T raises
    GeometryError.  R_g is factored and solved with LAPACK potrf/potrs
    directly, the routines and flags scipy.linalg.cho_factor/cho_solve use.
    """
    if cons.m == 0:
        return np.array(p, float)
    jac = cons.jacobian(q)
    r_g = jac @ g.g_inv @ jac.T
    if not np.isfinite(r_g).all():
        raise GeometryError("R_g = J g^{-1} J^T is non-finite")
    factor, info = scipy.linalg.lapack.dpotrf(r_g, clean=0)
    if info != 0:
        raise GeometryError("constraint Jacobian is rank deficient "
                            f"(R_g not positive definite, potrf info {info})")
    lam, info = scipy.linalg.lapack.dpotrs(factor, jac @ g.inv_mul(p))
    if info != 0:
        raise GeometryError(f"R_g solve failed (potrs info {info})")
    return p - jac.T @ lam


def rattle_step(x, t_k, dt, g, sched, prob, cons):
    """One damped RATTLE step; returns (new state, Lagrange multipliers).

    The position update, the multiplier kick and the constraint equations are
    solved simultaneously: Newton iteration on lambda until
    psi(q_{k+1}(lambda)) = 0 within cons.newton_tol.  The momentum map is
    project_momentum; without constraints this is the flat damped leapfrog.
    """
    lam = np.zeros(cons.m)

    def drift(q, p_half, h, decay):
        nonlocal lam
        jac_k = cons.jacobian(q)
        base_q = q + h * g.inv_mul(p_half)
        # q(lambda) = base_q - kick_mat @ lambda
        kick_mat = h * (0.5 * dt * decay) * (g.g_inv @ jac_k.T)
        newton_mat = jac_k @ kick_mat   # frozen-Jacobian (quasi-)Newton
        q_new = base_q
        for _ in range(cons.newton_max_iter):
            res = cons.value(q_new)
            if _sup_norm(res) <= cons.newton_tol:
                return q_new, p_half - 0.5 * dt * decay * (jac_k.T @ lam)
            try:
                dlam = np.linalg.solve(newton_mat, res)
            except np.linalg.LinAlgError as exc:
                raise GeometryError("singular Newton system in RATTLE "
                                    "constraint solve") from exc
            lam = lam + dlam
            q_new = base_q - kick_mat @ lam
        raise ConstraintSolveError(
            f"Newton iteration did not reach tol {cons.newton_tol} in "
            f"{cons.newton_max_iter} iterations",
            residual=_sup_norm(cons.value(q_new)))

    q, p = _conformal_step(x.q, x.p, t_k, dt, sched,
                           lambda q, p: prob.grad(q), drift,
                           project=lambda q, p: project_momentum(q, p, g, cons))
    return PhasePoint(q, p), lam


def run_lie_optimizer(st, prob, dt, g_scalar, sched, num_steps,
                      mode="skew_projection", record_every=1,
                      target_gap=None):
    """Iterate lie_group_step; reports the orthogonality defect per record."""
    return _run_steps(
        st, lambda st, t: lie_group_step(st, t, dt, g_scalar, sched, prob, mode),
        lambda st: prob.value(st.Q), lambda st, f: st.orthogonality_defect(),
        sched.start_time(), dt, num_steps, prob.f_star,
        record_every=record_every, target_gap=target_gap,
        extra_name="orthogonality_defect")


def run_rattle_optimizer(x, prob, dt, g, sched, cons, num_steps,
                         record_every=1, target_gap=None):
    """Iterate rattle_step; reports the constraint residual per record."""
    return _run_steps(
        PhasePoint(x.q, project_momentum(x.q, x.p, g, cons)),
        lambda x, t_k: rattle_step(x, t_k, dt, g, sched, prob, cons)[0],
        lambda x: prob.value(x.q),
        lambda x, f: _sup_norm(cons.value(x.q)),
        sched.start_time(), dt, num_steps, prob.f_star,
        record_every=record_every, target_gap=target_gap,
        extra_name="constraint_residual")
