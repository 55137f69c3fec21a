"""Optimisation beyond flat space: SO(n) group steps and constrained RATTLE.

As in `integrators`, the run drivers step raw arrays and carry per-position
terms across steps: the Lie force skew(Q^T grad f) and ||Q^T Q - I|| (formed
once per step, to check the group and to record it); RATTLE's grad f, J, the
factor of R_g and the residual that ended the Newton solve.

Only this module uses scipy (expm, LAPACK's Cholesky), and `_linalg` imports
it on first use, so that `import hamkit` and the flat code never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhasePoint, Problem, _all_finite
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
_LIE_MODES = ("skew_projection", "paper_literal")


def _linalg():
    """scipy.linalg, imported on first call; look its routines up at each use."""
    import scipy.linalg
    return scipy.linalg


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
        _group_defect(Q, P)
        Q.flags.writeable = False
        P.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "P", P)

    def orthogonality_defect(self):
        """||Q^T Q - I||_F."""
        return _group_defect(self.Q, self.P)

    def flip_momentum(self):
        return MatrixGroupState(self.Q, -self.P)


def _group_defect(Q, P):
    """||Q^T Q - I||_F; GeometryError beyond ORTHO_TOL, or P not skew."""
    qtq = Q.T @ Q
    qtq.flat[::Q.shape[0] + 1] -= 1.0   # Q^T Q - I, without forming I
    defect = float(np.linalg.norm(qtq))
    if defect > ORTHO_TOL:
        raise GeometryError(f"Q is not orthogonal: ||Q^T Q - I||_F = {defect:.3e}")
    skew_defect = np.linalg.norm(P + P.T)
    if skew_defect > SKEW_TOL:
        raise GeometryError(f"P is not skew: ||P + P^T||_F = {skew_defect:.3e}")
    return defect


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


def _lie_step(Q, P, force, t_k, dt, g_scalar, sched, prob, mode):
    """`lie_group_step` on raw arrays; see `_conformal_step`."""
    if mode not in _LIE_MODES:
        raise DomainError(f"unknown lie step mode {mode!r}")
    if not g_scalar > 0:
        raise DomainError("g_scalar must be positive")
    if mode == "skew_projection":
        def kick(Q, P):
            return skew_part(Q.T @ prob.grad(Q))
    else:  # printed force Tr[d_Q f(Q) . Q . P] P_k, (d_Q f)_ij = df/dQ_ji
        P_k = P

        def kick(Q, P):
            return float(np.trace(prob.grad(Q).T @ Q @ P)) * P_k

    return _conformal_step(
        Q, P, force, t_k, dt, sched, kick,
        drift=lambda Q, P, h, decay: (Q @ _linalg().expm((h / g_scalar) * P), P),
        project=lambda Q, P: skew_part(P))


def lie_group_step(st, t_k, dt, g_scalar, sched, prob, mode="skew_projection"):
    """One damped leapfrog step on SO(n) with exact exponential update.

    The drift is Q exp((dt cosh(De) / g_scalar) P_{k+1/2}) and the momentum
    map is skew_part.  skew_projection (default) uses the trivialised
    gradient skew(Q^T df/dQ); paper_literal applies the printed
    trace-weighted force verbatim (kept for fidelity testing only).
    """
    Q, P, _ = _lie_step(st.Q, st.P, None, t_k, dt, g_scalar, sched, prob, mode)
    return MatrixGroupState(Q, P)


class ConstraintSet:
    """Equality constraints psi_a(q) = 0 with Jacobian rows dpsi_a/dq."""

    def __init__(self, m, value, jacobian, newton_tol=1e-10, newton_max_iter=50):
        self.m = int(m)
        self._value = value
        self._jacobian = jacobian
        self.newton_tol = float(newton_tol)
        self.newton_max_iter = int(newton_max_iter)
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise DomainError(f"newton_tol must be finite and > 0, got {newton_tol}")
        if self.newton_max_iter < 0 or self.newton_max_iter != newton_max_iter:
            raise DomainError(f"newton_max_iter must be an integer >= 0, "
                              f"got {newton_max_iter}")

    def value(self, q):
        if self.m == 0:
            return np.zeros(0)
        res = np.atleast_1d(np.asarray(self._value(q), float))
        if res.shape != (self.m,):
            raise DomainError(
                f"constraint value must have shape ({self.m},), got {res.shape}")
        return res

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
    return float(np.abs(v).max(initial=0.0))


def sphere_constraint(radius=1.0, **kwargs):
    """psi(q) = ||q||^2 - radius^2."""
    return ConstraintSet(
        1,
        value=lambda q: np.array([float(q @ q) - radius * radius]),
        jacobian=lambda q: 2.0 * q[None, :],
        **kwargs,
    )


def _projector(q, g, cons):
    """(J, potrf factor of R_g = J g^{-1} J^T) at q, which `_project` needs;
    the factor is None without constraints.  A rank-deficient J or a
    non-finite R_g raises GeometryError."""
    jac = cons.jacobian(q)
    if cons.m == 0:
        return jac, None
    r_g = jac @ g.g_inv @ jac.T
    if not _all_finite(r_g):
        raise GeometryError("R_g = J g^{-1} J^T is non-finite")
    factor, info = _linalg().lapack.dpotrf(r_g, clean=0)
    if info != 0:
        raise GeometryError("constraint Jacobian is rank deficient "
                            f"(R_g not positive definite, potrf info {info})")
    return jac, factor


def _project(p, jac, factor, g):
    """L_g p from `_projector`'s (J, factor) at the same position."""
    if factor is None:
        return np.array(p, float)
    lam, info = _linalg().lapack.dpotrs(factor, jac @ g.inv_mul(p))
    if info != 0:
        raise GeometryError(f"R_g solve failed (potrs info {info})")
    return p - jac.T @ lam


def project_momentum(q, p, g, cons):
    """Oblique projector L_g p with L_g = I - J^T R_g^{-1} J g^{-1}.

    L_g annihilates J g^{-1} (the constrained cotangent condition) and is
    idempotent.  A rank-deficient J or a non-finite R_g = J g^{-1} J^T raises
    GeometryError.  R_g is factored and solved with LAPACK potrf/potrs
    directly, the routines and flags scipy.linalg.cho_factor/cho_solve use.
    """
    return _project(p, *_projector(q, g, cons), g)


def _rattle_step(q, p, force, jac, factor, t_k, dt, g, sched, prob, cons):
    """`rattle_step` on raw arrays, given grad f, J and the factor of R_g at q
    (None to evaluate them).  Returns (q, p, grad f, J, factor) at the new
    position, the multipliers and the sup norm of psi(q_{k+1}) that ended the
    Newton solve.  The Newton system is formed only when the unconstrained
    drift leaves the constraint (psi beyond newton_tol); otherwise lambda = 0."""
    lam, residual, q_k = np.zeros(cons.m), 0.0, q

    def drift(q, p_half, h, decay):
        nonlocal lam, residual
        base_q = q_new = q + h * g.inv_mul(p_half)
        res = cons.value(q_new)
        residual = _sup_norm(res)
        if residual > cons.newton_tol:
            # q(lambda) = base_q - kick_mat @ lambda
            kick_mat = h * (0.5 * dt * decay) * (g.g_inv @ jac.T)
            newton_mat = jac @ kick_mat   # frozen-Jacobian (quasi-)Newton
            for _ in range(cons.newton_max_iter):
                try:
                    dlam = np.linalg.solve(newton_mat, res)
                except np.linalg.LinAlgError as exc:
                    raise GeometryError("singular Newton system in RATTLE "
                                        "constraint solve") from exc
                lam = lam + dlam
                q_new = base_q - kick_mat @ lam
                res = cons.value(q_new)
                residual = _sup_norm(res)
                if residual <= cons.newton_tol:
                    break
            else:
                raise ConstraintSolveError(
                    f"Newton iteration did not reach tol {cons.newton_tol} in "
                    f"{cons.newton_max_iter} iterations", residual=residual)
        return q_new, p_half - 0.5 * dt * decay * (jac.T @ lam)

    def project(q, p):   # called at q_k, then at the new position
        nonlocal jac, factor
        if jac is None or q is not q_k:
            jac, factor = _projector(q, g, cons)
        return _project(p, jac, factor, g)

    q, p, force = _conformal_step(q, p, force, t_k, dt, sched,
                                  lambda q, p: prob.grad(q), drift, project)
    return q, p, force, jac, factor, lam, residual


def rattle_step(x, t_k, dt, g, sched, prob, cons):
    """One damped RATTLE step; returns (new state, Lagrange multipliers).

    The position update, the multiplier kick and the constraint equations are
    solved simultaneously: Newton iteration on lambda until
    psi(q_{k+1}(lambda)) = 0 within cons.newton_tol.  The momentum map is
    project_momentum; without constraints this is the flat damped leapfrog.
    """
    q, p, _, _, _, lam, _ = _rattle_step(x.q, x.p, None, None, None, t_k, dt,
                                         g, sched, prob, cons)
    return PhasePoint(q, p), lam


def run_lie_optimizer(st, prob, dt, g_scalar, sched, num_steps,
                      mode="skew_projection", record_every=1,
                      target_gap=None):
    """Iterate lie_group_step; reports the orthogonality defect per record."""
    carry = mode == "skew_projection"   # paper_literal's force reads P

    def advance(x, t_k):  # x = (Q, P, force or None, ||Q^T Q - I||_F)
        Q, P, force = _lie_step(x[0], x[1], x[2] if carry else None, t_k, dt,
                                g_scalar, sched, prob, mode)
        return Q, P, force, _group_defect(Q, P)

    traj, (Q, P, _, _) = _run_steps(
        (st.Q, st.P, None, st.orthogonality_defect()), advance,
        lambda x: prob.value(x[0]), lambda x, f: x[3],
        sched.start_time(), dt, num_steps, prob.f_star,
        record_every=record_every, target_gap=target_gap,
        extra_name="orthogonality_defect")
    return traj, MatrixGroupState(Q, P)


def run_rattle_optimizer(x, prob, dt, g, sched, cons, num_steps,
                         record_every=1, target_gap=None):
    """Iterate rattle_step; reports the constraint residual per record."""
    jac, factor = _projector(x.q, g, cons)
    x = PhasePoint(x.q, _project(x.p, jac, factor, g))

    def advance(s, t_k):  # s = (q, p, grad f or None, J, factor, residual)
        *s, _, residual = _rattle_step(*s[:5], t_k, dt, g, sched, prob, cons)
        return *s, residual

    traj, (q, p, *_) = _run_steps(
        (x.q, x.p, None, jac, factor, _sup_norm(cons.value(x.q))), advance,
        lambda s: prob.value(s[0]), lambda s, f: s[5],
        sched.start_time(), dt, num_steps, prob.f_star,
        record_every=record_every, target_gap=target_gap,
        extra_name="constraint_residual")
    return traj, PhasePoint(q, p)
