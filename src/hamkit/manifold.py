"""Optimisation beyond flat space: SO(n) group steps and constrained RATTLE.

As in `integrators`, the run drivers step raw arrays and carry per-position
terms across steps: f, the half kicks (dt/2) skew(Q^T grad f) and (dt/2) grad f,
||Q^T Q - I|| (formed once per step, to check the group and to record it),
and RATTLE's J, factor of R_g and residual that ended the Newton solve.

An SO(n) step keeps P exactly skew with no momentum map (`lie_group_step`),
so only building a `MatrixGroupState` checks skewness, and a RATTLE step
that runs no Newton iteration takes no multiplier kick.

Only this module uses scipy, and `_linalg` imports it on first use, so that
`import hamkit` and the flat code never load it.  Every dense factorisation
here goes through scipy's LAPACK, the library `expm` uses: the trace
minimum's SVD and determinant, RATTLE's Newton solve (getrf/getrs) and
Cholesky (potrf/potrs).  numpy and scipy each bundle an OpenBLAS with its own
worker threads.  A single LAPACK call from numpy would wake numpy's workers
too, and they would spin beside every later `expm`: with the BLAS threads
unpinned, an SO(50) run reads about a quarter slower that way.
"""
from __future__ import annotations

import functools
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


@functools.cache
def _linalg():
    """scipy.linalg, imported on first call; look its routines up at each use
    (so that one patched by name on the module is the one called).

    Every LAPACK call of this module comes from here, none from np.linalg, so
    that no factorisation wakes numpy's OpenBLAS thread pool beside scipy's
    (see the module docstring)."""
    import scipy.linalg
    return scipy.linalg


def skew_part(m):
    """Antisymmetric part (m - m^T) / 2."""
    return 0.5 * (m - m.T)


@dataclass(frozen=True)
class MatrixGroupState:
    """Q in SO(n) paired with P in so(n), held as skew_part(P): exactly skew."""

    Q: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        # frozen copies: the caller's arrays stay writeable
        Q = np.array(self.Q, float)
        P = np.asarray(self.P, float)
        if Q.shape != P.shape or Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DomainError("Q and P must be square matrices of equal shape")
        skew = skew_part(P)   # non-finite for a P whose P - P^T overflows
        if not (_all_finite(Q) and _all_finite(skew)):
            raise DomainError("Q and P must have finite entries")
        _group_defect(Q)
        _check_skew(P)   # the only skew check: every step keeps P exactly skew
        Q.flags.writeable = False
        skew.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "P", skew)

    def orthogonality_defect(self):
        """||Q^T Q - I||_F."""
        return _group_defect(self.Q)


def _group_defect(Q):
    """||Q^T Q - I||_F; GeometryError beyond ORTHO_TOL."""
    qtq = Q.T @ Q
    qtq.flat[::Q.shape[0] + 1] -= 1.0   # Q^T Q - I, without forming I
    defect = float(np.linalg.norm(qtq))
    if not defect <= ORTHO_TOL:   # NaN fails too
        raise GeometryError(f"Q is not orthogonal: ||Q^T Q - I||_F = {defect:.3e}")
    return defect


def _check_skew(P):
    """GeometryError unless ||P + P^T||_F <= SKEW_TOL."""
    defect = np.linalg.norm(P + P.T)
    if not defect <= SKEW_TOL:   # NaN fails too
        raise GeometryError(f"P is not skew: ||P + P^T||_F = {defect:.3e}")


def so_trace_minimum(C):
    """Closed-form minimum of Tr(C Q) over Q in SO(n).

    With C = U diag(sigma) V^T, Tr(C Q) = sum_i sigma_i d_i over sign choices
    d_i = +-1 subject to the determinant parity; the minimum flips every sign
    except, when parity forbids it, the one paired with the smallest sigma.
    """
    C = np.asarray(C, float)
    u, s, vt = _linalg().svd(C)
    u = np.ascontiguousarray(u)  # scipy's is Fortran-ordered; matmul rounds by layout
    d = -np.ones(len(s))
    parity = _linalg().det(u @ vt)  # +-1
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


def _lie_stepper(dt, g_scalar, sched, prob):
    """`lie_group_step` on raw arrays, built once per run: returns
    step(Q, P, half kick or None, t_k); see `_conformal_step`.  P must be
    exactly skew (P == -P^T); the step keeps it so without a momentum map."""
    if not 0 < g_scalar < math.inf:   # NaN fails too
        raise DomainError(f"g_scalar must be finite and > 0, got {g_scalar!r}")

    def kick(Q, P):   # the trivialised gradient skew(Q^T df/dQ)
        return skew_part(Q.T @ prob.grad(Q))

    def drift(Q, P, h, decay):
        return Q @ _linalg().expm((h / g_scalar) * P), P

    return lambda Q, P, half_kick, t_k: _conformal_step(
        Q, P, half_kick, t_k, dt, sched, kick, drift)


def lie_group_step(st, t_k, dt, g_scalar, sched, prob):
    """One damped leapfrog step on SO(n) with exact exponential update.

    The kick is the trivialised gradient skew(Q^T df/dQ) and the drift is
    Q exp((dt cosh(De) / g_scalar) P_{k+1/2}).  No momentum map: IEEE rounding
    is sign-symmetric, so the half kicks keep an exactly skew P exactly skew.
    """
    Q, P, _ = _lie_stepper(dt, g_scalar, sched, prob)(st.Q, st.P, None, t_k)
    return MatrixGroupState(Q, P)


class ConstraintSet:
    """m >= 1 equality constraints psi_a(q) = 0 with Jacobian rows dpsi_a/dq."""

    def __init__(self, m, value, jacobian, newton_tol=1e-10, newton_max_iter=50):
        self.m = int(m)
        if self.m < 1:
            raise DomainError(f"a constraint set needs m >= 1, got {m}")
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
        res = np.atleast_1d(np.asarray(self._value(q), float))
        if res.shape != (self.m,):
            raise DomainError(
                f"constraint value must have shape ({self.m},), got {res.shape}")
        return res

    def jacobian(self, q):
        jac = np.atleast_2d(np.asarray(self._jacobian(q), float))
        if jac.shape != (self.m, q.size):
            raise DomainError(
                f"jacobian must have shape ({self.m}, {q.size}), got {jac.shape}"
            )
        return jac


def _sup_norm(v):  # max |v_i| of a constraint residual
    return float(np.abs(v).max())


def sphere_constraint(radius=1.0, **kwargs):
    """psi(q) = ||q||^2 - radius^2."""
    return ConstraintSet(
        1,
        value=lambda q: np.array([float(q.dot(q)) - radius * radius]),
        jacobian=lambda q: 2.0 * q[None, :],
        **kwargs,
    )


def _projector(q, g, cons):
    """(J, potrf factor of R_g = J g^{-1} J^T) at q, which `_project` needs.
    A rank-deficient J or a non-finite R_g raises GeometryError."""
    jac = cons.jacobian(q)
    r_g = jac.dot(g.g_inv).dot(jac.T)
    if not _all_finite(r_g):
        raise GeometryError("R_g = J g^{-1} J^T is non-finite")
    factor, info = _linalg().lapack.dpotrf(r_g, clean=0)
    if info != 0:
        raise GeometryError("constraint Jacobian is rank deficient "
                            f"(R_g not positive definite, potrf info {info})")
    return jac, factor


def _project(p, jac, factor, g):
    """L_g p = p - J^T R_g^{-1} J g^{-1} p from `_projector`'s (J, factor)
    at the same position."""
    lam, info = _linalg().lapack.dpotrs(factor, jac.dot(g.inv_mul(p)))
    if info != 0:
        raise GeometryError(f"R_g solve failed (potrs info {info})")
    return p - jac.T.dot(lam)


def project_momentum(q, p, g, cons):
    """Oblique projector L_g p with L_g = I - J^T R_g^{-1} J g^{-1}.

    L_g annihilates J g^{-1} (the constrained cotangent condition) and is
    idempotent.  A rank-deficient J or a non-finite R_g = J g^{-1} J^T raises
    GeometryError.  R_g is factored and solved with LAPACK potrf/potrs
    directly, the routines and flags scipy.linalg.cho_factor/cho_solve use.
    """
    return _project(p, *_projector(q, g, cons), g)


def _rattle_step(q, p, half_kick, jac, factor, t_k, dt, g, sched, prob, cons):
    """`rattle_step` on raw arrays, given the half kick (dt/2) grad f, J and
    the factor of R_g at q (None to evaluate them).  Returns (q, p, half kick,
    J, factor) at the new position, the multipliers and the sup norm of
    psi(q_{k+1}) that ended the Newton solve.  The Newton system is formed
    only when the unconstrained drift leaves the constraint (psi beyond
    newton_tol); otherwise lambda = 0, with no multiplier kick.  A non-finite
    psi after the drift raises ConstraintSolveError."""
    lam, residual, q_k = np.zeros(cons.m), 0.0, q

    def drift(q, p_half, h, decay):
        nonlocal lam, residual
        base_q = q_new = q + h * g.inv_mul(p_half)
        res = cons.value(q_new)
        residual = _sup_norm(res)
        if residual <= cons.newton_tol:
            return q_new, p_half
        if not math.isfinite(residual):
            raise ConstraintSolveError(f"non-finite constraint value after the "
                                       f"drift: {residual}", residual=residual)
        # q(lambda) = base_q - kick_mat @ lambda
        kick_mat = h * (0.5 * dt * decay) * g.g_inv.dot(jac.T)
        newton_mat = jac.dot(kick_mat)   # frozen-Jacobian (quasi-)Newton
        for _ in range(cons.newton_max_iter):
            _, _, dlam, info = _linalg().lapack.dgesv(newton_mat, res)
            if info != 0:
                raise GeometryError("singular Newton system in RATTLE "
                                    "constraint solve")
            lam = lam + dlam
            q_new = base_q - kick_mat.dot(lam)
            res = cons.value(q_new)
            residual = _sup_norm(res)
            if residual <= cons.newton_tol:
                break
        else:
            raise ConstraintSolveError(
                f"Newton iteration did not reach tol {cons.newton_tol} in "
                f"{cons.newton_max_iter} iterations", residual=residual)
        return q_new, p_half - 0.5 * dt * decay * jac.T.dot(lam)

    def project(q, p):   # called at q_k, then at the new position
        nonlocal jac, factor
        if jac is None or q is not q_k:
            jac, factor = _projector(q, g, cons)
        return _project(p, jac, factor, g)

    q, p, half_kick = _conformal_step(q, p, half_kick, t_k, dt, sched,
                                      lambda q, p: prob.grad(q), drift, project)
    return q, p, half_kick, jac, factor, lam, residual


def rattle_step(x, t_k, dt, g, sched, prob, cons):
    """One damped RATTLE step; returns (new state, Lagrange multipliers).

    The position update, the multiplier kick and the constraint equations are
    solved simultaneously: Newton iteration on lambda until
    psi(q_{k+1}(lambda)) = 0 within cons.newton_tol; a drift within it takes
    lambda = 0 and no kick.  The momentum map is project_momentum.  `cons`
    holds at least one constraint.
    """
    q, p, _, _, _, lam, _ = _rattle_step(x.q, x.p, None, None, None, t_k, dt,
                                         g, sched, prob, cons)
    return PhasePoint(q, p), lam


def run_lie_optimizer(st, prob, dt, g_scalar, sched, num_steps,
                      record_every=1, target_gap=None):
    """Iterate lie_group_step; reports the orthogonality defect per record."""
    step = _lie_stepper(dt, g_scalar, sched, prob)

    # x = (Q, P, half kick or None, f(Q), ||Q^T Q - I||_F)
    def advance(x, t_k):
        Q, P, half_kick = step(*x[:3], t_k)
        return Q, P, half_kick, prob.value(Q), _group_defect(Q)

    traj, (Q, P, *_) = _run_steps(
        (st.Q, st.P, None, prob.value(st.Q), st.orthogonality_defect()),
        advance, lambda x: x[4], sched, dt, num_steps, prob.f_star,
        record_every=record_every, target_gap=target_gap,
        extra_name="orthogonality_defect")
    return traj, MatrixGroupState(Q, P)


def run_rattle_optimizer(x, prob, dt, g, sched, cons, num_steps,
                         record_every=1, target_gap=None):
    """Iterate rattle_step; reports the constraint residual per record."""
    jac, factor = _projector(x.q, g, cons)
    x = PhasePoint(x.q, _project(x.p, jac, factor, g))

    # s = (q, p, half kick or None, f(q), J, factor, residual)
    def advance(s, t_k):
        q, p, half_kick, jac, factor, _, residual = _rattle_step(
            *s[:3], *s[4:6], t_k, dt, g, sched, prob, cons)
        return q, p, half_kick, prob.value(q), jac, factor, residual

    traj, (q, p, *_) = _run_steps(
        (x.q, x.p, None, prob.value(x.q), jac, factor,
         _sup_norm(cons.value(x.q))), advance, lambda s: s[6], sched, dt,
        num_steps, prob.f_star,
        record_every=record_every, target_gap=target_gap,
        extra_name="constraint_residual")
    return traj, PhasePoint(q, p)
