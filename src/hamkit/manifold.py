"""Optimisation beyond flat space: SO(n) group steps and constrained RATTLE.

As in `integrators`, each raw step maps its run's state to the next: (Q, P,
(dt/2) skew(Q^T grad f), f, ||Q^T Q - I||) on SO(n), the defect formed once
per step to check the group and to record it, and (q, p, (dt/2) grad f, f, J,
W = L^{-1} J for R_g = L L^T, residual that ended the Newton solve, lambda)
for RATTLE.  f comes with the kick's gradient from one
`Problem.value_and_grad` call.

An SO(n) step keeps P exactly skew with no momentum map (`lie_group_step`),
so only building a `MatrixGroupState` checks skewness, and a RATTLE step
that runs no Newton iteration takes no multiplier kick.

numpy does all the linear algebra, on one BLAS thread pool.  The drift's
exponential is `_expm`, a Taylor polynomial of matrix products; the trace
minimum's SVD and determinant, RATTLE's Cholesky certificate and its m x m
solves come from np.linalg.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PhasePoint, Problem, _all_finite, _check_count,
                   _check_dims, _check_positive)
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


# (m, theta_m): Taylor degrees m = b^2 or b(b + 1), the highest that a
# Paterson-Stockmeyer evaluation reaches with b + m/b - 2 products, and the
# largest ||A||_1 at which the truncated series T_m(A) is exp(A + E) with
# ||E|| <= u ||A||, u = 2^-53 (Higham & Al-Mohy, Acta Numerica 19, 2010,
# Table A.3; Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1).
# Above theta_16 a squaring doubles the reach for one product, as much as
# any higher degree does or more.
_TAYLOR = ((4, 3.40e-4), (6, 9.07e-3), (9, 8.96e-2), (12, 3.00e-1),
           (16, 7.81e-1))
_INV_FACTORIALS = 1.0 / np.cumprod([1.0, *range(1, 17)])   # 1 / k!, k <= 16
# past 53 squarings their rounding alone, about 2^s u relative, leaves no
# correct digit
_MAX_SQUARINGS = 53


@np.errstate(over="ignore", invalid="ignore")
def _expm(A):
    """exp(A): the Taylor polynomial of the lowest degree m in `_TAYLOR`
    whose theta_m bounds ||A||_1, or, above theta_16, degree 16 at A / 2^s,
    squared s times.  A non-finite A, or one that needs more than
    _MAX_SQUARINGS squarings, gives NaN; an exp(A) that overflows gives inf
    or NaN.  Neither warns: the step's finiteness check raises."""
    norm = np.abs(A).sum(axis=0).max()
    s = 0
    for m, theta in _TAYLOR:
        if norm <= theta:
            break
    else:   # m = 16
        if not norm <= theta * 2.0 ** _MAX_SQUARINGS:   # NaN fails too
            return np.full(A.shape, np.nan)
        s = math.ceil(math.log2(norm / theta))
        A = A * 0.5 ** s
    # T_m(A) = sum_{j<r} B_j (A^b)^j + (A^b)^r / m!, r = m / b, with
    # B_j = sum_{i<b} A^i / (jb + i)!: row j of coefs holds B_j's coefficients
    n, b = A.shape[0], math.isqrt(m)
    coefs = _INV_FACTORIALS[:m].reshape(-1, b)
    powers = np.empty((b, n, n))   # I, A, ..., A^(b-1)
    powers[0] = 0.0
    powers[0].flat[::n + 1] = 1.0
    powers[1] = A
    for k in range(2, b):
        powers[k - 1].dot(A, out=powers[k])
    top = powers[-1].dot(A)   # A^b
    blocks = coefs.dot(powers.reshape(b, -1)).reshape(-1, n, n)
    E = top * _INV_FACTORIALS[m]
    E += blocks[-1]
    for block in blocks[-2::-1]:   # Horner's rule in A^b
        E = E.dot(top)
        E += block
    for _ in range(s):
        E = E.dot(E)
    return E


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
    A C that is not a finite, square, 2-d matrix raises DomainError.
    """
    C = np.asarray(C, float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or not _all_finite(C):
        raise DomainError("C must be a finite, square, 2-d matrix, got one "
                          f"of shape {C.shape}")
    u, s, vt = np.linalg.svd(C)
    d = -np.ones(len(s))
    parity = np.linalg.det(u @ vt)  # +-1
    if parity * np.prod(d) < 0:
        d[-1] = 1.0  # smallest singular value absorbs the parity constraint
    q_star = vt.T @ np.diag(d) @ u.T
    return float(s @ d), q_star


def trace_objective(C):
    """f(Q) = Tr(C Q) over n x n matrices (dim n^2), with its certified
    minimum and minimiser over SO(n).  f(Q) is one n^2 inner product, of C^T
    (ravelled once, here) with Q.ravel(), not the trace of the n^3 product
    C Q."""
    C = np.asarray(C, float)
    f_star, q_star = so_trace_minimum(C)
    ct = C.T.ravel()
    return Problem(C.size, value=lambda Q: ct.dot(Q.ravel()),
                   grad=lambda Q: C.T, f_star=f_star, q_star=q_star,
                   name="trace_objective")


def _lie_stepper(dt, g_scalar, sched, prob):
    """`lie_group_step` on raw arrays, built once per run: returns the step
    mapping x = (Q, P, half kick or None, f(Q), ||Q^T Q - I||_F) at t_k to the
    next x; see `_conformal_step`.  P must be exactly skew (P == -P^T); the
    step keeps it so without a momentum map."""
    _check_positive("g_scalar", g_scalar)

    def force(Q, P):   # f and the trivialised gradient skew(Q^T df/dQ)
        f, grad = prob.value_and_grad(Q)
        return f, skew_part(Q.T @ grad)

    def drift(Q, P, h, decay):
        return Q @ _expm((h / g_scalar) * P), P

    def step(x, t_k):
        x = _conformal_step(*x[:3], t_k, dt, sched, force, drift)
        return (*x, _group_defect(x[0]))

    return step


def lie_group_step(st, t_k, dt, g_scalar, sched, prob):
    """One damped leapfrog step on SO(n) with exact exponential update.

    The kick is the trivialised gradient skew(Q^T df/dQ) and the drift is
    Q exp((dt cosh(De) / g_scalar) P_{k+1/2}).  No momentum map: IEEE rounding
    is sign-symmetric, so the half kicks keep an exactly skew P exactly skew.
    """
    Q, P, *_ = _lie_stepper(dt, g_scalar, sched, prob)(
        (st.Q, st.P, None, None, None), t_k)
    return MatrixGroupState(Q, P)


class ConstraintSet:
    """m >= 1 equality constraints psi_a(q) = 0 with Jacobian rows dpsi_a/dq."""

    def __init__(self, m, value, jacobian, newton_tol=1e-10, newton_max_iter=50):
        _check_count("m", m, 1)
        _check_count("newton_max_iter", newton_max_iter, 0)
        self.m, self.newton_max_iter = int(m), int(newton_max_iter)
        self._value = value
        self._jacobian = jacobian
        self.newton_tol = float(newton_tol)
        _check_positive("newton_tol", self.newton_tol)

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
    """psi(q) = ||q||^2 - radius^2, for a radius finite and > 0."""
    _check_positive("radius", radius)
    return ConstraintSet(
        1,
        value=lambda q: np.array([float(q.dot(q)) - radius * radius]),
        jacobian=lambda q: 2.0 * q[None, :],
        **kwargs,
    )


def _projector(q, g, cons):
    """(J, W = L^{-1} J) at q, L the Cholesky factor of R_g = J g^{-1} J^T,
    which `_project` needs: J^T R_g^{-1} J = W^T W.  The factorisation
    certifies R_g positive definite; a rank-deficient J or a non-finite R_g
    raises GeometryError."""
    jac = cons.jacobian(q)
    r_g = jac.dot(g.g_inv).dot(jac.T)
    if not _all_finite(r_g):
        raise GeometryError("R_g = J g^{-1} J^T is non-finite")
    try:
        return jac, np.linalg.solve(np.linalg.cholesky(r_g), jac)
    except np.linalg.LinAlgError:
        raise GeometryError("constraint Jacobian is rank deficient (R_g not "
                            "positive definite)") from None


def _project(p, w, g):
    """L_g p = p - W^T W g^{-1} p from `_projector`'s W at the same
    position."""
    return p - w.T.dot(w.dot(g.inv_mul(p)))


def project_momentum(q, p, g, cons):
    """Oblique projector L_g p with L_g = I - J^T R_g^{-1} J g^{-1}.

    L_g annihilates J g^{-1} (the constrained cotangent condition) and is
    idempotent.  A rank-deficient J or a non-finite R_g = J g^{-1} J^T raises
    GeometryError.  A Cholesky factorisation L L^T of R_g certifies it
    positive definite, and L_g p = p - W^T W g^{-1} p with W = L^{-1} J.
    """
    return _project(p, _projector(q, g, cons)[1], g)


def _rattle_step(s, t_k, dt, g, sched, prob, cons):
    """`rattle_step` on raw arrays: maps s = (q, p, half kick, f(q), J, W,
    residual, lambda) at t_k to the next s; see `_conformal_step`.  It reads
    the half kick (dt/2) grad f, J and `_projector`'s W at q, each None to
    evaluate it, and not f, the residual (the sup norm of psi(q) that ended
    the Newton solve) or the multipliers lambda.  The Newton system is formed
    only when the unconstrained drift leaves the constraint (psi beyond
    newton_tol); otherwise lambda = 0, with no multiplier kick.  A non-finite
    psi after the drift raises ConstraintSolveError."""
    q_k, jac, w, lam, residual = s[0], s[4], s[5], np.zeros(cons.m), 0.0

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
        try:   # frozen-Jacobian (quasi-)Newton: one inverse serves every iterate
            newton_inv = np.linalg.inv(jac.dot(kick_mat))
        except np.linalg.LinAlgError:
            raise GeometryError("singular Newton system in RATTLE constraint "
                                "solve") from None
        for _ in range(cons.newton_max_iter):
            lam = lam + newton_inv.dot(res)
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
        nonlocal jac, w
        if jac is None or q is not q_k:
            jac, w = _projector(q, g, cons)
        return _project(p, w, g)

    q, p, half_kick, f = _conformal_step(
        *s[:3], t_k, dt, sched, lambda q, p: prob.value_and_grad(q), drift,
        project)
    return q, p, half_kick, f, jac, w, residual, lam


def rattle_step(x, t_k, dt, g, sched, prob, cons):
    """One damped RATTLE step; returns (new state, Lagrange multipliers).

    The position update, the multiplier kick and the constraint equations are
    solved simultaneously: Newton iteration on lambda until
    psi(q_{k+1}(lambda)) = 0 within cons.newton_tol; a drift within it takes
    lambda = 0 and no kick.  The momentum map is project_momentum.  `cons`
    holds at least one constraint.
    """
    q, p, *_, lam = _rattle_step((x.q, x.p, None, None, None, None, None, None),
                                 t_k, dt, g, sched, prob, cons)
    return PhasePoint(q, p), lam


def run_lie_optimizer(st, prob, dt, g_scalar, sched, num_steps,
                      record_every=1, target_gap=None):
    """Iterate lie_group_step; reports the orthogonality defect per record."""
    _check_positive("step size dt", dt)   # before dt * kick, which may warn
    if st.Q.size != prob.dim:
        raise DomainError(f"dimension mismatch: state {st.Q.size}, problem "
                          f"{prob.dim}")
    step = _lie_stepper(dt, g_scalar, sched, prob)
    f0, grad0 = prob.value_and_grad(st.Q)   # f and the kick, as the force
    traj, (Q, P, *_) = _run_steps(
        (st.Q, st.P, 0.5 * dt * skew_part(st.Q.T @ grad0), f0,
         st.orthogonality_defect()), step, lambda x: x[4], sched, dt,
        num_steps, prob.f_star, record_every=record_every,
        target_gap=target_gap, extra_name="orthogonality_defect")
    return traj, MatrixGroupState(Q, P)


def run_rattle_optimizer(x, prob, dt, g, sched, cons, num_steps,
                         record_every=1, target_gap=None):
    """Iterate rattle_step; reports the constraint residual per record."""
    _check_positive("step size dt", dt)   # before dt * kick, which may warn
    _check_dims(x.dim, g, prob)
    jac, w = _projector(x.q, g, cons)
    x = PhasePoint(x.q, _project(x.p, w, g))
    f0, grad0 = prob.value_and_grad(x.q)   # one evaluation per point
    traj, (q, p, *_) = _run_steps(
        (x.q, x.p, 0.5 * dt * grad0, f0, jac, w,
         _sup_norm(cons.value(x.q)), np.zeros(cons.m)),
        lambda s, t_k: _rattle_step(s, t_k, dt, g, sched, prob, cons),
        lambda s: s[6], sched, dt, num_steps, prob.f_star,
        record_every=record_every, target_gap=target_gap,
        extra_name="constraint_residual")
    return traj, PhasePoint(q, p)
