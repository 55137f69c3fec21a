"""Helpers shared by the test modules."""
import numpy as np

from hamkit import PhasePoint, Problem, project_momentum, skew_part
from hamkit.integrators import _conformal_step
from hamkit.manifold import _linalg


def constant_problem(d, c=0.0):
    """f(q) = c in d dimensions: no force, so every flight is a free drift."""
    return Problem(d, value=lambda q: c, grad=lambda q: np.zeros_like(q),
                   f_star=c, q_star=np.zeros(d), name="constant")


def lie_step_with_skew_map(Q, P, t_k, dt, g_scalar, sched, prob):
    """The SO(n) step with skew_part as its momentum map: the library's kick
    and drift, with P projected after each half kick.  Returns (Q, P)."""
    Q, P, _ = _conformal_step(
        Q, P, None, t_k, dt, sched,
        lambda Q, P: skew_part(Q.T @ prob.grad(Q)),
        lambda Q, P, h, decay: (Q @ _linalg().expm((h / g_scalar) * P), P),
        lambda Q, P: skew_part(P))
    return Q, P


def rattle_step_always_kicking(x, t_k, dt, g, sched, prob, cons):
    """`rattle_step` whose drift applies the multiplier kick
    -(dt/2) exp(-De) J^T lambda also when no Newton iteration ran (lambda = 0).
    Returns (state, lambda); the solve must converge."""
    jac, lam = cons.jacobian(x.q), np.zeros(cons.m)

    def drift(q, p_half, h, decay):
        nonlocal lam
        base_q = q_new = q + h * g.inv_mul(p_half)
        res = cons.value(q_new)
        if np.abs(res).max() > cons.newton_tol:
            kick_mat = h * (0.5 * dt * decay) * g.g_inv.dot(jac.T)
            for _ in range(cons.newton_max_iter):
                _, _, dlam, info = _linalg().lapack.dgesv(jac.dot(kick_mat), res)
                assert info == 0
                lam = lam + dlam
                q_new = base_q - kick_mat.dot(lam)
                res = cons.value(q_new)
                if np.abs(res).max() <= cons.newton_tol:
                    break
            else:
                raise AssertionError("Newton solve did not converge")
        return q_new, p_half - 0.5 * dt * decay * jac.T.dot(lam)

    q, p, _ = _conformal_step(x.q, x.p, None, t_k, dt, sched,
                              lambda q, p: prob.grad(q), drift,
                              lambda q, p: project_momentum(q, p, g, cons))
    return PhasePoint(q, p), lam
