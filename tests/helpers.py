"""Helpers shared by the test modules."""
import numpy as np

from hamkit import PhasePoint, Problem, Trajectory, project_momentum, skew_part
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


def run_steps_stepping_each(x, advance, extra, sched, dt, num_steps, f_star,
                            record_every=1, target_gap=None, too_far=None,
                            extra_name="energy"):
    """`integrators._run_steps` without replay: the same record/stop rules,
    with `advance` called at every step.  Returns (Trajectory, last state)."""
    t0 = sched.start_time()
    watch_gap = target_gap is not None and f_star is not None
    rows = [(0, t0, x[3], extra(x))]
    reason = "completed"
    for k in range(1, num_steps + 1):
        x = advance(x, t0 + (k - 1) * dt)
        diverged = too_far is not None and too_far(x)
        reached = watch_gap and x[3] - f_star < target_gap
        if diverged or reached or k % record_every == 0 or k == num_steps:
            rows.append((k, t0 + k * dt, x[3], extra(x)))
        if diverged or reached:
            reason = "diverged" if diverged else "target_reached"
            break
    steps, times, values, extras = (np.asarray(col) for col in zip(*rows))
    gaps = values - f_star if f_star is not None else None
    return Trajectory(steps, times, values, gaps, extras, reason,
                      extra_name), x
