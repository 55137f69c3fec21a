"""Helpers shared by the test modules."""
import numpy as np

from hamkit import PhasePoint, Problem, Trajectory, project_momentum, skew_part
from hamkit.integrators import _conformal_step
from hamkit.manifold import _expm


def constant_problem(d, c=0.0):
    """f(q) = c in d dimensions: no force, so every flight is a free drift."""
    return Problem(d, value=lambda q: c, grad=lambda q: np.zeros_like(q),
                   f_star=c, q_star=np.zeros(d), name="constant")


def two_form_of_step(step, curves, h, coords=lambda x: x):
    """omega(u, v) and omega(D step u, D step v), each with a bound on its
    error, for the tangents u, v at eps = 0 of two curves inside a
    constrained phase space.  omega(u, v) = dq_u.dp_v - dp_u.dq_v in the
    ambient coordinates (q, p) = coords(x).

    A curve maps eps to (x, e) and step maps (x, e) to (step(x), e'), each e
    bounding the 2-norm error of the point's coordinates that need not be
    smooth in eps: rounding, a stopped solve.  A tangent is the central
    difference (y(h/2) - y(-h/2)) / h of the coordinates y of a curve point
    or of its step.  It errs by its truncation, taken as in
    `TestDampedStepGeometry` as a third of its distance from the difference
    at h, plus 2 e / h.  As |omega(x, y)| <= |x| |y|, tangents off by E_u and
    E_v move omega by at most |E_u| |T_v| + |T_u| |E_v| + |E_u| |E_v|.
    Returns ((omega(u, v), bound), (omega(D step u, D step v), bound)).
    """
    def form(f):
        tangents = []
        for curve in curves:
            points = {s: f(curve(s)) for s in (-h, -h / 2, h / 2, h)}
            y = {s: np.concatenate([np.ravel(a) for a in coords(x)])
                 for s, (x, _) in points.items()}
            t = (y[h / 2] - y[-h / 2]) / h
            err = (np.linalg.norm(t - (y[h] - y[-h]) / (2 * h)) / 3
                   + 2 * max(e for _, e in points.values()) / h)
            tangents.append((t, np.linalg.norm(t), err))
        (tu, nu, eu), (tv, nv, ev) = tangents
        d = tu.size // 2
        return tu[:d] @ tv[d:] - tu[d:] @ tv[:d], eu * nv + nu * ev + eu * ev

    return form(lambda point: point), form(lambda point: step(*point))


def lie_step_with_skew_map(Q, P, t_k, dt, g_scalar, sched, prob):
    """The SO(n) step with skew_part as its momentum map: the library's kick
    and drift, with P projected after each half kick.  Returns (Q, P)."""
    Q, P, _, _ = _conformal_step(
        Q, P, None, t_k, dt, sched,
        lambda Q, P: (None, skew_part(Q.T @ prob.grad(Q))),
        lambda Q, P, h, decay: (Q @ _expm((h / g_scalar) * P), P),
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
            newton_inv = np.linalg.inv(jac.dot(kick_mat))
            for _ in range(cons.newton_max_iter):
                lam = lam + newton_inv.dot(res)
                q_new = base_q - kick_mat.dot(lam)
                res = cons.value(q_new)
                if np.abs(res).max() <= cons.newton_tol:
                    break
            else:
                raise AssertionError("Newton solve did not converge")
        return q_new, p_half - 0.5 * dt * decay * jac.T.dot(lam)

    q, p, _, _ = _conformal_step(x.q, x.p, None, t_k, dt, sched,
                                 lambda q, p: (None, prob.grad(q)), drift,
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
