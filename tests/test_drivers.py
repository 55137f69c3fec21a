"""The run drivers against plain loops over the public step functions.

`run_optimizer`, `run_lie_optimizer` and `run_rattle_optimizer` step raw
arrays and carry the force, the Jacobian, the R_g factor, f and the recorded
fifth column from one step to the next.  Every such cache must leave the
numbers as the public one-step functions give them, bit for bit; the work
counts pin down that the carried values are not recomputed.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from hamkit import (
    ConstraintSet,
    DampingSchedule,
    HamkitError,
    KineticMetric,
    MatrixGroupState,
    PhasePoint,
    Problem,
    dissipative_leapfrog_step,
    evaluate_hamiltonian,
    lie_group_step,
    problems,
    project_momentum,
    rattle_step,
    run_lie_optimizer,
    run_optimizer,
    run_rattle_optimizer,
    skew_part,
    sphere_constraint,
    trace_objective,
)

SCHEDULES = {"constant": DampingSchedule.constant(1.5),
             "vanishing": DampingSchedule.vanishing(r=3.0, t0=1.0),
             "zero": DampingSchedule.zero()}

run_settings = dict(seed=hst.integers(0, 2**32 - 1),
                    kind=hst.sampled_from(sorted(SCHEDULES)),
                    record_every=hst.integers(1, 7),
                    target_gap=hst.sampled_from([None, 1.0, 1e-1, 1e-3]))


def step_loop(x, step, value, extra, t0, dt, num_steps, f_star,
              record_every=1, target_gap=None, too_far=None):
    """The run drivers' record/stop rules as a plain loop over `step`;
    returns (steps, times, values, extras, reason, last state)."""
    f = value(x)
    rows = [(0, t0, f, extra(x, f))]
    reason = "completed"
    for k in range(1, num_steps + 1):
        x = step(x, t0 + (k - 1) * dt)
        f = value(x)
        diverged = too_far is not None and too_far(x, f)
        reached = (target_gap is not None and f_star is not None
                   and f - f_star < target_gap)
        if k % record_every == 0 or k == num_steps or diverged or reached:
            rows.append((k, t0 + k * dt, f, extra(x, f)))
        if diverged or reached:
            reason = "diverged" if diverged else "target_reached"
            break
    steps, times, values, extras = (np.asarray(col) for col in zip(*rows))
    return steps, times, values, extras, reason, x


def assert_same_run(traj, ref, f_star):
    steps, times, values, extras, reason, _ = ref
    assert traj.reason == reason
    for got, want in [(traj.steps, steps), (traj.times, times),
                      (traj.values, values), (traj.extra, extras)]:
        assert np.array_equal(got, want)
    if f_star is not None:
        assert np.array_equal(traj.gaps, values - f_star)


FLAT_PROBLEMS = {"quadratic": lambda: problems.quadratic(2, 1.3),
                 "quartic": lambda: problems.quartic(2),
                 "rosenbrock": problems.rosenbrock}


def random_metric(rng, kind):
    """None (the run's default, the scaled identity dt * I), I, or a dense
    SPD metric; each takes its own branch of the KineticMetric products."""
    if kind == "dense":
        a = rng.standard_normal((2, 2))
        return KineticMetric(a @ a.T + 0.5 * np.eye(2))
    return KineticMetric.identity(2) if kind == "identity" else None


@given(problem=hst.sampled_from(sorted(FLAT_PROBLEMS)),
       metric=hst.sampled_from(["scaled", "identity", "dense"]),
       threshold=hst.sampled_from([1e12, 2.0]), **run_settings)
@settings(max_examples=60, deadline=None)
def test_flat_driver_matches_step_loop(problem, metric, threshold, seed, kind,
                                       record_every, target_gap):
    # the driver carries the half kick (dt/2) grad f from one step to the
    # next; the public step evaluates it afresh, which must give the same bits
    rng = np.random.default_rng(seed)
    prob = FLAT_PROBLEMS[problem]()
    sched = SCHEDULES[kind]
    dt, n = 0.1, 60
    x0 = PhasePoint(rng.standard_normal(2), rng.standard_normal(2))
    g = random_metric(rng, metric)
    g_step = KineticMetric.scaled_identity(2, dt) if g is None else g

    def run():
        return run_optimizer(x0, prob, dt, g, sched, n, record_every=record_every,
                             target_gap=target_gap,
                             divergence_threshold=threshold)

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ref = step_loop(
                x0, lambda x, t: dissipative_leapfrog_step(x, t, dt, g_step,
                                                           sched, prob),
                lambda x: prob.value(x.q),
                lambda x, f: evaluate_hamiltonian(x, g_step, prob),
                sched.start_time(), dt, n, prob.f_star,
                record_every, target_gap,
                too_far=lambda x, f: (abs(f) > threshold
                                     or np.linalg.norm(x.q) > threshold))
        except HamkitError as exc:   # a stiff run may overflow on both sides
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                run()
            return
        assert_same_run(run(), ref, prob.f_star)


@given(**run_settings)
@settings(max_examples=40, deadline=None)
def test_lie_driver_matches_step_loop(seed, kind, record_every, target_gap):
    rng = np.random.default_rng(seed)
    prob = trace_objective(rng.standard_normal((4, 4)))
    sched = SCHEDULES[kind]
    st0 = MatrixGroupState(np.eye(4), skew_part(rng.standard_normal((4, 4))))
    dt, g_scalar, n = 0.05, 0.05, 60
    ref = step_loop(
        st0, lambda st, t: lie_group_step(st, t, dt, g_scalar, sched, prob),
        lambda st: prob.value(st.Q), lambda st, f: st.orthogonality_defect(),
        sched.start_time(), dt, n, prob.f_star, record_every, target_gap)
    traj, st_end = run_lie_optimizer(st0, prob, dt, g_scalar, sched, n,
                                     record_every=record_every,
                                     target_gap=target_gap)
    assert_same_run(traj, ref, prob.f_star)
    assert np.array_equal(st_end.Q, ref[-1].Q)
    assert np.array_equal(st_end.P, ref[-1].P)


def sphere_problem(rng):
    c = rng.standard_normal(3)
    return Problem(3, value=lambda q: float(c @ q), grad=lambda q: c,
                   f_star=-float(np.linalg.norm(c)))


@given(**run_settings)
@settings(max_examples=40, deadline=None)
def test_rattle_driver_matches_step_loop(seed, kind, record_every, target_gap):
    rng = np.random.default_rng(seed)
    prob = sphere_problem(rng)
    sched = SCHEDULES[kind]
    cons = sphere_constraint()
    g = KineticMetric.scaled_identity(3, 0.05)
    q0 = rng.standard_normal(3)
    x0 = PhasePoint(q0 / np.linalg.norm(q0), 0.05 * rng.standard_normal(3))
    dt, n = 0.05, 60
    ref = step_loop(
        PhasePoint(x0.q, project_momentum(x0.q, x0.p, g, cons)),
        lambda x, t: rattle_step(x, t, dt, g, sched, prob, cons)[0],
        lambda x: prob.value(x.q),
        lambda x, f: float(np.max(np.abs(cons.value(x.q)))),
        sched.start_time(), dt, n, prob.f_star, record_every, target_gap)
    traj, x_end = run_rattle_optimizer(x0, prob, dt, g, sched, cons, n,
                                       record_every=record_every,
                                       target_gap=target_gap)
    assert_same_run(traj, ref, prob.f_star)
    assert np.array_equal(x_end.q, ref[-1].q)
    assert np.array_equal(x_end.p, ref[-1].p)


@pytest.mark.parametrize("num_steps", [10, 200])
def test_flat_run_work_counts(count_calls, counting_problem, num_steps):
    x0, sched = PhasePoint([1.8, 0.0], [0.0, 0.0]), DampingSchedule.vanishing()
    prob, calls = counting_problem(problems.quartic(2))
    validations = count_calls(PhasePoint, "__post_init__")
    traj = run_optimizer(x0, prob, 0.05, None, sched, num_steps)
    assert len(traj) == num_steps + 1
    # f and grad f at each of the run's points from one fused call
    assert calls == {"value_and_grad": num_steps + 1}
    assert len(validations) <= 1
    # without the fused form Problem's adapter makes both calls, same bits
    plain, plain_calls = counting_problem(problems.quartic(2), fused=False)
    ref = run_optimizer(x0, plain, 0.05, None, sched, num_steps)
    for column in ("steps", "times", "values", "gaps", "extra"):
        assert np.array_equal(getattr(traj, column), getattr(ref, column))
    assert plain_calls == {"value": num_steps + 1, "grad": num_steps + 1}


@pytest.mark.parametrize("run", ["lie", "rattle"])
def test_manifold_run_work_counts(counting_problem, run):
    # as test_flat_run_work_counts: f and the kick's gradient at each of the
    # run's points from one fused call, or from the adapter's two calls
    # with the same bits
    rng, num_steps, sched = np.random.default_rng(5), 20, SCHEDULES["constant"]
    if run == "lie":
        base = trace_objective(rng.standard_normal((4, 4)))
        st0 = MatrixGroupState(np.eye(4),
                               skew_part(rng.standard_normal((4, 4))))

        def go(prob):
            return run_lie_optimizer(st0, prob, 0.05, 0.05, sched, num_steps)
    else:
        base, q0 = sphere_problem(rng), rng.standard_normal(3)
        x0 = PhasePoint(q0 / np.linalg.norm(q0), 0.05 * rng.standard_normal(3))

        def go(prob):
            return run_rattle_optimizer(x0, prob, 0.05,
                                        KineticMetric.scaled_identity(3, 0.05),
                                        sched, sphere_constraint(), num_steps)
    prob, calls = counting_problem(base)
    traj, end = go(prob)
    assert len(traj) == num_steps + 1
    assert calls == {"value_and_grad": num_steps + 1}
    plain, plain_calls = counting_problem(base, fused=False)
    ref, ref_end = go(plain)
    for column in ("steps", "times", "values", "gaps", "extra"):
        assert np.array_equal(getattr(traj, column), getattr(ref, column))
    for a, b in zip(vars(end).values(), vars(ref_end).values(), strict=True):
        assert np.array_equal(a, b)
    assert plain_calls == {"value": num_steps + 1, "grad": num_steps + 1}


def test_public_flat_step_evaluates_only_the_gradient(counting_problem):
    x0 = PhasePoint([1.8, 0.0], [0.0, 0.0])
    g = KineticMetric.scaled_identity(2, 0.05)
    for fused in (True, False):
        prob, calls = counting_problem(problems.quartic(2), fused=fused)
        dissipative_leapfrog_step(x0, 1.0, 0.05, g, DampingSchedule.vanishing(),
                                  prob)
        assert calls == {"grad": 2}


@pytest.mark.parametrize("num_steps", [10, 200])
def test_rattle_run_jacobian_calls(count_calls, num_steps):
    rng = np.random.default_rng(4)
    q0 = rng.standard_normal(3)
    jacobians = count_calls(ConstraintSet, "jacobian")
    run_rattle_optimizer(PhasePoint(q0 / np.linalg.norm(q0), np.zeros(3)),
                         sphere_problem(rng), 0.05,
                         KineticMetric.scaled_identity(3, 0.05),
                         DampingSchedule.constant(2.0), sphere_constraint(),
                         num_steps)
    assert len(jacobians) == num_steps + 1
