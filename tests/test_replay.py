"""Runs that come back to a state they were in replay the steps that followed
it instead of stepping again.

Each run here is made twice: through `_run_steps`, and through
`helpers.run_steps_stepping_each`, which calls the raw step at every step.
Every Trajectory field and the last state must agree bit for bit.  The runs
reach exact repeats: the sphere RATTLE run of manifold_so_rattle ends in a
fixed point at seeds 1, 10, 6 and 51 and in a cycle of period 14, 2 or 44 at
seeds 0, 36 and 198, and the flat runs reach a fixed point or an exact
6-cycle.  The 4,000-step sphere runs cross t = 64 and t = 128, where the
rounding of t_k + dt/2 changes De, so they go back from replaying to
stepping.  Under strong r/t damping the same sphere runs come back to states
they were in while De changes at every step, and a run that replayed them
regardless of De would give other numbers.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from hamkit import (
    DampingSchedule,
    KineticMetric,
    PhasePoint,
    Problem,
    integrators,
    manifold,
    problems,
    run_optimizer,
    run_rattle_optimizer,
    sphere_constraint,
)
from helpers import run_steps_stepping_each

# manifold_so_rattle seeds whose sphere runs end in periods 1, 1, 1, 14, 2,
# 1 and 44 (no seed in 0-199 ends in period 3; 44 is the longest there)
SPHERE_SEEDS = [1, 10, 6, 0, 36, 51, 198]


def same_bits(a, b):
    """Whether a and b are both None, or arrays (or floats) with equal
    dtypes, shapes and bytes."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_replay_exact(monkeypatch, module, run):
    """Make `run()` through `module._run_steps`, then through the loop that
    steps at every step, and compare the two (Trajectory, last state)."""
    out = []

    def spy(loop):
        def call(*args, **kwargs):
            out.append(loop(*args, **kwargs))
            return out[-1]
        return call

    for loop in (module._run_steps, run_steps_stepping_each):
        monkeypatch.setattr(module, "_run_steps", spy(loop))
        run()
    (traj, x), (ref, x_ref) = out
    for name in ("steps", "times", "values", "gaps", "extra"):
        assert same_bits(getattr(traj, name), getattr(ref, name)), name
    assert (traj.reason, traj.extra_name) == (ref.reason, ref.extra_name)
    assert all(same_bits(a, b) for a, b in zip(x[:4], x_ref[:4]))


def workload_sphere_run(seed, sched=DampingSchedule.constant(2.0)):
    """A function making manifold_so_rattle's 4,000-step sphere RATTLE run
    at `seed`, from the draws `cmd_manifold` makes, under `sched`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    rng.standard_normal((50, 50))   # the SO(50) cost matrix comes first
    c = rng.standard_normal(3)
    prob = Problem(3, value=lambda q: float(c.dot(q)), grad=lambda q: c,
                   f_star=-float(np.linalg.norm(c)))
    q0 = rng.standard_normal(3)
    x0 = PhasePoint(q0 / np.linalg.norm(q0), np.zeros(3))
    return lambda: run_rattle_optimizer(
        x0, prob, 0.05, KineticMetric.scaled_identity(3, 0.05),
        sched, sphere_constraint(), 4000)


@pytest.mark.parametrize("sched", [DampingSchedule.constant(2.0),
                                   DampingSchedule.vanishing(r=50.0)],
                         ids=["workload", "r/t"])
@pytest.mark.parametrize("seed", SPHERE_SEEDS)
def test_sphere_run_replays_exactly(monkeypatch, seed, sched):
    assert_replay_exact(monkeypatch, manifold, workload_sphere_run(seed, sched))


@pytest.mark.parametrize("seed", SPHERE_SEEDS)
def test_sphere_run_steps_about_a_quarter_of_its_steps(count_calls, seed):
    grads = count_calls(Problem, "grad")
    workload_sphere_run(seed)()
    assert len(grads) <= 1200


@pytest.mark.parametrize("seed", [1, 36, 0, 51, 198])
def test_a_cycle_is_found_within_a_period_of_its_first_repeat(
        monkeypatch, count_calls, seed):
    # The sphere run at `seed` first repeats a state at x_{r+p} == x_r, in the
    # loop stepping each.  Until De next changes (at t = 64: the rounding of
    # t_k + dt/2) the run takes steps 1, ..., K only, and evaluates its start
    # and those steps.  The cycle's smallest state comes back by step
    # r + 2p - 1, and one more period confirms the repeat, so K <= r + 3p; a
    # fixed point (p = 1) is found at x_{r+1} and confirmed at K = r + 2.
    seen, taken = [], []   # (f, key) of each state; index of each step taken

    def noting(loop, states):
        def run_steps(x, advance, extra, sched, dt, *args, **kwargs):
            def step(x, t_k):
                taken.append(round((t_k - sched.start_time()) / dt) + 1)
                x = advance(x, t_k)
                states.append((x[3], integrators._key(x)))
                return x
            states.append((x[3], integrators._key(x)))
            return loop(x, step, extra, sched, dt, *args, **kwargs)
        return run_steps

    run = workload_sphere_run(seed)
    monkeypatch.setattr(manifold, "_run_steps",
                        noting(run_steps_stepping_each, seen))
    run()
    first = {}
    for k, state in enumerate(seen):
        if state in first:
            r, p = first[state], k - first[state]
            break
        first[state] = k
    sched, dt = DampingSchedule.constant(2.0), 0.05
    de = [integrators._half_step_eta(sched, k * dt, dt) for k in range(4000)]
    change = next(k for k in range(r, 4000) if de[k] != de[r]) + 1
    taken.clear()
    monkeypatch.setattr(manifold, "_run_steps",
                        noting(integrators._run_steps, []))
    grads = count_calls(Problem, "grad")
    run()
    assert len(grads) == 1 + len(taken)
    before = [k for k in taken if k < change]
    assert before == list(range(1, len(before) + 1))
    if p == 1:
        assert len(before) == r + 2
    else:
        assert len(before) <= r + 3 * p


FLAT_RUNS = {
    # reaches (q, p, half kick) = (0, -0, 0) after 996 steps, near t = 300
    "constant damping": dict(
        dt=0.3, num_steps=1500, sched=DampingSchedule.constant(5.0),
        x0=PhasePoint([1.8, -0.4], [0.3, 0.1]), mu=4.0),
    # from rest at the minimum, x_1 is x_0
    "zero damping, at rest": dict(
        dt=0.1, num_steps=100, sched=DampingSchedule.zero(),
        x0=PhasePoint([0.0, 0.0], [0.0, 0.0]), mu=1.0),
    # dt = 1 on a unit quadratic: dyadic leapfrog, an exact 6-cycle
    "zero damping, 6-cycle": dict(
        dt=1.0, num_steps=100, sched=DampingSchedule.zero(),
        x0=PhasePoint([1.0, -0.5], [0.25, 0.0]), mu=1.0,
        g=KineticMetric.identity(2)),
    # q quarters at each step and is exactly 0 after 269 steps
    "gradient flow": dict(
        dt=0.75, num_steps=400, sched=DampingSchedule.constant(1.0),
        x0=PhasePoint([1.8, -0.4], [0.3, 0.1]), mu=1.0,
        method="gradient_flow"),
}


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("name", sorted(FLAT_RUNS))
def test_flat_run_replays_exactly(monkeypatch, name, record_every):
    kw = {"g": None, **FLAT_RUNS[name]}
    prob = problems.quadratic(2, kw.pop("mu"))
    assert_replay_exact(monkeypatch, integrators,
                        lambda: run_optimizer(prob=prob, record_every=record_every,
                                              **kw))


@pytest.mark.parametrize("kind, calls", [("vanishing", 201), ("zero", 3)])
def test_a_repeat_is_replayed_only_under_the_same_de(counting_problem, kind, calls):
    # From rest at the minimum every state repeats the last.  Under r/t
    # damping De changes at every step, so each of the 200 steps is taken;
    # under none, one step finds the repeat and one more confirms it.
    prob, counts = counting_problem(problems.quadratic(2))
    traj = run_optimizer(PhasePoint(np.zeros(2), np.zeros(2)), prob, 0.1, None,
                         getattr(DampingSchedule, kind)(), 200)
    assert len(traj) == 201
    assert counts == {"value_and_grad": calls}


def test_states_are_compared_byte_for_byte():
    z, key = np.zeros(2), integrators._key
    assert key((z, z, None, 0.0)) == key((z.copy(), z + 0.0, None))
    assert key((z, z, None)) != key((z, -z, None))
    assert key((z, z, None)) != key((z, z, z))


def test_states_with_equal_f_are_ordered_by_their_bytes():
    # a 3-cycle 2, 0, 1, 2, ... whose states all have f = 0.  In byte order
    # 0.0 < 2.0 < 1.0, so 2.0 pops 1.0 and the cycle's smallest state, 0.0,
    # is found again at step 4; three more steps confirm it, and the other
    # 93 are replayed.
    taken = []

    def step(x, t_k):
        taken.append(t_k)
        return np.array([(x[0][0] + 1.0) % 3.0]), None, None, 0.0

    got = integrators._states((np.array([2.0]), None, None, 0.0), step,
                              DampingSchedule.zero(), 0.0, 1.0, 100)
    assert [x[0][0] for x in got] == [float((2 + k) % 3) for k in range(1, 101)]
    assert taken == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


class StepwiseSchedule:
    """A schedule whose De over the half step from t_k = k is des[k]."""

    def __init__(self, des):
        self.des = des

    def delta_eta(self, t_a, t_b):
        return self.des[int(t_a)]


def toy_step(sched):
    """A step on n in {0, 1, 10, 11} that reads De: the units digit flips at
    every step and the tens digit when De = 1.  So a state comes back under
    a repeating De pattern, and what follows it depends on the pattern."""
    def step(x, t_k):
        n, de = x[0][0], sched.delta_eta(t_k, t_k + 0.5)
        n = 10.0 * ((n // 10 + de) % 2) + (1.0 - n % 10)
        return np.array([n]), None, None, n
    return step


@given(start=hst.sampled_from([0.0, 1.0, 10.0, 11.0]),
       segments=hst.lists(hst.tuples(hst.lists(hst.integers(0, 1), min_size=1,
                                               max_size=3),
                                     hst.integers(1, 12)),
                          min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_states_are_those_of_a_loop_stepping_each(start, segments):
    # De runs through repeated patterns, so that a run repeats a state with
    # the De of the step before, of the period before, or neither
    sched = StepwiseSchedule([d for pattern, times in segments
                              for d in pattern * times])
    step, x = toy_step(sched), (np.array([start]), None, None, start)
    want = []
    for k in range(len(sched.des)):
        x = step(x, float(k))
        want.append(x[3])
    got = integrators._states((np.array([start]), None, None, start), step,
                              sched, 0.0, 1.0, len(sched.des))
    assert [x[3] for x in got] == want
