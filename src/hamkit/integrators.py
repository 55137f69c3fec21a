"""Flat-space optimisers: damped leapfrog, gradient-flow baseline, rate fits.

Every damped optimiser step (here and in `manifold`) is the conformal half
kick / drift / half kick `_conformal_step`, in the numerically stable
half-step form: the damping enters only through Delta_eta over half a step,
so no large exponentials appear.  Every run is the record loop `_run_steps`,
which evaluates each step at most once: a run that comes back to a state it
was in, byte for byte, replays the steps that followed it.  The flat, SO(n)
and RATTLE runs take (start, prob, dt, metric, schedule, ...), their steps
(state, t_k, dt, metric, schedule, prob, ...), and `_run_steps` checks the
dt and length of every run.

Each run's raw step maps its state tuple, which begins (q, p, end-of-step
half kick, f(q)), to the next.  `_conformal_step` returns those four: every
run, flat, SO(n) or RATTLE, takes f(q_{k+1}) from its force, the kick's one
`Problem.value_and_grad` call.  A validated `PhasePoint` exists only at the
edges, and the public one-step functions are thin wrappers over the same raw
steps.  Per-step vector products call `ndarray.dot`: `@`'s BLAS routine at
half the call cost.
"""
from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (KineticMetric, PhasePoint, _all_finite, _check_count,
                   _check_dims, _check_positive, evaluate_hamiltonian)
from .errors import DivergenceError, DomainError, FitDomainError

__all__ = [
    "Trajectory",
    "dissipative_leapfrog_step",
    "gradient_flow_step",
    "run_optimizer",
    "fit_rate",
]


_CSV_CHUNK = 2048  # rows converted to Python numbers at a time
_STACK_ROWS = 64   # most entries `_states`' stack holds; it drops the bottom one


def _write_csv(path_or_file, header, fmts, columns):
    """Write `header` and one line per row of `columns`, each value printf-
    formatted by its column's entry of `fmts` ("%d", or "%.17e", from which
    every float64 reads back exactly), to an open file or a new file at a
    path.  Returns the text written.

    Columns of unequal length raise ValueError before any file is opened.
    Rows are converted and formatted `_CSV_CHUNK` at a time, and each block
    is written as soon as it is formatted: no whole column is held as Python
    numbers, and the text is held once, in its blocks, until they are joined
    for the return value."""
    line = ",".join(fmts) + "\n"
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")

    def write(fh):
        blocks = [header + "\n"]
        fh.write(blocks[0])
        for i in range(0, len(columns[0]), _CSV_CHUNK):
            rows = zip(*(c[i:i + _CSV_CHUNK].tolist() for c in columns))
            blocks.append("".join(line % row for row in rows))
            fh.write(blocks[-1])
        return "".join(blocks)

    if hasattr(path_or_file, "write"):
        return write(path_or_file)
    with open(path_or_file, "w") as fh:
        return write(fh)


@dataclass
class Trajectory:
    """Recorded optimisation history at spacing step * record_every."""

    steps: np.ndarray           # iteration indices
    times: np.ndarray
    values: np.ndarray          # f(q_k)
    gaps: np.ndarray | None     # f(q_k) - f_star when the minimum is known
    extra: np.ndarray           # H(q_k, p_k), or a geometric fidelity measure
    reason: str = "completed"
    extra_name: str = "energy"

    def __len__(self):
        return len(self.times)

    def to_csv(self, path_or_file):
        """Write the five columns (gap NaN when the minimum is unknown) to an
        open file or a new file at a path, `_CSV_CHUNK` rows at a time;
        returns the text written."""
        gaps = self.gaps if self.gaps is not None else np.full(len(self), math.nan)
        return _write_csv(path_or_file, f"step,time,value,gap,{self.extra_name}",
                          ["%d"] + ["%.17e"] * 4,
                          [self.steps, self.times, self.values, gaps, self.extra])


def _half_step_eta(sched, t_k, dt):
    """De over [t_k, t_k + dt/2]: all of t_k that a step reads."""
    return sched.delta_eta(t_k, t_k + 0.5 * dt)


def _conformal_step(q, p, half_kick, t_k, dt, sched, force, drift,
                    project=lambda q, p: p):
    """One conformal-symplectic step from (q_k, p_k) at time t_k:

    p_{k+1/2} = exp(-De) L(q_k) (p_k - (dt/2) kick(q_k, p_k))
    q_{k+1}, p_{k+1/2} = drift(q_k, p_{k+1/2}, dt cosh(De), exp(-De))
    p_{k+1}   = L(q_{k+1}) (exp(-De) p_{k+1/2} - (dt/2) kick(q_{k+1}, p_{k+1/2}))

    De is the exact damping integral over [t_k, t_k + dt/2] and L the momentum
    map `project(q, p)` (default: identity).  A drift may also correct
    p_{k+1/2} (RATTLE's multiplier kick).  `force(q, p)` returns
    (f(q) or None, kick(q, p)) from one evaluation.  `half_kick` is
    (dt/2) kick(q_k, p_k), or None to evaluate it.  Returns (q_{k+1}, p_{k+1},
    the half kick (dt/2) kick(q_{k+1}, p_{k+1/2}), f(q_{k+1})): the first four
    entries of every run's state, the half kick being the next step's when
    the kick reads only q and dt stays the same.
    Non-finite results, or a De whose cosh overflows, raise DivergenceError.
    """
    if half_kick is None:
        half_kick = 0.5 * dt * force(q, p)[1]
    de = _half_step_eta(sched, t_k, dt)
    decay = math.exp(-de)
    p_half = decay * project(q, p - half_kick)
    try:
        h = dt * math.cosh(de)
    except OverflowError:
        raise DivergenceError(f"cosh(De) overflows at t={t_k}: De = {de:g} over "
                              "half a step; damping too strong for the step "
                              "size?") from None
    q_new, p_half = drift(q, p_half, h, decay)
    f_new, kick = force(q_new, p_half)
    half_kick = 0.5 * dt * kick
    p_new = project(q_new, decay * p_half - half_kick)
    if not (_all_finite(q_new) and _all_finite(p_new)):
        raise DivergenceError(f"non-finite state after step at t={t_k}; "
                              "step size too large?")
    return q_new, p_new, half_kick, f_new


def _flat_drift(inv_mul):
    """The flat drift of `_conformal_step`: q + h g^{-1} p, p unchanged."""
    return lambda q, p, h, decay: (q + h * inv_mul(p), p)


def _leapfrog_step(dt, g, sched, prob):
    """`dissipative_leapfrog_step` on raw arrays, built once per run: returns
    the step mapping x = (q, p, half kick, f(q)) at t_k to the next x; see
    `_conformal_step`.  Its force is one `prob.value_and_grad` call, so a
    run evaluates each point once.
    """
    drift, force = _flat_drift(g.inv_mul), lambda q, p: prob.value_and_grad(q)
    return lambda x, t_k: _conformal_step(*x[:3], t_k, dt, sched, force, drift)


def dissipative_leapfrog_step(x, t_k, dt, g, sched, prob):
    """One damped leapfrog step from (q_k, p_k) at time t_k.

    The conformal step with kick grad f and drift
    q_{k+1} = q_k + dt cosh(De) g^{-1} p_{k+1/2}, whose plus sign makes the
    undamped limit the classical leapfrog.  f itself is not evaluated.
    """
    q, p, _, _ = _conformal_step(x.q, x.p, None, t_k, dt, sched,
                                 lambda q, p: (None, prob.grad(q)),
                                 _flat_drift(g.inv_mul))
    return PhasePoint(q, p)


def gradient_flow_step(q, dt, prob):
    """Explicit-Euler gradient descent: q - dt * grad f(q)."""
    q_new = q - dt * prob.grad(q)
    if not np.isfinite(q_new).all():
        raise DivergenceError("non-finite iterate in gradient flow")
    return q_new


def _key(x):
    """The bytes of x's (q, p, half kick): -0.0 is not 0.0, None is None."""
    return tuple(a if a is None else a.tobytes() for a in x[:3])


def _check_run(dt, num_steps, record_every, target_gap):
    """DomainError, naming the field, unless the step size dt is finite and
    > 0, num_steps and record_every are integers >= 1, and target_gap is
    None or finite and > 0."""
    _check_positive("step size dt", dt)
    _check_count("num_steps", num_steps, 1)
    _check_count("record_every", record_every, 1)
    if target_gap is not None:
        _check_positive("target_gap, if not None,", target_gap)


def _states(x, advance, sched, t0, dt, num_steps):
    """Yield x_1, ..., x_num_steps, x_k = advance(x_{k-1}, t_{k-1}), taking
    each step at most once (see `_run_steps`).

    One rule finds cycles, Nivasch's stack: entries (f, step, state) in
    increasing order of f, ties broken by `_key` bytes, read only when f
    ties.  A new state pops every entry above it; one equal to the top
    repeats it, with period k - its step.  So each period up to `_STACK_ROWS`,
    the stack's bound, is found within a period of its first repeat.  Then
    one more period is stepped, noting each step's De; if that brings x back
    to x_k, the noted states are replayed while each step's De is the noted
    one, and the stack restarts from x.  A step's DivergenceError or
    OverflowError (math.exp, say) becomes a DivergenceError with its index.
    """
    k, stack = 0, collections.deque([(x[3], 0, x)], _STACK_ROWS)
    try:
        while k < num_steps:
            k += 1
            x = advance(x, t0 + (k - 1) * dt)
            yield x
            while stack and (stack[-1][0] > x[3] or stack[-1][0] == x[3]
                             and _key(stack[-1][2]) > _key(x)):
                stack.pop()
            if stack and stack[-1][0] == x[3] and _key(stack[-1][2]) == _key(x):
                start, cycle = _key(x), []
                for _ in range(k - stack[-1][1]):
                    if k == num_steps:
                        return
                    t_k, k = t0 + k * dt, k + 1
                    x = advance(x, t_k)
                    cycle.append((_half_step_eta(sched, t_k, dt), x))
                    yield x
                if _key(x) == start:
                    for de, x_next in itertools.cycle(cycle):
                        if (k == num_steps
                                or _half_step_eta(sched, t0 + k * dt, dt) != de):
                            break
                        k, x = k + 1, x_next
                        yield x
                stack.clear()   # find cycles afresh from here
            stack.append((x[3], k, x))
    except DivergenceError as exc:
        raise DivergenceError(str(exc), step=k) from None
    except OverflowError as exc:
        raise DivergenceError(f"overflow in step: {exc}", step=k) from exc


_RECORD_ROWS = 256   # rows of a run's first record columns; full ones double


def _run_steps(x, advance, extra, sched, dt, num_steps, f_star,
               record_every=1, target_gap=None, too_far=None,
               extra_name="energy"):
    """Record/stop loop of every optimiser run; returns (Trajectory, last state).

    `advance(x, t_k)`, a run's raw step, maps the state x at t_k to the next,
    under the damping schedule `sched` from its start time; each state holds
    f at its position in x[3], and `extra(x)` is the fifth column.  Records
    step 0, every `record_every`-th, the last and any stopping step; stops on
    `too_far(x)` or a gap below `target_gap`.  One rule holds for every run's
    parameters (`_check_run`): dt finite and > 0, num_steps and record_every
    integers >= 1, target_gap None or finite and > 0; anything else raises
    DomainError naming it.

    The states come from `_states`, which takes each step at most once: a
    run that comes back to a state it was in, byte for byte in (q, p, half
    kick), replays the steps that followed it.  That is exact because a step
    reads only x[:3] and functions of q (RATTLE's J and factor of R_g); f,
    the fifth column and RATTLE's residual and lambda are its outputs.  It
    reads t_k only through De, which it takes from `_half_step_eta` as
    `_states` does; so a replayed step has the input and De of one already
    taken, and its state still goes through `extra`, `too_far` and the gap
    test.  f and grad f must be deterministic.

    The records go into four typed columns (int64 steps; float64 times, f
    and the fifth column), 8 bytes a value: they start at `_RECORD_ROWS`
    rows, double when full and are sliced to the rows recorded at the end.
    Nothing is allocated for the steps a run does not reach.
    """
    _check_run(dt, num_steps, record_every, target_gap)
    t0 = sched.start_time()
    watch_gap = target_gap is not None and f_star is not None
    cols = ([np.empty(_RECORD_ROWS, np.int64)]
            + [np.empty(_RECORD_ROWS) for _ in range(3)])
    steps, times, values, extras = cols
    steps[0], times[0], values[0], extras[0] = 0, t0, x[3], extra(x)
    n, reason = 1, "completed"
    for k, x in enumerate(_states(x, advance, sched, t0, dt, num_steps), 1):
        diverged = too_far is not None and too_far(x)
        reached = watch_gap and x[3] - f_star < target_gap
        if diverged or reached or k % record_every == 0 or k == num_steps:
            if n == len(steps):
                cols = [np.concatenate((c, np.empty_like(c))) for c in cols]
                steps, times, values, extras = cols
            steps[n], times[n], values[n], extras[n] = (k, t0 + k * dt, x[3],
                                                        extra(x))
            n += 1
        if diverged or reached:
            reason = "diverged" if diverged else "target_reached"
            break
    steps, times, values, extras = (c[:n] for c in cols)
    gaps = values - f_star if f_star is not None else None
    return Trajectory(steps, times, values, gaps, extras, reason,
                      extra_name), x


_METHODS = ("dissipative_leapfrog", "gradient_flow")


def run_optimizer(x0, prob, dt, g, sched, num_steps, record_every=1,
                  target_gap=None, divergence_threshold=1e12,
                  method="dissipative_leapfrog"):
    """Run a flat optimiser from the PhasePoint x0; returns its Trajectory.

    The leapfrog steps under the kinetic metric g (None: dt * I, the usual
    choice for optimisation) and the damping schedule sched.  The run stops
    early, with a recorded reason, when |f| or ||q|| exceeds
    divergence_threshold (inf: never) or the gap drops below target_gap.
    `_run_steps` checks dt, num_steps, record_every and target_gap.
    """
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {_METHODS}")
    _check_positive("step size dt", dt)   # names dt, unlike dt * I's check
    if not divergence_threshold > 0:   # NaN fails too
        raise DomainError("divergence_threshold must be > 0 (inf for no "
                          f"stop), got {divergence_threshold!r}")
    if g is None:
        g = KineticMetric.scaled_identity(x0.dim, dt)
    elif not isinstance(g, KineticMetric):
        raise DomainError("metric g must be a KineticMetric or None, got "
                          f"{type(g).__name__}")
    _check_dims(x0.dim, g, prob)
    leapfrog = method == "dissipative_leapfrog"

    def flow(x, t_k):
        q = gradient_flow_step(x[0], dt, prob)
        return q, x[1], None, prob.value(q)

    def energy(x):
        if not leapfrog:
            return x[3]
        h = 0.5 * g.quad_inv(x[1]) + x[3]
        # a non-finite term raises NumericOverflowError there
        return h if math.isfinite(h) else evaluate_hamiltonian(
            PhasePoint(x[0], x[1]), g, prob)

    # x = (q, p, (dt/2) grad f(q) or None for the flow, f(q))
    if leapfrog:
        f0, grad0 = prob.value_and_grad(x0.q)   # one evaluation per point
        start = (x0.q, x0.p, 0.5 * dt * grad0, f0)
        advance = _leapfrog_step(dt, g, sched, prob)
    else:
        start, advance = (x0.q, x0.p, None, prob.value(x0.q)), flow
    thr = divergence_threshold
    traj, _ = _run_steps(
        start, advance, energy, sched, dt, num_steps, prob.f_star,
        record_every=record_every, target_gap=target_gap,
        too_far=lambda x: abs(x[3]) > thr or math.sqrt(x[0].dot(x[0])) > thr)
    return traj


def fit_rate(traj, model="power_law", burn_in=0.2):
    """Least-squares rate fit on the recorded gaps.

    power_law:   slope of log(gap) vs log(t)  -> returns (exponent, r2)
    exponential: slope of log(gap) vs t       -> returns (rate, r2), rate > 0
                 for decaying gaps

    The first `burn_in` fraction of recorded points is excluded.
    """
    if model not in ("power_law", "exponential"):
        raise DomainError(f"unknown fit model {model!r}")
    if traj.gaps is None:
        raise FitDomainError("trajectory has no gaps (unknown minimum)")
    if not 0.0 <= burn_in < 1.0:
        raise DomainError("burn_in fraction must lie in [0, 1)")
    n = len(traj)
    start = int(math.floor(burn_in * n))
    t = np.asarray(traj.times, float)[start:]
    gaps = np.asarray(traj.gaps, float)[start:]
    if len(gaps) < 10:
        raise FitDomainError(
            f"need >= 10 recorded points in the window, got {len(gaps)}"
        )
    if np.any(gaps <= 0.0):
        raise FitDomainError(
            "non-positive gap inside the fitting window; shrink the window"
        )
    if model == "power_law" and np.any(t <= 0.0):
        raise FitDomainError(
            "non-positive time inside the power-law fitting window; "
            "raise burn_in or start the schedule at t > 0"
        )
    y = np.log(gaps)
    xv = np.log(t) if model == "power_law" else t
    slope, intercept = np.polyfit(xv, y, 1)
    resid = y - (slope * xv + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if model == "power_law":
        return float(slope), r2
    return float(-slope), r2
