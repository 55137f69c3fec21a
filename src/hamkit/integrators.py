"""Flat-space optimisers: damped leapfrog, gradient-flow baseline, rate fits.

Every damped optimiser step (here and in `manifold`) is the conformal half
kick / drift / half kick `_conformal_step`, in the numerically stable
half-step form: the damping enters only through Delta_eta over half a step,
so no large exponentials appear.  Every run is the record loop `_run_steps`,
which evaluates each step at most once: a run that comes back to a state it
was in, byte for byte, replays the steps that followed it.

The run drivers step raw arrays and carry the end-of-step half kick into the
next step, and each state holds f at its position: the flat run takes
f(q_{k+1}) from the kick's fused `Problem.value_and_grad` call.  A validated
`PhasePoint` exists only at the edges, and the public one-step functions
are thin wrappers over the same raw steps.  Per-step
vector products call `ndarray.dot`: `@`'s BLAS routine at half the call cost.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (KineticMetric, PhasePoint, _all_finite, _check_dims,
                   evaluate_hamiltonian)
from .errors import DivergenceError, DomainError, FitDomainError

__all__ = [
    "OptimizerConfig",
    "Trajectory",
    "dissipative_leapfrog_step",
    "gradient_flow_step",
    "run_optimizer",
    "fit_rate",
]


@dataclass
class OptimizerConfig:
    """Run parameters for the flat-space optimisers.

    metric='auto' resolves to (step size) * I, the convenient default for
    optimisation runs; explicit metrics are honoured as given.
    """

    step: float
    num_steps: int
    schedule: "DampingSchedule"
    x0: PhasePoint
    metric: object = "auto"
    record_every: int = 1
    divergence_threshold: float = 1e12
    target_gap: float | None = None

    def __post_init__(self):
        _check_run(self.step, self.num_steps, self.record_every,
                   self.target_gap)
        if not self.divergence_threshold > 0:   # NaN fails too
            raise DomainError("divergence_threshold must be > 0 (inf for no "
                              f"stop), got {self.divergence_threshold!r}")
        if isinstance(self.metric, str) and self.metric == "auto":
            self.metric = KineticMetric.scaled_identity(self.x0.dim, self.step)
        elif not isinstance(self.metric, KineticMetric):
            raise DomainError("metric must be a KineticMetric or 'auto', got "
                              f"{type(self.metric).__name__}")
        if self.metric.dim != self.x0.dim:
            raise DomainError("metric dimension does not match initial state")


_CSV_CHUNK = 2048  # rows converted to Python numbers at a time


def _write_csv(path_or_file, header, fmts, columns):
    """Write `header` and one line per row of `columns`, each value printf-
    formatted by its column's entry of `fmts` ("%d", or "%.17e", from which
    every float64 reads back exactly), to an open file or a new file at a
    path.  Returns the text written.  Rows are converted and formatted
    `_CSV_CHUNK` at a time, so no whole column is held as Python numbers."""
    line = ",".join(fmts) + "\n"
    columns = [np.asarray(c) for c in columns]
    parts = [header + "\n"]
    for i in range(0, max(map(len, columns)), _CSV_CHUNK):
        rows = zip(*(c[i:i + _CSV_CHUNK].tolist() for c in columns), strict=True)
        parts.append("".join(line % row for row in rows))
    body = "".join(parts)
    if hasattr(path_or_file, "write"):
        path_or_file.write(body)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(body)
    return body


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
        gaps = self.gaps if self.gaps is not None else np.full(len(self), math.nan)
        return _write_csv(path_or_file, f"step,time,value,gap,{self.extra_name}",
                          ["%d"] + ["%.17e"] * 4,
                          [self.steps, self.times, self.values, gaps, self.extra])


def _half_step_eta(sched, t_k, dt):
    """De over [t_k, t_k + dt/2]: all of t_k that a step reads."""
    return sched.delta_eta(t_k, t_k + 0.5 * dt)


def _conformal_step(q, p, half_kick, t_k, dt, sched, kick, drift,
                    project=lambda q, p: p):
    """One conformal-symplectic step from (q_k, p_k) at time t_k:

    p_{k+1/2} = exp(-De) L(q_k) (p_k - (dt/2) kick(q_k, p_k))
    q_{k+1}, p_{k+1/2} = drift(q_k, p_{k+1/2}, dt cosh(De), exp(-De))
    p_{k+1}   = L(q_{k+1}) (exp(-De) p_{k+1/2} - (dt/2) kick(q_{k+1}, p_{k+1/2}))

    De is the exact damping integral over [t_k, t_k + dt/2] and L the momentum
    map `project(q, p)` (default: identity).  A drift may also correct
    p_{k+1/2} (RATTLE's multiplier kick).  `half_kick` is (dt/2) kick(q_k, p_k),
    or None to evaluate it.  Returns (q_{k+1}, p_{k+1}, the half kick
    (dt/2) kick(q_{k+1}, p_{k+1/2})), the last being the next step's half kick
    when the kick reads only q and dt stays the same.
    Non-finite results, or a De whose cosh overflows, raise DivergenceError.
    """
    if half_kick is None:
        half_kick = 0.5 * dt * kick(q, p)
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
    half_kick = 0.5 * dt * kick(q_new, p_half)
    p_new = project(q_new, decay * p_half - half_kick)
    if not (_all_finite(q_new) and _all_finite(p_new)):
        raise DivergenceError(f"non-finite state after step at t={t_k}; "
                              "step size too large?")
    return q_new, p_new, half_kick


def _flat_drift(inv_mul):
    """The flat drift of `_conformal_step`: q + h g^{-1} p, p unchanged."""
    return lambda q, p, h, decay: (q + h * inv_mul(p), p)


def _leapfrog_step(cfg, prob):
    """`dissipative_leapfrog_step` on raw arrays, built once per run: returns
    step(x, t_k) for x = (q, p, half kick, f(q)); see `_conformal_step`.  The
    kick takes f and grad f from one `prob.value_and_grad` call, and the step
    returns f(q_{k+1}) with the state, so a run evaluates each point once.
    """
    dt, sched, drift = cfg.step, cfg.schedule, _flat_drift(cfg.metric.inv_mul)
    value_and_grad, f_new = prob.value_and_grad, [None]

    def kick(q, p):
        f_new[0], g = value_and_grad(q)
        return g

    def step(x, t_k):
        q, p, half_kick = _conformal_step(x[0], x[1], x[2], t_k, dt, sched,
                                          kick, drift)
        return q, p, half_kick, f_new[0]

    return step


def dissipative_leapfrog_step(x, t_k, cfg, prob):
    """One damped leapfrog step from (q_k, p_k) at time t_k.

    The conformal step with kick grad f and drift
    q_{k+1} = q_k + dt cosh(De) g^{-1} p_{k+1/2}, whose plus sign makes the
    undamped limit the classical leapfrog.  f itself is not evaluated.
    """
    q, p, _ = _conformal_step(x.q, x.p, None, t_k, cfg.step, cfg.schedule,
                              lambda q, p: prob.grad(q),
                              _flat_drift(cfg.metric.inv_mul))
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


def _check_dt(dt):
    """DomainError unless the step size dt is finite and > 0."""
    if not 0 < dt < math.inf:   # NaN fails too
        raise DomainError(f"step size dt must be finite and > 0, got {dt!r}")


def _check_run(dt, num_steps, record_every, target_gap):
    """DomainError, naming the field, unless the step size dt is finite and
    > 0, num_steps and record_every are integers >= 1, and target_gap is
    None or finite and > 0."""
    _check_dt(dt)
    for name, n in (("num_steps", num_steps), ("record_every", record_every)):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {n!r}")
    if target_gap is not None and not 0 < target_gap < math.inf:
        raise DomainError("target_gap must be None or finite and > 0, got "
                          f"{target_gap!r}")


def _states(x, advance, sched, t0, dt, num_steps):
    """Yield x_1, ..., x_num_steps, x_k = advance(x_{k-1}, t_{k-1}), taking
    each step at most once (see `_run_steps`).

    Brent's cycle finding keeps one checkpoint, moved to x_k when k is a
    power of two steps past it, and compares a state's bytes with it only
    when their f agree.  Once x_k repeats it, one more period is stepped,
    noting each step's De; if that brings x back to x_k, the noted states
    are replayed while each step's De is the noted one.  A step's
    DivergenceError, or OverflowError (math.exp, say), is re-raised as a
    DivergenceError with the step's index.
    """
    k, ck, k_ck, power = 0, x, 0, 1
    try:
        while k < num_steps:
            k += 1
            x = advance(x, t0 + (k - 1) * dt)
            yield x
            if x[3] == ck[3] and _key(x) == _key(ck):
                start, cycle = _key(x), []
                for _ in range(k - k_ck):
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
                ck, k_ck, power = x, k, 1   # find cycles afresh from here
            elif k - k_ck == power:
                ck, k_ck, power = x, k, 2 * power
    except DivergenceError as exc:
        raise DivergenceError(str(exc), step=k) from None
    except OverflowError as exc:
        raise DivergenceError(f"overflow in step: {exc}", step=k) from exc


def _run_steps(x, advance, extra, sched, dt, num_steps, f_star,
               record_every=1, target_gap=None, too_far=None,
               extra_name="energy"):
    """Record/stop loop of every optimiser run; returns (Trajectory, last state).

    `advance(x, t_k)` steps from t_k, under the damping schedule `sched` from
    its start time; each state holds f at its position in x[3], and
    `extra(x)` is the fifth column.  Records step 0, every `record_every`-th,
    the last and any stopping step; stops on `too_far(x)` or a gap below
    `target_gap`.  One rule holds for every run's parameters (`_check_run`):
    dt finite and > 0, num_steps and record_every integers >= 1, target_gap
    None or finite and > 0; anything else raises DomainError naming it.

    The states come from `_states`, which takes each step at most once: a
    run that comes back to a state it was in, byte for byte in (q, p, half
    kick), replays the steps that followed it.  That is exact because a step
    reads only x[:3] (the rest are outputs, or functions of q such as
    RATTLE's J and factor of R_g) and reads t_k only through De, which it
    takes from `_half_step_eta` as `_states` does; so a replayed step has
    the input and De of one already taken, and its state still goes through
    `extra`, `too_far` and the gap test.  f and grad f must be deterministic.
    """
    _check_run(dt, num_steps, record_every, target_gap)
    t0 = sched.start_time()
    watch_gap = target_gap is not None and f_star is not None
    rows = [(0, t0, x[3], extra(x))]
    reason = "completed"
    for k, x in enumerate(_states(x, advance, sched, t0, dt, num_steps), 1):
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


_METHODS = ("dissipative_leapfrog", "gradient_flow")


def run_optimizer(cfg, prob, method="dissipative_leapfrog"):
    """Run an optimiser and record a Trajectory.

    Terminates early (with a recorded reason) on divergence of |f| or ||q||
    beyond cfg.divergence_threshold, or when the objective gap drops below
    cfg.target_gap.
    """
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {_METHODS}")
    leapfrog = method == "dissipative_leapfrog"
    g = cfg.metric
    _check_dims(cfg.x0.dim, g, prob)

    def flow(x, t_k):
        q = gradient_flow_step(x[0], cfg.step, prob)
        return q, x[1], None, prob.value(q)

    def energy(x):
        if not leapfrog:
            return x[3]
        h = 0.5 * g.quad_inv(x[1]) + x[3]
        # a non-finite term raises NumericOverflowError there
        return h if math.isfinite(h) else evaluate_hamiltonian(
            PhasePoint(x[0], x[1]), g, prob)

    # x = (q, p, (dt/2) grad f(q) or None for the flow, f(q))
    q0, p0 = cfg.x0.q, cfg.x0.p
    if leapfrog:
        f0, grad0 = prob.value_and_grad(q0)   # one evaluation per point
        x0 = (q0, p0, 0.5 * cfg.step * grad0, f0)
        advance = _leapfrog_step(cfg, prob)
    else:
        x0, advance = (q0, p0, None, prob.value(q0)), flow
    thr = cfg.divergence_threshold
    traj, _ = _run_steps(
        x0, advance, energy, cfg.schedule, cfg.step, cfg.num_steps,
        prob.f_star, record_every=cfg.record_every, target_gap=cfg.target_gap,
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
