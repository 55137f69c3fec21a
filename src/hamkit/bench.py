"""Benchmark harness: strict JSON configs, reproducible runs, verdict reports.

Every verdict threshold lives in the config, never in analysis code; reports
carry enough raw metrics to recompute every verdict offline.
"""
from __future__ import annotations

import importlib
import json
import math
import numbers
import operator
import os
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .core import DampingSchedule, KineticMetric, PhasePoint, Problem
from .discrepancies import (
    GaussianLocationModel,
    KernelSpec,
    ksd_u_statistic,
    mmd_squared,
    sm_ngd_fit,
)
from .errors import ConfigError, DivergenceError, FitDomainError
from .integrators import _METHODS, Trajectory, fit_rate, run_optimizer
from .manifold import (MatrixGroupState, run_lie_optimizer,
                       run_rattle_optimizer, sphere_constraint, trace_objective)
from .problems import banana, gaussian_mixture_1d, quadratic, quartic, rosenbrock, standard_gaussian
from .samplers import overdamped_em_step, run_hmc_chain, write_samples_csv

__all__ = [
    "ExperimentConfig",
    "Report",
    "cmd_optimize",
    "cmd_manifold",
    "cmd_sample",
    "cmd_discrepancy",
    "run_experiment",
    "reevaluate",
]

# Every run draws from numpy.random, which numpy imports on first use; load it
# with the harness, so that its import counts as set-up, not as a run.
# numpy.linalg, all the linear algebra of the manifold runs, loads with numpy
# itself.  np.median and np.percentile would load numpy.ma, which no run
# needs: see _median.
importlib.import_module("numpy.random")


class _Key:
    """A _SCHEMA entry other than a plain default: the key's `kind` and
    `domain`, _RULES its value must pass in turn (a block, a list of blocks
    or a name has neither; each is checked where read), and its `default`.
    A plain class: a dataclass adds about 0.6 ms to import (2-vCPU x86 host)."""

    def __init__(self, kind=None, domain=None, default=None):
        self.kind, self.domain, self.default = kind, domain, default


class _Required(_Key):
    """The entry of a key its block must give."""


class _Optional(_Key):
    """The entry of a key its block may leave out or give as null: None."""


class _Default(_Key):
    """The entry of a key that defaults to `default`, of the key's kind."""

    def __init__(self, default, domain):
        super().__init__(type(default), domain, default)


_REQUIRED, _STR, _STEP = _Required(), _Required(str), _Required("positive")
_COUNT = _Required(int, ">= 1")


def _of(kind):
    """A test for instances of `kind`; a bool is no number."""
    return lambda v: isinstance(v, kind) and (kind is bool or not isinstance(v, bool))


def _list_of(test, size=None):
    """A test for lists of `size` entries, or of at least one, that pass `test`."""
    return lambda v: (isinstance(v, (list, tuple)) and all(map(test, v))
                      and (len(v) == size if size else len(v) > 0))


_INTEGER, _REAL = _of(numbers.Integral), _of(numbers.Real)
_NUMBER = lambda v: _REAL(v) and -math.inf < v < math.inf   # noqa: E731
_POSITIVE = lambda v: _NUMBER(v) and v > 0   # noqa: E731
# The domain of a list whose values each tag their metrics' names, f"{v:g}":
# two values of one tag would overwrite each other's metrics.
_TAGGED = "a list whose values differ in their first 6 significant digits"
# The test a key's value must pass, and its error's text, by rule: a kind (the
# type of a plain _SCHEMA default, or a _Key's kind), then a _Key's domain,
# tested only on a value of its kind.  A number is finite: json.loads takes NaN
# and Infinity.  Other defaults (a None block, a () list) are checked where read.
_RULES = {bool: (_of(bool), "a boolean"), int: (_INTEGER, "an integer"),
          float: (_NUMBER, "a number"), str: (_of(str), "a string"),
          "integers": (_list_of(_INTEGER), "a non-empty list of integers"),
          "numbers": (_list_of(_NUMBER), "a non-empty list of numbers"),
          "positive": (_POSITIVE, "a number > 0"),
          "positives": (_list_of(_POSITIVE), "a non-empty list of numbers > 0"),
          "threshold": (lambda v: _NUMBER(v) or _list_of(_NUMBER, 2)(v),
                        "a number or a [lo, hi] pair of numbers")}
_RULES.update({need: (test, need) for need, test in {   # domains, by their text
    ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
    ">= 10": lambda v: v >= 10, "in [0, 1)": lambda v: 0 <= v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "a list of integers >= 2, each once":   # each tags metrics, as in _TAGGED
        lambda v: min(v) >= 2 and len(set(v)) == len(v),
    _TAGGED: lambda v: len({f"{x:g}" for x in v}) == len(v)}.items()})

# Every config block, by the name its errors use: each allowed key with its
# plain default (whose type is its kind) or its _Key.  _block() checks a block
# against its entry and fills it in.  Each numeric key has a domain or is one
# of the _UNBOUNDED.
_SCHEMA = {
    "config": {"experiment": _REQUIRED, "params": _REQUIRED,
               "seed": _Default(0, ">= 0"), "out_dir": ".",
               "reps": _Default(1, ">= 1")},
    "verdict entry": {"name": _Optional(str), "metric": _STR, "agg": "median",
                      "op": _REQUIRED, "threshold": _Required("threshold")},
    "optimize params": {"problem": _REQUIRED, "method": _REQUIRED,
                        "schedule": _REQUIRED, "step": _STEP, "num_steps": _COUNT,
                        "fit": _REQUIRED, "record_every": _Default(1, ">= 1"),
                        "x0_scale": _Default(2.0, "positive"),
                        "x0": _Optional("numbers"),
                        "target_gap": _Optional("positive"), "verdicts": ()},
    "problem block": {"name": _REQUIRED, "dim": _Default(2, ">= 1"),
                      "mu": _Default(1.0, "positive"), "a": 1.0,
                      "b": _Default(100.0, "positive")},
    "schedule block": {"kind": _REQUIRED, "gamma": _Optional("positive"),
                       "r": _Default(3.0, "positive"), "t0": _Default(1.0, "positive")},
    "fit block": {"model": _REQUIRED, "burn_in": _Default(0.2, "in [0, 1)"),
                  "envelope": False, "envelope_blocks": _Default(30, ">= 10"),
                  "envelope_spacing": "linear"},
    "manifold params": {"n": _COUNT, "step": _STEP,
                        "gammas": _Required("positives", _TAGGED),
                        "max_steps": _COUNT, "target_gap": _Required("positive"),
                        "g_scalar": _Optional("positive"), "c_scale": 1.0,
                        "rattle": None, "verdicts": ()},
    "rattle block": {"dim": _COUNT, "step": _STEP, "num_steps": _COUNT,
                     "gamma": _Default(1.0, "positive"),
                     "radius": _Default(1.0, "positive")},
    "sample params": {"target": _REQUIRED, "sampler": _REQUIRED, "verdicts": ()},
    "target block": {"name": _REQUIRED, "dim": _Default(1, ">= 1"), "ksd_curve": None},
    "ksd_curve block": {"n_points": _Required("integers",
                                              "a list of integers >= 2, each once"),
                        "sigma": _Default(1.0, "positive")},
    "hmc sampler block": {"kind": _REQUIRED, "step": _STEP, "n_leapfrog": _COUNT,
                          "n_draws": _COUNT, "jitter": _Default(0.0, "in [0, 1]"),
                          "burn_in": _Default(0, ">= 0"),
                          "step_grid": _Optional("positives", _TAGGED),
                          "grid_draws": 2000, "write_samples": False},
    "em sampler block": {"kind": _REQUIRED, "dt_grid": _Required("positives", _TAGGED),
                         "n_steps": _COUNT, "burn_in": _Optional(int, ">= 0"),
                         "beta": _Default(1.0, "positive")},
    "discrepancy params": {"tasks": _REQUIRED, "verdicts": ()},
    "sm_ngd task": {"kind": _REQUIRED, "n_samples": _COUNT, "dim": _COUNT,
                    "step": _Default(1.0, "positive"), "n_iter": _Default(50, ">= 1"),
                    "sigma": _Default(1.0, "positive")},
    "mmd task": {"kind": _REQUIRED, "n": _Required(int, ">= 2"),
                 "dim": _Optional(int, ">= 1"), "sigma": _Default(1.0, "positive"),
                 "n_outer": _Default(10, ">= 2"), "samples_file": _Optional(str)},
    "ksd task": {"kind": _REQUIRED, "m": _Required(int, ">= 2"),
                 "dim": _Optional(int, ">= 1"), "sigma": _Default(1.0, "positive"),
                 "shift": 1.0, "samples_file": _Optional(str)},
}
_UNBOUNDED = {   # the numeric keys that take any value of their kind, and why
    ("verdict entry", "threshold"): "a metric may be held to any number",
    ("optimize params", "x0"): "a start may be any point",
    ("problem block", "a"): "the Rosenbrock minimiser (a, a^2) may be anywhere",
    ("manifold params", "c_scale"): "any multiple of a cost matrix is one",
    ("hmc sampler block", "grid_draws"): "cmd_sample checks it with a step_grid",
    ("ksd task", "shift"): "the mismatched score's mean may be any number",
}
_VARIANTS = {   # blocks in variants: their "kind" names the _SCHEMA entry
    "sampler": {"hmc": "hmc sampler block", "em": "em sampler block"},
    "discrepancy task": {"sm_ngd": "sm_ngd task", "mmd_ustat_zero": "mmd task",
                         "ksd_mismatch": "ksd task"},
}


def _choose(table, name, what):
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {what} {name!r}; choose from {sorted(table)}")
    return table[name]


def _block(raw, where):
    """A copy of config block `raw` with its defaults filled in, after
    checking its keys against _SCHEMA[where] and its values against their
    kinds and domains in _RULES."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(raw).__name__}")
    if where in _VARIANTS:
        where = _choose(_VARIANTS[where], raw.get("kind"), f"{where} kind")
    schema = _SCHEMA[where]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = {k for k, v in schema.items() if isinstance(v, _Required)} - set(raw)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")
    for key, value in raw.items():
        entry = schema[key]
        if isinstance(entry, _Optional) and value is None:
            continue
        rules = ((entry.kind, entry.domain) if isinstance(entry, _Key)
                 else (type(entry),))
        for rule in rules:
            if rule in _RULES and not _RULES[rule][0](value):
                raise ConfigError(f"{key!r} in {where} must be "
                                  f"{_RULES[rule][1]}, got {value!r}")
    return {**{k: v.default if isinstance(v, _Key) else v
               for k, v in schema.items()}, **raw}


def _blocks(parent, key, where):
    """_block of each entry of the list parent[key], each a `where`."""
    raw = parent[key]
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{key!r} must be a JSON list of {where} objects, "
                          f"got {type(raw).__name__}")
    return [_block(entry, where) for entry in raw]


def _zscore(vals):
    """|mean| over its standard error; inf when that error is 0 or undefined."""
    if len(vals) < 2:
        return math.inf
    se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    return abs(float(np.mean(vals))) / se if se > 0 else math.inf


def _median(vals):
    """np.median(vals) of a 1-d float array, bit for bit, without the numpy.ma
    import np.median makes: numpy's partition at numpy's indices (which of
    0.0 and -0.0 lands where), then numpy's mean of the middle one or two
    values (a sum from +0.0), or the NaN when there is one."""
    n, h = len(vals), len(vals) // 2
    part = np.partition(vals, [h, -1] if n % 2 else [h - 1, h, -1]).tolist()
    if math.isnan(part[-1]):
        return part[-1]
    return 0.0 + part[h] if n % 2 else (0.0 + part[h - 1] + part[h]) / 2.0


def _quartiles(vals):
    """np.percentile(vals, [25, 75]) likewise: numpy's "linear" lerp at the
    virtual index (n - 1) q.  At or past the last index both neighbours are
    the last value and the weight is the index + 1, so a lone +-inf gives NaN."""
    n, spots = len(vals), []   # (previous index, next index, weight) each
    for v in ((n - 1) * 0.25, (n - 1) * 0.75):
        i = -1 if v >= n - 1 else math.floor(v)
        spots.append((i, -1 if i == -1 else i + 1, v - i))
    part = np.partition(vals, sorted({0, -1, *(k for s in spots for k in s[:2])}))
    part = part.tolist()
    if math.isnan(part[-1]):
        return part[-1], part[-1]
    ends = [(part[i], part[j], t) for i, j, t in spots]
    return tuple(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
                 for a, b, t in ends)


_AGGS = {"median": _median, "min": np.min, "max": np.max, "mean": np.mean,
         "zscore": _zscore}
_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
        ">": operator.gt, "in": lambda value, thr: thr[0] <= value <= thr[1]}


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description.  Round-trips through JSON."""

    experiment: str
    params: dict
    seed: int = _SCHEMA["config"]["seed"].default
    out_dir: str = _SCHEMA["config"]["out_dir"]
    reps: int = _SCHEMA["config"]["reps"].default

    def __post_init__(self):
        _choose(_COMMANDS, self.experiment, "experiment")
        _block(vars(self), "config")   # seed, out_dir and reps
        self.seed, self.reps = int(self.seed), int(self.reps)
        params = _block(self.params, f"{self.experiment} params")
        for v in _blocks(params, "verdicts", "verdict entry"):
            _check_verdict(v)

    @classmethod
    def parse(cls, text):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls(**_block(raw, "config"))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.parse(fh.read())

    def serialise(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _check_verdict(v):
    """Verdict entry v, after checking its op, aggregate and threshold."""
    _choose(_OPS, v["op"], "verdict op")
    _choose(_AGGS, v["agg"], "verdict aggregate")
    if (v["op"] == "in") != isinstance(v["threshold"], (list, tuple)):
        need = "a [lo, hi]" if v["op"] == "in" else "a number"
        raise ConfigError(f"{v['op']!r} verdicts need {need} threshold")
    if v["op"] == "in" and v["threshold"][0] > v["threshold"][1]:
        raise ConfigError(f"'in' verdicts need lo <= hi, got {v['threshold']!r}")
    return v


def _evaluate_verdicts(verdict_specs, per_rep):
    out = []
    for spec in verdict_specs:
        v = _check_verdict(_block(spec, "verdict entry"))
        metric = v["metric"]
        values = [rep[metric] for rep in per_rep if metric in rep]
        value = (float(_AGGS[v["agg"]](np.asarray(values, float)))
                 if values else None)
        out.append({"name": metric if v["name"] is None else v["name"],
                    "metric": metric, "agg": v["agg"], "op": v["op"],
                    "threshold": v["threshold"], "value": value,
                    "pass": value is not None
                    and bool(_OPS[v["op"]](value, v["threshold"]))})
    return out


@dataclass
class Report:
    """Experiment outcome: raw per-repetition metrics, aggregates, verdicts."""

    experiment: str
    per_rep: list
    verdicts: list
    substitutions: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(v["pass"] for v in self.verdicts)

    def aggregates(self):
        keys = sorted({k for rep in self.per_rep for k in rep
                       if isinstance(rep[k], (int, float))})
        agg = {}
        for k in keys:
            vals = np.asarray([rep[k] for rep in self.per_rep if k in rep], float)
            q25, q75 = _quartiles(vals)
            agg[k] = {"median": _median(vals), "iqr": q75 - q25}
        return agg

    def to_dict(self):
        return {**asdict(self), "aggregates": self.aggregates(),
                "passed": self.passed}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"report_{self.experiment}.json")
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path


def reevaluate(report_dict, verdict_specs):
    """Recompute verdicts from a stored report's per-rep metrics."""
    return _evaluate_verdicts(verdict_specs, report_dict["per_rep"])


def _run_reps(cfg, worker):
    """Run `worker(rep_index, rng)` for each repetition, in order, each on its
    own numpy Generator, seeded by one child of SeedSequence(cfg.seed)."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.reps)
    return [worker(i, np.random.default_rng(s)) for i, s in enumerate(seeds)]


# ---------------------------------------------------------------- problems --

_PROBLEMS = {
    "quadratic": lambda b: quadratic(int(b["dim"]), mu=float(b["mu"])),
    "quartic": lambda b: quartic(int(b["dim"])),
    "rosenbrock": lambda b: rosenbrock(a=float(b["a"]), b=float(b["b"])),
}
_SCHEDULES = {
    "constant": lambda b: DampingSchedule.constant(float(b["gamma"])),
    "vanishing": lambda b: DampingSchedule.vanishing(r=float(b["r"]),
                                                     t0=float(b["t0"])),
    "zero": lambda b: DampingSchedule.zero(),
}
_TARGETS = {"gaussian": lambda b: standard_gaussian(int(b["dim"])),
            "gaussian_mixture": lambda b: gaussian_mixture_1d(),
            "banana": lambda b: banana()}
_FIT_MODELS = {"power_law": "exponent", "exponential": "rate"}   # metric names


def _envelope(traj, n_blocks, spacing="linear"):
    """Block-maximum preprocessing of the gap curve before a rate fit.

    Damped trajectories oscillate under the rate envelope; fitting block
    maxima recovers the envelope exponent.  Power-law fits regress log-gap on
    log-time, so "log" spacing (blocks equal-width in log time) keeps the
    regression points evenly weighted across decades.
    """
    n = len(traj)
    if spacing == "linear":
        edges = np.linspace(0, n, n_blocks + 1).astype(int)
    else:   # "log"
        t_lo = max(float(traj.times[0]), float(traj.times[-1]) * 1e-6)
        t_edges = np.geomspace(max(t_lo, np.finfo(float).tiny),
                               float(traj.times[-1]), n_blocks + 1)
        edges = np.searchsorted(traj.times, t_edges)
        edges[-1] = n
    times, gaps = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        j = lo + int(np.argmax(traj.gaps[lo:hi]))
        times.append(traj.times[j])
        gaps.append(traj.gaps[j])
    return Trajectory(steps=np.arange(len(times)), times=np.asarray(times),
                      values=np.asarray(gaps), gaps=np.asarray(gaps),
                      extra=np.zeros(len(times)))


def cmd_optimize(cfg, p):
    """Rate-table experiment: run an optimiser, fit the decay, check verdicts."""
    fit = _block(p["fit"], "fit block")
    _choose(dict.fromkeys(("linear", "log")), fit["envelope_spacing"],
            "envelope spacing")
    problem = _block(p["problem"], "problem block")
    prob = _choose(_PROBLEMS, problem["name"], "problem")(problem)
    if p["x0"] is not None and len(p["x0"]) != prob.dim:
        raise ConfigError(f"'x0' in optimize params must be a list of {prob.dim} "
                          f"numbers, the problem's dim, got {p['x0']!r}")
    schedule = _block(p["schedule"], "schedule block")
    if schedule["kind"] == "constant" and schedule["gamma"] is None:
        raise ConfigError("constant schedule needs 'gamma'")
    sched = _choose(_SCHEDULES, schedule["kind"], "schedule kind")(schedule)
    _choose(dict.fromkeys(_METHODS), p["method"], "method")
    rate_key = _choose(_FIT_MODELS, fit["model"], "fit model")
    notes = []

    def worker(i, rng):
        if p["x0"] is not None:
            q0 = np.asarray(p["x0"], float)
        else:
            q0 = rng.standard_normal(prob.dim)
            q0 = float(p["x0_scale"]) * q0 / np.linalg.norm(q0)
        try:
            traj = run_optimizer(
                PhasePoint(q0, np.zeros(prob.dim)), prob, float(p["step"]),
                None, sched, int(p["num_steps"]),
                record_every=int(p["record_every"]),
                target_gap=p["target_gap"], method=p["method"])
        except DivergenceError as exc:
            return {"diverged": 1.0, "divergence_step": float(exc.step or -1)}
        traj.to_csv(os.path.join(cfg.out_dir, f"optimize_rep{i}.csv"))
        metrics = {"diverged": float(traj.reason == "diverged"),
                   "final_value": float(traj.values[-1])}
        if traj.gaps is not None:
            metrics["final_gap"] = float(traj.gaps[-1])
        if metrics["diverged"]:
            return metrics
        fit_traj = traj
        if fit["envelope"]:
            fit_traj = _envelope(traj, int(fit["envelope_blocks"]),
                                 spacing=fit["envelope_spacing"])
        try:
            slope, r2 = fit_rate(fit_traj, model=fit["model"],
                                 burn_in=float(fit["burn_in"]))
            metrics[rate_key] = slope
            metrics["r2"] = r2
        except FitDomainError as exc:
            metrics["fit_failed"] = 1.0
            notes.append(f"rep {i}: rate fit failed: {exc}")
        return metrics

    substitutions = []
    if problem["name"] == "quartic":
        substitutions.append("quartic objective stands in for the generic "
                             "convex rate-table row")
    return worker, substitutions, notes


def cmd_manifold(cfg, p):
    """Damping-regime comparison on SO(n), plus an optional sphere RATTLE run."""
    n = int(p["n"])
    if n > 100:
        raise ConfigError("manifold experiments are desk scale: n <= 100")
    dt = float(p["step"])
    g_scalar = dt if p["g_scalar"] is None else float(p["g_scalar"])
    gammas = [float(g) for g in p["gammas"]]
    max_steps = int(p["max_steps"])
    target_gap = float(p["target_gap"])
    rattle = None if p["rattle"] is None else _block(p["rattle"], "rattle block")

    def worker(i, rng):
        c_mat = float(p["c_scale"]) * rng.standard_normal((n, n))
        prob = trace_objective(c_mat)
        st0 = MatrixGroupState(np.eye(n), np.zeros((n, n)))
        metrics = {}
        steps_needed = {}
        for gamma in gammas:
            traj, _ = run_lie_optimizer(
                st0, prob, dt, g_scalar, DampingSchedule.constant(gamma),
                max_steps, record_every=1, target_gap=target_gap)
            # Unreached targets count as max_steps + 1 (a censored step count).
            reached = traj.reason == "target_reached"
            steps = int(traj.steps[-1]) if reached else max_steps + 1
            steps_needed[gamma] = steps
            tag = f"{gamma:g}"
            metrics[f"steps_to_target_gamma_{tag}"] = float(steps)
            metrics[f"reached_gamma_{tag}"] = float(reached)
            metrics[f"max_defect_gamma_{tag}"] = float(np.max(traj.extra))
        metrics["max_defect"] = max(
            metrics[f"max_defect_gamma_{g:g}"] for g in gammas)
        if len(gammas) >= 2:
            low, high = min(gammas), max(gammas)
            metrics["underdamped_faster"] = float(
                steps_needed[low] < steps_needed[high])
        if rattle is not None:
            d = int(rattle["dim"])
            c_vec = rng.standard_normal(d)
            radius = float(rattle["radius"])
            prob_lin = Problem(d, value=lambda q: float(c_vec.dot(q)),
                               grad=lambda q: c_vec,
                               f_star=-radius * float(np.linalg.norm(c_vec)))
            q0 = rng.standard_normal(d)
            q0 = radius * q0 / np.linalg.norm(q0)
            g_metric = KineticMetric.scaled_identity(d, float(rattle["step"]))
            traj, x_end = run_rattle_optimizer(
                PhasePoint(q0, np.zeros(d)), prob_lin, float(rattle["step"]),
                g_metric, DampingSchedule.constant(float(rattle["gamma"])),
                sphere_constraint(radius), int(rattle["num_steps"]))
            q_star = -radius * c_vec / np.linalg.norm(c_vec)
            metrics["rattle_residual_max"] = float(np.max(traj.extra))
            metrics["rattle_opt_error"] = float(
                np.linalg.norm(x_end.q - q_star))
        return metrics

    return worker, [f"SO({n}) trace objective stands in for the SO(500) "
                    "spin-glass instance (desk scale)"], []


def _in_key_order(metrics, tag, keys):
    """The metrics `tag % key` in ascending order of key (a grid's dt or n),
    so that no comparison of them depends on the order of the config's list."""
    return [metrics[tag % k] for k in sorted(keys, key=float)]


def cmd_sample(cfg, p):
    """Sampler validation: moments, acceptance curves and discretisation bias."""
    target = _block(p["target"], "target block")
    prob = _choose(_TARGETS, target["name"], "target")(target)
    gaussian = target["name"] == "gaussian"   # moments are checked against N(0, I)
    ksd_curve = (None if target["ksd_curve"] is None
                 else _block(target["ksd_curve"], "ksd_curve block"))
    if ksd_curve is not None and not gaussian:
        raise ConfigError(f"ksd_curve scores N(0, I) draws; it needs the "
                          f"gaussian target, not {target['name']!r}")
    samp = _block(p["sampler"], "sampler")
    kind = samp["kind"]
    if kind == "hmc":
        burn = int(samp["burn_in"])
        grid = samp["step_grid"]
        if grid and samp["grid_draws"] < 1:
            raise ConfigError(f"'grid_draws' in hmc sampler block must be >= 1 "
                              f"with a step_grid, got {samp['grid_draws']!r}")
    else:
        n_steps = int(samp["n_steps"])
        burn = n_steps // 10 if samp["burn_in"] is None else int(samp["burn_in"])
        if burn >= n_steps:
            raise ConfigError(f"em sampler needs burn_in < n_steps, got {burn}")
        if not gaussian:
            raise ConfigError(f"the em sampler's var_dt_* and bias_monotone "
                              f"measure the distance from N(0, I); it needs "
                              f"the gaussian target, not {target['name']!r}")

    def worker(i, rng):
        metrics = {}
        if kind == "hmc":
            g = KineticMetric.identity(prob.dim)
            chain, samples = run_hmc_chain(
                prob, g, float(samp["step"]), int(samp["n_leapfrog"]),
                int(samp["n_draws"]) + burn, rng,
                jitter=float(samp["jitter"]))
            kept = samples[burn:]
            metrics["acceptance"] = chain.acceptance_rate
            metrics["incidents"] = float(chain.incidents)
            if gaussian:
                metrics["mean_abs_max"] = float(np.max(np.abs(kept.mean(axis=0))))
                metrics["var_err_max"] = float(
                    np.max(np.abs(kept.var(axis=0) - 1.0)))
            if samp["write_samples"]:
                write_samples_csv(
                    os.path.join(cfg.out_dir, f"samples_rep{i}.csv"),
                    kept, chain_id=i)
            if grid:
                for dt in grid:
                    sub, _ = run_hmc_chain(
                        prob, g, float(dt), max(1, round(1.0 / float(dt))),
                        int(samp["grid_draws"]), rng, keep_samples=False)
                    metrics[f"acceptance_dt_{dt:g}"] = sub.acceptance_rate
                accs = _in_key_order(metrics, "acceptance_dt_%g", grid)
                metrics["acceptance_monotone"] = float(
                    all(a >= b - 0.02 for a, b in zip(accs, accs[1:])))
        else:  # em
            beta = float(samp["beta"])
            for dt in samp["dt_grid"]:
                dt = float(dt)
                q = np.zeros(prob.dim)
                acc2 = 0.0
                kept = 0
                for k in range(n_steps):
                    q = overdamped_em_step(q, prob, dt, beta, rng)
                    if k >= burn:
                        acc2 += float(q @ q) / prob.dim
                        kept += 1
                metrics[f"var_dt_{dt:g}"] = acc2 / kept
            # the bias |var - 1| grows with dt
            biases = [abs(var - 1.0) for var in
                      _in_key_order(metrics, "var_dt_%g", samp["dt_grid"])]
            metrics["bias_monotone"] = float(
                all(a <= b for a, b in zip(biases, biases[1:])))
        if ksd_curve is not None:
            kernel = KernelSpec.gaussian(float(ksd_curve["sigma"]))
            for n_pts in ksd_curve["n_points"]:
                draws = rng.standard_normal((int(n_pts), prob.dim))
                # -draws: the N(0, I) score at each draw
                metrics[f"ksd_n_{int(n_pts)}"] = ksd_u_statistic(
                    draws, -draws, kernel)
            vals = _in_key_order(metrics, "ksd_n_%d", ksd_curve["n_points"])
            metrics["ksd_decreasing"] = float(abs(vals[-1]) < abs(vals[0]))
        return metrics

    return worker, [], []


def _read_samples_csv(path):
    """The q_ columns of a samples CSV, one row per sample."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        q_cols = [j for j, name in enumerate(header) if name.startswith("q_")]
        try:
            with warnings.catch_warnings():
                # a header-only file reads as 0 rows, which _check_pool reports
                warnings.simplefilter("ignore", UserWarning)
                return np.loadtxt(fh, delimiter=",", usecols=q_cols, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"samples file {path}: {exc}") from None


def _check_pool(pool, task):
    """A task's samples file must have the rows it draws and its dimension."""
    need = 2 * int(task["n"]) if task["kind"] == "mmd_ustat_zero" else int(task["m"])
    where = f"samples file {task['samples_file']}"
    if pool.shape[0] < need:
        raise ConfigError(f"{where} has {pool.shape[0]} rows; "
                          f"{task['kind']} needs {need}")
    if pool.shape[1] == 0:
        raise ConfigError(f"{where} has no q_ columns")
    if task["dim"] is not None and int(task["dim"]) != pool.shape[1]:
        raise ConfigError(f"{where} has {pool.shape[1]} q_ columns; "
                          f"the task says dim {task['dim']}")


def cmd_discrepancy(cfg, p):
    """Estimator checks: NGD fitting, MMD unbiasedness, KSD power."""
    tasks = _blocks(p, "tasks", "discrepancy task")
    pools = {}   # samples_file -> its rows, read once for every worker
    for task in tasks:
        path = task.get("samples_file")   # sm_ngd tasks have no such key
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"samples file not found: {path}")
            if path not in pools:
                pools[path] = _read_samples_csv(path)
            _check_pool(pools[path], task)

    def worker(i, rng):
        metrics = {}
        for task in tasks:
            d = 1 if task["dim"] is None else int(task["dim"])
            if task["kind"] == "sm_ngd":
                data = rng.standard_normal((int(task["n_samples"]), d)) + 1.5
                model = GaussianLocationModel(np.zeros(d), sigma=float(task["sigma"]))
                theta, hist = sm_ngd_fit(data, model, rng,
                                         n_iter=int(task["n_iter"]),
                                         step=float(task["step"]))
                metrics["sm_ngd_theta_err"] = float(
                    np.linalg.norm(theta - data.mean(axis=0)))
                metrics["sm_ngd_iters"] = float(len(hist) - 1)
            elif task["kind"] == "mmd_ustat_zero":
                n = int(task["n"])
                n_outer = int(task["n_outer"])
                kernel = KernelSpec.gaussian(float(task["sigma"]))
                vals = []
                for _ in range(n_outer):
                    if task["samples_file"] is not None:
                        pool = pools[task["samples_file"]]
                        both = pool[rng.permutation(pool.shape[0])[: 2 * n]]
                    else:
                        both = rng.standard_normal((2 * n, d))
                    vals.append(mmd_squared(both[:n], both[n:], kernel))
                vals = np.asarray(vals)
                metrics["mmd_u_mean"] = float(vals.mean())
                metrics["mmd_u_stderr"] = float(vals.std(ddof=1)) / math.sqrt(n_outer)
                metrics["mmd_z"] = _zscore(vals)
            else:  # ksd_mismatch
                m = int(task["m"])
                kernel = KernelSpec.gaussian(float(task["sigma"]))
                if task["samples_file"] is not None:
                    draws = pools[task["samples_file"]][:m]
                else:
                    draws = rng.standard_normal((m, d))
                val, se = ksd_u_statistic(draws, -(draws - float(task["shift"])),
                                          kernel, with_stderr=True)
                metrics["ksd_value"] = val
                metrics["ksd_stderr"] = se
                metrics["ksd_z"] = val / se if se > 0 else math.inf
        return metrics

    return worker, [], []


# The experiments by name: the CLI's subcommands and the only list of them.
_COMMANDS = {"optimize": cmd_optimize, "manifold": cmd_manifold,
             "sample": cmd_sample, "discrepancy": cmd_discrepancy}


def run_experiment(cfg):
    """Run `cfg` and return its Report.

    The experiment's command checks its own blocks and returns a per-rep
    worker `worker(i, rng) -> metrics`, with the report's substitution notes
    and a list the worker may append run notes to.  Each rep runs on its own
    stream and writes its CSVs into `out_dir`.
    """
    p = _block(cfg.params, f"{cfg.experiment} params")
    worker, substitutions, notes = _COMMANDS[cfg.experiment](cfg, p)
    os.makedirs(cfg.out_dir, exist_ok=True)
    per_rep = _run_reps(cfg, lambda i, rng: {"rep": i, **worker(i, rng)})
    return Report(cfg.experiment, per_rep,
                  _evaluate_verdicts(p["verdicts"], per_rep),
                  substitutions=substitutions, notes=notes,
                  environment={"package": "hamkit", "version": __version__,
                               "numpy": np.__version__, "seed": cfg.seed,
                               "reps": cfg.reps})
