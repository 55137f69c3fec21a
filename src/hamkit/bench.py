"""Benchmark harness: strict JSON configs, reproducible runs, verdict reports.

Every verdict threshold lives in the config, never in analysis code; reports
carry enough raw metrics to recompute every verdict offline.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

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
from .integrators import OptimizerConfig, Trajectory, fit_rate, run_optimizer
from .manifold import (
    MatrixGroupState,
    run_lie_optimizer,
    run_rattle_optimizer,
    sphere_constraint,
    trace_objective,
)
from .problems import banana, gaussian_mixture_1d, quadratic, quartic, rosenbrock, standard_gaussian
from .samplers import (
    RngStream,
    overdamped_em_step,
    run_hmc_chain,
    write_samples_csv,
)

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

_EXPERIMENTS = ("optimize", "manifold", "sample", "discrepancy")
_TOP_KEYS = {"experiment", "params", "seed", "out_dir", "reps"}
_VERDICT_KEYS = {"name", "metric", "agg", "op", "threshold"}
_AGGS = ("median", "min", "max", "mean", "zscore")
_OPS = ("<=", ">=", "<", ">", "in")


def _require_keys(block, allowed, required, where):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description.  Round-trips through JSON."""

    experiment: str
    params: dict
    seed: int = 0
    out_dir: str = "."
    reps: int = 1

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {_EXPERIMENTS}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be an object")
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        self.reps = int(self.reps)
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        for v in self.params.get("verdicts", []):
            _require_keys(v, _VERDICT_KEYS, {"metric", "op", "threshold"},
                          "verdict entry")
            if v["op"] not in _OPS:
                raise ConfigError(f"unknown verdict op {v['op']!r}")
            if v.get("agg", "median") not in _AGGS:
                raise ConfigError(f"unknown verdict aggregate {v.get('agg')!r}")
            if v["op"] == "in":
                thr = v["threshold"]
                if not (isinstance(thr, (list, tuple)) and len(thr) == 2):
                    raise ConfigError("'in' verdicts need a [lo, hi] threshold")

    @classmethod
    def parse(cls, text):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _require_keys(raw, _TOP_KEYS, {"experiment", "params"}, "config")
        return cls(**raw)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.parse(fh.read())

    def serialise(self):
        return json.dumps(
            {"experiment": self.experiment, "params": self.params,
             "seed": self.seed, "out_dir": self.out_dir, "reps": self.reps},
            indent=2, sort_keys=True)


def _aggregate(values, agg):
    vals = np.asarray(values, float)
    if agg == "median":
        return float(np.median(vals))
    if agg == "min":
        return float(np.min(vals))
    if agg == "max":
        return float(np.max(vals))
    if agg == "mean":
        return float(np.mean(vals))
    if agg == "zscore":
        if len(vals) < 2:
            return math.inf
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        return abs(float(np.mean(vals))) / se if se > 0 else math.inf
    raise ConfigError(f"unknown aggregate {agg!r}")


def _check(op, value, threshold):
    if op == "<=":
        return value <= threshold
    if op == ">=":
        return value >= threshold
    if op == "<":
        return value < threshold
    if op == ">":
        return value > threshold
    return threshold[0] <= value <= threshold[1]


def _evaluate_verdicts(verdict_specs, per_rep):
    out = []
    for spec in verdict_specs:
        metric, agg = spec["metric"], spec.get("agg", "median")
        values = [rep[metric] for rep in per_rep if metric in rep]
        if not values:
            out.append({"name": spec.get("name", metric), "metric": metric,
                        "agg": agg, "op": spec["op"],
                        "threshold": spec["threshold"],
                        "value": None, "pass": False})
            continue
        value = _aggregate(values, agg)
        out.append({"name": spec.get("name", metric), "metric": metric,
                    "agg": agg, "op": spec["op"],
                    "threshold": spec["threshold"], "value": value,
                    "pass": bool(_check(spec["op"], value, spec["threshold"]))})
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
            q25, q75 = np.percentile(vals, [25, 75])
            agg[k] = {"median": float(np.median(vals)), "iqr": float(q75 - q25)}
        return agg

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "environment": self.environment,
            "substitutions": self.substitutions,
            "per_rep": self.per_rep,
            "aggregates": self.aggregates(),
            "verdicts": self.verdicts,
            "notes": self.notes,
            "passed": self.passed,
        }

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


def _environment(cfg):
    return {"package": "hamkit", "version": __version__,
            "numpy": np.__version__, "seed": cfg.seed, "reps": cfg.reps}


def _run_reps(cfg, worker):
    """Run `worker(rep_index, rng)` for each repetition, in order, each on its
    own split stream."""
    streams = RngStream(cfg.seed).split(cfg.reps)
    return [worker(i, stream) for i, stream in enumerate(streams)]


# ---------------------------------------------------------------- problems --

def _make_problem(block):
    _require_keys(block, {"name", "dim", "mu", "a", "b"}, {"name"},
                  "problem block")
    name = block["name"]
    if name == "quadratic":
        return quadratic(int(block.get("dim", 2)), mu=float(block.get("mu", 1.0)))
    if name == "quartic":
        return quartic(int(block.get("dim", 2)))
    if name == "rosenbrock":
        return rosenbrock(a=float(block.get("a", 1.0)), b=float(block.get("b", 100.0)))
    raise ConfigError(f"unknown problem {name!r}")


def _make_schedule(block):
    _require_keys(block, {"kind", "gamma", "r", "t0"}, {"kind"},
                  "schedule block")
    kind = block["kind"]
    if kind == "constant":
        if "gamma" not in block:
            raise ConfigError("constant schedule needs 'gamma'")
        return DampingSchedule.constant(float(block["gamma"]))
    if kind == "vanishing":
        return DampingSchedule.vanishing(r=float(block.get("r", 3.0)),
                                         t0=float(block.get("t0", 1.0)))
    if kind == "zero":
        return DampingSchedule.zero()
    raise ConfigError(f"unknown schedule kind {kind!r}")


def _envelope(traj, n_blocks, spacing="linear"):
    """Block-maximum preprocessing of the gap curve before a rate fit.

    Damped trajectories oscillate under the rate envelope; fitting block
    maxima recovers the envelope exponent.  Power-law fits regress log-gap on
    log-time, so "log" spacing (blocks equal-width in log time) keeps the
    regression points evenly weighted across decades.
    """
    n = len(traj)
    if n_blocks < 10:
        raise ConfigError("envelope fit needs >= 10 blocks")
    if spacing == "linear":
        edges = np.linspace(0, n, n_blocks + 1).astype(int)
    elif spacing == "log":
        t_lo = max(float(traj.times[0]), float(traj.times[-1]) * 1e-6)
        t_edges = np.geomspace(max(t_lo, np.finfo(float).tiny),
                               float(traj.times[-1]), n_blocks + 1)
        edges = np.searchsorted(traj.times, t_edges)
        edges[-1] = n
    else:
        raise ConfigError(f"unknown envelope spacing {spacing!r}")
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


_OPTIMIZE_KEYS = {"problem", "method", "schedule", "step", "num_steps",
                  "record_every", "x0_scale", "x0", "target_gap", "fit",
                  "verdicts"}
_FIT_KEYS = {"model", "burn_in", "envelope", "envelope_blocks",
             "envelope_spacing"}


def cmd_optimize(cfg):
    """Rate-table experiment: run an optimiser, fit the decay, check verdicts."""
    p = cfg.params
    _require_keys(p, _OPTIMIZE_KEYS,
                  {"problem", "method", "schedule", "step", "num_steps", "fit"},
                  "optimize params")
    _require_keys(p["fit"], _FIT_KEYS, {"model"}, "fit block")
    prob = _make_problem(p["problem"])
    sched = _make_schedule(p["schedule"])
    method = p["method"]
    fit = p["fit"]
    notes = []

    def worker(i, rng):
        if "x0" in p:
            q0 = np.asarray(p["x0"], float)
        else:
            scale = float(p.get("x0_scale", 2.0))
            q0 = rng.standard_normal(prob.dim)
            q0 = scale * q0 / np.linalg.norm(q0)
        run_cfg = OptimizerConfig(
            step=float(p["step"]), num_steps=int(p["num_steps"]),
            schedule=sched, x0=PhasePoint(q0, np.zeros(prob.dim)),
            record_every=int(p.get("record_every", 1)),
            target_gap=p.get("target_gap"))
        metrics = {"rep": i}
        try:
            traj = run_optimizer(run_cfg, prob, method=method)
        except DivergenceError as exc:
            metrics["diverged"] = 1.0
            metrics["divergence_step"] = float(exc.step or -1)
            return metrics, None
        metrics["diverged"] = float(traj.reason == "diverged")
        metrics["final_value"] = float(traj.values[-1])
        if traj.gaps is not None:
            metrics["final_gap"] = float(traj.gaps[-1])
        if metrics["diverged"]:
            return metrics, traj
        fit_traj = traj
        if fit.get("envelope", False):
            fit_traj = _envelope(traj, int(fit.get("envelope_blocks", 30)),
                                 spacing=fit.get("envelope_spacing", "linear"))
        try:
            slope, r2 = fit_rate(fit_traj, model=fit["model"],
                                 burn_in=float(fit.get("burn_in", 0.2)))
            key = "exponent" if fit["model"] == "power_law" else "rate"
            metrics[key] = slope
            metrics["r2"] = r2
        except FitDomainError as exc:
            metrics["fit_failed"] = 1.0
            notes.append(f"rep {i}: rate fit failed: {exc}")
        return metrics, traj

    results = _run_reps(cfg, worker)
    os.makedirs(cfg.out_dir, exist_ok=True)
    per_rep = []
    for i, (metrics, traj) in enumerate(results):
        per_rep.append(metrics)
        if traj is not None:
            traj.to_csv(os.path.join(cfg.out_dir, f"optimize_rep{i}.csv"))
    verdicts = _evaluate_verdicts(p.get("verdicts", []), per_rep)
    substitutions = []
    if p["problem"]["name"] == "quartic":
        substitutions.append("quartic objective stands in for the generic "
                             "convex rate-table row")
    return Report("optimize", per_rep, verdicts, substitutions=substitutions,
                  environment=_environment(cfg), notes=notes)


_MANIFOLD_KEYS = {"n", "step", "g_scalar", "gammas", "max_steps", "target_gap",
                  "mode", "c_scale", "rattle", "verdicts"}
_RATTLE_KEYS = {"dim", "step", "num_steps", "gamma", "radius"}


def cmd_manifold(cfg):
    """Damping-regime comparison on SO(n), plus an optional sphere RATTLE run."""
    p = cfg.params
    _require_keys(p, _MANIFOLD_KEYS, {"n", "step", "gammas", "max_steps",
                                      "target_gap"}, "manifold params")
    n = int(p["n"])
    if n > 100:
        raise ConfigError("manifold experiments are desk scale: n <= 100")
    dt = float(p["step"])
    g_scalar = float(p.get("g_scalar", dt))
    gammas = [float(g) for g in p["gammas"]]
    max_steps = int(p["max_steps"])
    target_gap = float(p["target_gap"])
    mode = p.get("mode", "skew_projection")
    rattle = p.get("rattle")
    if rattle is not None:
        _require_keys(rattle, _RATTLE_KEYS, {"dim", "step", "num_steps"},
                      "rattle block")

    def worker(i, rng):
        c_mat = float(p.get("c_scale", 1.0)) * rng.standard_normal((n, n))
        prob = trace_objective(c_mat)
        st0 = MatrixGroupState(np.eye(n), np.zeros((n, n)))
        metrics = {"rep": i}
        steps_needed = {}
        for gamma in gammas:
            traj, _ = run_lie_optimizer(
                st0, prob, dt, g_scalar, DampingSchedule.constant(gamma),
                max_steps, mode=mode, record_every=1, target_gap=target_gap)
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
            radius = float(rattle.get("radius", 1.0))
            prob_lin = Problem(d, value=lambda q: float(c_vec @ q),
                               grad=lambda q: c_vec,
                               f_star=-radius * float(np.linalg.norm(c_vec)))
            q0 = rng.standard_normal(d)
            q0 = radius * q0 / np.linalg.norm(q0)
            g_metric = KineticMetric.scaled_identity(d, float(rattle["step"]))
            traj, x_end = run_rattle_optimizer(
                PhasePoint(q0, np.zeros(d)), prob_lin, float(rattle["step"]),
                g_metric, DampingSchedule.constant(float(rattle.get("gamma", 1.0))),
                sphere_constraint(radius), int(rattle["num_steps"]))
            q_star = -radius * c_vec / np.linalg.norm(c_vec)
            metrics["rattle_residual_max"] = float(np.max(traj.extra))
            metrics["rattle_opt_error"] = float(
                np.linalg.norm(x_end.q - q_star))
        return metrics

    per_rep = _run_reps(cfg, worker)
    verdicts = _evaluate_verdicts(p.get("verdicts", []), per_rep)
    return Report("manifold", per_rep, verdicts,
                  substitutions=[f"SO({n}) trace objective stands in for the "
                                 "SO(500) spin-glass instance (desk scale)"],
                  environment=_environment(cfg))


_SAMPLE_KEYS = {"target", "sampler", "verdicts"}
_TARGETS = {"gaussian", "gaussian_mixture", "banana"}
_HMC_KEYS = {"kind", "step", "n_leapfrog", "n_draws", "jitter", "burn_in",
             "step_grid", "grid_draws", "write_samples"}
_EM_KEYS = {"kind", "dt_grid", "n_steps", "burn_in", "beta"}
_KSD_KEYS = {"n_points", "sigma"}


def _make_target(block):
    _require_keys(block, {"name", "dim", "ksd_curve"}, {"name"}, "target block")
    name = block["name"]
    if name == "gaussian":
        return standard_gaussian(int(block.get("dim", 1)))
    if name == "gaussian_mixture":
        return gaussian_mixture_1d()
    if name == "banana":
        return banana()
    raise ConfigError(f"unknown target {name!r}; choose from {sorted(_TARGETS)}")


def cmd_sample(cfg):
    """Sampler validation: moments, acceptance curves and discretisation bias."""
    p = cfg.params
    _require_keys(p, _SAMPLE_KEYS, {"target", "sampler"}, "sample params")
    prob = _make_target(p["target"])
    samp = p["sampler"]
    kind = samp.get("kind")
    ksd_curve = p["target"].get("ksd_curve")
    if ksd_curve is not None:
        _require_keys(ksd_curve, _KSD_KEYS, {"n_points"}, "ksd_curve block")
    os.makedirs(cfg.out_dir, exist_ok=True)

    if kind == "hmc":
        _require_keys(samp, _HMC_KEYS, {"kind", "step", "n_leapfrog", "n_draws"},
                      "hmc sampler block")
        if int(samp["n_draws"]) < 1:
            raise ConfigError("hmc sampler needs n_draws >= 1")
        if int(samp.get("burn_in", 0)) < 0:
            raise ConfigError("hmc sampler needs burn_in >= 0")
    elif kind == "em":
        _require_keys(samp, _EM_KEYS, {"kind", "dt_grid", "n_steps"},
                      "em sampler block")
        n_steps = int(samp["n_steps"])
        if not 0 <= int(samp.get("burn_in", n_steps // 10)) < n_steps:
            raise ConfigError("em sampler needs 0 <= burn_in < n_steps")
    else:
        raise ConfigError(f"unknown sampler kind {kind!r}")

    def worker(i, rng):
        metrics = {"rep": i}
        if kind == "hmc":
            g = KineticMetric.identity(prob.dim)
            n_draws = int(samp["n_draws"])
            burn = int(samp.get("burn_in", 0))
            chain, samples = run_hmc_chain(
                prob, g, float(samp["step"]), int(samp["n_leapfrog"]),
                n_draws + burn, rng, jitter=float(samp.get("jitter", 0.0)))
            kept = samples[burn:]
            metrics["acceptance"] = chain.acceptance_rate
            metrics["incidents"] = float(chain.incidents)
            metrics["mean_abs_max"] = float(np.max(np.abs(kept.mean(axis=0))))
            metrics["var_err_max"] = float(
                np.max(np.abs(kept.var(axis=0) - 1.0)))
            if samp.get("write_samples", False):
                write_samples_csv(
                    os.path.join(cfg.out_dir, f"samples_rep{i}.csv"),
                    kept, chain_id=i)
            grid = samp.get("step_grid")
            if grid:
                accs = []
                for dt in grid:
                    sub, _ = run_hmc_chain(
                        prob, g, float(dt), max(1, round(1.0 / float(dt))),
                        int(samp.get("grid_draws", 2000)), rng,
                        keep_samples=False)
                    accs.append(sub.acceptance_rate)
                    metrics[f"acceptance_dt_{dt:g}"] = sub.acceptance_rate
                order = np.argsort([float(d) for d in grid])
                sorted_accs = [accs[j] for j in order]
                metrics["acceptance_monotone"] = float(
                    all(a >= b - 0.02 for a, b in zip(sorted_accs, sorted_accs[1:])))
        else:  # em
            beta = float(samp.get("beta", 1.0))
            n_steps = int(samp["n_steps"])
            burn = int(samp.get("burn_in", n_steps // 10))
            biases = []
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
                var = acc2 / kept
                metrics[f"var_dt_{dt:g}"] = var
                biases.append(abs(var - 1.0))
            metrics["bias_monotone"] = float(
                all(a >= b for a, b in zip(biases, biases[1:])))
        if ksd_curve is not None:
            sigma = float(ksd_curve.get("sigma", 1.0))
            kernel = KernelSpec.gaussian(sigma)
            vals = []
            for n_pts in ksd_curve["n_points"]:
                draws = rng.standard_normal((int(n_pts), prob.dim))
                vals.append(ksd_u_statistic(draws, lambda x: -prob.grad(x), kernel))
                metrics[f"ksd_n_{int(n_pts)}"] = vals[-1]
            metrics["ksd_decreasing"] = float(abs(vals[-1]) < abs(vals[0]))
        return metrics

    per_rep = _run_reps(cfg, worker)
    verdicts = _evaluate_verdicts(p.get("verdicts", []), per_rep)
    return Report("sample", per_rep, verdicts,
                  environment=_environment(cfg))


_DISCREPANCY_KEYS = {"tasks", "verdicts"}
_SM_NGD_KEYS = {"kind", "n_samples", "dim", "step", "n_iter", "sigma"}
_MMD_KEYS = {"kind", "n", "sigma", "n_outer", "samples_file", "dim"}
_KSD_TASK_KEYS = {"kind", "m", "sigma", "shift", "samples_file", "dim"}


def _read_samples_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        q_cols = [j for j, name in enumerate(header) if name.startswith("q_")]
        rows = [[float(parts[j]) for j in q_cols]
                for parts in (line.strip().split(",") for line in fh if line.strip())]
    return np.asarray(rows, float)


def _check_pool(pool, task):
    """A task's samples file must have the rows it draws and its dimension."""
    if task["kind"] == "mmd_ustat_zero":
        need = 2 * int(task["n"])
    else:
        need = int(task["m"])
    where = f"samples file {task['samples_file']}"
    if pool.shape[0] < need:
        raise ConfigError(f"{where} has {pool.shape[0]} rows; "
                          f"{task['kind']} needs {need}")
    if pool.shape[1] == 0:
        raise ConfigError(f"{where} has no q_ columns")
    if "dim" in task and int(task["dim"]) != pool.shape[1]:
        raise ConfigError(f"{where} has {pool.shape[1]} q_ columns; "
                          f"the task says dim {task['dim']}")


def cmd_discrepancy(cfg):
    """Estimator checks: NGD fitting, MMD unbiasedness, KSD power."""
    p = cfg.params
    _require_keys(p, _DISCREPANCY_KEYS, {"tasks"}, "discrepancy params")
    tasks = p["tasks"]
    pools = {}   # samples_file -> its rows, read once for every worker
    for task in tasks:
        kind = task.get("kind")
        if kind == "sm_ngd":
            _require_keys(task, _SM_NGD_KEYS, {"kind", "n_samples", "dim"},
                          "sm_ngd task")
        elif kind == "mmd_ustat_zero":
            _require_keys(task, _MMD_KEYS, {"kind", "n"}, "mmd task")
        elif kind == "ksd_mismatch":
            _require_keys(task, _KSD_TASK_KEYS, {"kind", "m"}, "ksd task")
        else:
            raise ConfigError(f"unknown discrepancy task kind {kind!r}")
        if "samples_file" in task:
            path = task["samples_file"]
            if not os.path.exists(path):
                raise ConfigError(f"samples file not found: {path}")
            if path not in pools:
                pools[path] = _read_samples_csv(path)
            _check_pool(pools[path], task)

    def worker(i, rng):
        metrics = {"rep": i}
        for task in tasks:
            kind = task["kind"]
            if kind == "sm_ngd":
                d = int(task["dim"])
                data = rng.standard_normal((int(task["n_samples"]), d)) + 1.5
                model = GaussianLocationModel(np.zeros(d),
                                              sigma=float(task.get("sigma", 1.0)))
                theta, hist = sm_ngd_fit(data, model,
                                         n_iter=int(task.get("n_iter", 50)),
                                         step=float(task.get("step", 1.0)))
                metrics["sm_ngd_theta_err"] = float(
                    np.linalg.norm(theta - data.mean(axis=0)))
                metrics["sm_ngd_iters"] = float(len(hist) - 1)
            elif kind == "mmd_ustat_zero":
                n = int(task["n"])
                d = int(task.get("dim", 1))
                kernel = KernelSpec.gaussian(float(task.get("sigma", 1.0)))
                n_outer = int(task.get("n_outer", 10))
                vals = []
                for _ in range(n_outer):
                    if "samples_file" in task:
                        pool = pools[task["samples_file"]]
                        both = pool[rng.permutation(pool.shape[0])[: 2 * n]]
                    else:
                        both = rng.standard_normal((2 * n, d))
                    vals.append(mmd_squared(both[:n], both[n:], kernel, mode="u"))
                vals = np.asarray(vals)
                se = float(vals.std(ddof=1)) / math.sqrt(n_outer)
                metrics["mmd_u_mean"] = float(vals.mean())
                metrics["mmd_u_stderr"] = se
                metrics["mmd_z"] = abs(float(vals.mean())) / se if se > 0 else math.inf
            else:  # ksd_mismatch
                m = int(task["m"])
                d = int(task.get("dim", 1))
                shift = float(task.get("shift", 1.0))
                kernel = KernelSpec.gaussian(float(task.get("sigma", 1.0)))
                if "samples_file" in task:
                    draws = pools[task["samples_file"]][:m]
                else:
                    draws = rng.standard_normal((m, d))
                score = lambda x, s=shift: -(x - s)  # noqa: E731
                val, se = ksd_u_statistic(draws, score, kernel, with_stderr=True)
                metrics["ksd_value"] = val
                metrics["ksd_stderr"] = se
                metrics["ksd_z"] = val / se if se > 0 else math.inf
        return metrics

    per_rep = _run_reps(cfg, worker)
    verdicts = _evaluate_verdicts(p.get("verdicts", []), per_rep)
    return Report("discrepancy", per_rep, verdicts,
                  environment=_environment(cfg))


_COMMANDS = {"optimize": cmd_optimize, "manifold": cmd_manifold,
             "sample": cmd_sample, "discrepancy": cmd_discrepancy}


def run_experiment(cfg):
    return _COMMANDS[cfg.experiment](cfg)
