"""Span tracer for the benchmark's traced run, and the per-layer analysis.

The tracer wraps public entry points of each hamkit layer from the outside
(no span lives inside the package).  A span records its name, start, end,
parent span and thread id; spans stay in memory and are written once, after
the run.  Counts (work done, bytes, outcomes) are taken in the same wrappers.

A layer's self time is the time its spans cover minus the time their child
spans cover.  Children on the parent's thread are nested and sequential, so
their durations add; repetition workers run on pool threads under the
`bench.run_reps` span, so for them the union of their intervals is removed.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter

import numpy as np

LAYERS = ("core", "integrators", "manifold", "samplers", "discrepancies",
          "bench", "cli")

# Span names whose calls are also reported as latency percentiles.
_LATENCY = ("integrators.step", "manifold.lie_step", "manifold.rattle_step",
            "samplers.hmc_draw")
_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """In-memory span and counter store shared by every wrapper of one run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]   # 0: no parent span
        return stack

    def current(self):
        return self._stack()[-1]

    def adopt(self, parent):
        """Make `parent` (a span on another thread) the root of this thread."""
        stack = self._stack()
        if stack == [0]:
            stack[0] = parent

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def wrap(self, name, fn, after=None):
        """Return `fn` wrapped in a span; `after(args, kwargs, result)` counts."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, ident()))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        """Write spans and counts to `path` (.npz) in one go."""
        names = sorted({s[1] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = sorted(self.spans)
        np.savez(
            path,
            sid=np.array([r[0] for r in rows], np.int64),
            name=np.array([code[r[1]] for r in rows], np.int32),
            start=np.array([r[2] for r in rows], float),
            end=np.array([r[3] for r in rows], float),
            parent=np.array([r[4] for r in rows], np.int64),
            tid=np.array([r[5] for r in rows], np.int64),
            names=np.array(names),
            counts=np.array(json.dumps(dict(self.counts))),
        )


def install(tracer):
    """Wrap each layer's entry points where its callers look them up."""
    import scipy.linalg

    from hamkit import (bench, cli, core, discrepancies, integrators,
                        manifold, samplers)

    wrap = tracer.wrap

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, wrap(name, getattr(owner, attr), after))

    def add_len(key):
        return lambda args, kwargs, body: tracer.count(key, len(body))

    # core: state validation, objective calls, energy evaluation.
    patch(core.PhasePoint, "__post_init__", "core.validate")
    patch(samplers.ChainState, "__post_init__", "core.validate")
    patch(core.Problem, "grad", "core.grad")
    patch(core.Problem, "value", "core.value")
    hamiltonian = wrap("core.hamiltonian", core.evaluate_hamiltonian)
    integrators.evaluate_hamiltonian = hamiltonian
    samplers.evaluate_hamiltonian = hamiltonian

    # integrators: flat steps, the record loop, rate fits, trajectory CSV.
    patch(integrators, "dissipative_leapfrog_step", "integrators.step")
    patch(bench, "run_optimizer", "integrators.run")
    patch(bench, "fit_rate", "integrators.fit")
    patch(integrators.Trajectory, "to_csv", "integrators.csv",
          add_len("integrators.csv.bytes"))

    # manifold: SO(n) and RATTLE steps and what they call.
    def lie_outcome(args, kwargs, result):
        tracer.count("manifold.target_runs")
        tracer.count("manifold.target_reached",
                     int(result[0].reason == "target_reached"))

    patch(manifold, "lie_group_step", "manifold.lie_step")
    patch(manifold, "rattle_step", "manifold.rattle_step")
    patch(manifold, "project_momentum", "manifold.project")
    patch(scipy.linalg, "expm", "manifold.expm")
    patch(manifold.ConstraintSet, "value", "manifold.constraint")
    patch(manifold.MatrixGroupState, "__post_init__", "manifold.validate")
    patch(bench, "run_lie_optimizer", "manifold.run", lie_outcome)
    patch(bench, "run_rattle_optimizer", "manifold.run")

    # samplers: HMC transitions, leapfrog flights, chain driver, sample CSV.
    def chain_tally(args, kwargs, result):
        chain = result[0]
        tracer.count("samplers.draws", chain.steps)
        tracer.count("samplers.accepted", chain.accepted)
        tracer.count("samplers.incidents", chain.incidents)

    patch(samplers, "hmc_draw", "samplers.hmc_draw")
    patch(samplers, "leapfrog_trajectory", "samplers.leapfrog")
    patch(bench, "run_hmc_chain", "samplers.run", chain_tally)
    patch(bench, "write_samples_csv", "samplers.csv",
          add_len("samplers.csv.bytes"))

    # discrepancies: kernel Gram builds and the estimators above them.
    def kernel_work(args, kwargs, result):
        x = np.asarray(args[1])
        d = 1 if x.ndim == 1 else x.shape[1]
        n, m = result.shape[:2]
        tracer.count("discrepancies.kernel.entries", n * m)
        # float64 (n, m, d) difference tensor plus the returned array
        tracer.count("discrepancies.kernel.bytes_computed",
                     8 * n * m * d + result.nbytes)

    for method in ("gram", "grad_x_gram", "mixed_trace_gram"):
        patch(discrepancies.KernelSpec, method, "discrepancies.kernel",
              kernel_work)

    stein_gram = discrepancies.stein_gram

    def counted_stein_gram(x_samples, score, kernel):
        def counted_score(x):
            tracer.count("discrepancies.score.calls")
            return score(x)
        return stein_gram(x_samples, counted_score, kernel)

    discrepancies.stein_gram = wrap("discrepancies.stein_gram",
                                    counted_stein_gram)
    patch(bench, "ksd_u_statistic", "discrepancies.ksd")
    patch(bench, "mmd_squared", "discrepancies.mmd")
    patch(discrepancies, "information_tensor", "discrepancies.info_tensor")
    patch(bench, "sm_ngd_fit", "discrepancies.ngd")

    # bench: config, experiment drivers, repetition pool, file I/O.
    patch(bench, "_read_samples_csv", "bench.read",
          lambda args, kwargs, result: tracer.count(
              "bench.read.bytes", os.path.getsize(args[0])))
    patch(bench.Report, "write", "bench.report")
    bench.ExperimentConfig.load = classmethod(
        wrap("bench.config_load", bench.ExperimentConfig.load.__func__))
    patch(bench, "_envelope", "bench.envelope")
    for key in list(bench._COMMANDS):
        bench._COMMANDS[key] = wrap("bench.cmd", bench._COMMANDS[key])

    run_reps = bench._run_reps

    def traced_run_reps(cfg, worker):
        parent = tracer.current()
        rep = wrap("bench.rep", worker)

        def in_thread(i, rng):
            tracer.adopt(parent)
            cpu0 = time.thread_time()
            try:
                return rep(i, rng)
            finally:
                tracer.count("bench.rep.cpu_s", time.thread_time() - cpu0)

        return run_reps(cfg, in_thread)

    bench._run_reps = wrap("bench.run_reps", traced_run_reps)
    cli.run_experiment = wrap("bench.run_experiment", cli.run_experiment)
    patch(cli, "main", "cli.main")


def _self_times(start, end, parent, tid):
    """Duration minus child coverage, per span (arrays ordered by span id)."""
    dur = end - start
    n = len(dur)
    ppos = parent - 1                          # -1: no parent
    has = ppos >= 0
    same = has.copy()
    same[has] = tid[has] == tid[ppos[has]]
    cover = np.bincount(ppos[same], weights=dur[same], minlength=n)
    cross = np.flatnonzero(has & ~same)
    by_parent = {}
    for i in cross:
        by_parent.setdefault(int(ppos[i]), []).append((start[i], end[i]))
    for p, intervals in by_parent.items():
        covered, lo_open, hi_open = 0.0, None, None
        for lo, hi in sorted(intervals):
            lo, hi = max(lo, start[p]), min(hi, end[p])
            if hi_open is None or lo > hi_open:
                if hi_open is not None:
                    covered += hi_open - lo_open
                lo_open, hi_open = lo, hi
            else:
                hi_open = max(hi_open, hi)
        if hi_open is not None:
            covered += hi_open - lo_open
        cover[p] += covered
    return dur - cover


def _under(name_ids, parent, target):
    """Mask of spans with an ancestor whose name id is `target`."""
    ppos = parent - 1
    is_target = name_ids == target
    cur = ppos.copy()
    found = np.zeros(len(cur), bool)
    while True:
        live = (cur >= 0) & ~found
        if not live.any():
            return found
        found[live] = is_target[cur[live]]
        step = live & ~found
        cur[step] = ppos[cur[step]]
        cur[live & found] = -1


def _tail(durations):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(durations)
    for pct in _LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(durations, pct))
    return 0.0, 0.0


def layer_metrics(trace_path, run_wall_s, import_wall_s, overhead_s):
    """Per-layer metrics of one traced run, keyed by BENCHMARK.json name.

    Span times are wall times of the traced run, as are `run_wall_s` and
    `import_wall_s`; `overhead_s` is the traced minus the untraced run_s.
    """
    with np.load(trace_path) as data:
        names = [str(s) for s in data["names"]]
        name_ids, start, end = data["name"], data["start"], data["end"]
        parent, tid = data["parent"], data["tid"]
        counts = Counter(json.loads(str(data["counts"])))
        sid = data["sid"]
    if not np.array_equal(sid, np.arange(1, len(start) + 1)):
        raise ValueError("trace has missing or unclosed spans")
    self_s = _self_times(start, end, parent, tid)
    ids = {n: i for i, n in enumerate(names)}
    missing = len(names)

    def mask(name):
        return name_ids == ids.get(name, missing)

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def self_of(name):
        return float(self_s[mask(name)].sum())

    out = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name in names:
        layer = name.split(".")[0]
        layer_self[layer] += self_of(name)
    total_self = sum(layer_self.values())
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (layer_self[layer] / total_self
                                      if total_self else 0.0)

    for span in ("core.validate", "core.grad", "core.value",
                 "core.hamiltonian", "integrators.step", "manifold.lie_step",
                 "manifold.expm", "manifold.rattle_step", "manifold.project",
                 "samplers.hmc_draw", "samplers.leapfrog",
                 "discrepancies.kernel", "discrepancies.stein_gram",
                 "discrepancies.ksd", "discrepancies.mmd",
                 "discrepancies.info_tensor", "discrepancies.ngd",
                 "bench.read"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_s"] = self_of(span)
    for span in _LATENCY:
        durations = (end - start)[mask(span)] * 1e6
        out[f"{span}.p50_us"] = (float(np.median(durations))
                                 if len(durations) else 0.0)
        out[f"{span}.tail_pct"], out[f"{span}.tail_us"] = _tail(durations)
    for span in ("integrators.run", "integrators.fit", "integrators.csv",
                 "manifold.validate", "manifold.run", "samplers.run",
                 "samplers.csv", "bench.report", "bench.config_load",
                 "cli.main"):
        out[f"{span}.self_s"] = self_of(span)
    out["bench.overhead.self_s"] = sum(
        self_of(n) for n in names if n.startswith("bench.")
        and n not in ("bench.read", "bench.report", "bench.config_load"))

    constraint = mask("manifold.constraint")
    rattle_id = ids.get("manifold.rattle_step", missing)
    in_rattle = constraint & (parent > 0)
    in_rattle[in_rattle] = name_ids[parent[in_rattle] - 1] == rattle_id
    out["manifold.constraint_evals"] = int(np.count_nonzero(in_rattle))
    runs = counts["manifold.target_runs"]
    out["manifold.target_reached_ratio"] = (
        counts["manifold.target_reached"] / runs if runs else 0.0)

    draws = calls("samplers.hmc_draw")
    grads_in_draws = np.count_nonzero(
        mask("core.grad") & _under(name_ids, parent,
                                   ids.get("samplers.hmc_draw", missing)))
    out["samplers.grad_per_draw"] = grads_in_draws / draws if draws else 0.0
    tallied = counts["samplers.draws"]
    out["samplers.accept_ratio"] = (counts["samplers.accepted"] / tallied
                                    if tallied else 0.0)
    out["samplers.incidents"] = int(counts["samplers.incidents"])

    for key in ("integrators.csv.bytes", "samplers.csv.bytes",
                "bench.read.bytes", "discrepancies.kernel.entries",
                "discrepancies.kernel.bytes_computed",
                "discrepancies.score.calls"):
        out[key] = int(counts[key])
    out["bench.thread_overlap"] = counts["bench.rep.cpu_s"] / run_wall_s
    out["cli.import.self_s"] = import_wall_s
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(start)
    return out
