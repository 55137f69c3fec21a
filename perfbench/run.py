"""hamkit benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (it imports `src/hamkit` beside this directory).
Each measured run is a fresh interpreter (perfbench/child.py) that loads a
strict workload config from perfbench/workloads/ and runs the `hamkit` CLI
with `--seed N`; runs repeat while the next should end within S seconds (at
least three).  Set-up and run times are calibrated against a fixed
computation timed beside them in the same process (see child.py), so that
they follow the code rather than the shared host's load.
Every run is checked: exit code 0, every verdict passes, re-evaluating the
stored report reproduces its verdicts, and each CSV has the rows the config
asks for.  With --trace 1 one more run is made with every layer wrapped in
spans (perfbench/tracing.py) and the per-layer metrics are reported instead.

Human-readable figures go to standard output; its last line is one JSON
object with the keys correct, attempted, failed and metrics, whose names and
units come from BENCHMARK.json.  Outputs and a results file with provenance
are written under .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_RUNS = 3
LAST_START_S = 120.0      # start no run after this, so the whole call ends < 180 s
CHILD_LIMIT_S = 170.0     # kill any run still going this long after the start
SAMPLE_POOL_ROWS = 2000   # rows of a generated samples_file
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# How each end-to-end metric is taken over a call's runs.  Times are the
# child's calibrated ones (see child.py): on a shared 2-CPU host the same run
# alternates between a fast and an up to 2x slower state for seconds at a
# time, and the calibration timed beside each run takes that out.  Peak
# memory is the largest peak.
STATISTIC = {"setup_s": "median", "run_s": "median", "work_per_s": "median",
             "peak_rss_mb": "max"}

# What one unit of `work_per_s` is, per experiment family.
WORK_UNIT = {
    "optimize": "integrator steps (opt_steps_per_s)",
    "manifold": "integrator steps, Lie + RATTLE (opt_steps_per_s)",
    "sample": "HMC transitions, main chain + step grid (hmc_draws_per_s)",
    "discrepancy": "kernel-matrix entries, n*m per Gram or Stein build "
                   "(gram_entries_per_s)",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------- inputs --

def write_samples_file(path, seed, dim):
    """A samples CSV of N(0, I) rows drawn from the workload seed.

    Written here rather than by hamkit's own writer, so the input stays the
    same whatever the code under test does.
    """
    import numpy as np

    rows = np.random.default_rng(seed).standard_normal((SAMPLE_POOL_ROWS, dim))
    with open(path, "w") as fh:
        fh.write(",".join(["chain", "step", "accepted"]
                          + [f"q_{j + 1}" for j in range(dim)]) + "\n")
        for i, row in enumerate(rows):
            fh.write(f"0,{i},1," + ",".join(f"{v:.17e}" for v in row) + "\n")


def input_files(cfg):
    """(file name, dimension) of every samples_file the config reads."""
    files = []
    for task in cfg.params.get("tasks", []):
        if "samples_file" in task:
            if 2 * int(task.get("n", 0)) > SAMPLE_POOL_ROWS:
                fail(f"task {task['kind']} needs more than "
                     f"{SAMPLE_POOL_ROWS} pooled rows")
            files.append((task["samples_file"], int(task.get("dim", 1))))
    return files


# --------------------------------------------------------- work and gates --

def expected_csv_rows(cfg):
    """Data rows each CSV the run writes must have, from the config."""
    p = cfg.params
    if cfg.experiment == "optimize":
        n, every = int(p["num_steps"]), int(p.get("record_every", 1))
        rows = 1 + n // every + (1 if n % every else 0)
        return {f"optimize_rep{i}.csv": rows for i in range(cfg.reps)}
    if cfg.experiment == "sample" and p["sampler"].get("write_samples"):
        return {f"samples_rep{i}.csv": int(p["sampler"]["n_draws"])
                for i in range(cfg.reps)}
    return {}


def data_rows(path):
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def work_done(cfg, report, run_dir):
    """Units of work the run completed (see WORK_UNIT)."""
    p = cfg.params
    if cfg.experiment == "optimize":
        steps = 0
        for i in range(cfg.reps):
            with open(os.path.join(run_dir, f"optimize_rep{i}.csv")) as fh:
                last = [line for line in fh if line.strip()][-1]
            steps += int(last.split(",")[0])
        return steps
    if cfg.experiment == "manifold":
        max_steps = int(p["max_steps"])
        rattle = int(p["rattle"]["num_steps"]) if "rattle" in p else 0
        return sum(
            sum(min(int(rep[f"steps_to_target_gamma_{float(g):g}"]), max_steps)
                for g in p["gammas"]) + rattle
            for rep in report["per_rep"])
    if cfg.experiment == "sample":
        s = p["sampler"]
        per_rep = (int(s["n_draws"]) + int(s.get("burn_in", 0))
                   + len(s.get("step_grid", [])) * int(s.get("grid_draws", 2000)))
        return cfg.reps * per_rep
    entries = 0
    for task in p["tasks"]:
        if task["kind"] == "ksd_mismatch":
            entries += int(task["m"]) ** 2
        elif task["kind"] == "mmd_ustat_zero":
            entries += 3 * int(task.get("n_outer", 10)) * int(task["n"]) ** 2
    return cfg.reps * entries


def check_run(cfg, run_dir, child, reevaluate):
    """Gate one run; returns [(check name, passed)] and the parsed report."""
    specs = cfg.params.get("verdicts", [])
    csvs = expected_csv_rows(cfg)
    report_path = os.path.join(run_dir, f"report_{cfg.experiment}.json")
    if child is None or not os.path.exists(report_path):
        names = (["exit_code_0", "reevaluate"]
                 + [f"verdict:{s.get('name', s['metric'])}" for s in specs]
                 + [f"rows:{name}" for name in csvs])
        return [(name, False) for name in names], None
    with open(report_path) as fh:
        report = json.load(fh)
    checks = [("exit_code_0", child["exit_code"] == 0)]
    checks += [(f"verdict:{v['name']}", bool(v["pass"]))
               for v in report["verdicts"]]
    checks.append(("reevaluate",
                   len(report["verdicts"]) == len(specs)
                   and reevaluate(report, specs) == report["verdicts"]))
    for name, rows in csvs.items():
        path = os.path.join(run_dir, name)
        checks.append((f"rows:{name}",
                       os.path.exists(path) and data_rows(path) == rows))
    return checks, report


# ------------------------------------------------------------------- runs --

def run_child(config_path, seed, run_dir, inputs, trace_path, deadline):
    os.makedirs(run_dir)
    for src in inputs:
        shutil.copy(src, run_dir)
    result = os.path.join(run_dir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--config", config_path, "--seed", str(seed), "--result", result]
    if trace_path:
        cmd += ["--trace", trace_path]
    with open(os.path.join(run_dir, "child.log"), "w") as log:
        try:
            subprocess.run(cmd, cwd=run_dir, stdout=log,
                           stderr=subprocess.STDOUT,
                           timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None
    if not os.path.exists(result):
        return None
    with open(result) as fh:
        return json.load(fh)


def measure(cfg, config_path, seed, out_dir, inputs, reevaluate, deadline,
            traced=False, index=0):
    """One run: its figures, checks and work; its outputs are removed after."""
    run_dir = os.path.join(out_dir, f"run{index}" + ("_traced" if traced else ""))
    trace_path = os.path.join(out_dir, "trace.npz") if traced else None
    child = run_child(config_path, seed, run_dir, inputs, trace_path,
                      deadline)
    checks, report = check_run(cfg, run_dir, child, reevaluate)
    if child is not None and not child["hamkit_file"].startswith(
            os.path.join(ROOT, "src") + os.sep):
        checks.append(("imported_checkout_source", False))
    record = {"run": index, "traced": traced, "seed": seed, "checks": checks}
    if child is not None and all(ok for _, ok in checks):
        record.update(child)
        record["work"] = work_done(cfg, report, run_dir)
        record["work_per_s"] = record["work"] / child["run_s"]
    shutil.rmtree(run_dir)
    return record


def describe(values):
    """Minimum, quartiles and maximum of one metric over a call's runs."""
    q1, q3 = ((statistics.quantiles(values, n=4)[0::2]) if len(values) > 1
              else (values[0], values[0]))
    return {"min": min(values), "q1": q1, "median": statistics.median(values),
            "q3": q3, "max": max(values)}


# ------------------------------------------------------------- provenance --

def provenance():
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest, lines = hashlib.sha256(), 0
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    body = fh.read()
                digest.update(os.path.relpath(os.path.join(base, name), src)
                              .encode() + b"\0" + body)
                lines += body.count(b"\n")
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "hamkit", "__init__.py")):
        fail(f"no hamkit sources at {os.path.join(ROOT, 'src', 'hamkit')}; "
             "run from a hamkit source checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from hamkit.bench import ExperimentConfig, reevaluate
    from tracing import layer_metrics

    config_path = os.path.join(HERE, "workloads", f"{args.workload}.json")
    cfg = ExperimentConfig.load(config_path)
    out_dir = os.path.join(OUT, args.workload,
                           f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    inputs = []
    for name, dim in input_files(cfg):
        path = os.path.join(out_dir, name)
        write_samples_file(path, args.seed, dim)
        inputs.append(path)

    # Runs start while the next one, as long as the median so far, still ends
    # within --seconds; at least MIN_RUNS (one when tracing) are made.
    start = time.monotonic()
    records, lengths = [], []
    while True:
        elapsed = time.monotonic() - start
        enough = len(records) >= (1 if args.trace else MIN_RUNS)
        if elapsed >= LAST_START_S or (
                enough and elapsed + statistics.median(lengths) > args.seconds):
            break
        records.append(measure(cfg, config_path, args.seed, out_dir, inputs,
                               reevaluate, start + CHILD_LIMIT_S,
                               index=len(records)))
        lengths.append(time.monotonic() - start - elapsed)
    traced = None
    if args.trace:
        traced = measure(cfg, config_path, args.seed, out_dir, inputs,
                         reevaluate, start + CHILD_LIMIT_S, traced=True,
                         index=len(records))

    every = records + ([traced] if traced else [])
    attempted = sum(len(r["checks"]) for r in every)
    failed = sum(1 for r in every for _, ok in r["checks"] if not ok)
    good = [r for r in records if "run_s" in r]
    correct = failed == 0 and bool(good) and (traced is None or "run_s" in traced)

    summary = {}
    if good:
        for key in STATISTIC:
            summary[key] = describe([r[key] for r in good])
    if args.trace:
        metric_specs = spec["per_layer"]
        values = {}
        if correct:
            values = layer_metrics(
                os.path.join(out_dir, "trace.npz"), traced["run_wall_s"],
                traced["import_wall_s"],
                traced["run_s"] - summary["run_s"]["median"])
    else:
        metric_specs = spec["end_to_end"]
        values = {k: summary[k][stat] for k, stat in STATISTIC.items()
                  if k in summary}
    names = {m["name"] for m in metric_specs}
    if correct and set(values) != names:
        fail(f"metrics differ from BENCHMARK.json: computed-only "
             f"{sorted(set(values) - names)}, declared-only "
             f"{sorted(names - set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs if m["name"] in values}

    prov = provenance()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    results_path = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "config": json.loads(cfg.serialise()),
                   "provenance": prov, "runs": every,
                   "summary": summary, "metrics": metrics,
                   "attempted": attempted, "failed": failed}, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"untraced runs {len(good)}/{len(records)}"
          + (f"  traced run {'ok' if traced and 'run_s' in traced else 'FAILED'}"
             if args.trace else ""))
    print(f"checks: {attempted} attempted, {failed} failed, fail_share "
          f"{failed / attempted if attempted else 1.0:.4f}")
    for r in every:
        for name, ok in r["checks"]:
            if not ok:
                print(f"  FAILED run {r['run']}: {name}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, d in summary.items():
        print(f"  {key:<12} {d[STATISTIC[key]]:>12.6g} {units[key]:<4} "
              f"{STATISTIC[key]} of {len(good)} runs; min {d['min']:.6g}, "
              f"quartiles {d['q1']:.6g} .. {d['q3']:.6g}, max {d['max']:.6g}")
    if good:
        print("  uncalibrated medians: run "
              f"{statistics.median(r['run_wall_s'] for r in good):.6g} s, "
              f"set-up {statistics.median(r['setup_wall_s'] for r in good):.6g}"
              " s; calibration kernel "
              f"{statistics.median(c for r in good for c in r['calibration_s']) * 1e3:.4g}"
              " ms per call")
    print(f"  work unit: {WORK_UNIT[cfg.experiment]}")
    if args.trace and metrics:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"results written to {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
