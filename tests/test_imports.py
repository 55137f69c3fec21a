"""What importing hamkit loads, in a fresh interpreter each.

`import hamkit` and `import hamkit.cli` load no scipy module: only the
manifold experiment needs scipy.linalg, and a manifold config loads it when
the config loads, so that its cost lands in set-up and not in the run.
A flat run (optimize, sample, discrepancy) loads no numpy.ma either: the
report's median and quartiles are numpy's values, computed without
np.median and np.percentile, which import it.
perfbench's tracer (perfbench/tracing.py) wraps names in the package from
the outside; the manifold names it patches on `hamkit.bench` must still be
found and must still be the ones a manifold run calls.
"""
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import hamkit

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads"


def run_python(code, cwd):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(hamkit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


# small runs of each flat experiment, so that no code on their path imports
# a module inside a function unnoticed
FLAT_RUNS = [
    ("optimize", {"problem": {"name": "quadratic"},
                  "method": "dissipative_leapfrog",
                  "schedule": {"kind": "vanishing"}, "step": 0.05,
                  "num_steps": 200, "fit": {"model": "power_law"}}),
    ("sample", {"target": {"name": "gaussian", "dim": 2,
                           "ksd_curve": {"n_points": [20, 40]}},
                "sampler": {"kind": "hmc", "step": 0.2, "n_leapfrog": 3,
                            "n_draws": 50}}),
    ("discrepancy", {"tasks": [
        {"kind": "sm_ngd", "n_samples": 20, "dim": 2, "n_iter": 3},
        {"kind": "mmd_ustat_zero", "n": 10, "n_outer": 3},
        {"kind": "ksd_mismatch", "m": 20}]}),
]


def test_only_a_manifold_config_loads_scipy(tmp_path):
    seen = run_python(f"""
        import json, sys
        import hamkit
        import hamkit.cli
        from hamkit.bench import ExperimentConfig, run_experiment

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        seen = {{"import": scipy_modules()}}
        for name in ("optimize_quartic", "sample_hmc_chains", "discrepancy_gram"):
            ExperimentConfig.load(f"{WORKLOADS}/{{name}}.json")
            seen[name] = scipy_modules()
        for experiment, params in json.loads({json.dumps(FLAT_RUNS)!r}):
            run_experiment(ExperimentConfig(experiment, params, out_dir="out"))
            seen["run " + experiment] = scipy_modules()
        ExperimentConfig.load("{WORKLOADS}/manifold_so_rattle.json")
        seen["manifold loads"] = ["hamkit.manifold" in sys.modules,
                                  "scipy.linalg" in sys.modules]
        print(json.dumps(seen))
        """, tmp_path)
    manifold = seen.pop("manifold loads")
    assert seen == dict.fromkeys(seen, []), seen
    assert manifold == [True, True]


def test_flat_runs_leave_numpy_ma_unloaded(tmp_path):
    # three reps, so that the median and quartiles interpolate; every report
    # takes both, a "median" verdict one more median, and reevaluate both
    verdicts = [{"metric": "rep", "agg": "median", "op": "in",
                 "threshold": [0, 2]}]
    for experiment, params in FLAT_RUNS:
        config = {"experiment": experiment, "out_dir": experiment, "reps": 3,
                  "params": {**params, "verdicts": verdicts}}
        (tmp_path / f"{experiment}.json").write_text(json.dumps(config))
    seen = run_python(f"""
        import json, sys
        import hamkit.cli
        from hamkit.bench import reevaluate

        seen = {{"import": "numpy.ma" in sys.modules}}
        for experiment in ("optimize", "sample", "discrepancy"):
            code = hamkit.cli.main([experiment, "--config", experiment + ".json"])
            with open(f"{{experiment}}/report_{{experiment}}.json") as fh:
                report = json.load(fh)
            again = reevaluate(report, {verdicts!r})
            seen[experiment] = [code, again == report["verdicts"],
                                "numpy.ma" in sys.modules]
        print(json.dumps(seen))
        """, tmp_path)
    assert seen == {"import": False, **dict.fromkeys(
        ("optimize", "sample", "discrepancy"), [0, True, False])}, seen


def test_tracer_install_finds_and_keeps_the_manifold_names(tmp_path):
    config = {"experiment": "manifold", "out_dir": ".", "params": {
        "n": 4, "step": 0.05, "gammas": [1.0, 100.0], "max_steps": 40,
        "target_gap": 1e-4, "rattle": {"dim": 3, "step": 0.05, "num_steps": 20}}}
    (tmp_path / "manifold.json").write_text(json.dumps(config))
    spans = run_python(f"""
        import importlib.util, json
        import hamkit.cli

        spec = importlib.util.spec_from_file_location(
            "tracing", "{ROOT / 'perfbench' / 'tracing.py'}")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        code = hamkit.cli.main(["manifold", "--config", "manifold.json"])
        names = {{span[1] for span in tracer.spans}}
        print(json.dumps({{"code": code, "names": sorted(names)}}))
        """, tmp_path)
    assert spans["code"] == 0
    assert {"manifold.run", "manifold.expm"} <= set(spans["names"]), spans
