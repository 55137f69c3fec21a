import copy
import dataclasses
import json
import math
import os
import re
import shutil

import numpy as np
import pytest

from hamkit import bench
from hamkit.bench import ExperimentConfig, Report, reevaluate, run_experiment
from hamkit.cli import main as cli_main
from hamkit.errors import ConfigError
from hamkit.samplers import write_samples_csv


def base_optimize_params():
    # critically damped quadratic: clean exponential decay at rate 2*sqrt(mu)
    return {
        "problem": {"name": "quadratic", "dim": 3, "mu": 1.0},
        "method": "dissipative_leapfrog",
        "schedule": {"kind": "constant", "gamma": 2.0},
        "step": 0.05,
        "num_steps": 4000,
        "x0": [2.0, -1.0, 0.5],
        "fit": {"model": "exponential", "burn_in": 0.2},
        "verdicts": [
            {"name": "rate", "metric": "rate", "agg": "median",
             "op": "in", "threshold": [1.8, 2.2]},
            {"metric": "r2", "agg": "min", "op": ">=", "threshold": 0.99},
        ],
    }


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig("optimize", base_optimize_params(), seed=7,
                               out_dir="/tmp/x", reps=2)
        again = ExperimentConfig.parse(cfg.serialise())
        assert again.serialise() == cfg.serialise()

    def test_unknown_top_level_key(self):
        raw = {"experiment": "optimize", "params": base_optimize_params(),
               "speed": "fast"}
        with pytest.raises(ConfigError, match="speed"):
            ExperimentConfig.parse(json.dumps(raw))

    def test_unknown_nested_key(self):
        params = base_optimize_params()
        params["problem"]["curvature"] = 2.0
        with pytest.raises(ConfigError, match="curvature"):
            run_experiment(ExperimentConfig("optimize", params))

    def test_unknown_fit_key(self):
        params = base_optimize_params()
        params["fit"]["window"] = 10
        with pytest.raises(ConfigError, match="window"):
            run_experiment(ExperimentConfig("optimize", params))

    def test_bad_verdict(self):
        params = base_optimize_params()
        params["verdicts"] = [{"metric": "rate", "op": "~=", "threshold": 2.0}]
        with pytest.raises(ConfigError):
            ExperimentConfig("optimize", params)
        params["verdicts"] = [{"metric": "rate", "op": "<=", "threshold": 2.0,
                               "agg": "mode"}]
        with pytest.raises(ConfigError):
            ExperimentConfig("optimize", params)
        params["verdicts"] = [{"metric": "rate", "op": "in", "threshold": 2.0}]
        with pytest.raises(ConfigError):
            ExperimentConfig("optimize", params)

    def test_bad_experiment_and_json(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("tune", {})
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[1, 2]")

    def test_bad_seed_and_reps(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("optimize", base_optimize_params(), seed=-1)
        with pytest.raises(ConfigError):
            ExperimentConfig("optimize", base_optimize_params(), reps=0)

    @pytest.mark.parametrize("key, value", [
        ("seed", "3"), ("seed", True), ("seed", 2.5), ("seed", 2.0),
        ("reps", "2"), ("reps", False), ("reps", 1.5)])
    def test_seed_and_reps_must_be_integers(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(
                f"'{key}' in config must be an integer, got {value!r}")):
            ExperimentConfig("optimize", base_optimize_params(), **{key: value})

    def test_integer_seed_and_reps_of_any_integer_type(self):
        cfg = ExperimentConfig("optimize", base_optimize_params(),
                               seed=np.int64(3), reps=np.int32(2))
        assert (cfg.seed, cfg.reps) == (3, 2)
        assert type(cfg.seed) is int and type(cfg.reps) is int

    @pytest.mark.parametrize("spec, named", [
        ({"metric": "x", "op": "~", "threshold": 1}, "unknown verdict op '~'"),
        ({"metric": "x", "agg": "mode", "op": "<=", "threshold": 1},
         "unknown verdict aggregate 'mode'"),
        ({"metric": "x", "op": "in", "threshold": 1}, "[lo, hi] threshold"),
    ])
    def test_reevaluate_rejects_a_bad_verdict(self, spec, named):
        stored = {"per_rep": [{"rep": 0, "x": 0.5}]}
        with pytest.raises(ConfigError, match=re.escape(named)):
            reevaluate(stored, [spec])


class TestOptimizeExperiment:
    def test_exponential_rate_verdicts_pass(self, tmp_path):
        cfg = ExperimentConfig("optimize", base_optimize_params(),
                               seed=1, out_dir=str(tmp_path), reps=2)
        report = run_experiment(cfg)
        assert report.passed
        rates = [rep["rate"] for rep in report.per_rep]
        assert all(1.8 <= r <= 2.2 for r in rates)
        assert (tmp_path / "optimize_rep0.csv").exists()
        assert (tmp_path / "optimize_rep1.csv").exists()
        assert report.substitutions == []

    def test_quartic_carries_substitution_note(self, tmp_path):
        params = dict(base_optimize_params(), problem={"name": "quartic"},
                      num_steps=200, x0=[1.0, -0.5], verdicts=[])
        report = run_experiment(ExperimentConfig("optimize", params,
                                                 out_dir=str(tmp_path)))
        assert len(report.substitutions) == 1
        assert report.substitutions[0].startswith("quartic objective")

    def test_determinism(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = ExperimentConfig("optimize", base_optimize_params(),
                                   seed=3, out_dir=str(out), reps=3)
            report = run_experiment(cfg)
            report.write(str(out))
            body = (out / "report_optimize.json").read_text()
            csvs = "".join((out / f"optimize_rep{i}.csv").read_text()
                           for i in range(3))
            outs.append((body, csvs))
        assert outs[0] == outs[1]

    def test_report_reevaluate_matches(self, tmp_path):
        params = base_optimize_params()
        cfg = ExperimentConfig("optimize", params, seed=1,
                               out_dir=str(tmp_path), reps=2)
        report = run_experiment(cfg)
        path = report.write(str(tmp_path))
        stored = json.loads(open(path).read())
        redone = reevaluate(stored, params["verdicts"])
        assert redone == stored["verdicts"]

    def test_to_dict_is_the_fields_plus_aggregates_and_passed(self):
        report = Report("optimize", [{"rep": 0, "x": 1.0}, {"rep": 1, "x": 3.0}],
                        [{"name": "x", "pass": True}], notes=["n"])
        body = report.to_dict()
        assert set(body) == ({f.name for f in dataclasses.fields(Report)}
                             | {"aggregates", "passed"})
        for f in dataclasses.fields(Report):
            assert body[f.name] == getattr(report, f.name)
        assert body["aggregates"] == report.aggregates()
        assert body["aggregates"]["x"] == {"median": 2.0, "iqr": 1.0}
        assert body["passed"] is True

    def test_aggregates_present(self, tmp_path):
        cfg = ExperimentConfig("optimize", base_optimize_params(),
                               seed=1, out_dir=str(tmp_path), reps=2)
        agg = run_experiment(cfg).aggregates()
        assert "rate" in agg
        assert set(agg["rate"]) == {"median", "iqr"}

    def test_power_law_fit_from_time_zero_is_a_note(self, tmp_path):
        # a constant schedule records t = 0; a power-law fit over it used to
        # die in numpy's least squares instead of failing as a fit
        params = dict(base_optimize_params(), num_steps=400, verdicts=[],
                      fit={"model": "power_law", "burn_in": 0.0})
        report = run_experiment(ExperimentConfig("optimize", params,
                                                 out_dir=str(tmp_path)))
        assert report.per_rep[0]["fit_failed"] == 1.0
        assert "exponent" not in report.per_rep[0]
        assert report.notes[0].startswith("rep 0: rate fit failed")
        assert (tmp_path / "optimize_rep0.csv").exists()

    def test_divergence_recorded_not_raised(self, tmp_path):
        params = base_optimize_params()
        params["step"] = 10.0
        params["verdicts"] = [{"metric": "diverged", "agg": "max",
                               "op": "<=", "threshold": 0.0}]
        cfg = ExperimentConfig("optimize", params, out_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert not report.passed
        assert report.per_rep[0]["diverged"] == 1.0

    def test_missing_metric_fails_verdict(self, tmp_path):
        params = base_optimize_params()
        params["verdicts"] = [{"metric": "nonexistent", "op": "<=",
                               "threshold": 1.0}]
        cfg = ExperimentConfig("optimize", params, out_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert not report.passed
        assert report.verdicts[0]["value"] is None

    def test_constant_schedule_needs_gamma(self, tmp_path):
        params = base_optimize_params()
        params["schedule"] = {"kind": "constant"}
        with pytest.raises(ConfigError, match="gamma"):
            run_experiment(ExperimentConfig("optimize", params,
                                            out_dir=str(tmp_path)))


class TestManifoldExperiment:
    def test_underdamped_faster_with_rattle(self, tmp_path):
        params = {
            "n": 8, "step": 0.05, "g_scalar": 0.05,
            "gammas": [1.0, 100.0], "max_steps": 2000, "target_gap": 1e-4,
            "rattle": {"dim": 4, "step": 0.05, "num_steps": 2000,
                       "gamma": 2.0, "radius": 1.0},
            "verdicts": [
                {"metric": "underdamped_faster", "agg": "min", "op": ">=",
                 "threshold": 1.0},
                {"metric": "max_defect", "agg": "max", "op": "<=",
                 "threshold": 1e-8},
                {"metric": "rattle_residual_max", "agg": "max", "op": "<=",
                 "threshold": 1e-9},
                {"metric": "rattle_opt_error", "agg": "max", "op": "<=",
                 "threshold": 1e-6},
            ],
        }
        cfg = ExperimentConfig("manifold", params, seed=0,
                               out_dir=str(tmp_path), reps=3)
        report = run_experiment(cfg)
        assert report.passed, report.verdicts

    def test_desk_scale_limit(self):
        params = {"n": 500, "step": 0.05, "gammas": [1.0],
                  "max_steps": 10, "target_gap": 1e-4}
        with pytest.raises(ConfigError, match="desk scale"):
            run_experiment(ExperimentConfig("manifold", params))


class TestSampleExperiment:
    def test_em_stationary_variance(self, tmp_path):
        params = {
            "target": {"name": "gaussian", "dim": 1000},
            "sampler": {"kind": "em", "dt_grid": [0.5, 0.1],
                        "n_steps": 3000, "burn_in": 500},
            "verdicts": [
                {"metric": "var_dt_0.5", "op": "in",
                 "threshold": [1.30, 1.37]},
                {"metric": "bias_monotone", "agg": "min", "op": ">=",
                 "threshold": 1.0},
            ],
        }
        cfg = ExperimentConfig("sample", params, seed=0, out_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert report.passed, report.verdicts
        # discrete stationary variance of the dt=0.5 chain is 1/(1 - dt/2)
        assert report.per_rep[0]["var_dt_0.5"] == pytest.approx(4.0 / 3.0,
                                                                rel=0.03)

    def test_hmc_moments_and_grid(self, tmp_path):
        params = {
            "target": {"name": "gaussian", "dim": 2,
                       "ksd_curve": {"n_points": [50, 400]}},
            "sampler": {"kind": "hmc", "step": 0.2, "n_leapfrog": 5,
                        "n_draws": 4000, "burn_in": 200,
                        "step_grid": [0.1, 0.4], "grid_draws": 1500,
                        "write_samples": True},
            "verdicts": [
                {"metric": "mean_abs_max", "op": "<=", "threshold": 0.1},
                {"metric": "var_err_max", "op": "<=", "threshold": 0.15},
                {"metric": "acceptance_monotone", "agg": "min", "op": ">=",
                 "threshold": 1.0},
                {"metric": "incidents", "agg": "max", "op": "<=",
                 "threshold": 0.0},
            ],
        }
        cfg = ExperimentConfig("sample", params, seed=2, out_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert report.passed, report.verdicts
        rep = report.per_rep[0]
        assert rep["acceptance_dt_0.1"] >= rep["acceptance_dt_0.4"] - 0.02
        assert "ksd_n_50" in rep and "ksd_n_400" in rep
        assert (tmp_path / "samples_rep0.csv").exists()

    def test_unknown_sampler(self):
        params = {"target": {"name": "gaussian"}, "sampler": {"kind": "gibbs"}}
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig("sample", params))

    @pytest.mark.parametrize("burn_in", [50, 80])
    def test_em_burn_in_below_n_steps(self, tmp_path, burn_in):
        params = {"target": {"name": "gaussian"},
                  "sampler": {"kind": "em", "dt_grid": [0.1], "n_steps": 50,
                              "burn_in": burn_in}}
        with pytest.raises(ConfigError, match="burn_in"):
            run_experiment(ExperimentConfig("sample", params,
                                            out_dir=str(tmp_path)))

    def test_hmc_needs_draws(self, tmp_path):
        params = {"target": {"name": "gaussian"},
                  "sampler": {"kind": "hmc", "step": 0.2, "n_leapfrog": 5,
                              "n_draws": 0}}
        with pytest.raises(ConfigError, match="n_draws"):
            run_experiment(ExperimentConfig("sample", params,
                                            out_dir=str(tmp_path)))

    def test_hmc_burn_in_not_negative(self, tmp_path):
        # a negative burn_in used to shorten the chain to n_draws + burn_in
        params = {"target": {"name": "gaussian"},
                  "sampler": {"kind": "hmc", "step": 0.2, "n_leapfrog": 5,
                              "n_draws": 20, "burn_in": -15}}
        with pytest.raises(ConfigError, match="burn_in"):
            run_experiment(ExperimentConfig("sample", params,
                                            out_dir=str(tmp_path)))

    @pytest.mark.parametrize("grid, grid_draws", [
        ([0.2, 0.1], 0),      # every acceptance_dt_* read 0.0 and passed
        ([0.2, 0.0], 20),     # 1.0 / 0.0 raised ZeroDivisionError
        ([-0.1], 20),
        ([math.nan], 20),
    ])
    def test_hmc_step_grid_checked(self, tmp_path, grid, grid_draws):
        params = {"target": {"name": "gaussian"},
                  "sampler": {"kind": "hmc", "step": 0.2, "n_leapfrog": 5,
                              "n_draws": 20, "step_grid": grid,
                              "grid_draws": grid_draws}}
        with pytest.raises(ConfigError, match="step_grid"):
            run_experiment(ExperimentConfig("sample", params,
                                            out_dir=str(tmp_path)))

    @pytest.mark.parametrize("name", ["banana", "gaussian_mixture"])
    def test_moment_metrics_only_for_gaussian(self, tmp_path, name):
        # mean_abs_max and var_err_max measure the distance from N(0, I)
        params = {"target": {"name": name},
                  "sampler": {"kind": "hmc", "step": 0.1, "n_leapfrog": 5,
                              "n_draws": 200}}
        report = run_experiment(ExperimentConfig("sample", params,
                                                 out_dir=str(tmp_path)))
        rep = report.per_rep[0]
        assert 0.0 < rep["acceptance"] <= 1.0
        assert "mean_abs_max" not in rep and "var_err_max" not in rep

    @pytest.mark.parametrize("name", ["banana", "gaussian_mixture"])
    def test_em_needs_gaussian_target(self, tmp_path, name):
        # var_dt_* and bias_monotone compare the second moment against 1;
        # banana at seed 0 gave var_dt_0.05 = 8.14
        params = {"target": {"name": name},
                  "sampler": {"kind": "em", "dt_grid": [0.2, 0.05],
                              "n_steps": 200}}
        with pytest.raises(ConfigError, match=f"em sampler.*{name}"):
            run_experiment(ExperimentConfig("sample", params,
                                            out_dir=str(tmp_path)))

    @pytest.mark.parametrize("name", ["banana", "gaussian_mixture"])
    def test_ksd_curve_needs_gaussian_target(self, tmp_path, name):
        # the curve scores fresh N(0, I) draws, not the sampler's output
        params = {"target": {"name": name, "ksd_curve": {"n_points": [20, 40]}},
                  "sampler": {"kind": "hmc", "step": 0.1, "n_leapfrog": 5,
                              "n_draws": 200}}
        with pytest.raises(ConfigError, match="ksd_curve"):
            run_experiment(ExperimentConfig("sample", params,
                                            out_dir=str(tmp_path)))


class TestDiscrepancyExperiment:
    def test_all_tasks(self, tmp_path):
        params = {
            "tasks": [
                {"kind": "sm_ngd", "n_samples": 200, "dim": 2, "n_iter": 50},
                {"kind": "mmd_ustat_zero", "n": 150, "n_outer": 10},
                {"kind": "ksd_mismatch", "m": 200, "shift": 1.0},
            ],
            "verdicts": [
                {"metric": "sm_ngd_theta_err", "agg": "max", "op": "<=",
                 "threshold": 1e-6},
                {"metric": "mmd_z", "agg": "max", "op": "<=", "threshold": 4.0},
                {"metric": "ksd_z", "agg": "min", "op": ">=", "threshold": 5.0},
            ],
        }
        cfg = ExperimentConfig("discrepancy", params, seed=0,
                               out_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert report.passed, report.verdicts

    def test_missing_samples_file(self):
        params = {"tasks": [{"kind": "ksd_mismatch", "m": 10,
                             "samples_file": "/nonexistent.csv"}]}
        with pytest.raises(ConfigError, match="samples file"):
            run_experiment(ExperimentConfig("discrepancy", params))

    def test_samples_file_read_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "pool.csv")
        write_samples_csv(path, np.random.default_rng(0).standard_normal((60, 2)))
        read, reads = bench._read_samples_csv, []

        def counted(p):
            reads.append(p)
            return read(p)

        monkeypatch.setattr(bench, "_read_samples_csv", counted)
        params = {"tasks": [
            {"kind": "mmd_ustat_zero", "n": 20, "dim": 2, "n_outer": 10,
             "samples_file": path},
            {"kind": "ksd_mismatch", "m": 40, "samples_file": path}]}
        report = run_experiment(ExperimentConfig(
            "discrepancy", params, out_dir=str(tmp_path)))
        assert reads == [path]
        assert math.isfinite(report.per_rep[0]["mmd_u_mean"])

    @pytest.mark.parametrize("task, match", [
        ({"kind": "mmd_ustat_zero", "n": 20}, "40"),
        ({"kind": "ksd_mismatch", "m": 31}, "31"),
        ({"kind": "ksd_mismatch", "m": 10, "dim": 3}, "dim"),
    ], ids=["mmd_short", "ksd_short", "dim_mismatch"])
    def test_samples_file_mismatch(self, tmp_path, task, match):
        path = str(tmp_path / "pool.csv")
        write_samples_csv(path, np.random.default_rng(0).standard_normal((30, 2)))
        params = {"tasks": [dict(task, samples_file=path)]}
        with pytest.raises(ConfigError, match=match):
            run_experiment(ExperimentConfig("discrepancy", params))

    @pytest.mark.parametrize("cell", ["abc", ""], ids=["text", "empty"])
    def test_samples_file_bad_cell(self, tmp_path, cell):
        path = tmp_path / "pool.csv"
        path.write_text(f"chain,step,accepted,q_1,q_2\n0,0,1,1.0,2.0\n"
                        f"0,1,1,{cell},2.0\n")
        params = {"tasks": [{"kind": "ksd_mismatch", "m": 2,
                             "samples_file": str(path)}]}
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            run_experiment(ExperimentConfig("discrepancy", params))

    def test_header_only_samples_file(self, tmp_path, recwarn):
        path = tmp_path / "pool.csv"
        path.write_text("chain,step,accepted,q_1\n")
        params = {"tasks": [{"kind": "ksd_mismatch", "m": 2,
                             "samples_file": str(path)}]}
        with pytest.raises(ConfigError, match="0 rows"):
            run_experiment(ExperimentConfig("discrepancy", params))
        assert not recwarn.list

    def test_samples_csv_keeps_every_bit(self, tmp_path):
        path = str(tmp_path / "bits.csv")
        samples = np.array([[-0.0, 5e-324], [1e308, -1e308], [0.1, 1 / 3]])
        write_samples_csv(path, samples)
        back = bench._read_samples_csv(path)
        assert back.dtype == np.float64
        assert back.tobytes() == samples.tobytes()

    def test_samples_file_round_trip(self, tmp_path):
        sample_params = {
            "target": {"name": "gaussian", "dim": 1},
            "sampler": {"kind": "hmc", "step": 0.2, "n_leapfrog": 5,
                        "n_draws": 3000, "burn_in": 200,
                        "write_samples": True},
        }
        run_experiment(ExperimentConfig(
            "sample", sample_params, seed=4, out_dir=str(tmp_path))).write(
            str(tmp_path))
        samples_path = str(tmp_path / "samples_rep0.csv")
        params = {
            "tasks": [{"kind": "ksd_mismatch", "m": 400, "shift": 0.0,
                       "samples_file": samples_path}],
            "verdicts": [{"metric": "ksd_z", "agg": "max", "op": "<=",
                          "threshold": 4.0}],
        }
        report = run_experiment(ExperimentConfig(
            "discrepancy", params, seed=0, out_dir=str(tmp_path)))
        assert report.passed, report.verdicts


class TestCli:
    def write_config(self, tmp_path, params, experiment="optimize", **kw):
        cfg = ExperimentConfig(experiment, params,
                               out_dir=str(tmp_path / "out"), **kw)
        path = tmp_path / "config.json"
        path.write_text(cfg.serialise())
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_optimize_params(), seed=1)
        assert cli_main(["optimize", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[PASS] rate" in out
        assert "report written to" in out
        assert os.path.exists(tmp_path / "out" / "report_optimize.json")

    def test_exit_two_on_verdict_failure(self, tmp_path, capsys):
        params = base_optimize_params()
        params["verdicts"] = [{"metric": "rate", "op": ">=", "threshold": 100.0}]
        path = self.write_config(tmp_path, params)
        assert cli_main(["optimize", "--config", path]) == 2
        assert "[FAIL]" in capsys.readouterr().out

    def test_exit_one_on_missing_config(self, tmp_path, capsys):
        code = cli_main(["optimize", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_exit_one_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"experiment\": \"optimize\"}")
        assert cli_main(["optimize", "--config", str(path)]) == 1

    def test_exit_one_on_subcommand_mismatch(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_optimize_params())
        assert cli_main(["sample", "--config", path]) == 1
        assert "subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--reps", "0")])
    def test_exit_one_on_bad_override(self, tmp_path, capsys, flag, value):
        path = self.write_config(tmp_path, base_optimize_params())
        assert cli_main(["optimize", "--config", path, flag, value]) == 1
        assert flag[2:] in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key, value, named", [
        ("optimize", "problem", 5, "problem block"),
        ("optimize", "problem", "quartic", "problem block"),
        ("optimize", "verdicts", 5, "verdicts"),
        ("discrepancy", "tasks", 5, "tasks"),
        ("discrepancy", "tasks", {}, "tasks"),
        ("discrepancy", "tasks", [5], "discrepancy task"),
        ("discrepancy", "verdicts", ["x"], "verdict entry"),
    ])
    def test_exit_one_on_block_of_wrong_type(self, tmp_path, capsys,
                                             experiment, key, value, named):
        params = (base_optimize_params() if experiment == "optimize" else
                  {"tasks": [{"kind": "sm_ngd", "n_samples": 20, "dim": 2,
                              "n_iter": 2}]})
        params[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": experiment, "params": params,
                                    "out_dir": str(tmp_path / "out")}))
        assert cli_main([experiment, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err
        assert "must be a JSON" in err, err

    @pytest.mark.parametrize("experiment, path, key, value, named", [
        ("optimize", (), "seed", "x", "config"),
        ("optimize", (), "seed", 2.5, "config"),
        ("optimize", ("params",), "record_every", True, "optimize params"),
        ("discrepancy", ("params", "tasks", 0), "sigma", "1", "sm_ngd task"),
    ])
    def test_exit_one_on_value_of_wrong_type(self, tmp_path, capsys, experiment,
                                             path, key, value, named):
        params = (base_optimize_params() if experiment == "optimize" else
                  {"tasks": [{"kind": "sm_ngd", "n_samples": 20, "dim": 2,
                              "n_iter": 2}]})
        raw = {"experiment": experiment, "params": params,
               "out_dir": str(tmp_path / "out")}
        block = raw
        for part in path:
            block = block[part]
        block[key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert cli_main([experiment, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}' in {named} must be" in err, err

    @pytest.mark.parametrize("path, key, value, named", [
        (("params",), "num_steps", 2.7, "'num_steps' in optimize params must "
         "be an integer, got 2.7"),
        (("params",), "step", "abc", "'step' in optimize params must be a "
         "number, got 'abc'"),
        (("params", "verdicts", 1), "threshold", "1", "'threshold' in verdict "
         "entry must be a number or a [lo, hi] pair of numbers, got '1'"),
        (("params", "verdicts", 1), "threshold", [0.0, 1.0],
         "'>=' verdicts need a number threshold"),
    ])
    def test_required_values_are_checked_at_load(self, tmp_path, capsys, path,
                                                 key, value, named):
        raw = {"experiment": "optimize", "params": base_optimize_params(),
               "out_dir": str(tmp_path / "out")}
        block = raw
        for part in path:
            block = block[part]
        block[key] = value
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.parse(json.dumps(raw))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert cli_main(["optimize", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err
        assert not (tmp_path / "out").exists()

    def test_overrides(self, tmp_path):
        path = self.write_config(tmp_path, base_optimize_params(), seed=1)
        out2 = str(tmp_path / "alt")
        code = cli_main(["optimize", "--config", path, "--seed", "9",
                         "--out", out2, "--reps", "2"])
        assert code == 0
        stored = json.loads(
            open(os.path.join(out2, "report_optimize.json")).read())
        assert stored["environment"]["seed"] == 9
        assert stored["environment"]["reps"] == 2
        assert len(stored["per_rep"]) == 2


# Small runnable configs that between them hold every block of bench._SCHEMA,
# each block leaving some of its keys to their defaults.
def schema_configs(tmp_path):
    pool = str(tmp_path / "pool.csv")
    write_samples_csv(pool, np.random.default_rng(0).standard_normal((40, 2)))
    verdicts = [{"metric": "rep", "op": ">=", "threshold": 0.0}]
    params = {
        "optimize": {
            "problem": {"name": "quadratic", "dim": 2},
            "method": "dissipative_leapfrog",
            "schedule": {"kind": "vanishing"}, "step": 0.05,
            "num_steps": 200, "fit": {"model": "exponential"},
            "verdicts": verdicts},
        "manifold": {
            "n": 4, "step": 0.05, "gammas": [1.0, 100.0], "max_steps": 50,
            "target_gap": 1e-4,
            "rattle": {"dim": 3, "step": 0.05, "num_steps": 50}},
        "sample_hmc": {
            "target": {"name": "gaussian", "dim": 2,
                       "ksd_curve": {"n_points": [20, 40]}},
            "sampler": {"kind": "hmc", "step": 0.2, "n_leapfrog": 3,
                        "n_draws": 50, "step_grid": [0.2], "grid_draws": 20}},
        "sample_em": {
            "target": {"name": "gaussian"},
            "sampler": {"kind": "em", "dt_grid": [0.5, 0.1], "n_steps": 50}},
        "discrepancy": {"tasks": [
            {"kind": "sm_ngd", "n_samples": 20, "dim": 2, "n_iter": 5},
            {"kind": "mmd_ustat_zero", "n": 10, "n_outer": 3,
             "samples_file": pool},
            {"kind": "ksd_mismatch", "m": 20, "dim": 2, "samples_file": pool}]},
    }
    return {name: {"experiment": name.split("_")[0], "params": body,
                   "out_dir": str(tmp_path / "out")}
            for name, body in params.items()}


# where each _SCHEMA block sits: (config, path of keys into the raw JSON)
SCHEMA_BLOCKS = {
    "config": ("optimize", ()),
    "verdict entry": ("optimize", ("params", "verdicts", 0)),
    "optimize params": ("optimize", ("params",)),
    "problem block": ("optimize", ("params", "problem")),
    "schedule block": ("optimize", ("params", "schedule")),
    "fit block": ("optimize", ("params", "fit")),
    "manifold params": ("manifold", ("params",)),
    "rattle block": ("manifold", ("params", "rattle")),
    "sample params": ("sample_hmc", ("params",)),
    "target block": ("sample_hmc", ("params", "target")),
    "ksd_curve block": ("sample_hmc", ("params", "target", "ksd_curve")),
    "hmc sampler block": ("sample_hmc", ("params", "sampler")),
    "em sampler block": ("sample_em", ("params", "sampler")),
    "discrepancy params": ("discrepancy", ("params",)),
    "sm_ngd task": ("discrepancy", ("params", "tasks", 0)),
    "mmd task": ("discrepancy", ("params", "tasks", 1)),
    "ksd task": ("discrepancy", ("params", "tasks", 2)),
}


def run_raw(raw):
    return run_experiment(ExperimentConfig.parse(json.dumps(raw)))


@pytest.mark.parametrize("where", sorted(bench._SCHEMA))
def test_schema_block_contract(tmp_path, where):
    name, path = SCHEMA_BLOCKS[where]

    def config_and_block():
        raw = schema_configs(tmp_path)[name]
        block = raw
        for key in path:
            block = block[key]
        return raw, block

    raw, block = config_and_block()
    block["bogus_key"] = 1
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown keys ['bogus_key'] in {where}")):
        run_raw(raw)

    # a variant block's kind is what chose the block
    family = [f for f, kinds in bench._VARIANTS.items()
              if where in kinds.values()]
    required = [k for k, v in bench._SCHEMA[where].items()
                if isinstance(v, bench._Required)]
    for key in required:
        raw, block = config_and_block()
        del block[key]
        message = (f"unknown {family[0]} kind None" if family and key == "kind"
                   else f"missing keys ['{key}'] in {where}")
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_raw(raw)

    # defaults are filled into copies: the loaded params stay as loaded
    raw, _ = config_and_block()
    cfg = ExperimentConfig.parse(json.dumps(raw))
    before = copy.deepcopy(cfg.params)
    report = run_experiment(cfg)
    assert cfg.params == before
    assert report.per_rep


# A wrong kind of value for each kind of _SCHEMA entry (the type of a default,
# or a required key's declared kind); a float also takes an integer, and no
# number takes a bool.
WRONG_KINDS = {bool: [1, "true"], int: [True, 2.5, "2"], float: [True, "1"],
               str: [1, True], "integers": [3, [], [2.5], ["2"], [True]],
               "numbers": [1.0, [], ["1"], [True], "1"],
               "step": [True, "1"], "steps": [1.0, [], ["1"], [True]],
               "threshold": ["1", True, [1.0], [1.0, 2.0, 3.0], [1.0, "2"]]}


def kind(entry):
    return getattr(entry, "kind", type(entry))   # _Required, _Optional


def typed_keys(where):
    return {k: v for k, v in bench._SCHEMA[where].items()
            if kind(v) in WRONG_KINDS}


@pytest.mark.parametrize("where", [w for w in sorted(bench._SCHEMA)
                                   if typed_keys(w)])
def test_schema_values_of_the_wrong_kind(tmp_path, where):
    name, path = SCHEMA_BLOCKS[where]
    for key, default in typed_keys(where).items():
        for value in WRONG_KINDS[kind(default)]:
            raw = schema_configs(tmp_path)[name]
            block = raw
            for part in path:
                block = block[part]
            block[key] = value
            with pytest.raises(ConfigError, match=re.escape(
                    f"'{key}' in {where} must be")):
                run_raw(raw)


@pytest.mark.parametrize("name, path, what, choices", [
    ("optimize", ("params", "problem", "name"), "problem",
     ["quadratic", "quartic", "rosenbrock"]),
    ("optimize", ("params", "schedule", "kind"), "schedule kind",
     ["constant", "vanishing", "zero"]),
    ("sample_hmc", ("params", "target", "name"), "target",
     ["banana", "gaussian", "gaussian_mixture"]),
])
def test_unknown_name_lists_the_choices(tmp_path, name, path, what, choices):
    raw = schema_configs(tmp_path)[name]
    block = raw
    for part in path[:-1]:
        block = block[part]
    block[path[-1]] = "nonesuch"
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown {what} 'nonesuch'; choose from {choices}")):
        run_raw(raw)


@pytest.mark.parametrize("name, path, what, choices", [
    ("optimize", ("params", "method"), "method",
     ["dissipative_leapfrog", "gradient_flow"]),
    ("optimize", ("params", "fit", "model"), "fit model",
     ["exponential", "power_law"]),
    ("manifold", ("params", "mode"), "lie step mode",
     ["paper_literal", "skew_projection"]),
])
def test_library_names_are_checked_before_the_reps(tmp_path, name, path,
                                                   what, choices):
    # these names used to reach the library inside rep 0, after its run
    raw = schema_configs(tmp_path)[name]
    block = raw
    for part in path[:-1]:
        block = block[part]
    block[path[-1]] = "nonesuch"
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown {what} 'nonesuch'; choose from {choices}")):
        run_raw(raw)
    assert not os.path.exists(raw["out_dir"])   # no rep ran, no CSV written


# An optional key (an _Optional entry) is None when left out or given as null,
# and otherwise must be of its kind.  Params-level and verdict keys fail when
# the config loads, block keys when the command checks its blocks; either way
# before the first rep runs or its output directory is made.
@pytest.mark.parametrize("name, path, key, value, named", [
    ("sample_hmc", ("params", "sampler"), "step_grid", ["a"],
     "'step_grid' in hmc sampler block must be a non-empty list of numbers"),
    ("optimize", ("params",), "x0", ["1", "2"],
     "'x0' in optimize params must be a non-empty list of numbers"),
    ("optimize", ("params",), "target_gap", "1e-6",
     "'target_gap' in optimize params must be a number"),
    ("manifold", ("params",), "g_scalar", [0.05],
     "'g_scalar' in manifold params must be a number"),
    ("optimize", ("params", "schedule"), "gamma", "1",
     "'gamma' in schedule block must be a number"),
    ("sample_em", ("params", "sampler"), "burn_in", 2.5,
     "'burn_in' in em sampler block must be an integer"),
    ("discrepancy", ("params", "tasks", 1), "dim", "2",
     "'dim' in mmd task must be an integer"),
    ("discrepancy", ("params", "tasks", 2), "dim", 2.0,
     "'dim' in ksd task must be an integer"),
    ("discrepancy", ("params", "tasks", 1), "samples_file", 3,
     "'samples_file' in mmd task must be a string"),
    ("optimize", ("params", "verdicts", 0), "name", 5,
     "'name' in verdict entry must be a string"),
])
def test_optional_values_are_checked_before_the_run(tmp_path, capsys, name,
                                                    path, key, value, named):
    raw = schema_configs(tmp_path)[name]
    block = raw
    for part in path:
        block = block[part]
    block[key] = None   # null is the default
    run_raw(raw)
    shutil.rmtree(tmp_path / "out")
    block[key] = value
    with pytest.raises(ConfigError, match=re.escape(named)):
        run_raw(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert cli_main([raw["experiment"], "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err
    assert not (tmp_path / "out").exists()


# Steps and counts out of range are refused before the first rep, naming the
# key.  They used to run: an hmc step of 0 reported acceptance 1.0, an em
# dt_grid entry of 0 reported var_dt_0 = 0.0, n_outer 1 wrote a NaN
# mmd_u_stderr into the report.  Or they failed inside rep 0: a negative em
# step as an untyped math domain error, n_outer 0 as a ZeroDivisionError, a
# negative manifold step as "g_scalar must be positive".
@pytest.mark.parametrize("where, key, value, need", [
    ("hmc sampler block", "step", 0.0, "a number > 0"),
    ("hmc sampler block", "step", -0.2, "a number > 0"),
    ("hmc sampler block", "step", math.nan, "a number > 0"),
    ("em sampler block", "dt_grid", [0.5, 0.0], "a non-empty list of numbers > 0"),
    ("em sampler block", "dt_grid", [-0.1], "a non-empty list of numbers > 0"),
    ("manifold params", "step", -0.05, "a number > 0"),
    ("manifold params", "g_scalar", 0.0, "a number > 0"),
    ("rattle block", "step", 0.0, "a number > 0"),
    ("mmd task", "n_outer", 1, ">= 2"),
    ("mmd task", "n_outer", 0, ">= 2"),
])
def test_values_out_of_range_are_checked_before_the_reps(tmp_path, capsys, where,
                                                         key, value, need):
    name, path = SCHEMA_BLOCKS[where]
    raw = schema_configs(tmp_path)[name]
    block = raw
    for part in path:
        block = block[part]
    block[key] = value
    named = f"'{key}' in {where} must be {need}"
    with pytest.raises(ConfigError, match=re.escape(named)):
        run_raw(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert cli_main([raw["experiment"], "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err
    assert not (tmp_path / "out").exists()
