import copy
import dataclasses
import json
import math
import os
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamkit import bench
from hamkit.bench import ExperimentConfig, Report, reevaluate, run_experiment
from hamkit.cli import main as cli_main
from hamkit.errors import ConfigError
from hamkit.integrators import Trajectory
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


def bits(x):
    """The IEEE-754 bits of float x, with every NaN the same."""
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def numpy_aggregates(vals):
    """np.median and np.percentile(.., [25, 75]) of vals, as Python floats."""
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf warns
        return float(np.median(vals)), np.percentile(vals, [25, 75]).tolist()


_MAGNITUDES = st.floats(1e-300, 1e300)
_VALUES = st.lists(_MAGNITUDES | _MAGNITUDES.map(lambda x: -x)
                   | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                   min_size=1, max_size=12)


class TestAggregateHelpers:
    @settings(max_examples=1000, deadline=None)
    @given(_VALUES)
    @example([-2.0, -2.0, -0.0, -0.0, 0.0, -2.0])   # a sorted copy: -0.0
    @example([-0.0])                                  # numpy's mean: 0.0
    @example([math.inf])                              # both quartiles NaN
    @example([1.0, math.nan, -math.inf])
    def test_median_and_quartiles_are_numpys_bits(self, values):
        vals = np.array(values)
        median, quartiles = numpy_aggregates(vals)
        assert bits(bench._median(vals)) == bits(median)
        assert list(map(bits, bench._quartiles(vals))) == list(map(bits, quartiles))
        assert list(map(bits, vals.tolist())) == list(map(bits, values))


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

    @pytest.mark.parametrize("values, agg, op, threshold, value, passed", [
        ([1.0, 2.0, 4.0], "median", "<", 2.0, 2.0, False),
        ([1.0, 2.0, 4.0], "median", ">", 1.5, 2.0, True),
        ([1.0, 2.0, 4.0], "median", "in", [2.0, 2.0], 2.0, True),
        ([1.0, 2.0, 4.0], "mean", "<", 2.5, 7.0 / 3.0, True),
        ([1.0, 2.0, 4.0], "min", ">", 1.0, 1.0, False),
        ([1.0, 2.0, 4.0], "max", "<=", 4.0, 4.0, True),
        ([1.0, 2.0, 4.0], "max", ">=", 4.5, 4.0, False),
        # |mean| / (sd / sqrt(n)) = (7/3) / sqrt(7/9) = sqrt(7)
        ([1.0, 2.0, 4.0], "zscore", ">=", 2.6, math.sqrt(7.0), True),
        ([-1.0, -2.0, -4.0], "zscore", "<", 2.6, math.sqrt(7.0), False),
        # no standard error from one value, none from zero spread
        ([3.0], "zscore", ">", 1e300, math.inf, True),
        ([2.0, 2.0, 2.0], "zscore", "<=", 1e300, math.inf, False),
    ])
    def test_reevaluate_every_op_and_aggregate(self, values, agg, op,
                                               threshold, value, passed):
        stored = {"per_rep": [{"rep": i, "x": v} for i, v in enumerate(values)]}
        (verdict,) = reevaluate(stored, [{"metric": "x", "agg": agg, "op": op,
                                          "threshold": threshold}])
        assert verdict["value"] == pytest.approx(value, rel=1e-15)
        assert verdict["pass"] is passed

    @pytest.mark.parametrize("spec, named", [
        ({"metric": "x", "op": "~", "threshold": 1}, "unknown verdict op '~'"),
        ({"metric": "x", "agg": "mode", "op": "<=", "threshold": 1},
         "unknown verdict aggregate 'mode'"),
        ({"metric": "x", "op": "in", "threshold": 1}, "[lo, hi] threshold"),
        # each of these loaded and gave a verdict that could never pass
        ({"metric": "x", "op": "in", "threshold": [1.0, 0.0]},
         "'in' verdicts need lo <= hi, got [1.0, 0.0]"),
        ({"metric": "x", "op": "<=", "threshold": math.nan},
         "'threshold' in verdict entry must be a number or a [lo, hi] pair of "
         "numbers, got nan"),
    ])
    def test_reevaluate_rejects_a_bad_verdict(self, spec, named):
        stored = {"per_rep": [{"rep": 0, "x": 0.5}]}
        with pytest.raises(ConfigError, match=re.escape(named)):
            reevaluate(stored, [spec])


class TestRunReps:
    """bench._run_reps gives rep i the numpy Generator seeded by child i of
    SeedSequence(cfg.seed)."""

    @staticmethod
    def run(seed, reps, worker):
        cfg = ExperimentConfig("optimize", base_optimize_params(), seed=seed,
                               reps=reps)
        return bench._run_reps(cfg, worker)

    def test_equal_seeds_give_equal_streams(self):
        a, b = (self.run(123, 2, lambda i, rng: rng.standard_normal(10))
                for _ in range(2))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_each_rep_has_its_own_stream(self):
        first, second = self.run(5, 2, lambda i, rng: rng.standard_normal(10))
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_stream_is_the_spawned_generator(self, seed):
        def draws(i, rng):
            return (i, rng.random(), rng.standard_normal(3),
                    int(rng.integers(3, 6)), rng.permutation(50))

        got = self.run(seed, 3, draws)
        want = [draws(i, np.random.default_rng(child)) for i, child in
                enumerate(np.random.SeedSequence(seed).spawn(3))]
        for a, b in zip(got, want, strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

    def test_permutation_is_the_spawned_generator(self):
        got = self.run(5, 2, lambda i, rng: rng.permutation(50))
        want = [np.random.default_rng(child).permutation(50)
                for child in np.random.SeedSequence(5).spawn(2)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


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
        # no x0: each rep starts elsewhere, so the reps' metrics differ and the
        # median and quartiles interpolate between them
        params = base_optimize_params()
        del params["x0"]
        cfg = ExperimentConfig("optimize", params, seed=1,
                               out_dir=str(tmp_path), reps=4)
        report = run_experiment(cfg)
        agg = report.aggregates()
        assert "rate" in agg
        assert agg["final_gap"]["iqr"] > 0
        for key, got in agg.items():
            median, (q25, q75) = numpy_aggregates(
                np.array([rep[key] for rep in report.per_rep]))
            assert set(got) == {"median", "iqr"}
            assert bits(got["median"]) == bits(median), key
            assert bits(got["iqr"]) == bits(q75 - q25), key
        rate = report.verdicts[0]
        assert (rate["metric"], rate["agg"]) == ("rate", "median")
        assert bits(rate["value"]) == bits(agg["rate"]["median"])

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

    def test_constant_schedule_gamma_checked_before_the_reps(self, tmp_path):
        # a negative gamma used to raise the library's DomainError
        params = base_optimize_params()
        params["schedule"] = {"kind": "constant", "gamma": -1.0}
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape(
                "'gamma' in schedule block must be a number > 0, got -1.0")):
            run_experiment(ExperimentConfig("optimize", params, out_dir=str(out)))
        assert not out.exists()


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

    def test_metrics_do_not_depend_on_list_order(self, tmp_path):
        # bias_monotone and ksd_decreasing compare by dt and by n, not by
        # place in the config's list; the draws still follow the list
        def metrics(dt_grid, n_points):
            params = {"target": {"name": "gaussian", "dim": 10,
                                 "ksd_curve": {"n_points": n_points}},
                      "sampler": {"kind": "em", "dt_grid": dt_grid,
                                  "n_steps": 400}}
            rep = run_experiment(ExperimentConfig(
                "sample", params, seed=1, out_dir=str(tmp_path))).per_rep[0]
            return rep["bias_monotone"], rep["ksd_decreasing"]

        assert metrics([0.5, 0.1], [50, 400]) == (1.0, 1.0)
        assert metrics([0.1, 0.5], [400, 50]) == (1.0, 1.0)

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

    @pytest.mark.parametrize("cell", ["abc", "", "nan", "-inf"],
                             ids=["text", "empty", "nan", "inf"])
    def test_samples_file_bad_cell(self, tmp_path, cell):
        # four rows, all that either task draws, so that only the cell fails
        path = tmp_path / "pool.csv"
        path.write_text("chain,step,accepted,q_1,q_2\n0,0,1,1.0,2.0\n"
                        f"0,1,1,{cell},2.0\n0,2,1,0.5,0.0\n0,3,1,-1.0,0.5\n")
        shown = cell if cell in ("nan", "-inf") else repr(cell)
        named = re.escape(f"{path}: row 2, column q_1 is {shown}, not ")
        for task in ({"kind": "ksd_mismatch", "m": 4},
                     {"kind": "mmd_ustat_zero", "n": 2}):
            params = {"tasks": [dict(task, samples_file=str(path))]}
            with pytest.raises(ConfigError, match=named):
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

    @pytest.mark.parametrize("rattle", [None, {"dim": 3, "step": 0.05,
                                                "num_steps": 5, "gamma": 1e5}])
    def test_exit_one_on_cosh_overflow(self, tmp_path, capsys, rattle):
        # gamma dt / 2 = 2500 > 710 in the Lie run, or in the RATTLE run
        params = {"n": 3, "step": 0.05, "max_steps": 5, "target_gap": 1e-4,
                  "gammas": [1.0, 1e5] if rattle is None else [1.0],
                  "rattle": rattle}
        path = self.write_config(tmp_path, params, experiment="manifold")
        assert cli_main(["manifold", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("execution error:") and "cosh" in err, err

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
         "number > 0, got 'abc'"),
        (("params", "verdicts", 1), "threshold", "1", "'threshold' in verdict "
         "entry must be a number or a [lo, hi] pair of numbers, got '1'"),
        (("params", "verdicts", 1), "threshold", [0.0, 1.0],
         "'>=' verdicts need a number threshold"),
        (("params", "verdicts", 0), "threshold", [2.2, 1.8],
         "'in' verdicts need lo <= hi, got [2.2, 1.8]"),
        (("params", "verdicts", 1), "threshold", math.nan, "'threshold' in "
         "verdict entry must be a number or a [lo, hi] pair of numbers, got nan"),
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


# A wrong kind of value for each kind of _SCHEMA entry (the type of a plain
# default, or a _Key's declared kind); a float also takes an integer, and no
# number takes a bool.
WRONG_KINDS = {bool: [1, "true"], int: [True, 2.5, "2"], float: [True, "1"],
               str: [1, True], "integers": [3, [], [2.5], ["2"], [True]],
               "numbers": [1.0, [], ["1"], [True], "1"],
               "positive": [True, "1"], "positives": [1.0, [], ["1"], [True], "1"],
               "threshold": ["1", True, [1.0], [1.0, 2.0, 3.0], [1.0, "2"]]}


def kind(entry):
    return getattr(entry, "kind", type(entry))   # a _Key, or a plain default


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
    ("optimize", ("params", "fit", "envelope_spacing"), "envelope spacing",
     ["linear", "log"]),
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
# negative manifold step as "g_scalar must be positive", an optimize
# num_steps, record_every or step of 0 and an hmc n_leapfrog of 0 or jitter
# of 1.5 as the library's DomainError; a fit burn_in of 1.5 or 5
# envelope_blocks only after rep 0 had written its trajectory CSV; an sm_ngd
# sigma of 0 as a ZeroDivisionError; an sm_ngd step or kernel sigma of 0, an
# mmd n or ksd m of 1, a ksd_curve point count of 0, an em beta of 0, a
# manifold n or rattle dim of 0 and a rattle radius of 0 as the library's
# errors.  A negative sm_ngd sigma or rattle radius ran: the first as its
# absolute value, the second measuring the distance to the maximiser.
# Each key's range is now its _SCHEMA domain.  Of the rows from "sm_ngd task
# n_samples" on: an sm_ngd n_samples of 0, a negative manifold gamma, rattle
# gamma or constant-schedule gamma, and a NaN x0_scale, c_scale, shift or mu
# failed inside rep 0, after out_dir existed; an sm_ngd dim of 0 and a problem
# dim of -1 as untyped numpy errors; a problem or target dim of 0 as the
# library's DomainError; an sm_ngd n_iter, manifold max_steps or rattle
# num_steps of 0, a NaN target_gap and an mmd or ksd dim of 0 ran to a report.
# A schedule r of 0 or t0 of -1 raised the library's DomainError; a mu or
# x0_scale of 0 and a negative b ran; seed, reps and the em rows were refused
# already, with other messages.  JSON's NaN and Infinity are no numbers: an
# infinite target_gap or hmc step ran to a report, the others failed in rep 0.
@pytest.mark.parametrize("where, key, value, need", [
    ("optimize params", "num_steps", 0, ">= 1"),
    ("optimize params", "record_every", 0, ">= 1"),
    ("optimize params", "step", 0.0, "a number > 0"),
    ("optimize params", "step", -0.05, "a number > 0"),
    ("fit block", "burn_in", 1.5, "in [0, 1)"),
    ("fit block", "burn_in", -0.1, "in [0, 1)"),
    ("fit block", "envelope_blocks", 5, ">= 10"),
    ("hmc sampler block", "n_leapfrog", 0, ">= 1"),
    ("hmc sampler block", "jitter", 1.5, "in [0, 1]"),
    ("hmc sampler block", "jitter", -0.1, "in [0, 1]"),
    ("hmc sampler block", "n_draws", 0, ">= 1"),
    ("hmc sampler block", "burn_in", -1, ">= 0"),
    ("hmc sampler block", "grid_draws", 0, ">= 1 with a step_grid"),
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
    ("sm_ngd task", "sigma", 0.0, "a number > 0"),
    ("sm_ngd task", "sigma", -1.0, "a number > 0"),
    ("sm_ngd task", "step", 0.0, "a number > 0"),
    ("mmd task", "sigma", 0.0, "a number > 0"),
    ("ksd task", "sigma", 0.0, "a number > 0"),
    ("mmd task", "n", 1, ">= 2"),
    ("ksd task", "m", 1, ">= 2"),
    ("ksd_curve block", "n_points", [20, 0], "a list of integers >= 2"),
    ("ksd_curve block", "sigma", 0.0, "a number > 0"),
    ("em sampler block", "beta", 0.0, "a number > 0"),
    ("manifold params", "n", 0, ">= 1"),
    ("rattle block", "dim", 0, ">= 1"),
    ("rattle block", "radius", 0.0, "a number > 0"),
    ("rattle block", "radius", -1.0, "a number > 0"),
    ("sm_ngd task", "n_samples", 0, ">= 1"),
    ("sm_ngd task", "dim", 0, ">= 1"),
    ("sm_ngd task", "n_iter", 0, ">= 1"),
    ("mmd task", "dim", 0, ">= 1"),
    ("ksd task", "dim", 0, ">= 1"),
    ("manifold params", "max_steps", 0, ">= 1"),
    ("manifold params", "gammas", [1.0, -1.0], "a non-empty list of numbers > 0"),
    ("rattle block", "num_steps", 0, ">= 1"),
    ("rattle block", "gamma", -1.0, "a number > 0"),
    ("problem block", "dim", -1, ">= 1"),
    ("target block", "dim", 0, ">= 1"),
    ("schedule block", "gamma", -1.0, "a number > 0"),
    ("optimize params", "target_gap", math.nan, "a number > 0"),
    ("manifold params", "target_gap", math.nan, "a number > 0"),
    ("ksd task", "shift", math.nan, "a number"),
    ("manifold params", "c_scale", math.nan, "a number"),
    ("optimize params", "x0_scale", math.nan, "a number"),
    ("problem block", "mu", math.nan, "a number"),
    ("config", "seed", -1, ">= 0"),
    ("config", "reps", 0, ">= 1"),
    ("em sampler block", "burn_in", -1, ">= 0"),
    ("em sampler block", "n_steps", 0, ">= 1"),
    ("schedule block", "r", 0.0, "a number > 0"),
    ("schedule block", "t0", -1.0, "a number > 0"),
    ("problem block", "mu", 0.0, "a number > 0"),
    ("problem block", "b", -1.0, "a number > 0"),
    ("optimize params", "x0_scale", 0.0, "a number > 0"),
    ("optimize params", "x0", [1.0, math.nan], "a non-empty list of numbers"),
    ("optimize params", "x0", [1.0, 2.0, 3.0], "a list of 2 numbers"),
    ("optimize params", "target_gap", math.inf, "a number > 0"),
    ("optimize params", "step", math.inf, "a number > 0"),
    ("hmc sampler block", "step", math.inf, "a number > 0"),
    ("manifold params", "c_scale", -math.inf, "a number"),
    ("sm_ngd task", "sigma", math.inf, "a number"),
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


@pytest.mark.parametrize("task", [1, 2])
def test_dim_without_samples_file_is_checked_before_the_reps(tmp_path, capsys,
                                                             task):
    # the task then draws N(0, I) rows of `dim` coordinates: dim 0 ran to a
    # report whose mmd_z or ksd_z was inf
    raw = schema_configs(tmp_path)["discrepancy"]
    block = raw["params"]["tasks"][task]
    block.update(samples_file=None, dim=0)
    where = "mmd task" if task == 1 else "ksd task"
    named = f"'dim' in {where} must be >= 1, got 0"
    with pytest.raises(ConfigError, match=re.escape(named)):
        run_raw(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert cli_main(["discrepancy", "--config", str(config)]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Each value of these lists tags its metrics' names (f"{v:g}", or the
# integer): two values of one tag wrote the same metric names, and the later
# run's figures replaced the earlier's without a word.
TAGGED = "a list whose values differ in their first 6 significant digits"


@pytest.mark.parametrize("where, key, value", [
    ("manifold params", "gammas", [1.0, 1.0000001, 100.0]),
    ("manifold params", "gammas", [2.0, 2.0]),
    ("hmc sampler block", "step_grid", [0.2, 0.2000001]),
    ("em sampler block", "dt_grid", [0.1, 0.1000001]),
    ("ksd_curve block", "n_points", [20, 40, 20]),
])
def test_values_sharing_a_metric_tag_are_refused_before_the_reps(
        tmp_path, capsys, where, key, value):
    need = ("a list of integers >= 2, each once" if key == "n_points"
            else TAGGED)
    name, path = SCHEMA_BLOCKS[where]
    raw = schema_configs(tmp_path)[name]
    block = raw
    for part in path:
        block = block[part]
    block[key] = value
    named = f"'{key}' in {where} must be {need}, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(named)):
        run_raw(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert cli_main([raw["experiment"], "--config", str(config)]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The kinds whose values are numbers, and those of them that bound their values.
NUMERIC_KINDS = {int, float, "integers", "numbers", "positive", "positives",
                 "threshold"}
BOUNDED_KINDS = {"positive", "positives"}


def test_every_numeric_key_has_a_domain_or_a_reason():
    # a new numeric key states its range in _SCHEMA, or why it has none in
    # _UNBOUNDED, so no key arrives that is checked only inside a rep
    entries = {(where, key): entry for where, block in bench._SCHEMA.items()
               for key, entry in block.items()}
    assert set(bench._UNBOUNDED) <= set(entries), "stale _UNBOUNDED keys"
    for (where, key), entry in entries.items():
        rules = ((entry.kind, entry.domain) if isinstance(entry, bench._Key)
                 else ())
        assert all(r is None or r in bench._RULES for r in rules), (where, key)
        if kind(entry) not in NUMERIC_KINDS:
            assert (where, key) not in bench._UNBOUNDED, (where, key)
            continue
        bounded = (kind(entry) in BOUNDED_KINDS
                   or getattr(entry, "domain", None) is not None)
        reason = bench._UNBOUNDED.get((where, key))
        assert bounded != bool(reason), (
            f"{key!r} in {where} needs a domain or a reason in _UNBOUNDED, "
            f"and not both")
        assert reason is None or isinstance(reason, str)


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_envelope_keeps_the_largest_gap_of_each_block(spacing):
    # 25 records in 40 blocks: some blocks hold no record and are skipped
    n, n_blocks = 25, 40
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.01, 10.0, n))
    gaps = rng.uniform(0.1, 1.0, n)
    traj = Trajectory(steps=np.arange(n), times=times, values=gaps, gaps=gaps,
                      extra=np.zeros(n))
    want_times, want_gaps = [], []
    for k in range(n_blocks):
        if spacing == "linear":   # equal counts of records
            members = [j for j in range(n)
                       if int(k * n / n_blocks) <= j < int((k + 1) * n / n_blocks)]
        else:   # equal ratios of time, from the first record's to the last's
            lo, hi = (times[0] * (times[-1] / times[0]) ** (i / n_blocks)
                      for i in (k, k + 1))
            members = [j for j in range(n) if lo <= times[j]
                       and (times[j] < hi or k == n_blocks - 1)]
        if members:
            j = max(members, key=lambda m: gaps[m])
            want_times.append(times[j])
            want_gaps.append(gaps[j])
    env = bench._envelope(traj, n_blocks, spacing=spacing)
    assert len(want_times) < n_blocks
    assert env.times.tolist() == want_times
    assert env.gaps.tolist() == env.values.tolist() == want_gaps
    assert env.steps.tolist() == list(range(len(want_times)))
