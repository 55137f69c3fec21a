"""Unit costs of one integrator step, through the public one-step functions,
and of the evaluations and estimators the benchmark's workloads repeat.

Not part of the test suite (the file does not match `test_*.py`); run it from
the root of the tree it measures with

    python -m pytest tests/bench_steps.py --benchmark-only

pyproject.toml's `pythonpath = ["src"]` puts that tree's own `src` ahead of
PYTHONPATH, so `PYTHONPATH=<other tree>/src` still times this tree's code.
To time another tree, copy this file into its `tests/` and run it there.

Each benchmark times one call: a flat damped leapfrog step of the quartic at
d = 2, one HMC draw (d = 10, L = 5), which evaluates V and grad V at its
start, one SO(50) step of a trace objective
(the shape manifold_so_rattle runs) and one RATTLE step on the unit sphere.
`test_trace_value` times that objective's value f(Q) = Tr(C Q) at one
Q in SO(50), which each SO(50) step evaluates once.
`test_rattle_run` times the whole sphere run of manifold_so_rattle: 4,000
RATTLE steps of a linear objective from rest (d = 3, dt = 0.05, gamma = 2).
`test_flat_run_per_step` times a 1,000-step `run_optimizer` on the same
quartic, the loop optimize_quartic runs; divide its time by 1,000 for the
cost of one step inside a run, where no `PhasePoint` is validated.
`test_flat_run_records` times a 15,000-step run of that quartic (dt = 0.05,
optimize_quartic's length) recording every step and recording only the
last: the difference is the cost of 15,000 records.  `test_trajectory_csv`
times `Trajectory.to_csv` of that run's 15,001 rows to a file.
`test_hmc_transition` times the raw draw `run_hmc_chain` repeats, with V
and grad V carried from the previous draw.
`test_quartic_value_and_grad` and `test_quartic_value_then_grad` time the
quartic's fused evaluation against its two separate calls at one point.
`test_information_tensor` times one `information_tensor(model, 200, rng)`
of a d = 10 Gaussian location model, `test_ksd_score_array` one KSD
U-statistic with its standard error at m = 1200, d = 10 with the scores
passed as an array, and `test_mmd_u_statistic` one MMD U-statistic of two
sets of n = 300 points in d = 10 with a sigma = 3 Gaussian kernel: the
shapes discrepancy_gram runs.  `test_svd_then_lie_run` times `trace_objective` at
n = 50 (its SVD) followed by a 100-step `run_lie_optimizer`, the sequence
manifold_so_rattle repeats.  Run it with the BLAS threads unpinned (no
OPENBLAS_NUM_THREADS), as the benchmark runs: the SVD, the products and
the exponential all run on numpy's one OpenBLAS pool.  `test_expm` times
the drift's `manifold._expm` of one skew 50 x 50 exponent with
||.||_1 = 0.3: its Taylor polynomial of degree 12, in 5 products.
`test_report_aggregates` times what every run's report takes last: the
median/IQR aggregates and a "median" verdict per metric of a 5-rep,
15-metric report.
"""
import numpy as np
import pytest

from hamkit import (
    ChainState,
    DampingSchedule,
    GaussianLocationModel,
    KernelSpec,
    KineticMetric,
    MatrixGroupState,
    PhasePoint,
    Problem,
    dissipative_leapfrog_step,
    hmc_draw,
    information_tensor,
    ksd_u_statistic,
    lie_group_step,
    mmd_squared,
    problems,
    project_momentum,
    rattle_step,
    run_lie_optimizer,
    run_optimizer,
    run_rattle_optimizer,
    skew_part,
    sphere_constraint,
    trace_objective,
)
from hamkit.bench import Report, _evaluate_verdicts
from hamkit.manifold import _expm
from hamkit.samplers import _hmc_transition


QUARTIC_X0 = PhasePoint([1.8, -0.4], [0.0, 0.0])
QUARTIC_SCHED = DampingSchedule.vanishing(r=3.0, t0=1.0)


def test_flat_step(benchmark):
    prob, g = problems.quartic(2), KineticMetric.scaled_identity(2, 0.01)
    x = benchmark(dissipative_leapfrog_step, QUARTIC_X0, 1.0, 0.01, g,
                  QUARTIC_SCHED, prob)
    assert np.isfinite(x.q).all()


def test_flat_run_per_step(benchmark):
    traj = benchmark(run_optimizer, QUARTIC_X0, problems.quartic(2), 0.01, None,
                     QUARTIC_SCHED, 1000)
    assert traj.reason == "completed"


QUARTIC_RUN = (PhasePoint([1.8, 0.0], [0.0, 0.0]), problems.quartic(2), 0.05,
               None, QUARTIC_SCHED, 15000)


@pytest.mark.parametrize("record_every", [1, 15000])
def test_flat_run_records(benchmark, record_every):
    traj = benchmark(run_optimizer, *QUARTIC_RUN, record_every=record_every)
    assert len(traj) == 15000 // record_every + 1


def test_trajectory_csv(benchmark, tmp_path):
    traj = run_optimizer(*QUARTIC_RUN)
    text = benchmark(traj.to_csv, str(tmp_path / "traj.csv"))
    assert text.count("\n") == 15002


def test_quartic_value_and_grad(benchmark):
    prob, q = problems.quartic(2), np.array([1.8, -0.4])
    f, grad = benchmark(prob.value_and_grad, q)
    assert f == prob.value(q)


def test_quartic_value_then_grad(benchmark):
    prob, q = problems.quartic(2), np.array([1.8, -0.4])
    f, grad = benchmark(lambda: (prob.value(q), prob.grad(q)))
    assert f == prob.value(q)


def test_information_tensor(benchmark):
    model, rng = GaussianLocationModel(np.zeros(10)), np.random.default_rng(0)
    g = benchmark(information_tensor, model, 200, rng)
    assert g.shape == (10, 10)


def test_ksd_score_array(benchmark):
    x = np.random.default_rng(0).standard_normal((1200, 10))
    value, se = benchmark(ksd_u_statistic, x, -(x - 1.0),
                          KernelSpec.gaussian(1.0), with_stderr=True)
    assert value / se >= 5.0


def test_mmd_u_statistic(benchmark):
    both = np.random.default_rng(0).standard_normal((600, 10))
    value = benchmark(mmd_squared, both[:300], both[300:],
                      KernelSpec.gaussian(3.0))
    assert abs(value) < 0.01


def test_hmc_draw(benchmark):
    d, prob = 10, problems.standard_gaussian(10)
    g, rng = KineticMetric.identity(d), np.random.default_rng(0)
    chain = hmc_draw(ChainState.start(np.full(d, 0.5)), prob, g, 0.2, 5, rng)
    out = benchmark(hmc_draw, chain, prob, g, 0.2, 5, rng)
    assert out.steps == 2


def test_hmc_transition(benchmark):
    d, prob = 10, problems.standard_gaussian(10)
    g, rng = KineticMetric.identity(d), np.random.default_rng(0)
    q = np.full(d, 0.5)
    v, grad = prob.value_and_grad(q)
    out = benchmark(_hmc_transition, q, v, grad, prob, g, 0.2, 5, rng, 0.0)
    assert out[2] == prob.value(out[0])


def test_lie_step(benchmark):
    rng = np.random.default_rng(0)
    prob = trace_objective(rng.standard_normal((50, 50)))
    st = MatrixGroupState(np.eye(50), 0.05 * skew_part(rng.standard_normal((50, 50))))
    sched = DampingSchedule.constant(2.0)
    out = benchmark(lie_group_step, st, 0.0, 0.05, 0.05, sched, prob)
    assert out.orthogonality_defect() <= 1e-8


def test_expm(benchmark):
    a = skew_part(np.random.default_rng(0).standard_normal((50, 50)))
    a *= 0.3 / np.abs(a).sum(axis=0).max()
    e = benchmark(_expm, a)
    assert np.linalg.norm(e.T @ e - np.eye(50)) <= 1e-13


def test_trace_value(benchmark):
    rng = np.random.default_rng(0)
    prob = trace_objective(rng.standard_normal((50, 50)))
    st = MatrixGroupState(np.eye(50), 0.05 * skew_part(rng.standard_normal((50, 50))))
    Q = lie_group_step(st, 0.0, 0.05, 0.05, DampingSchedule.constant(2.0),
                       prob).Q
    f = benchmark(prob.value, Q)
    assert f == prob.value(np.ascontiguousarray(Q))


def test_rattle_step(benchmark):
    c = np.array([0.3, -1.2, 0.7])
    prob = Problem(3, value=lambda q: float(c.dot(q)), grad=lambda q: c)
    g, cons = KineticMetric.scaled_identity(3, 0.05), sphere_constraint()
    q0 = np.array([1.0, 2.0, -2.0]) / 3.0
    x = PhasePoint(q0, project_momentum(q0, np.array([0.05, 0.0, -0.02]), g, cons))
    y, _ = benchmark(rattle_step, x, 1.0, 0.05, g,
                     DampingSchedule.constant(2.0), prob, cons)
    assert abs(y.q.dot(y.q) - 1.0) <= 1e-9


def test_rattle_run(benchmark):
    c = np.array([0.3, -1.2, 0.7])
    prob = Problem(3, value=lambda q: float(c.dot(q)), grad=lambda q: c,
                   f_star=-float(np.linalg.norm(c)))
    x = PhasePoint(np.array([1.0, 2.0, -2.0]) / 3.0, np.zeros(3))
    traj, y = benchmark(run_rattle_optimizer, x, prob, 0.05,
                        KineticMetric.scaled_identity(3, 0.05),
                        DampingSchedule.constant(2.0), sphere_constraint(), 4000)
    assert len(traj) == 4001 and abs(y.q.dot(y.q) - 1.0) <= 1e-9


def test_svd_then_lie_run(benchmark):
    c = np.random.default_rng(0).standard_normal((50, 50))
    st = MatrixGroupState(np.eye(50), np.zeros((50, 50)))
    sched = DampingSchedule.constant(2.0)

    def svd_then_run():
        return run_lie_optimizer(st, trace_objective(c), 0.05, 0.05, sched, 100)

    traj, _ = benchmark(svd_then_run)
    assert len(traj) == 101



def test_report_aggregates(benchmark):
    # 5 reps of 15 metrics (rep, m0..m13) and a "median" verdict on each mK
    rng = np.random.default_rng(0)
    report = Report("optimize", [{"rep": i, **{f"m{k}": float(x) for k, x in
                                               enumerate(rng.standard_normal(14))}}
                                 for i in range(5)], [])
    specs = [{"metric": f"m{k}", "agg": "median", "op": "<=",
              "threshold": 10.0} for k in range(14)]
    agg, verdicts = benchmark(lambda: (report.aggregates(),
                                       _evaluate_verdicts(specs, report.per_rep)))
    assert len(agg) == 15 and all(v["pass"] for v in verdicts)
