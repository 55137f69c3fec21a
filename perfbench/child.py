"""One measured hamkit CLI run in a fresh interpreter.

Times set-up (`import hamkit` and `ExperimentConfig.load`) apart from the run
(`hamkit.cli.main` with the workload seed, which runs the experiment and
writes its report), records the process's peak resident memory, and writes
the figures as JSON.  With --trace it wraps every layer first and writes the
spans once, after the run.  The run's own outputs land in the working
directory.

Right after set-up and again after the run, the process times a fixed
calibration computation (`calibrate`).  The wall times are also reported
scaled by REFERENCE_KERNEL_S / the calibration time measured beside them:
on a shared host the same code runs up to twice as slow for seconds at a
time, and the calibration slows with it, so the scaled times follow the code
rather than the host's load.

    python3 perfbench/child.py --config CFG --seed N --result OUT.json \
        [--trace TRACE.npz]
"""
import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One calibration is CALIBRATION_CALLS calls of _kernel after one untimed
# call.  REFERENCE_KERNEL_S is one call's time in the host's fast state
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy with OpenBLAS 0.3.31), so scaled
# times read as seconds on that machine when uncontended.
CALIBRATION_CALLS = 30
REFERENCE_KERNEL_S = 0.0037


def _kernel(np, xs, m):
    """A fixed single-threaded mix of what the workloads spend time on."""
    x = xs[0].copy()
    acc = 0.0
    for _ in range(400):                       # per-step small-array overhead
        x = x - 1e-3 * (x * x * x - x)
        acc += float(x @ x)
    d = xs[:, None, :] - xs[None, :, :]        # pairwise difference tensor
    acc += float(np.exp(-(d * d).sum(-1)).sum())
    acc += float(np.linalg.norm(m @ m @ m))     # small dense BLAS
    return acc


def calibrate():
    """Seconds per _kernel call, over CALIBRATION_CALLS calls.

    numpy is imported here, after set-up is timed, so that set-up still
    counts its import.
    """
    import numpy as np

    xs = np.random.default_rng(12345).standard_normal((160, 8))
    m = np.random.default_rng(54321).standard_normal((40, 40)) / 40
    _kernel(np, xs, m)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        _kernel(np, xs, m)
    return (time.perf_counter() - t0) / CALIBRATION_CALLS


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter()
    import hamkit.cli
    from hamkit.bench import ExperimentConfig
    t1 = time.perf_counter()

    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)

    t2 = time.perf_counter()
    cfg = ExperimentConfig.load(args.config)
    t3 = time.perf_counter()
    cal_before = calibrate()
    t4 = time.perf_counter()
    c4 = _cpu_s()
    code = hamkit.cli.main([cfg.experiment, "--config", args.config,
                            "--seed", str(args.seed), "--out", "."])
    t5 = time.perf_counter()
    c5 = _cpu_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_after = calibrate()
    if tracer is not None:
        tracer.write(args.trace)

    setup_wall_s = (t1 - t0) + (t3 - t2)
    run_wall_s = t5 - t4
    result = {
        "hamkit_file": hamkit.__file__,
        "setup_s": setup_wall_s * REFERENCE_KERNEL_S / cal_before,
        "run_s": run_wall_s * 2 * REFERENCE_KERNEL_S / (cal_before + cal_after),
        "import_wall_s": t1 - t0,
        "setup_wall_s": setup_wall_s,
        "run_wall_s": run_wall_s,
        "run_cpu_s": c5 - c4,
        "calibration_s": [cal_before, cal_after],
        "exit_code": code,
        "peak_rss_mb": peak_rss_mb,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
