"""Golden digests: the CLI output, reports and CSVs of the benchmark's four
workloads (perfbench/workloads/*.json) at seeds 0 and 7, byte for byte.

Each run goes through `hamkit.cli.main` in a fresh directory, after the
samples files it reads are written by perfbench's own `write_samples_file`,
so that the inputs are the benchmark's inputs.  The sha256 of the standard
output and of every file the run writes must equal the ones committed in
golden_digests.json.  That file also records the Python, numpy and scipy
versions it was made with; under other versions the test fails and names
them, since the last digits of a float may then differ.

A change that moves a digest on purpose says which one moved, how far the
numbers moved and why, and rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each digest that differs from the file it replaced, one
"changed: <workload>/seed<n> <output>" line each.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import platform
import tempfile

import numpy as np
import pytest
import scipy

from hamkit import cli
from hamkit.bench import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.json"))
DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")
SEEDS = (0, 7)


def _perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_digests(workload, seed):
    """sha256 of the CLI's stdout and of each file the run writes, with its
    exit code; runs in the current directory."""
    cfg = ExperimentConfig.load(workload)
    perfbench = _perfbench_run()
    for name, dim in perfbench.input_files(cfg):
        perfbench.write_samples_file(name, seed, dim)
    inputs = set(os.listdir())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([cfg.experiment, "--config", str(workload),
                         "--seed", str(seed)])
    digests = {"exit_code": code, "stdout": _sha256(stdout.getvalue().encode())}
    for name in sorted(set(os.listdir()) - inputs):
        digests[name] = _sha256(pathlib.Path(name).read_bytes())
    return digests


def _key(workload, seed):
    return f"{workload.stem}/seed{seed}"


@pytest.fixture(scope="module")
def golden():
    stored = json.loads(DIGESTS.read_text())
    if stored["versions"] != _versions():
        pytest.fail(f"golden digests were made with {stored['versions']}, "
                    f"this is {_versions()}; rerun under those versions or "
                    f"regenerate the digests and say why in CHANGES.md")
    return stored["digests"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.stem for w in WORKLOADS])
def test_outputs_match_golden_digests(golden, workload, seed, tmp_path,
                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_digests(workload, seed) == golden[_key(workload, seed)]


if __name__ == "__main__":
    before = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    table = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                table[_key(workload, seed)] = run_digests(workload, seed)
                os.chdir(ROOT)
    DIGESTS.write_text(json.dumps({"versions": _versions(), "digests": table},
                                  indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    for key in sorted(set(table) | set(before)):
        old, new = before.get(key, {}), table.get(key, {})
        for name in sorted(set(old) | set(new)):
            if old.get(name) != new.get(name):
                print(f"changed: {key} {name}")
