"""Source hygiene: every module-level import in the package is used,
finiteness checks use one idiom, config defaults live in one table and
every config key is read, one driver builds every report, kernel values
are built without their derivatives, no trace is taken of a matrix
product, the package exports every public name, no module imports scipy,
manifold.py calls LAPACK only in its three factorisations, the runtime
dependencies are numpy alone, no module serves names
through a module-level `__getattr__`, the per-step functions multiply with
ndarray.dot, not `@`, only the adapters for per-point callables call
`core._rows`, one loop walks a Gram's row tiles, one check takes every
optimiser run's parameters, the flat, SO(n) and RATTLE runs and steps take
them in one order, and the step benchmarks in `tests/bench_steps.py` run.

A name bound by a top-level import must be referenced somewhere in its
module, or, in `__init__.py`, be re-exported through `hamkit.__all__`.
"""
import ast
import importlib
import inspect
import pathlib
import re
import subprocess
import sys

import pytest

import hamkit
from hamkit import bench

PACKAGE = pathlib.Path(hamkit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    """(bound name, line) for each name a top-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    if path.name == "__init__.py":
        used |= set(hamkit.__all__)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def _is_np_call(node, name):
    """`node` is a call of `np.<name>(...)`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_finiteness_checks_use_the_method_form(path):
    # np.isfinite(a).all() skips the np.all dispatch wrapper, which showed in
    # per-step profiles; one idiom everywhere keeps it from creeping back
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [node.lineno for node in ast.walk(tree)
                 if _is_np_call(node, "all") and node.args
                 and _is_np_call(node.args[0], "isfinite")]
    assert not offending, (f"{path.name}: np.all(np.isfinite(...)) at lines "
                           f"{offending}; use np.isfinite(...).all()")


def test_bench_defaults_live_in_the_schema():
    # bench._SCHEMA holds every config default; a `.get(key, default)` in
    # bench.py would declare one a second time, out of the table's sight
    path = PACKAGE / "bench.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "get"
                 and len(node.args) + len(node.keywords) >= 2]
    assert not offending, (f"bench.py: .get(key, default) at lines "
                           f"{offending}; declare the default in _SCHEMA")


def _read_keys(tree):
    """Strings bench.py reads a config value by: subscripts `block["key"]`
    (not of `_SCHEMA`), `.get("key")`, `_blocks(block, "key", ...)` and
    attributes (`cfg.seed`)."""
    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and not ast.unparse(node.value).startswith("_SCHEMA")):
            keys.add(node.slice.value)
        elif isinstance(node, ast.Call) and node.args:
            func = ast.unparse(node.func)
            if func.endswith(".get") and isinstance(node.args[0], ast.Constant):
                keys.add(node.args[0].value)
            if (func == "_blocks" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                keys.add(node.args[1].value)
        elif isinstance(node, ast.Attribute):
            keys.add(node.attr)
    return keys


def test_every_schema_key_is_read():
    # a _SCHEMA key that bench.py never reads is accepted, checked and then
    # ignored; it would outlive the option it fed
    path = PACKAGE / "bench.py"
    read = _read_keys(ast.parse(path.read_text(), filename=str(path)))
    unread = sorted(f"{where}: {key}" for where, block in bench._SCHEMA.items()
                    for key in block if key not in read)
    assert not unread, f"bench.py: _SCHEMA keys no code reads: {unread}"


def _report_calls(tree):
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Report"}


def test_only_run_experiment_builds_a_report():
    # the one driver checks params, runs the reps and evaluates the verdicts;
    # a second Report( would bring back a second copy of that tail
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES}
    driver = next(node for node in trees["bench.py"].body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "run_experiment")
    allowed = {("bench.py", line) for line in _report_calls(driver)}
    calls = {(name, line) for name, tree in trees.items()
             for line in _report_calls(tree)}
    assert allowed and calls == allowed, (
        f"Report( outside run_experiment at {sorted(calls - allowed)}")


_LOOPS = (ast.For, ast.AsyncFor, ast.comprehension)   # each has a .target


def _nested_loop_lines(func):
    """Lines of loops (for statements or comprehension clauses) that run
    inside another loop of `func`."""
    lines = set()
    for outer in ast.walk(func):
        if isinstance(outer, _LOOPS):
            lines |= {node.target.lineno for node in ast.walk(outer)
                      if node is not outer and isinstance(node, _LOOPS)}
        if isinstance(outer, (ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp)) and len(outer.generators) > 1:
            lines.add(outer.lineno)
    return sorted(lines)


def test_estimators_have_no_pair_loops():
    # sums over sample pairs are array contractions (np.einsum over stacked
    # rows, Gram matrices); a loop nested in a loop is the shape of the
    # per-pair Python sum they replaced
    path = PACKAGE / "discrepancies.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = {node.name: lines for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and (lines := _nested_loop_lines(node))}
    assert not offending, f"discrepancies.py: nested loops at {offending}"


def _is_profile_value(node):
    """`node` is `[0]` taken of a call of some `._profile(...)`."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "_profile"
            and isinstance(node.slice, ast.Constant) and node.slice.value == 0)


def test_kernel_values_skip_the_derivatives():
    # KernelSpec._profile(r2, derivatives=False) gives phi alone; [0] of the
    # full profile would build phi' and phi'' for every entry and drop them
    path = PACKAGE / "discrepancies.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [node.lineno for node in ast.walk(tree) if _is_profile_value(node)]
    assert not offending, (f"discrepancies.py: _profile(...)[0] at lines "
                           f"{offending}; pass derivatives=False")


def _is_product(node):
    """`node` is `a @ b`, or a call of some `.dot(...)` or `.matmul(...)`."""
    return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dot", "matmul")))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_trace_of_a_product(path):
    # Tr(A B) is the n^2 inner product of A^T and B; np.trace(A @ B) builds
    # the whole n^3 product only to sum its diagonal
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [node.lineno for node in ast.walk(tree)
                 if _is_np_call(node, "trace") and node.args
                 and _is_product(node.args[0])]
    assert not offending, (f"{path.name}: np.trace of a product at lines "
                           f"{offending}; take the inner product")


def test_package_exports_every_public_name():
    # each module's __all__ lists its public names; `import hamkit` must offer
    # every one of them
    missing = {
        module: sorted(set(importlib.import_module(f"hamkit.{module}").__all__)
                       - set(hamkit.__all__))
        for module in ("core", "integrators", "manifold", "samplers",
                       "discrepancies")}
    assert not any(missing.values()), f"not exported by hamkit: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_manifold_imports_scipy(path):
    # numpy alone does the package's linear algebra: scipy's import costs
    # more than the rest of `import hamkit.cli`, and its OpenBLAS would run
    # a second thread pool beside numpy's.  manifold.py, once the one module
    # that imported it, imports none now either.  Imports inside functions
    # count.
    offending = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            offending.append(node.lineno)
    assert not offending, f"{path.name} imports scipy at lines {offending}"


def test_manifold_calls_no_numpy_lapack():
    # outside the three factorisations, manifold.py calls no LAPACK routine
    # (np.linalg.norm is plain numpy): the SO(n) drift's exponential is
    # matrix products only, and the trace minimum's SVD, the projector's
    # Cholesky certificate and RATTLE's Newton inverse are the only
    # factorisations a run takes
    factoring = {"so_trace_minimum", "_projector", "_rattle_step"}
    path = PACKAGE / "manifold.py"
    used = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if getattr(top, "name", None) in factoring:
            continue
        used += [(node.attr, node.lineno) for node in ast.walk(top)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Attribute)
                 and node.value.attr == "linalg"
                 and isinstance(node.value.value, ast.Name)
                 and node.value.value.id == "np"
                 and node.attr not in ("norm", "LinAlgError")]
    assert not used, f"manifold.py uses np.linalg routines {used}"


def test_runtime_dependencies_are_numpy_only():
    # scipy stays a test dependency: the tests use it as an oracle
    import tomllib

    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml")
                            .read_text())["project"]
    names = [re.split(r"[<>=!~ \[;]", dep)[0]
             for dep in project["dependencies"]]
    assert names == ["numpy"], names
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_getattr(path):
    # a module __getattr__ serves names that no import statement shows, which
    # hides from readers and tools where each name comes from
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [node.lineno for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "__getattr__"]
    assert not offending, f"{path.name}: module __getattr__ at lines {offending}"


# The functions every integrator step or HMC draw calls, by module.  On 2- to
# 10-vectors numpy's fixed cost per call is the time: ndarray.dot reaches the
# BLAS routine `@` does, with the same bits, at about half the call cost.
_PER_STEP = {
    "core.py": ["_all_finite", "inv_mul", "quad_inv", "sample_momentum"],
    "integrators.py": ["_conformal_step", "_leapfrog_step", "run_optimizer"],
    "samplers.py": ["_leapfrog", "_hmc_transition"],
    "manifold.py": ["_expm", "_projector", "_project", "_rattle_step",
                    "sphere_constraint"],
    "problems.py": None,   # every built-in objective
}


@pytest.mark.parametrize("module", sorted(_PER_STEP))
def test_per_step_products_call_dot(module):
    path = PACKAGE / module
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    names = _PER_STEP[module]
    if names is None:
        names = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    offending = {}
    for name in names:
        (func,) = [node for node in funcs if node.name == name]
        lines = [node.lineno for node in ast.walk(func)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.MatMult)]
        if lines:
            offending[name] = lines
    assert not offending, (f"{module}: `@` in per-step functions at "
                           f"{offending}; use ndarray.dot")


# The only functions that call `core._rows`, the loop that calls a per-point
# callable once per row: the adapters for a callable without a row-wise
# form, the central differences and `mcmc_estimate`, whose f is the user's.
# An estimator calls a row-wise form, so that it grows no per-point loop.
_ROWS_CALLERS = {
    ("core.py", "_central_diffs"),
    ("discrepancies.py", "_scores"),
    ("discrepancies.py", "ScoreModel.info_term_rows"),
    ("samplers.py", "mcmc_estimate"),
}


def _callers_of(tree, name, calls_only=True):
    """Qualified names (Class.method) of the defs that call `name` by name,
    or, with calls_only false, that read it at all."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            called = (isinstance(child, ast.Call)
                      and isinstance(child.func, ast.Name)
                      and child.func.id == name)
            read = (not calls_only and isinstance(child, ast.Name)
                    and child.id == name and isinstance(child.ctx, ast.Load))
            if called or read:
                callers.add(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return callers


def _package_callers(name, calls_only=True):
    """(module file, caller) over the package; see `_callers_of`."""
    return {(path.name, caller) for path in MODULES
            for caller in _callers_of(ast.parse(path.read_text()), name,
                                      calls_only)}


def test_only_the_adapters_call_rows():
    calls = _package_callers("_rows")
    assert calls == _ROWS_CALLERS, (
        f"_rows called from {sorted(calls - _ROWS_CALLERS)}; "
        f"no longer from {sorted(_ROWS_CALLERS - calls)}")


def test_one_gram_tile_loop():
    # _tile_sums is the only loop over a Gram's row tiles: the two
    # U-statistics reduce through it, and nothing else reads the tile height
    assert _package_callers("_tile_sums") == {
        ("discrepancies.py", "mmd_squared.mean"),
        ("discrepancies.py", "ksd_u_statistic")}
    assert _package_callers("_TILE_ROWS", calls_only=False) == {
        ("discrepancies.py", "_tile_sums")}


def test_one_run_parameter_check():
    # every optimiser run's dt, length and target gap go through _run_steps
    assert _package_callers("_check_run") == {("integrators.py", "_run_steps")}


def _param_names(func, start, stop):
    return [*inspect.signature(func).parameters][start:stop]


def test_runs_and_steps_take_one_parameter_order():
    # the flat, SO(n) and RATTLE optimisers take their parameters alike: a
    # run (start, prob, dt, metric, schedule, ...), a step (state, t_k, dt,
    # metric, schedule, prob, ...), the metric being g_scalar on SO(n)
    for run in (hamkit.run_optimizer, hamkit.run_rattle_optimizer):
        assert _param_names(run, 1, 5) == ["prob", "dt", "g", "sched"]
    assert _param_names(hamkit.run_lie_optimizer, 1, 5) == [
        "prob", "dt", "g_scalar", "sched"]
    for step in (hamkit.dissipative_leapfrog_step, hamkit.rattle_step):
        assert _param_names(step, 2, 6) == ["dt", "g", "sched", "prob"]
    assert _param_names(hamkit.lie_group_step, 2, 6) == [
        "dt", "g_scalar", "sched", "prob"]


def test_step_benchmarks_run():
    # tests/bench_steps.py is not collected here (its name does not match
    # test_*.py); run its cases once each, untimed, so that a signature
    # change cannot break it unseen
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/bench_steps.py",
         "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=pathlib.Path(__file__).resolve().parent.parent,
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
