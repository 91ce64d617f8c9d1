"""The names the benchmark in ``perfbench/`` calls must exist in the package.

The benchmark wraps functions by "module:attribute" name and reports a
missing one as unmeasured instead of failing, so a rename would silently
cost it a stage; this test reads its sources (without importing or
changing them) and resolves every name.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import fanbeam

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _stages():
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "STAGES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no STAGES")


def test_traced_stage_functions_resolve():
    targets = [target for _, functions in _stages() for target in functions]
    assert targets
    missing = []
    for target in targets:
        module, attr = target.split(":")
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(target)
    assert not missing


def test_workload_calls_resolve():
    names = set(re.findall(r"\bfb\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert names
    assert not sorted(name for name in names if not hasattr(fanbeam, name))


def test_polar_to_cartesian_takes_n_second():
    # the tracer reads the sample count from the second positional argument
    params = list(inspect.signature(fanbeam.polar_to_cartesian).parameters)
    assert params[1] == "n"
