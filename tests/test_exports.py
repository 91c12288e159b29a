"""The package's public names and the functions the benchmark's tracer wraps.

A traced benchmark run looks up every function named in
``perfbench/spans.py`` by name, so renaming one breaks tracing; these tests
catch that in the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

import glbopt
from glbopt.linear import LinearGlbProblem

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert [name for name in glbopt.__all__ if not hasattr(glbopt, name)] == []


def test_every_traced_layer_function_exists():
    for short, names in _spans().LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"glbopt.{short}")
        for attr in names:
            assert callable(getattr(module, attr, None)), f"glbopt.{short}.{attr}"


def test_every_traced_problem_method_exists():
    for attr in _spans().PROBLEM_METHODS:
        assert callable(LinearGlbProblem.__dict__.get(attr)), f"LinearGlbProblem.{attr}"
