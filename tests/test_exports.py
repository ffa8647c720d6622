"""The package's public names, and the ones the benchmark tracer looks up."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import rffcap

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_listed_name_resolves():
    assert len(set(rffcap.__all__)) == len(rffcap.__all__)
    for name in rffcap.__all__:
        assert getattr(rffcap, name) is not None, name


def test_star_import_binds_no_module():
    namespace = {}
    exec("from rffcap import *", namespace)
    bound = {k: v for k, v in namespace.items() if k != "__builtins__"}
    assert sorted(bound) == sorted(rffcap.__all__)
    assert not [k for k, v in bound.items() if isinstance(v, types.ModuleType)]


def test_every_traced_function_resolves(monkeypatch):
    """perfbench/tracing.py wraps each (layer, attr) of its TRACED table as
    found on rffcap.<layer>; a renamed function fails here, not only in a
    traced benchmark run. The file is loaded as it is, not edited."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for layer, attr, _ in tracing.TRACED:
        module = importlib.import_module(f"rffcap.{layer}")
        assert callable(getattr(module, attr, None)), f"rffcap.{layer}.{attr}"
