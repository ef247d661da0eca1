"""The benchmark under `bench/` calls library functions by name.

These tests read `bench/*.py` and change nothing there. They fail when a
library function the benchmark imports, calls through a module, or traces is
renamed or deleted, so the break shows up here rather than in a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SOURCES = sorted(BENCH.glob("*.py"))


def _resolve(module: str, name: str):
    """`from module import name` as Python resolves it: attribute, else submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def _missing_names(tree: ast.AST) -> list[str]:
    """Every corrindex name a file imports, or reaches as `module.attr`, that does not resolve."""
    missing = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        modules: dict[str, types.ModuleType] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("corrindex"):
                for alias in node.names:
                    try:
                        obj = _resolve(node.module, alias.name)
                    except (ImportError, AttributeError):
                        missing.append(f"{node.module}.{alias.name}")
                        continue
                    if isinstance(obj, types.ModuleType):
                        modules[alias.asname or alias.name] = obj
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)
            ):
                missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return sorted(set(missing))


def test_bench_sources_found():
    assert {p.name for p in SOURCES} >= {"run.py", "checks.py", "tracing.py"}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_bench_library_names_resolve(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    assert _missing_names(tree) == []


@pytest.fixture
def bench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    yield
    for name in {p.stem for p in SOURCES} & (set(sys.modules) - before):
        del sys.modules[name]


def test_tracer_wraps_every_layer_function(bench_on_path):
    tracing = importlib.import_module("tracing")
    with tracing.Tracer().instrumented():
        pass
