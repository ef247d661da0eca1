"""The benchmark under `bench/` calls library functions by name.

These tests read `bench/*.py` and change nothing there. They fail when a
library function the benchmark imports, calls through a module, or traces is
renamed or deleted, so the break shows up here rather than in a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
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


class _LibraryCalls(ast.NodeVisitor):
    """Collect (call, callee) for each call of a corrindex function or class.

    A callee is a name imported from corrindex, or `module.attr` of an
    imported corrindex module; each function body sees the imports of its
    enclosing scopes and its own, in source order.
    """

    def __init__(self):
        self.scopes: list[dict[str, object]] = [{}]
        self.found: list[tuple[ast.Call, object]] = []

    def visit_FunctionDef(self, node):
        self.scopes.append(dict(self.scopes[-1]))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_ImportFrom(self, node):
        if (node.module or "").startswith("corrindex"):
            for alias in node.names:
                self.scopes[-1][alias.asname or alias.name] = _resolve(node.module, alias.name)

    def visit_Call(self, node):
        names, func, callee = self.scopes[-1], node.func, None
        if isinstance(func, ast.Name):
            callee = names.get(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = names.get(func.value.id)
            if isinstance(module, types.ModuleType):
                callee = getattr(module, func.attr, None)
        if callable(callee) and getattr(callee, "__module__", "").startswith("corrindex"):
            self.found.append((node, callee))
        self.generic_visit(node)


def test_bench_library_calls_bind_to_signatures():
    """Each bench call of a library function still fits its signature.

    The check binds the call's positional count and keyword names; calls
    that pass `*args` or `**kwargs` are skipped.
    """
    checked, failures = 0, []
    for source in SOURCES:
        visitor = _LibraryCalls()
        visitor.visit(ast.parse(source.read_text(encoding="utf-8"), filename=str(source)))
        for call, callee in visitor.found:
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                continue
            checked += 1
            try:
                inspect.signature(callee).bind(
                    *[None] * len(call.args), **{k.arg: None for k in call.keywords}
                )
            except TypeError as err:
                failures.append(f"{source.name}:{call.lineno} {callee.__qualname__}: {err}")
    assert checked > 0
    assert failures == []


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
