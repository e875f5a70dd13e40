"""Every name a package module imports is used in that module, the
package's modules import each other without a cycle, only the channel
layer draws complex Gaussians, all through one routine, and one routine
draws every exponential.

A deletion that leaves an import behind fails here. ``__init__.py`` is
exempt, since its imports are the package's exports, and so is an import
line marked ``# noqa: F401``.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pla_bench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detection():
    assert unused_imports("import math\nfrom os import path\nmath.pi\n") == [(2, "path")]
    assert unused_imports("from os import path  # noqa: F401\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import numpy as np\nx: np.ndarray\n") == []


def calls_of(source: str, name: str) -> list:
    """Lines that call ``name``, bare or as a module attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == name
                 or getattr(node.func, "attr", None) == name)]


def imported_names(source: str) -> set:
    """Names a module imports from anywhere, inside functions too."""
    return {alias.name.split(".")[-1] for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "channel.py"], ids=lambda p: p.name)
def test_only_the_channel_layer_draws_complex_gaussians(path):
    # every other layer reaches the channel model through its row functions
    # and pairs_given_exponentials, never through its private draw
    source = path.read_text()
    assert calls_of(source, "complex_gaussian") == []
    assert calls_of(source, "_add_complex_gaussian") == []
    assert "_add_complex_gaussian" not in imported_names(source)


def test_one_routine_draws_every_normal():
    # the generator's own method, and the channel layer's one complex draw
    callers = [(path.name, fn.name) for path in sorted(PACKAGE.glob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef) and calls_of(ast.unparse(fn), "standard_normal")]
    assert callers == [("channel.py", "_add_complex_gaussian"), ("rng.py", "standard_normal")]


def test_one_routine_draws_every_exponential():
    # the generator's own method, and the weighted sums every fresh-channel
    # statistic is drawn as
    callers = [(path.name, fn.name) for path in sorted(PACKAGE.glob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef)
               and calls_of(ast.unparse(fn), "standard_exponential")]
    assert callers == [("rng.py", "standard_exponential"),
                       ("statdec.py", "weighted_exponential_sums")]


def test_call_detection():
    source = "f(1)\nchannel.f(2)\ng(f)\n"
    assert calls_of(source, "f") == [1, 2]
    source = "from .channel import (\n    _f,\n    g as h,\n)\ndef k():\n    import a.b\n"
    assert imported_names(source) == {"_f", "g", "b"}


def relative_imports(source: str) -> set:
    """Sibling modules a module imports relatively, inside functions too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def import_cycle(graph: dict) -> list:
    """One cycle of the module graph as a closed path, or [] if there is none."""
    state = {}  # module -> "open" while on the search path, "done" after

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path + [dep])
                if cycle:
                    return cycle
        state[module] = "done"
        return []

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return []


def test_package_imports_form_no_cycle():
    graph = {p.stem: relative_imports(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert import_cycle(graph) == []


def test_cycle_detection():
    source = "from .a import f\nfrom . import b\ndef g():\n    from .c.d import h\n"
    assert relative_imports(source) == {"a", "b", "c"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
