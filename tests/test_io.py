"""Every public reader and writer in ``nscausal.io`` has a caller in the package."""

import ast
import inspect
from pathlib import Path

import nscausal
from nscausal import io


def _called_names(path: Path) -> set:
    """Names called in a module, as ``name(...)`` or ``obj.name(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_every_public_io_function_has_a_caller_in_the_package():
    package = Path(nscausal.__file__).parent
    called = set()
    for path in package.glob("*.py"):
        if path.name != "io.py":
            called |= _called_names(path)
    public = {name for name, obj in inspect.getmembers(io, inspect.isfunction)
              if obj.__module__ == io.__name__ and not name.startswith("_")}
    assert public, "no public functions found in nscausal.io"
    assert sorted(public - called) == []
