"""Each module of the package reaches the others through public names only
(dunder names such as ``__version__`` count as public)."""

import ast
from pathlib import Path

import nscausal


def test_no_module_imports_a_private_name_from_another_module():
    package = Path(nscausal.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0
                         or (node.module or "").startswith("nscausal"))):
                private += [f"{path.name}: {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.endswith("__")]
    assert private == []
