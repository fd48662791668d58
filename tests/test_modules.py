"""Each module of the package reaches the others through public names only
(dunder names such as ``__version__`` count as public), every private
helper has a caller, every public method and property has a user, only
``effects.py`` inverts a matrix, and ``graph.unchecked`` is the one way to
build an instance without its checks."""

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


def test_every_private_function_and_class_is_used_in_the_package():
    # a deleted code path must not leave its helper behind
    package = Path(nscausal.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    references = [(getattr(node, "id", None) or node.attr, node)
                  for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for tree in trees:
        for definition in tree.body:
            name = getattr(definition, "name", "")
            if (not isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                    or not name.startswith("_") or name.endswith("__")):
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and id(node) not in own
                       for ref, node in references):
                unused.append(name)
    assert unused == []


def _is_property(function):
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in function.decorator_list)


def test_every_public_method_is_called_and_every_property_read():
    # a method only the tests call is surface no user needs; a method counts
    # only as the callee of a call, so an attribute of the same name read
    # elsewhere (``state.parents``) does not keep it
    package = Path(nscausal.__file__).parent
    called, read = set(), set()
    for folder in ("src", "tools", "demos", "perfbench"):
        for path in (package.parents[1] / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    read.add(node.attr)
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    called.add(node.func.attr)
    unused = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef)
                        and not method.name.startswith("_")
                        and method.name not in (read if _is_property(method)
                                                else called)):
                    unused.append(f"{cls.name}.{method.name}")
    assert unused == []


def _message_text(node):
    """The text of a string or f-string, each formatted field as ``{}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def test_every_error_message_has_one_raise_site():
    # a rule checked in two places drifts into two wordings, or two rules
    package = Path(nscausal.__file__).parent
    sites = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                text = _message_text(node.exc.args[0])
                if text is not None:
                    sites.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    assert {text: where for text, where in sites.items() if len(where) > 1} == {}


def test_only_effects_inverts_a_matrix():
    # the causal-effect kernel has one implementation: the fit and
    # total_effects both read (I - B)^-1 from effects.outcome_effects
    package = Path(nscausal.__file__).parent
    modules = {path.name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "inv"
               and isinstance(node.func.value, ast.Attribute)
               and node.func.value.attr == "linalg"}
    assert modules == {"effects.py"}


def _object_calls(attr):
    """(module, enclosing definitions) of each ``object.<attr>(...)`` call in
    the package, the definitions joined by dots (``"_Closure.copy"``)."""
    package = Path(nscausal.__file__).parent
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = where + (child.name,)
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr == attr
                  and isinstance(child.func.value, ast.Name)
                  and child.func.value.id == "object"):
                sites.append((module, ".".join(where)))
            visit(child, module, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return sites


def test_one_unchecked_construction_path():
    # a frozen dataclass is filled outside its checks only in __post_init__
    # (after them) or by graph.unchecked, whose callers guarantee them
    setters = {(module, where) for module, where in _object_calls("__setattr__")
               if not where.endswith(".__post_init__")}
    assert setters == {("graph.py", "unchecked")}
    assert set(_object_calls("__new__")) == {("graph.py", "unchecked"),
                                             ("mec.py", "_Closure.copy")}
