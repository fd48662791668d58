"""Each module of the package, and each tool, reaches the package's modules
through public names only (dunder names such as ``__version__`` count as
public), every private helper has a caller, every public method and
property has a user, only ``effects.py`` inverts a matrix, and
``graph.unchecked`` is the one way to build an instance without its checks.
``bench.replicate`` is the one place that fits a baseline or warm-starts a
fit from one, in the package and in ``tools/``, and ``FitResult.counters``
is the one reader of a fit's ``stop_reason`` and ``inner_iterations``
there.
``import nscausal`` loads no submodule, each entry point loads only the
layers it calls, and the lazy package exposes the same 73 public names as
the submodules that own them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nscausal


def test_no_module_imports_a_private_name_from_another_module():
    # the tools too: they gate every change, so they use the public names
    package = Path(nscausal.__file__).parent
    private = []
    for path in [*sorted(package.glob("*.py")),
                 *sorted((package.parents[1] / "tools").glob("*.py"))]:
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


def _sites(matches, paths=None):
    """(module, enclosing definitions) of each node of the package, or of
    the files ``paths``, for which ``matches`` holds, the definitions joined
    by dots (``"_Closure.copy"``)."""
    package = Path(nscausal.__file__).parent
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = where + (child.name,)
            elif matches(child):
                sites.append((module, ".".join(where)))
            visit(child, module, inner)

    for path in sorted(paths or package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return sites


def _object_calls(attr):
    """The ``_sites`` of each ``object.<attr>(...)`` call in the package."""
    return _sites(lambda node: isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == attr
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "object")


def test_one_unchecked_construction_path():
    # a frozen dataclass is filled outside its checks only in __post_init__
    # (after them) or by graph.unchecked, through the instance dict, whose
    # callers guarantee them
    setters = {(module, where) for module, where in _object_calls("__setattr__")
               if not where.endswith(".__post_init__")}
    assert setters == set()
    dict_uses = _sites(lambda node: isinstance(node, ast.Attribute)
                       and node.attr == "__dict__")
    assert set(dict_uses) == {("graph.py", "unchecked")}
    assert set(_object_calls("__new__")) == {("graph.py", "unchecked"),
                                             ("mec.py", "_Closure.copy")}


def test_one_replication_recipe():
    # "fit the baseline once, warm-start each selective method from it" is
    # written once, in bench.replicate, for run_scenario, ``nscausal fit``
    # and the quality corpus; optimizer.fit requires the warm start and
    # fits no baseline of its own
    package = Path(nscausal.__file__).parent
    paths = [*package.glob("*.py"),
             *(package.parents[1] / "tools").glob("*.py")]
    baseline = _sites(lambda node: isinstance(node, (ast.Name, ast.Attribute))
                      and (getattr(node, "id", None) or node.attr)
                      == "fit_baseline", paths)
    assert set(baseline) == {("bench.py", "replicate")}
    warm_started = _sites(lambda node: isinstance(node, ast.Call)
                          and any(k.arg == "warm_start" for k in node.keywords),
                          paths)
    assert set(warm_started) == {("bench.py", "replicate")}


def test_one_reader_of_the_fit_counts():
    # the counts of a fit's diagnostics are read in FitResult.counters, for
    # bench rows, ``nscausal fit`` and the quality corpus alike
    package = Path(nscausal.__file__).parent
    paths = [*package.glob("*.py"),
             *(package.parents[1] / "tools").glob("*.py")]
    reads = _sites(lambda node: isinstance(node, ast.Subscript)
                   and isinstance(node.slice, ast.Constant)
                   and node.slice.value in ("stop_reason", "inner_iterations"),
                   paths)
    assert set(reads) == {("optimizer.py", "FitResult.counters")}


def _fresh(code, *args):
    """What ``code`` prints as JSON, run with ``args`` in a new interpreter
    that imports the package from this checkout."""
    src = str(Path(nscausal.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


_LOADED = ("import json, sys; print(json.dumps([name[len('nscausal.'):] "
           "for name in sys.modules if name.startswith('nscausal.')]))")


@pytest.mark.parametrize("statement, exactly, absent", [
    ("import nscausal", set(), set()),
    ("import nscausal; nscausal.dag_to_cpdag", {"graph", "mec"}, set()),
    ("import nscausal; nscausal.fit_baseline", None,
     {"poc", "mec", "io", "bench"}),
    ("import nscausal.cli", None, {"poc", "mec"}),
    ("import nscausal; nscausal.load_csv", {"graph", "scm", "io"}, set()),
], ids=["package", "dag_to_cpdag", "fit_baseline", "cli", "load_csv"])
def test_each_entry_point_loads_only_the_layers_it_calls(statement, exactly,
                                                         absent):
    # start-up is paid per layer: a caller loads only the modules it reaches
    loaded = set(_fresh(f"{statement}; {_LOADED}"))
    if exactly is not None:
        assert loaded == exactly
    assert loaded & absent == set()


# each submodule and the public names the package exports from it
_PUBLIC = {
    "graph": ["DEFAULT_WEIGHT_RANGE", "GraphMetrics", "WeightedDag",
              "ancestors_of", "enumerate_paths_to_outcome", "graph_metrics",
              "is_acyclic", "prune", "prune_weights", "random_er",
              "random_sf", "topological_order"],
    "scm": ["BernoulliNoise", "Dataset", "GaussianNoise", "SemSpec",
            "round_half_away", "sample_linear", "sample_nonlinear",
            "shift_nonnegative"],
    "effects": ["delta_star", "direct_effect", "effect_rows", "total_effect",
                "total_effect_by_paths", "total_effects"],
    "poc": ["DiscreteScm", "EmpiricalDistribution", "PocBound",
            "PocEffectProfile", "PocProduct", "ScmDistribution",
            "effect_poc_profile", "empirical_cpoc", "empirical_mpoc",
            "evaluate", "exact_pn", "exact_poc", "exact_ps",
            "interventional_mean", "natural_direct_effect",
            "observational_joint", "poc_lower_bound"],
    "optimizer": ["FitConfig", "FitResult", "acyclicity_gradient",
                  "acyclicity_value", "fit", "fit_baseline",
                  "least_squares_loss", "relevance_constraint"],
    "mec": ["Cpdag", "dag_to_cpdag", "enumerate_mec", "mec_average"],
    "bench": ["BenchReport", "ScenarioSpec", "nscg", "run_scenario",
              "scenario", "scenario_data", "scenario_truth", "spec_from_dict",
              "summarize"],
    "io": ["load_csv"],
}

_SURFACE = """
import importlib, json, sys
import nscausal
out = {"dir": dir(nscausal),
       "loaded_after_dir": [m for m in sys.modules if m.startswith("nscausal.")],
       "all": sorted(nscausal.__all__)}
try:
    nscausal.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
star = {}
exec("from nscausal import *", star)
out["star"] = sorted(name for name in star if name != "__builtins__")
out["mismatched"] = []
for module, names in json.loads(sys.argv[1]).items():
    owner = importlib.import_module("nscausal." + module)
    out["mismatched"] += [name for name in names
                          if getattr(nscausal, name) is not getattr(owner, name)]
    if getattr(nscausal, module) is not owner:
        out["mismatched"].append(module)
out["cached"] = sorted(set(vars(nscausal)) & set(nscausal.__all__))
print(json.dumps(out))
"""


def test_lazy_package_exposes_the_public_surface_of_its_modules():
    names = sorted([*_PUBLIC, *(n for names in _PUBLIC.values() for n in names)])
    assert len(names) == 73
    out = _fresh(_SURFACE, json.dumps(_PUBLIC))
    assert out["all"] == names
    assert sorted(out["dir"]) == names
    assert out["loaded_after_dir"] == []
    assert out["unknown"] == "module 'nscausal' has no attribute 'no_such_name'"
    assert out["star"] == names
    assert out["mismatched"] == []
    assert out["cached"] == names
