"""Causal structure learning with necessary-and-sufficient feature selection.

The package learns, from observational data, the subgraph of a causal DAG
that is relevant to a designated outcome: a least-squares structural fit
under an exact acyclicity constraint, with features whose causal effect on
the outcome is negligible removed jointly during optimization.  Supporting
machinery covers structural-equation simulation, closed-form causal
effects, probability-of-causation bounds, Markov-equivalence-class
utilities, and a reproducible benchmark harness.

``import nscausal`` loads no submodule.  Each public name, and each
submodule named in ``__all__``, loads its owning module on first use
(PEP 562), so a caller pays start-up only for the layers it reaches:
``nscausal.dag_to_cpdag`` loads ``graph`` and ``mec``, and
``nscausal.fit`` loads neither ``poc`` nor ``mec``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule and the public names it exports through the package
_EXPORTS = {
    "graph": ("DEFAULT_WEIGHT_RANGE", "GraphMetrics", "WeightedDag",
              "ancestors_of", "enumerate_paths_to_outcome", "graph_metrics",
              "is_acyclic", "prune", "prune_weights", "random_er",
              "random_sf", "topological_order"),
    "scm": ("BernoulliNoise", "Dataset", "GaussianNoise", "SemSpec",
            "round_half_away", "sample_linear", "sample_nonlinear",
            "shift_nonnegative"),
    "effects": ("delta_star", "direct_effect", "effect_rows", "total_effect",
                "total_effect_by_paths", "total_effects"),
    "poc": ("DiscreteScm", "EmpiricalDistribution", "PocBound",
            "PocEffectProfile", "PocProduct", "ScmDistribution",
            "effect_poc_profile", "empirical_cpoc", "empirical_mpoc",
            "evaluate", "exact_pn", "exact_poc", "exact_ps",
            "interventional_mean", "natural_direct_effect",
            "observational_joint", "poc_lower_bound"),
    "optimizer": ("FitConfig", "FitResult", "acyclicity_gradient",
                  "acyclicity_value", "fit", "fit_baseline",
                  "least_squares_loss", "relevance_constraint"),
    "mec": ("Cpdag", "dag_to_cpdag", "enumerate_mec", "mec_average"),
    "bench": ("BenchReport", "ScenarioSpec", "nscg", "run_scenario",
              "scenario", "scenario_data", "scenario_truth", "spec_from_dict",
              "summarize"),
    "io": ("load_csv",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
