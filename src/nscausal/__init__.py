"""Causal structure learning with necessary-and-sufficient feature selection.

The package learns, from observational data, the subgraph of a causal DAG
that is relevant to a designated outcome: a least-squares structural fit
under an exact acyclicity constraint, with features whose causal effect on
the outcome is negligible removed jointly during optimization.  Supporting
machinery covers structural-equation simulation, closed-form causal
effects, probability-of-causation bounds, Markov-equivalence-class
utilities, and a reproducible benchmark harness.
"""

__version__ = "0.1.0"

from .graph import (DEFAULT_WEIGHT_RANGE, GraphMetrics, WeightedDag,
                    ancestors_of, enumerate_paths_to_outcome, graph_metrics,
                    is_acyclic, prune, prune_weights, random_er, random_sf,
                    topological_order)
from .scm import (BernoulliNoise, Dataset, GaussianNoise, SemSpec,
                  round_half_away, sample_linear, sample_nonlinear,
                  shift_nonnegative)
from .effects import (delta_star, direct_effect, effect_rows, total_effect,
                      total_effect_by_paths, total_effects)
from .poc import (DiscreteScm, EmpiricalDistribution, PocBound,
                  PocEffectProfile, PocProduct, ScmDistribution,
                  effect_poc_profile, empirical_cpoc, empirical_mpoc,
                  evaluate, exact_pn, exact_poc, exact_ps,
                  interventional_mean, natural_direct_effect,
                  observational_joint, poc_lower_bound)
from .optimizer import (FitConfig, FitResult, acyclicity_gradient,
                        acyclicity_value, fit, fit_baseline,
                        least_squares_loss, relevance_constraint)
from .mec import Cpdag, dag_to_cpdag, enumerate_mec, mec_average
from .bench import (BenchReport, ScenarioSpec, nscg, run_scenario, scenario,
                    scenario_data, scenario_truth, spec_from_dict, summarize)
from .io import load_csv

__all__ = [name for name in dir() if not name.startswith("_")]
