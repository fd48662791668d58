"""Closed-form direct and total causal effects under the linear model.

For an acyclic weight matrix ``B`` the direct effect of feature ``i`` (``i``
is a feature index: an integer node, not the outcome) is ``B[i, outcome]``.
The total effect is the sum over all directed paths from ``i`` to the
outcome of the product of edge weights along each path; acyclic ``B`` is
nilpotent, so this equals the ``(i, outcome)`` entry of ``(I - B)^{-1} - I``.
``outcome_effects`` is the one kernel that computes it, for the fit and for
``total_effects`` alike, and the one place that picks the effect kind: it
also returns the matrix whose Jacobian serves both kinds.  A total effect
that overflows the float range is a ``ValueError``.  The path sum is the
slow reference.
"""

from typing import Callable

import numpy as np

from .graph import (WeightedDag, check_mask, check_node, enumerate_paths_to_outcome,
                    is_acyclic)
from .scm import Dataset

EFFECT_KINDS = ("te", "de")


def check_effect_kind(effect_kind: str):
    """Raise unless ``effect_kind`` is one of ``EFFECT_KINDS``."""
    if effect_kind not in EFFECT_KINDS:
        raise ValueError(f"effect_kind must be one of {EFFECT_KINDS}, got {effect_kind!r}")


def direct_effect(g: WeightedDag, i: int) -> float:
    """Weight of the edge ``i -> outcome`` (0 when absent)."""
    check_node("i", i, g.dim, g.outcome_index)
    return float(g.weights[i, g.outcome_index])


def outcome_effects(weights: np.ndarray, outcome: int, kind: str, eye: np.ndarray):
    """``(ce, M)``: the effect of every node on the outcome, and the ``M``
    of its Jacobian ``d CE_i / d B[a, b] = M[i, a] M[b, outcome]``.  For
    ``te``, ``M = (I - B)^-1`` and ``ce`` is its outcome column; for ``de``,
    the first-order term of that path sum, ``M`` is ``eye`` and ``ce`` the
    outcome column of ``B``.  The outcome's own entry is not an effect.

    ``te`` is defined wherever ``I - B`` is invertible.  A singular ``I - B``
    or a non-finite inverse raises ``FloatingPointError``, which the fit's
    line search treats as a rejected trial.
    """
    if kind == "de":
        return weights[:, outcome], eye
    try:
        m = np.linalg.inv(eye - weights)
    except np.linalg.LinAlgError:
        raise FloatingPointError("I - B is singular") from None
    if not np.isfinite(m).all():
        raise FloatingPointError("(I - B)^-1 is not finite")
    return m[:, outcome], m


def _checked_effects(g: WeightedDag, kind: str) -> np.ndarray:
    """``outcome_effects`` of ``kind`` on the acyclic ``g``, the outcome's
    own entry set to 0; a cyclic graph or an overflowing effect is a
    ``ValueError``."""
    if not is_acyclic(g):
        raise ValueError("effects require an acyclic graph")
    try:
        effects = outcome_effects(g.weights, g.outcome_index, kind,
                                  np.eye(g.dim))[0].copy()
    except FloatingPointError as exc:
        raise ValueError(f"total effects are not finite: {exc}") from None
    effects[g.outcome_index] = 0.0
    effects += 0.0  # a node with no path to the outcome gets +0.0, never -0.0
    return effects


def total_effects(g: WeightedDag) -> np.ndarray:
    """Total effect of every node on the outcome, by the matrix closed form.

    Entry ``outcome_index`` is set to 0 (no self effect).  A cyclic graph or
    an overflowing effect is a ``ValueError``.
    """
    return _checked_effects(g, "te")


def total_effect(g: WeightedDag, i: int) -> float:
    check_node("i", i, g.dim, g.outcome_index)
    return float(total_effects(g)[i])


def total_effect_by_paths(g: WeightedDag, i: int) -> float:
    """Reference implementation: enumerate paths and sum weight products."""
    check_node("i", i, g.dim, g.outcome_index)
    total = 0.0
    for path in enumerate_paths_to_outcome(g, i):
        product = 1.0
        for a, b in zip(path[:-1], path[1:]):
            product *= g.weights[a, b]
        total += product
    return total


EFFECT_FIELDS = ("node", "label", "direct_effect", "total_effect")


def effect_rows(g: WeightedDag, selected=None) -> list[dict]:
    """One ``EFFECT_FIELDS`` row per non-outcome node, in index order.

    ``selected`` is an optional boolean mask over the non-outcome nodes (a
    fit's ``selected``); unselected features get no row.  A mask of another
    length, or one that holds anything but booleans, is a ``ValueError``.
    """
    features = [i for i in range(g.dim) if i != g.outcome_index]
    if selected is None:
        selected = [True] * len(features)
    elif np.shape(selected) != (len(features),):
        raise ValueError(f"selected must have one entry per feature, shape "
                         f"({len(features)},), got {np.shape(selected)}")
    check_mask("selected", selected)
    te = total_effects(g)
    return [{"node": i, "label": g.labels[i],
             "direct_effect": float(g.weights[i, g.outcome_index]),
             "total_effect": float(te[i])}
            for keep, i in zip(selected, features) if keep]


def delta_star(data: Dataset, fit: Callable[[Dataset], WeightedDag],
               effect_kind: str = "te") -> float:
    """Reference score: total absolute effect mass reachable with all features.

    Runs the supplied selection-free learner on the full dataset and sums
    ``|effect|`` over the non-outcome nodes of the pruned graph it returns.
    ``effect_kind`` picks total or direct effects; either kind reads them as
    ``total_effects`` does, so a cyclic graph, or a total effect that
    overflows, is a ``ValueError``.
    """
    check_effect_kind(effect_kind)
    return float(np.abs(_checked_effects(fit(data), effect_kind)).sum())
