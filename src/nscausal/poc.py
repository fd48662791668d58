"""Probabilities of causation on finite, enumerable structural models.

A :class:`DiscreteScm` stores, per node, a finite value domain, a finite
noise domain with probabilities, and a lookup-table structural function.
Exact counterfactual probabilities are computed by exhaustive enumeration of
joint noise assignments; these serve as the oracle against which the
conditional-probability lower bounds and the empirical product estimators
are checked.  The enumeration checks the joint noise domain's size
against ``ENUMERATION_CAP`` before the first state.

The marginal probability of causation of feature ``i`` at outcome value
``y`` is ``P(Y(Z_i != z_i) != y, Y(Z_i = z_i) = y)``; the conditional
variant intervenes on all remaining features as well.  For a nonbinary
feature, "set ``Z_i != z_i``" is realized as a mixture intervention: the
alternative value is drawn (independently of the unit's noise) from the
observational law of ``Z_i`` restricted to values other than ``z_i``,
conditioned on the remaining features for the conditional kind.  With a
binary feature this is just the complement value.

``i`` is a feature index (an integer node, not the outcome), and
``z_minus_i`` holds one value per remaining feature, every feature other
than ``i`` in ascending index order; any other length is an error.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import (WeightedDag, check_acyclic, check_choice, check_node,
                    check_nonnegative)
from .scm import Dataset

ENUMERATION_CAP = 10**7
POC_KINDS = ("marginal", "conditional")


def _left_sum(values) -> float:
    """The sum of ``values``, added left to right.  The builtin ``sum`` of
    floats is compensated from Python 3.12 on, so its last bits depend on
    the Python version; this one's do not."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class DiscreteScm:
    """Finite SCM: per-node domains, noise tables, and function tables.

    ``functions[i]`` maps ``(parent_values, noise_value)`` to the value of
    node ``i``, with ``parent_values`` a tuple ordered by ascending parent
    index.  Functions must be total over the parent-domain product and the
    noise domain.
    """

    graph: WeightedDag
    domains: tuple
    noise_domains: tuple
    noise_probs: tuple
    functions: tuple

    def __post_init__(self):
        dim = self.graph.dim
        order = check_acyclic("graph", self.graph.weights)
        for name, seq in (("domains", self.domains),
                          ("noise_domains", self.noise_domains),
                          ("noise_probs", self.noise_probs),
                          ("functions", self.functions)):
            if len(seq) != dim:
                raise ValueError(f"{name} must have one entry per node")
        parent_tuples = tuple(
            tuple(int(p) for p in np.flatnonzero(self.graph.weights[:, i] != 0))
            for i in range(dim))
        for i in range(dim):
            probs = self.noise_probs[i]
            if len(probs) != len(self.noise_domains[i]):
                raise ValueError(f"node {i}: noise values and probs differ in length")
            for p in probs:
                check_nonnegative(f"node {i}: noise probability", p)
            if abs(_left_sum(probs) - 1.0) > 1e-9:
                raise ValueError(f"node {i}: noise probabilities must sum to 1")
            domain = set(self.domains[i])
            table = self.functions[i]
            for pa in itertools.product(*(self.domains[p] for p in parent_tuples[i])):
                for u in self.noise_domains[i]:
                    if (pa, u) not in table:
                        raise ValueError(
                            f"node {i}: function undefined at parents={pa}, noise={u}")
                    if table[(pa, u)] not in domain:
                        raise ValueError(
                            f"node {i}: function value {table[(pa, u)]} outside domain")
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_parent_tuples", parent_tuples)

    @property
    def dim(self) -> int:
        return self.graph.dim

    @property
    def outcome_index(self) -> int:
        return self.graph.outcome_index

    def noise_state_count(self) -> int:
        count = 1
        for dom in self.noise_domains:
            count *= len(dom)
        return count


def _noise_states(scm: DiscreteScm):
    """Yield (probability, per-node noise tuple), skipping zero-mass states.

    Raises before the first state when the joint noise domain exceeds
    ``ENUMERATION_CAP`` states.
    """
    states = scm.noise_state_count()
    if states > ENUMERATION_CAP:
        raise ValueError(f"joint noise domain has {states} states, exceeding "
                         f"the cap {ENUMERATION_CAP}")
    for combo in itertools.product(*(range(len(d)) for d in scm.noise_domains)):
        prob = 1.0
        for i, k in enumerate(combo):
            prob *= scm.noise_probs[i][k]
        if prob == 0.0:
            continue
        values = tuple(scm.noise_domains[i][k] for i, k in enumerate(combo))
        yield prob, values


def evaluate(scm: DiscreteScm, noise: tuple, interventions: dict | None = None) -> tuple:
    """Node values under a joint noise assignment and optional do()-settings."""
    interventions = interventions or {}
    values: list = [None] * scm.dim
    for i in scm._order:
        if i in interventions:
            values[i] = interventions[i]
        else:
            pa = tuple(values[p] for p in scm._parent_tuples[i])
            values[i] = scm.functions[i][(pa, noise[i])]
    return tuple(values)


def observational_joint(scm: DiscreteScm) -> dict:
    """Exact joint distribution over node values, as value-tuple -> mass."""
    joint: dict = {}
    for prob, noise in _noise_states(scm):
        values = evaluate(scm, noise)
        joint[values] = joint.get(values, 0.0) + prob
    return joint


def _rest_indices(model, i: int) -> tuple:
    """The features other than feature ``i`` of a DiscreteScm or a Dataset."""
    check_node("i", i, model.dim, model.outcome_index)
    return tuple(j for j in range(model.dim) if j not in (i, model.outcome_index))


def _rest_values(model, i: int, z_minus_i) -> dict:
    """``{feature: value}`` for the features other than feature ``i``; empty for None."""
    rest = _rest_indices(model, i)
    if z_minus_i is None:
        return {}
    if len(z_minus_i) != len(rest):
        raise ValueError(
            f"z_minus_i must supply {len(rest)} values for features {rest}")
    return dict(zip(rest, z_minus_i))


def _check_settings(scm: DiscreteScm, settings: dict):
    """Raise unless every ``{node: value}`` a caller sets is in the node's
    domain; checked once per call, never per noise state."""
    for node, value in settings.items():
        if value not in scm.domains[node]:
            raise ValueError(f"node {node} cannot be set to {value!r}: its "
                             f"domain is {scm.domains[node]!r}")


def _event(scm: DiscreteScm, joint: dict, i: int, z_i, equal: bool,
           z_minus_i) -> list:
    """Joint entries ``(values, mass)`` in the event ``Z_i = z_i`` (``!=``
    unless ``equal``), with ``Z_-i = z_minus_i`` when given; raises when the
    event has zero mass."""
    rest = _rest_values(scm, i, z_minus_i)
    entries = [(values, prob) for values, prob in joint.items()
               if (values[i] == z_i if equal else values[i] != z_i)
               and all(values[j] == v for j, v in rest.items())]
    if not entries:
        relation = "=" if equal else "!="
        fixed = f" with Z_-i = {tuple(rest.values())}" if rest else ""
        raise ValueError(
            f"conditioning event Z_{i} {relation} {z_i}{fixed} has zero mass")
    return entries


def _alternative_mixture(scm: DiscreteScm, joint: dict, i: int, z_i,
                         z_minus_i=None) -> list:
    """Mixture weights for the "set Z_i to anything but z_i" intervention.

    Weights follow the observational law ``joint`` of ``Z_i`` restricted to
    values other than ``z_i`` (conditioned on the remaining features when
    ``z_minus_i`` is given).  Errors out when that event has zero mass.
    """
    mass: dict = {}
    for values, prob in _event(scm, joint, i, z_i, False, z_minus_i):
        mass[values[i]] = mass.get(values[i], 0.0) + prob
    total = _left_sum(mass.values())
    return sorted((value, weight / total) for value, weight in mass.items())


def _conditioning_rest(kind: str, z_minus_i):
    """The rest values a ``kind`` probability conditions on: ``z_minus_i``
    as a tuple for the conditional kind, which requires it, and None for the
    marginal kind, which ignores it."""
    kind = check_choice("kind", kind, POC_KINDS)
    if kind == "conditional" and z_minus_i is None:
        raise ValueError("conditional kind requires z_minus_i")
    return tuple(z_minus_i) if kind == "conditional" else None


def _mixture_miss(scm: DiscreteScm, noise: tuple, i: int, mixture: list,
                  y, fixed: dict) -> float:
    """Mixture weight of the alternatives to ``Z_i`` that move ``Y`` off ``y``."""
    outcome = scm.outcome_index
    return _left_sum(weight for alt, weight in mixture
                     if evaluate(scm, noise, {**fixed, i: alt})[outcome] != y)


def exact_poc(scm: DiscreteScm, i: int, z_i, y, kind: str = "marginal",
              z_minus_i=None) -> float:
    """Exact probability of causation of feature ``i`` for outcome value ``y``.

    Enumerates every joint noise assignment, evaluates the counterfactual
    world ``do(Z_i = z_i)`` against the mixture world ``do(Z_i != z_i)``
    (both worlds additionally fix the remaining features to ``z_minus_i``
    for the conditional kind) and accumulates the joint probability of
    ``Y(Z_i != z_i) != y`` and ``Y(Z_i = z_i) = y``.
    """
    rest = _conditioning_rest(kind, z_minus_i)
    base = _rest_values(scm, i, rest)
    _check_settings(scm, {**base, i: z_i})
    mixture = _alternative_mixture(scm, observational_joint(scm), i, z_i, rest)
    return _poc_sum(scm, i, z_i, y, base, mixture)


def _poc_sum(scm: DiscreteScm, i: int, z_i, y, base: dict,
             mixture: list) -> float:
    """``exact_poc`` given the fixed rest values and the alternative mixture."""
    outcome = scm.outcome_index
    total = 0.0
    for prob, noise in _noise_states(scm):
        if evaluate(scm, noise, {**base, i: z_i})[outcome] == y:
            total += prob * _mixture_miss(scm, noise, i, mixture, y, base)
    return float(min(max(total, 0.0), 1.0))


@dataclass(frozen=True)
class PocBound:
    """Conditional-probability lower bound for one feature and outcome value."""

    node: int
    outcome_value: object
    kind: str
    lower_bound: float
    z_minus_i: tuple | None = None

    def __post_init__(self):
        _conditioning_rest(self.kind, self.z_minus_i)  # the kind and rest rules
        if not -1.0 - 1e-9 <= self.lower_bound <= 1.0 + 1e-9:
            raise ValueError(f"lower bound {self.lower_bound} outside [-1, 1]")


def poc_lower_bound(probabilities, i: int, z_i, y, kind: str = "marginal",
                    z_minus_i=None) -> PocBound:
    """Lower bound from conditional outcome probabilities.

    ``probabilities`` must expose
    ``p_outcome(y, i, z_i, equal, z_minus_i=None)`` returning
    ``P(Y = y | Z_i = z_i [, Z_-i = z_minus_i])`` for ``equal=True`` and the
    complement-conditioned probability for ``equal=False``.  The bound is
    their difference.
    """
    rest = _conditioning_rest(kind, z_minus_i)
    p_eq = probabilities.p_outcome(y, i, z_i, equal=True, z_minus_i=rest)
    p_ne = probabilities.p_outcome(y, i, z_i, equal=False, z_minus_i=rest)
    for p in (p_eq, p_ne):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability accessor returned {p}, outside [0, 1]")
    return PocBound(i, y, kind, float(p_eq - p_ne), rest)


class ScmDistribution:
    """Observational conditional probabilities of a DiscreteScm, exact."""

    def __init__(self, scm: DiscreteScm):
        self.scm = scm
        self.joint = observational_joint(scm)

    def p_outcome(self, y, i: int, z_i, equal: bool = True, z_minus_i=None) -> float:
        outcome = self.scm.outcome_index
        entries = _event(self.scm, self.joint, i, z_i, equal, z_minus_i)
        return (_left_sum(p for values, p in entries if values[outcome] == y)
                / _left_sum(p for _, p in entries))

    def expected_outcome(self, i: int, z_i, equal: bool = True, z_minus_i=None) -> float:
        outcome = self.scm.outcome_index
        entries = _event(self.scm, self.joint, i, z_i, equal, z_minus_i)
        return (_left_sum(p * values[outcome] for values, p in entries)
                / _left_sum(p for _, p in entries))


class EmpiricalDistribution:
    """Frequency estimates of P(Y = y | ...) from a dataset.

    Laplace smoothing with constant ``smoothing`` over the observed outcome
    domain; ``smoothing=0`` reproduces raw frequencies and raises on
    zero-mass conditioning events.
    """

    def __init__(self, data: Dataset, smoothing: float = 1.0):
        check_nonnegative("smoothing", smoothing)
        self.data = data
        self.smoothing = float(smoothing)
        self.outcome_domain = tuple(np.unique(data.values[:, data.outcome_index]))

    def p_outcome(self, y, i: int, z_i, equal: bool = True, z_minus_i=None) -> float:
        rest = _rest_values(self.data, i, z_minus_i)
        values = self.data.values
        mask = values[:, i] == z_i if equal else values[:, i] != z_i
        for j, v in rest.items():
            mask = mask & (values[:, j] == v)
        denom = int(mask.sum())
        if denom == 0 and self.smoothing == 0.0:
            relation = "=" if equal else "!="
            raise ValueError(
                f"conditioning event column {i} {relation} {z_i} has zero "
                "empirical mass")
        num = int((mask & (values[:, self.data.outcome_index] == y)).sum())
        k = len(self.outcome_domain)
        return (num + self.smoothing) / (denom + self.smoothing * k)


@dataclass(frozen=True)
class PocProduct:
    """Product-form estimate reported in log space to survive underflow."""

    log_value: float
    value: float
    n_factors: int

    @property
    def geometric_mean(self) -> float:
        """Per-observation diagnostic; the headline estimate stays the product."""
        if self.n_factors == 0:
            return 1.0
        if self.log_value == -math.inf:
            return 0.0
        return math.exp(self.log_value / self.n_factors)


def _empirical_poc(data: Dataset, i: int, prob_model, kind: str) -> PocProduct:
    """Product over observations of the absolute ``kind`` lower bound."""
    outcome = data.outcome_index
    rest = _rest_indices(data, i)
    factors = [abs(poc_lower_bound(prob_model, i, row[i], row[outcome], kind,
                                   tuple(row[j] for j in rest)).lower_bound)
               for row in data.values]
    logs = []
    for f in factors:
        if f == 0.0:
            return PocProduct(-math.inf, 0.0, len(factors))
        logs.append(math.log(f))
    log_value = math.fsum(logs)
    return PocProduct(log_value, math.exp(log_value), len(factors))


def empirical_mpoc(data: Dataset, i: int, prob_model) -> PocProduct:
    """Product over observations of |P(Y=y_j|Z_i=z_ij) - P(Y=y_j|Z_i!=z_ij)|."""
    return _empirical_poc(data, i, prob_model, "marginal")


def empirical_cpoc(data: Dataset, i: int, prob_model) -> PocProduct:
    """As :func:`empirical_mpoc`, conditioning on all remaining features."""
    return _empirical_poc(data, i, prob_model, "conditional")


@dataclass(frozen=True)
class PocEffectProfile:
    """POC mass, conditional-mean gaps, and absolute effects for one feature.

    ``poc_mass_m``/``poc_mass_c`` are the outcome-weighted sums of the
    marginal/conditional probabilities of causation; ``delta_m``/``delta_c``
    the corresponding conditional-expectation differences; ``te_abs``/
    ``de_abs`` the absolute total and natural direct effects.
    """

    poc_mass_m: float
    poc_mass_c: float
    delta_m: float
    delta_c: float
    te_abs: float
    de_abs: float
    z_minus_i: tuple


def _default_rest_values(scm: DiscreteScm, joint: dict, i: int) -> tuple:
    """Rest-feature configuration with the largest worst-case conditioning
    mass under the observational law ``joint``."""
    rest = _rest_indices(scm, i)
    mass: dict = {}
    for values, prob in joint.items():
        key = tuple(values[j] for j in rest)
        bucket = mass.setdefault(key, [0.0, 0.0])
        bucket[0 if values[i] == 0 else 1] += prob
    best = None
    for key in sorted(mass):
        score = min(mass[key])
        if best is None or score > best[0]:
            best = (score, key)
    if best is None or best[0] <= 0.0:
        raise ValueError(
            "no rest-feature configuration leaves both feature values reachable")
    return best[1]


def interventional_mean(scm: DiscreteScm, interventions: dict) -> float:
    """E[Y] under do(interventions), by enumeration; the keys are node indices."""
    for node in interventions:
        check_node("intervention node", node, scm.dim)
    _check_settings(scm, interventions)
    return float(_left_sum(
        prob * evaluate(scm, noise, interventions)[scm.outcome_index]
        for prob, noise in _noise_states(scm)))


def natural_direct_effect(scm: DiscreteScm, i: int) -> float:
    """Cross-world direct effect of the 0 -> 1 switch of a binary feature.

    The remaining features are held at the values they take in the
    `do(Z_i = 0)` world of the same noise draw.
    """
    rest = _rest_indices(scm, i)
    outcome = scm.outcome_index
    total = 0.0
    for prob, noise in _noise_states(scm):
        world0 = evaluate(scm, noise, {i: 0})
        frozen = {j: world0[j] for j in rest}
        cross = evaluate(scm, noise, {**frozen, i: 1})
        total += prob * (cross[outcome] - world0[outcome])
    return float(total)


def effect_poc_profile(scm: DiscreteScm, i: int, z_i,
                       z_minus_i=None) -> PocEffectProfile:
    """All six comparison quantities for a binary feature, exactly.

    Requires the feature domain to be exactly {0, 1} and a nonnegative
    outcome domain.  Used as a verification harness for the bound
    relationships between POC mass and absolute causal effects.
    """
    check_node("i", i, scm.dim, scm.outcome_index)
    if tuple(sorted(scm.domains[i])) != (0, 1):
        raise ValueError("profile requires a binary 0/1 feature domain")
    if min(scm.domains[scm.outcome_index]) < 0:
        raise ValueError("profile requires a nonnegative outcome domain")
    if z_i not in (0, 1):
        raise ValueError("z_i must be 0 or 1")
    if z_minus_i is not None:
        z_minus_i = tuple(z_minus_i)
        _check_settings(scm, _rest_values(scm, i, z_minus_i))
    dist = ScmDistribution(scm)  # the one observational joint
    rest_values = z_minus_i if z_minus_i is not None \
        else _default_rest_values(scm, dist.joint, i)

    def poc_mass(rest):
        base = _rest_values(scm, i, rest)
        mixture = _alternative_mixture(scm, dist.joint, i, z_i, rest)
        return _left_sum(y * _poc_sum(scm, i, z_i, y, base, mixture)
                         for y in scm.domains[scm.outcome_index])

    poc_mass_m = poc_mass(None)
    poc_mass_c = poc_mass(rest_values)
    delta_m = (dist.expected_outcome(i, z_i, equal=True)
               - dist.expected_outcome(i, z_i, equal=False))
    delta_c = (dist.expected_outcome(i, z_i, equal=True, z_minus_i=rest_values)
               - dist.expected_outcome(i, z_i, equal=False, z_minus_i=rest_values))
    te = interventional_mean(scm, {i: 1}) - interventional_mean(scm, {i: 0})
    de = natural_direct_effect(scm, i)
    return PocEffectProfile(float(poc_mass_m), float(poc_mass_c), float(delta_m),
                            float(delta_c), abs(te), abs(de), rest_values)


def _factual_conditional(scm: DiscreteScm, i: int, z_i, y,
                         want_factual: bool) -> float:
    """Shared core of PN and PS: counterfactual flip given a factual event.

    PN conditions on ``Z_i = z_i, Y = y`` and weighs the alternatives that
    move ``Y`` off ``y``; PS conditions on ``Z_i != z_i, Y != y`` and checks
    whether ``do(Z_i = z_i)`` brings ``Y`` to ``y``.
    """
    check_node("i", i, scm.dim, scm.outcome_index)  # before the joint is built
    _check_settings(scm, {i: z_i})
    outcome = scm.outcome_index
    if want_factual:
        mixture = _alternative_mixture(scm, observational_joint(scm), i, z_i)
    denom = 0.0
    num = 0.0
    for prob, noise in _noise_states(scm):
        natural = evaluate(scm, noise)
        if ((natural[i] == z_i) != want_factual
                or (natural[outcome] == y) != want_factual):
            continue
        denom += prob
        if want_factual:
            flip = _mixture_miss(scm, noise, i, mixture, y, {})
        else:
            flip = 1.0 if evaluate(scm, noise, {i: z_i})[outcome] == y else 0.0
        num += prob * flip
    if denom <= 0.0:
        raise ValueError("factual conditioning event has zero mass")
    return float(num / denom)


def exact_pn(scm: DiscreteScm, i: int, z_i, y) -> float:
    """P(Y(Z_i != z_i) != y | Z_i = z_i, Y = y)."""
    return _factual_conditional(scm, i, z_i, y, want_factual=True)


def exact_ps(scm: DiscreteScm, i: int, z_i, y) -> float:
    """P(Y(Z_i = z_i) = y | Z_i != z_i, Y != y)."""
    return _factual_conditional(scm, i, z_i, y, want_factual=False)
