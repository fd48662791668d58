import dataclasses
import itertools
import math

import numpy as np
import pytest

import nscausal.graph as graph_mod
import nscausal.poc as poc_mod
from nscausal.graph import WeightedDag
from nscausal.poc import (EmpiricalDistribution, PocBound, PocProduct,
                          ScmDistribution, effect_poc_profile, empirical_cpoc,
                          empirical_mpoc, evaluate, exact_pn, exact_poc,
                          exact_ps, interventional_mean, natural_direct_effect,
                          observational_joint, poc_lower_bound)
from nscausal.scm import Dataset

from conftest import (monotone_scm, random_additive_scm, random_binary_scm,
                      tabular_scm)


def identity_root():
    return {((), 0): 0, ((), 1): 1}


def deterministic_copy_scm(p=0.6):
    # z0 ~ Bernoulli(p), y = z0 exactly
    tables = (identity_root(), {((0,), 0): 0, ((0,), 1): 0,
                                ((1,), 0): 1, ((1,), 1): 1})
    return tabular_scm([(0, 1)], 2, tables, (p, 0.5))


def independent_scm(p=0.5, q=0.4):
    # y ignores z0 entirely
    tables = (identity_root(), {((), 0): 0, ((), 1): 1})
    return tabular_scm([], 2, tables, (p, q))


def or_scm(dim):
    """Independent features ``z_j = u_j`` and ``y = OR(z, u_y)``: every event
    on the features has positive mass."""
    edges = [(j, dim - 1) for j in range(dim - 1)]
    outcome = {(pa, u): int(any(pa) or u)
               for pa in itertools.product((0, 1), repeat=dim - 1)
               for u in (0, 1)}
    tables = [identity_root()] * (dim - 1) + [outcome]
    return tabular_scm(edges, dim, tables, (0.4,) * dim)


def wide_scm(features):
    """``features`` independent fair binary features ``z_j = u_j`` and
    ``y = z0 XOR u_y``: ``2^(features + 1)`` joint noise states."""
    tables = [identity_root()] * features + [
        {((z,), u): z ^ u for z in (0, 1) for u in (0, 1)}]
    return tabular_scm([(0, features)], features + 1, tables,
                       (0.5,) * (features + 1))


# every entry point that enumerates the joint noise states, at feature 0
ENUMERATIONS = [
    lambda scm: observational_joint(scm),
    lambda scm: ScmDistribution(scm),
    lambda scm: exact_poc(scm, 0, 1, 1, "conditional", (0,) * (scm.dim - 2)),
    lambda scm: exact_pn(scm, 0, 1, 1),
    lambda scm: exact_ps(scm, 0, 1, 1),
    lambda scm: interventional_mean(scm, {0: 1}),
    lambda scm: natural_direct_effect(scm, 0),
    lambda scm: effect_poc_profile(scm, 0, 1),
]


def _feasible_rest(scm, i):
    """A rest-feature configuration leaving both feature values reachable."""
    joint = observational_joint(scm)
    rest_idx = [j for j in range(scm.dim) if j not in (i, scm.outcome_index)]
    buckets = {}
    for values, prob in joint.items():
        key = tuple(values[j] for j in rest_idx)
        pair = buckets.setdefault(key, [0.0, 0.0])
        pair[values[i]] += prob
    for key in sorted(buckets):
        if min(buckets[key]) > 0:
            return key
    return None


class TestDiscreteScmValidation:
    @pytest.mark.parametrize("field, value, message", [
        ("graph", WeightedDag(np.ones((2, 2)) - np.eye(2)),
         "graph must be acyclic"),
        ("domains", ((0, 1),), "domains must have one entry per node"),
        ("noise_probs", ((0.4, 0.6), (1.0,)),
         "node 1: noise values and probs differ in length"),
        ("noise_probs", ((0.4, 0.5), (0.5, 0.5)),
         "node 0: noise probabilities must sum to 1"),
        ("noise_probs", ((math.nan, 1.0), (0.5, 0.5)),
         "node 0: noise probability must be a finite nonnegative number, "
         "got nan"),
        ("noise_probs", ((0.5, 0.5), (True, False)),
         "node 1: noise probability must be a finite nonnegative number, "
         "got True"),
        ("noise_probs", (("a", 1.0), (0.5, 0.5)),
         "node 0: noise probability must be a finite nonnegative number, "
         "got 'a'"),
        ("functions", (identity_root(), {((0,), 0): 0}),
         r"node 1: function undefined at parents=\(0,\), noise=1"),
        ("functions", ({((), 0): 0, ((), 1): 2}, {}),
         "node 0: function value 2 outside domain"),
    ], ids=["cyclic", "domains", "probs-length", "probs-sum", "probs-nan",
            "probs-bool", "probs-string", "undefined", "outside-domain"])
    def test_malformed_model_is_an_error(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            dataclasses.replace(deterministic_copy_scm(), **{field: value})


class TestNodeIndex:
    """``i`` is a feature index: the outcome, a node outside the model and a
    non-integer are each a ``ValueError`` naming ``i``."""

    @staticmethod
    def _data():
        values = np.random.default_rng(5).integers(0, 2, size=(30, 3))
        return Dataset(values.astype(float), ("z0", "z1", "y"), 2)

    CALLS = {
        "exact_poc": lambda scm, data, i: exact_poc(scm, i, 1, 1),
        "exact_pn": lambda scm, data, i: exact_pn(scm, i, 1, 1),
        "exact_ps": lambda scm, data, i: exact_ps(scm, i, 1, 1),
        "natural_direct_effect":
            lambda scm, data, i: natural_direct_effect(scm, i),
        "effect_poc_profile": lambda scm, data, i: effect_poc_profile(scm, i, 1),
        "poc_lower_bound":
            lambda scm, data, i: poc_lower_bound(ScmDistribution(scm), i, 1, 1),
        "p_outcome": lambda scm, data, i: ScmDistribution(scm).p_outcome(1, i, 1),
        "empirical_p_outcome":
            lambda scm, data, i: EmpiricalDistribution(data).p_outcome(1, i, 1),
        "empirical_mpoc": lambda scm, data, i: empirical_mpoc(
            data, i, EmpiricalDistribution(data)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("i, message", [
        (2, "must be a feature index, not the outcome 2"),
        (7, r"must be an integer in range\(3\), got 7"),
        (-1, r"must be an integer in range\(3\), got -1"),
        (0.0, r"must be an integer in range\(3\), got 0.0"),
    ], ids=["outcome", "outside", "negative", "float"])
    def test_i_must_be_a_feature_index(self, call, i, message):
        # on the outcome the exact quantities returned 1.0; 7 raised
        # IndexError and 0.0 TypeError
        scm = random_binary_scm(np.random.default_rng(0), dim=3)
        assert scm.outcome_index == 2
        with pytest.raises(ValueError, match=f"^i {message}"):
            self.CALLS[call](scm, self._data(), i)

    @pytest.mark.parametrize("call", [exact_poc, exact_pn, exact_ps])
    def test_index_is_checked_before_any_enumeration(self, monkeypatch, call):
        # exact_pn and exact_ps built the observational joint first
        def no_work(*args):
            raise AssertionError("the joint was enumerated")

        scm = random_binary_scm(np.random.default_rng(0), dim=3)
        monkeypatch.setattr(poc_mod, "observational_joint", no_work)
        with pytest.raises(ValueError, match="^i must be a feature index"):
            call(scm, 2, 1, 1)

    def test_intervention_nodes_must_be_nodes(self):
        # node 7 was ignored: E[Y] came back as if nothing were set
        scm = random_binary_scm(np.random.default_rng(0), dim=3)
        for node in (7, 0.0, "z0"):
            with pytest.raises(ValueError, match="^intervention node must be "
                                                 r"an integer in range\(3\)"):
                interventional_mean(scm, {node: 1})
        assert interventional_mean(scm, {2: 1}) == 1.0
        assert interventional_mean(scm, {np.int64(0): 1}) \
            == interventional_mean(scm, {0: 1})


class TestInterventionValues:
    """A value a caller sets on a node must be in that node's domain: each
    call checks its settings once, before any enumeration."""

    CALLS = {
        "interventional_mean": lambda scm: interventional_mean(scm, {2: 5}),
        "exact_poc": lambda scm: exact_poc(scm, 0, 7, 1),
        "exact_poc-rest": lambda scm: exact_poc(scm, 0, 1, 1, "conditional",
                                                (3,)),
        "exact_pn": lambda scm: exact_pn(scm, 0, 7, 1),
        "exact_ps": lambda scm: exact_ps(scm, 1, 2, 1),
        "effect_poc_profile-rest":
            lambda scm: effect_poc_profile(scm, 0, 1, (5,)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_value_outside_the_domain_is_an_error(self, monkeypatch, call):
        # interventional_mean returned 5.0 for a binary outcome, exact_poc
        # raised KeyError
        def no_work(*args):
            raise AssertionError("a noise state was enumerated")

        scm = random_binary_scm(np.random.default_rng(0), dim=3)
        monkeypatch.setattr(poc_mod, "_noise_states", no_work)
        with pytest.raises(ValueError, match=r"^node \d cannot be set to \d: "
                                             r"its domain is \(0, 1\)$"):
            self.CALLS[call](scm)

    def test_values_inside_the_domain_pass(self):
        scm = random_binary_scm(np.random.default_rng(0), dim=3)
        assert interventional_mean(scm, {2: np.int64(1)}) == 1.0
        assert 0.0 <= exact_poc(scm, 0, 1, 1, "conditional", (np.int64(0),)) \
            <= 1.0


class TestExactPoc:
    def test_deterministic_copy_saturates(self):
        scm = deterministic_copy_scm()
        assert exact_poc(scm, 0, 1, 1, "marginal") == pytest.approx(1.0)

    def test_independent_outcome_is_zero(self):
        scm = independent_scm()
        assert exact_poc(scm, 0, 1, 1, "marginal") == 0.0

    def test_range_and_relabeling_invariance(self, rng):
        for _ in range(30):
            scm = random_binary_scm(rng, dim=3)
            value = exact_poc(scm, 0, 1, 1, "marginal")
            assert 0.0 <= value <= 1.0
            # probability-preserving renaming of every noise domain
            renamed = scm.__class__(
                scm.graph, scm.domains,
                tuple((5, 7) for _ in range(scm.dim)),
                scm.noise_probs,
                tuple({(pa, {0: 5, 1: 7}[u]): out
                       for (pa, u), out in table.items()}
                      for table in scm.functions))
            assert exact_poc(renamed, 0, 1, 1, "marginal") == pytest.approx(value)

    @pytest.mark.parametrize("call", [
        lambda scm: exact_poc(scm, 0, 1, 1, "joint"),
        lambda scm: poc_lower_bound(ScmDistribution(scm), 0, 1, 1, "joint"),
        lambda scm: PocBound(0, 1, "joint", 0.5),
    ], ids=["exact_poc", "poc_lower_bound", "PocBound"])
    def test_kind_must_be_known(self, call):
        with pytest.raises(ValueError, match="^kind must be one of "
                                             r"\('marginal', 'conditional'\), "
                                             "got 'joint'"):
            call(deterministic_copy_scm())

    def test_bound_outside_minus_one_to_one_is_an_error(self):
        with pytest.raises(ValueError, match=r"^lower bound 1.5 outside \[-1, 1\]"):
            PocBound(0, 1, "marginal", 1.5)

    def test_conditional_requires_rest_values(self):
        scm = random_binary_scm(np.random.default_rng(0), dim=3)
        with pytest.raises(ValueError):
            exact_poc(scm, 0, 1, 1, "conditional")

    def test_enumeration_cap(self, monkeypatch):
        scm = random_binary_scm(np.random.default_rng(1), dim=3)
        monkeypatch.setattr(poc_mod, "ENUMERATION_CAP", 4)
        with pytest.raises(ValueError, match="cap"):
            exact_poc(scm, 0, 1, 1, "marginal")

    @pytest.mark.parametrize("call", ENUMERATIONS)
    def test_every_enumeration_checks_the_cap(self, call, monkeypatch):
        scm = or_scm(3)
        monkeypatch.setattr(poc_mod, "ENUMERATION_CAP", 8)
        call(scm)
        monkeypatch.setattr(poc_mod, "ENUMERATION_CAP", 7)
        with pytest.raises(ValueError, match="cap 7"):
            call(scm)

    @pytest.mark.parametrize("call", ENUMERATIONS)
    def test_the_cap_stops_2_to_the_25_states_before_any_state(self, call,
                                                                monkeypatch):
        def no_work(*args):
            raise AssertionError("a noise state was evaluated")

        scm = wide_scm(24)
        assert scm.noise_state_count() == 2**25
        monkeypatch.setattr(poc_mod, "evaluate", no_work)
        with pytest.raises(ValueError, match="exceeding the cap 10000000$"):
            call(scm)

    def test_zero_mass_noise_states_are_skipped(self):
        # y = z0 XOR u with u = 0 surely: the states with u = 1 have zero
        # mass and leave no entry in the joint, so this is the exact copy
        tables = (identity_root(), {((z,), u): z ^ u
                                    for z in (0, 1) for u in (0, 1)})
        scm = tabular_scm([(0, 1)], 2, tables, (0.5, 0.0))
        assert observational_joint(scm) == {(0, 0): 0.5, (1, 1): 0.5}
        copy = deterministic_copy_scm(0.5)
        for call in (exact_poc, exact_pn, exact_ps):
            assert call(scm, 0, 1, 1) == call(copy, 0, 1, 1) == 1.0

    def test_evaluate_reuses_the_validated_order(self, monkeypatch):
        scm = random_binary_scm(np.random.default_rng(2), dim=4)
        expected = evaluate(scm, (1, 0, 1, 0), {1: 1})

        def unexpected(weights):
            raise AssertionError("topological_order called")

        # the order comes from graph's acyclicity rule, at construction
        monkeypatch.setattr(graph_mod, "topological_order", unexpected)
        assert evaluate(scm, (1, 0, 1, 0), {1: 1}) == expected


class TestEnumerationBudget:
    """Passes over the joint noise states per public call, counted at
    ``_noise_states``: each pass costs the whole enumeration."""

    @staticmethod
    def passes(monkeypatch, call, scm):
        count = []
        original = poc_mod._noise_states

        def counting(model):
            count.append(1)
            return original(model)

        with monkeypatch.context() as patched:
            patched.setattr(poc_mod, "_noise_states", counting)
            call(scm)
        return len(count)

    @pytest.mark.parametrize("call, passes", [
        (lambda scm: observational_joint(scm), 1),
        (lambda scm: ScmDistribution(scm), 1),
        (lambda scm: interventional_mean(scm, {0: 1}), 1),
        (lambda scm: natural_direct_effect(scm, 0), 1),
        (lambda scm: exact_ps(scm, 0, 1, 1), 1),
        (lambda scm: exact_poc(scm, 0, 1, 1), 2),
        (lambda scm: exact_poc(scm, 0, 1, 1, "conditional", (0,)), 2),
        (lambda scm: exact_pn(scm, 0, 1, 1), 2),
    ], ids=["observational_joint", "ScmDistribution", "interventional_mean",
            "natural_direct_effect", "exact_ps", "exact_poc",
            "exact_poc-conditional", "exact_pn"])
    def test_single_quantities(self, monkeypatch, call, passes):
        assert self.passes(monkeypatch, call, or_scm(3)) == passes

    @pytest.mark.parametrize("scm, outcome_values", [
        (or_scm(3), 2),
        (random_additive_scm(np.random.default_rng(0)), 4),
    ], ids=["binary", "additive"])
    def test_effect_poc_profile(self, monkeypatch, scm, outcome_values):
        # the joint, one _poc_sum per outcome value for each of the two
        # masses, two interventional means and the natural direct effect
        assert len(scm.domains[scm.outcome_index]) == outcome_values
        passes = self.passes(monkeypatch,
                             lambda model: effect_poc_profile(model, 0, 1), scm)
        assert passes == 1 + 2 * outcome_values + 3

    def test_exact_ps_builds_no_joint(self, monkeypatch):
        # only PN reads the alternative mixture built from the joint
        scms = [deterministic_copy_scm(), or_scm(3)] + [
            random_binary_scm(np.random.default_rng(seed), dim=3)
            for seed in range(4)]
        expected = []
        for scm in scms:
            try:
                expected.append(exact_ps(scm, 0, 1, 1))
            except ValueError as exc:
                expected.append(str(exc))

        def no_joint(*args):
            raise AssertionError("the observational joint was built")

        monkeypatch.setattr(poc_mod, "observational_joint", no_joint)
        for scm, value in zip(scms, expected):
            try:
                assert exact_ps(scm, 0, 1, 1) == value
            except ValueError as exc:
                assert str(exc) == value
        assert any(isinstance(value, float) for value in expected[2:])


class TestLowerBound:
    def test_independence_gives_zero(self):
        bound = poc_lower_bound(ScmDistribution(independent_scm()), 0, 1, 1)
        assert bound.lower_bound == pytest.approx(0.0)

    def test_deterministic_copy_attains_one(self):
        scm = deterministic_copy_scm()
        bound = poc_lower_bound(ScmDistribution(scm), 0, 1, 1)
        assert bound.lower_bound == pytest.approx(1.0)
        assert exact_poc(scm, 0, 1, 1) == pytest.approx(bound.lower_bound)

    def test_zero_mass_conditioning_errors(self):
        # z0 is constant 0, so conditioning on z0 = 1 is impossible
        tables = ({((), 0): 0, ((), 1): 0}, {((0,), 0): 0, ((0,), 1): 1,
                                             ((1,), 0): 0, ((1,), 1): 1})
        scm = tabular_scm([(0, 1)], 2, tables, (0.5, 0.5))
        with pytest.raises(ValueError, match="zero"):
            poc_lower_bound(ScmDistribution(scm), 0, 1, 1)

    def test_marginal_bound_never_exceeds_exact(self, rng):
        checked = 0
        for _ in range(60):
            scm = random_binary_scm(rng, dim=int(rng.integers(3, 5)))
            dist = ScmDistribution(scm)
            for y in (0, 1):
                try:
                    bound = poc_lower_bound(dist, 0, 1, y, "marginal")
                except ValueError:
                    continue
                exact = exact_poc(scm, 0, 1, y, "marginal")
                assert exact >= bound.lower_bound - 1e-12
                checked += 1
        assert checked >= 60

    def test_conditional_bound_never_exceeds_exact(self, rng):
        checked = 0
        for _ in range(60):
            scm = random_binary_scm(rng, dim=int(rng.integers(3, 5)))
            i = int(rng.integers(0, scm.dim - 1))
            rest = _feasible_rest(scm, i)
            if rest is None:
                continue
            dist = ScmDistribution(scm)
            for y in (0, 1):
                bound = poc_lower_bound(dist, i, 1, y, "conditional", rest)
                exact = exact_poc(scm, i, 1, y, "conditional", rest)
                assert exact >= bound.lower_bound - 1e-12
                checked += 1
        assert checked >= 40

    def test_monotone_bound_is_tight(self, rng):
        for k in range(40):
            scm = monotone_scm(rng, mediate=bool(k % 2))
            bound = poc_lower_bound(ScmDistribution(scm), 0, 1, 1, "marginal")
            exact = exact_poc(scm, 0, 1, 1, "marginal")
            assert abs(exact - bound.lower_bound) < 1e-12


def _three_feature_models():
    values = np.random.default_rng(5).integers(0, 2, size=(30, 4)).astype(float)
    data = Dataset(values, ("z0", "z1", "z2", "y"), 3)
    return {"scm": ScmDistribution(or_scm(4)),
            "empirical": EmpiricalDistribution(data, smoothing=1.0)}


class TestRestValues:
    @pytest.mark.parametrize("model", ["scm", "empirical"])
    @pytest.mark.parametrize("rest", [(), (0,), (0, 1, 0)],
                             ids=["empty", "short", "long"])
    def test_wrong_length_is_an_error(self, model, rest):
        dist = _three_feature_models()[model]
        with pytest.raises(ValueError, match="z_minus_i must supply 2 values"):
            poc_lower_bound(dist, 0, 1, 1, "conditional", rest)
        with pytest.raises(ValueError, match="z_minus_i"):
            dist.p_outcome(1, 0, 1, equal=True, z_minus_i=rest)

    def test_wrong_length_expected_outcome_is_an_error(self):
        dist = _three_feature_models()["scm"]
        with pytest.raises(ValueError, match="z_minus_i"):
            dist.expected_outcome(0, 1, equal=False, z_minus_i=(0,))

    @pytest.mark.parametrize("model", ["scm", "empirical"])
    def test_full_length_conditions_on_every_rest_feature(self, model):
        dist = _three_feature_models()[model]
        bound = poc_lower_bound(dist, 0, 1, 1, "conditional", (1, 1))
        assert bound.z_minus_i == (1, 1)
        assert -1.0 <= bound.lower_bound <= 1.0

    @pytest.mark.parametrize("model", ["scm", "empirical"])
    def test_conditional_bound_requires_rest_values(self, model):
        dist = _three_feature_models()[model]
        with pytest.raises(ValueError, match="requires z_minus_i"):
            poc_lower_bound(dist, 0, 1, 1, "conditional")


class _ConstantModel:
    def __init__(self, p_eq, p_ne):
        self.p_eq, self.p_ne = p_eq, p_ne

    def p_outcome(self, y, i, z_i, equal=True, z_minus_i=None):
        return self.p_eq if equal else self.p_ne


class TestEmpiricalEstimators:
    def test_single_observation_product(self):
        data = Dataset(np.array([[1.0, 0.0]]), ("z0", "y"), 1)
        est = empirical_mpoc(data, 0, _ConstantModel(0.9, 0.1))
        assert est.value == pytest.approx(0.8)
        assert est.log_value == pytest.approx(math.log(0.8))

    def test_zero_factor_short_circuits(self):
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), ("z0", "y"), 1)
        est = empirical_mpoc(data, 0, _ConstantModel(0.5, 0.5))
        assert est.value == 0.0
        assert est.log_value == -math.inf
        assert est.geometric_mean == 0.0

    def test_deterministic_copy_stays_at_one(self):
        values = np.array([[0.0, 0.0], [1.0, 1.0]] * 25)
        data = Dataset(values, ("z0", "y"), 1)
        model = EmpiricalDistribution(data, smoothing=0.0)
        est = empirical_mpoc(data, 0, model)
        assert est.value == pytest.approx(1.0)
        assert est.n_factors == 50

    def test_out_of_range_model_rejected(self):
        data = Dataset(np.array([[1.0, 0.0]]), ("z0", "y"), 1)
        with pytest.raises(ValueError):
            empirical_mpoc(data, 0, _ConstantModel(1.5, 0.0))

    def test_conditional_matches_counting_oracle(self):
        values = np.array([
            [0, 0, 0], [0, 0, 1], [1, 0, 1], [1, 0, 1],
            [0, 1, 1], [1, 1, 0], [1, 1, 1], [0, 1, 0],
        ], dtype=float)
        data = Dataset(values, ("z0", "z1", "y"), 2)
        model = EmpiricalDistribution(data, smoothing=0.0)
        est = empirical_cpoc(data, 0, model)

        rows = [tuple(r) for r in values]
        logs = []
        product = 1.0
        for z0, z1, y in rows:
            eq = [r for r in rows if r[0] == z0 and r[1] == z1]
            ne = [r for r in rows if r[0] != z0 and r[1] == z1]
            p_eq = sum(r[2] == y for r in eq) / len(eq)
            p_ne = sum(r[2] == y for r in ne) / len(ne)
            product *= abs(p_eq - p_ne)
        assert est.value == pytest.approx(product, abs=1e-12)

    @pytest.mark.parametrize("product, expected", [
        (PocProduct(0.0, 1.0, 0), 1.0),
        (PocProduct(-math.inf, 0.0, 3), 0.0),
        (PocProduct(math.log(0.25), 0.25, 2), 0.5),
    ], ids=["no-factors", "zero-factor", "two-factors"])
    def test_geometric_mean(self, product, expected):
        assert product.geometric_mean == pytest.approx(expected)

    def test_order_invariance(self, rng):
        values = rng.integers(0, 2, size=(40, 3)).astype(float)
        data = Dataset(values, ("z0", "z1", "y"), 2)
        model = EmpiricalDistribution(data, smoothing=1.0)
        base = empirical_mpoc(data, 0, model)
        perm = rng.permutation(40)
        shuffled = Dataset(values[perm], data.labels, 2)
        again = empirical_mpoc(shuffled, 0, EmpiricalDistribution(shuffled, 1.0))
        assert again.log_value == base.log_value

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), -1.0])
    def test_smoothing_must_be_finite_and_nonnegative(self, smoothing):
        data = Dataset(np.array([[1.0, 1.0], [1.0, 0.0]]), ("z0", "y"), 1)
        with pytest.raises(ValueError, match="smoothing"):
            EmpiricalDistribution(data, smoothing=smoothing)

    def test_smoothing_handles_empty_cells(self):
        values = np.array([[1.0, 1.0], [1.0, 0.0]])
        data = Dataset(values, ("z0", "y"), 1)
        model = EmpiricalDistribution(data, smoothing=1.0)
        # conditioning on z0 != 1 is empty; smoothing falls back to uniform
        assert model.p_outcome(1.0, 0, 1.0, equal=False) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            EmpiricalDistribution(data, smoothing=0.0).p_outcome(
                1.0, 0, 1.0, equal=False)


class TestEffectPocProfile:
    def test_independence_zeroes_everything(self):
        profile = effect_poc_profile(independent_scm(), 0, 1)
        for field in ("poc_mass_m", "poc_mass_c", "delta_m", "delta_c",
                      "te_abs", "de_abs"):
            assert getattr(profile, field) == pytest.approx(0.0)

    def test_deterministic_copy_saturates(self):
        profile = effect_poc_profile(deterministic_copy_scm(), 0, 1)
        assert profile.poc_mass_m == pytest.approx(1.0)
        assert profile.delta_m == pytest.approx(1.0)
        assert profile.te_abs == pytest.approx(1.0)
        assert profile.de_abs == pytest.approx(1.0)

    def test_min_form_inequalities(self, rng):
        checked = 0
        for _ in range(60):
            scm = random_additive_scm(rng, dim=int(rng.integers(3, 5)))
            for z in (0, 1):
                try:
                    profile = effect_poc_profile(scm, 0, z)
                except ValueError:
                    continue
                assert min(profile.poc_mass_m, profile.te_abs) \
                    >= profile.delta_m - 1e-12
                assert min(profile.poc_mass_c, profile.de_abs) \
                    >= profile.delta_c - 1e-12
                checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("given_rest", [False, True])
    def test_builds_one_observational_joint(self, monkeypatch, given_rest):
        scm = random_additive_scm(np.random.default_rng(0))
        assert len(scm.domains[scm.outcome_index]) == 4
        expected = effect_poc_profile(scm, 0, 1)
        rest = expected.z_minus_i if given_rest else None
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return observational_joint(*args, **kwargs)

        monkeypatch.setattr(poc_mod, "observational_joint", counted)
        assert effect_poc_profile(scm, 0, 1, rest) == expected
        assert len(calls) == 1

    def test_rejects_nonbinary_feature(self):
        from nscausal.graph import WeightedDag
        from nscausal.poc import DiscreteScm

        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        ternary = DiscreteScm(
            WeightedDag(w, outcome_index=1),
            domains=((0, 1, 2), (0, 1, 2)),
            noise_domains=((0, 1, 2), (0,)),
            noise_probs=((0.3, 0.4, 0.3), (1.0,)),
            functions=(
                {((), u): u for u in (0, 1, 2)},
                {((z,), 0): z for z in (0, 1, 2)},
            ))
        with pytest.raises(ValueError):
            effect_poc_profile(ternary, 0, 1)

    def test_rejects_negative_outcome_domain(self):
        scm = dataclasses.replace(deterministic_copy_scm(),
                                  domains=((0, 1), (-1, 0, 1)))
        with pytest.raises(ValueError, match="^profile requires a nonnegative "
                                             "outcome domain"):
            effect_poc_profile(scm, 0, 1)

    @pytest.mark.parametrize("z_i", [2, -1])
    def test_z_i_must_be_binary(self, z_i):
        with pytest.raises(ValueError, match="^z_i must be 0 or 1"):
            effect_poc_profile(deterministic_copy_scm(), 0, z_i)


class TestNecessitySufficiency:
    def test_deterministic_copy(self):
        scm = deterministic_copy_scm()
        assert exact_poc(scm, 0, 1, 1, "marginal") == pytest.approx(1.0)
        assert exact_pn(scm, 0, 1, 1) == pytest.approx(1.0)
        assert exact_ps(scm, 0, 1, 1) == pytest.approx(1.0)

    def test_zero_mass_factual_event_is_an_error(self):
        # y copies z0, so Z_0 = 1 and Y = 0 never happen together
        with pytest.raises(ValueError, match="^factual conditioning event has "
                                             "zero mass"):
            exact_pn(deterministic_copy_scm(), 0, 1, 0)

    def test_consistency_decomposition(self, rng):
        # PNS = P(z, y) PN + P(!z, !y) PS for a binary root feature
        checked = 0
        for _ in range(40):
            scm = random_binary_scm(rng, dim=int(rng.integers(2, 4)))
            joint = observational_joint(scm)
            p_zy = sum(p for v, p in joint.items()
                       if v[0] == 1 and v[scm.outcome_index] == 1)
            p_nzny = sum(p for v, p in joint.items()
                         if v[0] != 1 and v[scm.outcome_index] != 1)
            if p_zy <= 0 or p_nzny <= 0:
                continue
            pns = exact_poc(scm, 0, 1, 1, "marginal")
            pn = exact_pn(scm, 0, 1, 1)
            ps = exact_ps(scm, 0, 1, 1)
            assert pns == pytest.approx(p_zy * pn + p_nzny * ps, abs=1e-12)
            checked += 1
        assert checked >= 20


def test_sums_add_left_to_right_on_every_python():
    # the builtin sum is compensated from Python 3.12 on, where it gives 1.0
    assert poc_mod._left_sum([0.1] * 10) == 0.9999999999999999
    assert poc_mod._left_sum([]) == 0.0
