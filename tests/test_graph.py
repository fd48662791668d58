import itertools
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscausal.bench import ScenarioSpec, spec_from_dict
from nscausal.effects import delta_star, effect_rows, total_effects
from nscausal.graph import (WeightedDag, ancestors_of, check_acyclic,
                            check_choice, check_count, check_nonnegative,
                            enumerate_paths_to_outcome, graph_metrics,
                            is_acyclic, prune, random_er, random_sf,
                            topological_order, unchecked)
from nscausal.mec import Cpdag
from nscausal.optimizer import (FitConfig, FitResult, acyclicity_value,
                                least_squares_loss, relevance_constraint)
from nscausal.poc import (DiscreteScm, ScmDistribution, exact_poc,
                          poc_lower_bound)
from nscausal.scm import (BernoulliNoise, Dataset, SemSpec, check_sem,
                          sample_linear, sample_nonlinear)

from conftest import inject_back_edge, random_binary_scm, random_dag


def table1_graph(omega1=0.3, omega2=0.7, c=1.0):
    # nodes: F, D, B(outcome);  F -> B, F -> D, D -> B
    w = np.zeros((3, 3))
    w[0, 2] = omega1
    w[0, 1] = c
    w[1, 2] = omega2
    return WeightedDag(w, ("F", "D", "B"), 2)


class TestRandomEr:
    def test_mean_edge_count_matches_er_rate(self):
        # expected edges = p * degree / 2 = 5; Monte Carlo over many seeds
        counts = [np.count_nonzero(random_er(5, 2.0, seed=s).weights)
                  for s in range(10_000)]
        assert abs(np.mean(counts) - 5.0) / 5.0 < 0.05

    def test_two_nodes_never_point_at_the_first(self):
        for s in range(200):
            g = random_er(2, 1.0, (1.0, 1.0), seed=s)
            assert g.weights[1, 0] == 0.0
            assert g.weights[0, 1] in (0.0, 1.0)

    def test_zero_degree_is_empty(self):
        g = random_er(6, 0.0, seed=1)
        assert np.count_nonzero(g.weights) == 0

    def test_rejects_excessive_degree(self):
        with pytest.raises(ValueError):
            random_er(4, 4.0)

    def test_rejects_weight_range_containing_zero(self):
        with pytest.raises(ValueError):
            random_er(4, 1.0, (-1.0, 1.0))

    def test_outputs_are_acyclic_sinks(self):
        for s in range(50):
            g = random_er(8, 3.0, seed=s)
            assert is_acyclic(g)
            assert not g.weights[g.outcome_index].any()

    def test_seeded_determinism(self):
        a = random_er(7, 2.5, seed=99)
        b = random_er(7, 2.5, seed=99)
        assert np.array_equal(a.weights, b.weights)


class TestRandomSf:
    def test_structure_over_seeds(self):
        m = 5
        for s in range(100):
            g = random_sf(50, m, seed=s)
            assert is_acyclic(g)
            assert not g.weights[g.outcome_index].any()
            indeg = np.count_nonzero(g.weights, axis=0)
            for k in range(1, 50):
                assert indeg[k] == min(k, m)

    def test_single_attachment_gives_a_tree(self):
        g = random_sf(3, 1, (1.0, 1.0), seed=4)
        assert np.count_nonzero(g.weights) == 2
        assert is_acyclic(g)

    def test_rejects_excessive_attachment(self):
        with pytest.raises(ValueError):
            random_sf(3, 3)

    def test_seeded_determinism(self):
        a = random_sf(12, 3, seed=5)
        b = random_sf(12, 3, seed=5)
        assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("generator,degree,key", [
    (random_er, float("nan"), "expected_degree"),
    (random_sf, 2.7, "attachment_degree"),
    (random_sf, True, "attachment_degree"),
])
def test_generators_reject_a_degree_they_cannot_draw(generator, degree, key):
    # unchecked, NaN drew the complete DAG and 2.7 drew degree 2
    with pytest.raises(ValueError, match=key):
        generator(6, degree)


class TestAcyclicity:
    def test_empty_graph(self):
        assert is_acyclic(WeightedDag(np.zeros((3, 3))))

    def test_two_cycle(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 1.0
        assert not is_acyclic(WeightedDag(w))

    def test_upper_triangular(self):
        rng = np.random.default_rng(0)
        w = np.triu(rng.uniform(0.5, 2.0, (6, 6)), 1)
        assert is_acyclic(WeightedDag(w))

    def test_matches_trace_power_score(self, rng):
        # the optimizer's smooth score and the combinatorial check agree
        for k in range(1000):
            g = random_dag(rng, dim=int(rng.integers(3, 8)), density=0.4)
            if k % 2:
                g = inject_back_edge(g, rng, weight=float(rng.uniform(0.5, 1.5)))
            value = acyclicity_value(g, 1.0)
            if is_acyclic(g):
                assert value <= 1e-8
            else:
                assert value > 1e-8


class TestTopologicalOrder:
    def test_ties_go_to_the_smallest_ready_index(self):
        # 2 and 3 start ready; 1, freed by 2, comes before the waiting 3
        w = np.zeros((4, 4))
        w[3, 0] = w[2, 1] = 1.0
        assert topological_order(w) == [2, 1, 3, 0]
        assert topological_order(np.zeros((3, 3))) == [0, 1, 2]

    def test_is_the_lexicographically_smallest_valid_order(self, rng):
        for k in range(200):
            dim = int(rng.integers(1, 7))
            g = random_dag(rng, dim, density=float(rng.uniform(0.1, 0.9)))
            edges = list(zip(*np.nonzero(g.weights)))
            valid = [list(p) for p in itertools.permutations(range(dim))
                     if all(p.index(i) < p.index(j) for i, j in edges)]
            assert topological_order(g.weights) == min(valid)

    def test_cycle_gives_none(self):
        w = np.zeros((4, 4))
        w[0, 1] = 1.0  # acyclic part
        w[1, 2] = w[2, 3] = w[3, 1] = 0.5
        assert topological_order(w) is None
        assert topological_order(np.eye(2)) is None


class TestPaths:
    def test_chain_has_unique_path(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = 1.0
        assert enumerate_paths_to_outcome(WeightedDag(w), 0) == [(0, 1, 2)]

    def test_two_route_example(self):
        paths = enumerate_paths_to_outcome(table1_graph(), 0)
        assert sorted(paths) == [(0, 1, 2), (0, 2)]

    def test_no_descendants(self):
        w = np.zeros((3, 3))
        w[0, 1] = 1.0  # node 2 is the outcome, unreachable
        assert enumerate_paths_to_outcome(WeightedDag(w), 0) == []

    def test_rejects_cycles(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ValueError):
            enumerate_paths_to_outcome(WeightedDag(w), 0)

    @pytest.mark.parametrize("call, name", [
        (enumerate_paths_to_outcome, "source"), (ancestors_of, "node")])
    @pytest.mark.parametrize("index", [7, -1, 0.0, True])
    def test_node_outside_the_graph_is_an_error(self, call, name, index):
        # 7 raised numpy's IndexError
        with pytest.raises(ValueError,
                           match=rf"^{name} must be an integer in range\(3\)"):
            call(table1_graph(), index)

    def test_outcome_and_numpy_indices_are_nodes(self):
        g = table1_graph()
        assert enumerate_paths_to_outcome(g, 2) == []
        assert ancestors_of(g, np.int64(2)) == {0, 1}
        assert enumerate_paths_to_outcome(g, np.int64(1)) == [(1, 2)]


class TestPrune:
    def test_zero_threshold_keeps_everything(self, rng):
        g = random_dag(rng, 6)
        assert np.array_equal(prune(g, 0.0).weights, g.weights)

    def test_everything_below_threshold_clears(self):
        w = np.full((3, 3), 0.1)
        np.fill_diagonal(w, 0.0)
        assert not prune(WeightedDag(w), 0.3).weights.any()

    def test_strict_boundary(self):
        w = np.zeros((3, 3))
        w[0, 1] = 0.29
        w[1, 2] = 0.31
        pruned = prune(WeightedDag(w), 0.3)
        assert pruned.weights[0, 1] == 0.0
        assert pruned.weights[1, 2] == 0.31

    @pytest.mark.parametrize("threshold", ["0.3", None, float("inf")])
    def test_threshold_must_be_a_finite_number(self, threshold):
        # "0.3" raised TypeError from the comparison
        with pytest.raises(ValueError, match="^threshold must be a finite "
                                             "nonnegative number"):
            prune(table1_graph(), threshold)

    def test_idempotent(self, rng):
        for _ in range(50):
            g = random_dag(rng, 6, weight_low=0.05, weight_high=1.0)
            once = prune(g, 0.3)
            twice = prune(once, 0.3)
            assert np.array_equal(once.weights, twice.weights)


def edge_graph(dim, edges):
    w = np.zeros((dim, dim))
    for i, j in edges:
        w[i, j] = 1.0
    return WeightedDag(w)


def edge_list(g):
    return [(int(i), int(j)) for i, j in np.argwhere(g.weights != 0) if i != j]


def set_metrics(est, tru):
    """FDR, TPR and SHD of two off-diagonal edge sets, counted pair by pair."""
    reversed_ = {(i, j) for i, j in est - tru if (j, i) in tru}
    false_pos = est - tru - reversed_
    missing = {(i, j) for i, j in tru - est if (j, i) not in est}
    tpr = len(est & tru) / len(tru) if tru else float(not est)
    return ((len(reversed_) + len(false_pos)) / max(1, len(est)), tpr,
            len(false_pos) + len(missing) + len(reversed_))


@st.composite
def graph_pairs(draw):
    # any two weighted graphs on the same nodes: cycles, 2-cycles and
    # diagonal entries included
    dim = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))
    cells = st.lists(entry, min_size=dim * dim, max_size=dim * dim)
    return tuple(WeightedDag(np.array(draw(cells)).reshape(dim, dim))
                 for _ in range(2))


class TestMetrics:
    def test_exact_match(self, rng):
        for _ in range(20):
            g = random_dag(rng, 6)
            m = graph_metrics(g, g)
            assert (m.fdr, m.tpr, m.shd) == (0.0, 1.0, 0)

    def test_empty_against_k_edges(self):
        empty = edge_graph(4, [])
        truth = edge_graph(4, [(0, 1), (1, 2), (2, 3)])
        m = graph_metrics(empty, truth)
        assert (m.fdr, m.tpr, m.shd) == (0.0, 0.0, 3)

    def test_single_reversal(self):
        m = graph_metrics(edge_graph(2, [(1, 0)]), edge_graph(2, [(0, 1)]))
        assert (m.fdr, m.tpr, m.shd) == (1.0, 0.0, 1)

    def test_shd_is_symmetric(self, rng):
        for _ in range(100):
            a = random_dag(rng, 5, density=0.5)
            b = random_dag(rng, 5, density=0.5)
            assert graph_metrics(a, b).shd == graph_metrics(b, a).shd

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="node count mismatch"):
            graph_metrics(edge_graph(3, []), edge_graph(4, []))

    def test_label_mismatch(self):
        # a -> b against a truth that orders its nodes b, a and holds b -> a:
        # by index the two agree, by label the edge is reversed
        estimated = WeightedDag(edge_graph(3, [(0, 1)]).weights,
                                ("a", "b", "y"))
        truth = WeightedDag(estimated.weights, ("b", "a", "y"))
        with pytest.raises(ValueError, match="^label mismatch: "
                           r"\['a', 'b', 'y'\] vs \['b', 'a', 'y'\]$"):
            graph_metrics(estimated, truth)

    def test_diagonal_entries_are_not_edges(self):
        loops = WeightedDag(np.eye(3))
        m = graph_metrics(loops, edge_graph(3, []))
        assert (m.fdr, m.tpr, m.shd) == (0.0, 1.0, 0)

    @settings(max_examples=200, deadline=None)
    @given(graph_pairs())
    def test_invariants(self, pair):
        a, b = pair
        m = graph_metrics(a, b)
        assert 0.0 <= m.fdr <= 1.0
        assert 0.0 <= m.tpr <= 1.0
        assert m.shd >= 0
        assert type(m.shd) is int
        same = graph_metrics(a, a)
        assert (same.fdr, same.tpr, same.shd) == (0.0, 1.0, 0)

    @settings(max_examples=300, deadline=None)
    @given(graph_pairs())
    def test_counts_edges_pair_by_pair(self, pair):
        a, b = pair
        m = graph_metrics(a, b)
        expected = set_metrics(set(edge_list(a)), set(edge_list(b)))
        assert (m.fdr, m.tpr, m.shd) == expected

    @pytest.mark.parametrize("threshold", [-1.0, -1e-12, float("nan")])
    def test_rejects_negative_thresholds(self, threshold):
        empty = WeightedDag(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="threshold must be a finite nonnegative number"):
            prune(empty, threshold)


class TestWeightedDag:
    @pytest.mark.parametrize("weights, labels, message", [
        (np.zeros((2, 3)), (), "weights must be square"),
        (np.zeros(3), (), "weights must be square"),
        (np.array([[0.0, np.inf], [0.0, 0.0]]), (), "weights must be finite"),
        (np.zeros((2, 2)), ("a",), "expected 2 labels"),
        (np.zeros((3, 3)), ("a", "y", "a"), r"duplicate labels \['a'\]$"),
    ], ids=["non-square", "vector", "infinite", "labels", "repeated-labels"])
    def test_malformed_input_is_an_error(self, weights, labels, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            WeightedDag(weights, labels)


# one matrix per dtype that is not a real number here; numpy converts each
# to float (a complex one with only a ComplexWarning)
NON_REAL_MATRICES = {
    "complex": np.array([[0.0, 0.5 + 1j], [0.0, 0.0]]),
    "bool": np.array([[False, True], [False, False]]),
    "string": [[0, "1"], [0, 0]],
    "object": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=object),
}

_LOSS_DATA = Dataset(np.random.default_rng(0).normal(size=(10, 2)), ("a", "y"), 1)
MATRIX_ENTRY_POINTS = {
    "WeightedDag": ("weights", WeightedDag),
    "Dataset": ("values", lambda m: Dataset(m, ("a", "y"), 1)),
    "least_squares_loss": (
        "B", lambda m: least_squares_loss(m, _LOSS_DATA, np.ones(2, bool))),
    "relevance_constraint": (
        "B", lambda m: relevance_constraint(m, np.ones(2, bool), "te", 1.0)),
}


MASK_ENTRY_POINTS = {
    "least_squares_loss": (
        "mask", lambda m: least_squares_loss(np.zeros((2, 2)), _LOSS_DATA, m)),
    "relevance_constraint": (
        "mask", lambda m: relevance_constraint(np.zeros((2, 2)), m, "te", 1.0)),
    "effect_rows": ("selected", lambda m: effect_rows(_zero_graph(), m)),
}


class TestArrayRule:
    @pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
    def test_ragged_matrices_are_an_error(self, entry):
        # numpy's "setting an array element with a sequence" named nothing
        name, call = MATRIX_ENTRY_POINTS[entry]
        with pytest.raises(ValueError,
                           match=f"^{name} must be a rectangular array"):
            call([[0, 1], [0]])

    @pytest.mark.parametrize("entry", MASK_ENTRY_POINTS)
    def test_ragged_masks_are_an_error(self, entry):
        name, call = MASK_ENTRY_POINTS[entry]
        with pytest.raises(ValueError,
                           match=f"^{name} must be a rectangular array"):
            call([True, [True]])

    @pytest.mark.parametrize("dtype", NON_REAL_MATRICES)
    @pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
    def test_non_real_matrices_are_an_error(self, entry, dtype):
        # each was converted to float: "1" read as 1.0, 0.5+1j as 0.5
        name, call = MATRIX_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must hold real numbers"):
            call(NON_REAL_MATRICES[dtype])

    @pytest.mark.parametrize("matrix", [[[0, 1], [0, 0]],
                                        np.array([[0, 1], [0, 0]], np.uint8)],
                             ids=["int-list", "uint8"])
    def test_integer_matrices_are_read_as_floats(self, matrix):
        for array in (WeightedDag(matrix).weights,
                      Dataset(matrix, ("a", "y"), 1).values):
            assert array.dtype == float
            assert np.array_equal(array, [[0.0, 1.0], [0.0, 0.0]])


_SCM = random_binary_scm(np.random.default_rng(0), dim=3)


def _fitted(data):
    return WeightedDag(np.zeros((data.dim, data.dim)))


# each entry point of the choice rule: the argument it names, a valid
# choice, and a call that passes it a value
CHOICE_ENTRY_POINTS = {
    "ScenarioSpec-id": ("id", "custom", ScenarioSpec),
    "ScenarioSpec-graph_model": (
        "graph_model", "er", lambda v: ScenarioSpec("custom", graph_model=v)),
    "ScenarioSpec-methods": (
        "methods", "baseline", lambda v: ScenarioSpec("custom", methods=(v,))),
    "spec_from_dict": ("noise kind", "gaussian", lambda v: spec_from_dict(
        {"id": "s1", "noise": {"kind": v}})),
    "FitConfig": ("effect_kind", "te", lambda v: FitConfig(effect_kind=v)),
    "relevance_constraint": ("effect_kind", "de", lambda v: relevance_constraint(
        np.zeros((2, 2)), np.ones(2, bool), v, 1.0)),
    "delta_star": ("effect_kind", "te",
                   lambda v: delta_star(_LOSS_DATA, _fitted, v)),
    "exact_poc": ("kind", "marginal", lambda v: exact_poc(_SCM, 0, 1, 1, v)),
    "poc_lower_bound": ("kind", "marginal", lambda v: poc_lower_bound(
        ScmDistribution(_SCM), 0, 1, 1, v)),
    "check_sem": ("link", "linear", lambda v: check_sem(BernoulliNoise(), v, 3)),
    "SemSpec": ("link", "rounded-log", lambda v: SemSpec(_zero_graph(), link=v)),
}
# each bad value, from the entry point's valid choice
BAD_CHOICES = {
    "misspelled": lambda choice: choice[:-1],
    "0-d-array": np.array,
    "2-element-array": lambda choice: np.array([choice, choice]),
    "None": lambda choice: None,
}


def _two_cycle():
    # z0 <-> z1 -> y
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = 1.0
    return WeightedDag(w)


ACYCLIC_ENTRY_POINTS = {
    "total_effects": ("g", total_effects),
    "delta_star": ("g", lambda g: delta_star(_LOSS_DATA, lambda _: g)),
    "enumerate_paths_to_outcome": (
        "g", lambda g: enumerate_paths_to_outcome(g, 0)),
    "DiscreteScm": ("graph", lambda g: DiscreteScm(g, (), (), (), ())),
    "sample_linear": ("spec.graph", lambda g: sample_linear(SemSpec(g), 10)),
    "sample_nonlinear": ("spec.graph", lambda g: sample_nonlinear(
        SemSpec(g, link="rounded-log"), 10)),
}


@pytest.mark.parametrize("entry, bad", [
    *((entry, bad) for entry in CHOICE_ENTRY_POINTS for bad in BAD_CHOICES),
    *((entry, "2-cycle") for entry in ACYCLIC_ENTRY_POINTS),
], ids=lambda part: part)
def test_a_bad_choice_or_a_cyclic_graph_names_its_argument(entry, bad):
    # a 0-d array of a choice was accepted at effect_kind, link and
    # graph_model, and a 2-element one met numpy's "truth value ... is
    # ambiguous"; each site worded its own message
    if bad == "2-cycle":
        name, call = ACYCLIC_ENTRY_POINTS[entry]
        value, message = _two_cycle(), "must be acyclic"
    else:
        name, choice, call = CHOICE_ENTRY_POINTS[entry]
        call(choice)  # the valid choice passes the rule
        value, message = BAD_CHOICES[bad](choice), "must be one of"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {message}"):
        call(value)


def test_each_rule_returns_its_normal_form():
    # what a config stores must write to JSON: a numpy scalar does not
    assert type(check_choice("kind", np.str_("te"), ("te",))) is str
    assert type(check_count("n", np.int64(3))) is int
    assert type(check_nonnegative("t", np.float32(0.5))) is float
    assert check_acyclic("g", _two_cycle().weights[1:, 1:]) == [0, 1]


class TestUnchecked:
    # graph.unchecked skips __post_init__; given the values the checks would
    # store, it builds an instance equal to the checked construction's
    @pytest.mark.parametrize("cls, fields", [
        (WeightedDag, {"weights": np.array([[0.0, 1.5], [0.0, 0.0]]),
                       "labels": ("a", "b"), "outcome_index": 1}),
        (Cpdag, {"dim": 3, "directed": frozenset({(0, 2)}),
                 "undirected": frozenset({(1, 2)}),
                 "labels": ("z0", "z1", "y")}),
    ], ids=["WeightedDag", "Cpdag"])
    def test_equals_the_checked_construction(self, cls, fields):
        built, checked = unchecked(cls, **fields), cls(**fields)
        assert type(built) is cls
        assert vars(built).keys() == vars(checked).keys()
        for name in vars(checked):
            ours, theirs = getattr(built, name), getattr(checked, name)
            assert type(ours) is type(theirs)
            if isinstance(theirs, np.ndarray):
                assert ours.tobytes() == theirs.tobytes()
                assert ours.dtype == theirs.dtype
            else:
                assert ours == theirs
        with pytest.raises(FrozenInstanceError):
            built.labels = ()


def _zero_graph():
    return WeightedDag(np.zeros((3, 3)))


def _zero_dataset():
    return Dataset(np.zeros((4, 3)), ("a", "b", "y"), 2)


def _zero_fit():
    return FitResult(_zero_graph(), _zero_graph(), np.zeros(2, dtype=bool),
                     (), True, FitConfig())


@pytest.mark.parametrize("build", [_zero_graph, _zero_dataset, _zero_fit],
                         ids=["WeightedDag", "Dataset", "FitResult"])
def test_array_dataclasses_compare_and_hash_by_identity(build):
    # value == on array fields raised "truth value ... is ambiguous", and
    # hash() raised "unhashable type"
    a, b = build(), build()
    assert a != b
    assert a == a and b == b
    assert len({a, b}) == 2


class TestOutcomeIndex:
    @pytest.mark.parametrize("index", [3, 7, -4])
    def test_out_of_range_index_is_an_error(self, index):
        with pytest.raises(ValueError, match="outcome_index"):
            WeightedDag(np.zeros((3, 3)), outcome_index=index)

    @pytest.mark.parametrize("index,expected", [(-1, 2), (-3, 0), (0, 0), (2, 2)])
    def test_in_range_index_is_normalized(self, index, expected):
        assert WeightedDag(np.zeros((3, 3)), outcome_index=index).outcome_index \
            == expected

    @pytest.mark.parametrize("index", [1.5, 2.0, True, "1", None])
    def test_non_integer_index_is_an_error(self, index):
        with pytest.raises(ValueError, match="outcome_index must be an integer"):
            WeightedDag(np.zeros((3, 3)), outcome_index=index)
        with pytest.raises(ValueError, match="outcome_index must be an integer"):
            relevance_constraint(np.zeros((3, 3)), np.ones(3, dtype=bool), "te",
                                 0.0, outcome_index=index)

    def test_numpy_integer_index_is_accepted(self):
        assert WeightedDag(np.zeros((3, 3)), outcome_index=np.int64(1)) \
            .outcome_index == 1
