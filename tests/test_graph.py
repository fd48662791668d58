import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscausal.graph import (WeightedDag, enumerate_paths_to_outcome,
                            graph_metrics, is_acyclic, prune, random_er,
                            random_sf, topological_order)
from nscausal.optimizer import acyclicity_value, relevance_constraint

from conftest import inject_back_edge, random_dag


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
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            prune(empty, threshold)


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
