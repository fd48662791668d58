import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nscausal import mec
from nscausal.graph import WeightedDag
from nscausal.mec import Cpdag, dag_to_cpdag, enumerate_mec, mec_average


def dag_from_edges(edges, dim):
    w = np.zeros((dim, dim))
    for i, j in edges:
        w[i, j] = 1.0
    return WeightedDag(w, outcome_index=dim - 1)


def _acyclic(edges, dim):
    """Whether the edge set has no directed cycle: remove sources until no
    node is left, or none of those left is a source."""
    parents = {v: set() for v in range(dim)}
    for i, j in edges:
        parents[j].add(i)
    left = set(range(dim))
    while left:
        sources = {v for v in left if not parents[v] & left}
        if not sources:
            return False
        left -= sources
    return True


def _vstructs(edges, skeleton):
    adjacent = {frozenset(e) for e in skeleton}
    parents = {}
    for a, b in edges:
        parents.setdefault(b, set()).add(a)
    out = set()
    for z, pa in parents.items():
        for x, y in itertools.combinations(sorted(pa), 2):
            if frozenset((x, y)) not in adjacent:
                out.add((x, z, y))
    return frozenset(out)


def all_dags(dim):
    """Every labelled DAG on ``dim`` nodes, as edge frozensets."""
    pairs = list(itertools.combinations(range(dim), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (i, j), s in zip(pairs, states):
            if s == 1:
                edges.append((i, j))
            elif s == 2:
                edges.append((j, i))
        if _acyclic(edges, dim):
            yield frozenset(edges)


def consistent_extensions(c):
    """Every acyclic orientation of ``c``'s undirected edges that keeps its
    directed part and its v-structures, in ascending orientation code (bit
    ``k`` set when the ``k``-th sorted undirected edge points low to high)."""
    skeleton = c.skeleton()
    reference = _vstructs(c.directed, skeleton)
    pairs = sorted(c.undirected)
    found = []
    for code in range(2 ** len(pairs)):
        edges = set(c.directed) | {(i, j) if code >> k & 1 else (j, i)
                                   for k, (i, j) in enumerate(pairs)}
        if _acyclic(edges, c.dim) and _vstructs(edges, skeleton) == reference:
            found.append(edges)
    return found


def has_extension(dim, directed, undirected):
    """Whether ``consistent_extensions`` of this partially directed graph is
    non-empty, in polynomial time (Dor & Tarsi 1992): remove, while one
    exists, a sink whose undirected neighbours are adjacent to all its other
    neighbours, orienting its undirected edges into it."""
    directed = set(directed)
    undirected = {frozenset(e) for e in undirected}
    nodes = set(range(dim))

    def adjacent(a, b):
        return ((a, b) in directed or (b, a) in directed
                or frozenset((a, b)) in undirected)

    while nodes:
        for x in sorted(nodes):
            loose = {y for e in undirected if x in e for y in e - {x}}
            near = loose | {a for a, b in directed if b == x}
            if all(a != x for a, _ in directed) and all(
                    adjacent(y, z) for y in loose for z in near if z != y):
                break
        else:
            return False
        nodes.remove(x)
        directed = {e for e in directed if x not in e}
        undirected = {e for e in undirected if x not in e}
    return True


def rescan_closure(dim, skeleton, directed):
    """The orientation rules applied by full rescans: orient the smallest
    undirected edge that some rule compels, low to high first, and start
    over until no rule fires."""
    adjacent = {frozenset(e) for e in skeleton}
    directed = set(directed)
    undirected = {tuple(sorted(e)) for e in skeleton} - \
        {tuple(sorted(e)) for e in directed}

    def und(x, y):
        return tuple(sorted((x, y))) in undirected

    def compelled(a, b):
        nodes = range(dim)
        return (
            any((c, a) in directed and frozenset((c, b)) not in adjacent
                for c in nodes if c != b)
            or any((a, c) in directed and (c, b) in directed for c in nodes)
            or any(und(a, c) and und(a, d) and (c, b) in directed
                   and (d, b) in directed
                   and frozenset((c, d)) not in adjacent
                   for c, d in itertools.combinations(nodes, 2))
            or any(und(a, d) and (d, c) in directed and (c, b) in directed
                   and frozenset((b, d)) not in adjacent
                   for c in nodes for d in nodes if d != b))

    while True:
        step = next(((x, y) for a, b in sorted(undirected)
                     for x, y in ((a, b), (b, a)) if compelled(x, y)), None)
        if step is None:
            return directed, undirected
        undirected.discard(tuple(sorted(step)))
        directed.add(step)


def patterns_of(members):
    return [set(map(tuple, np.argwhere(m.weights != 0).tolist()))
            for m in members]


def parent_masks(dim, edges):
    """Bit ``i`` of entry ``j`` set for every edge ``(i, j)``."""
    masks = [0] * dim
    for i, j in edges:
        masks[j] |= 1 << i
    return masks


def brute_class_sizes(dim):
    """MEC size of every DAG: two DAGs are Markov equivalent exactly when
    they share a skeleton and v-structures (Verma & Pearl 1990)."""
    classes = {}
    for dag in all_dags(dim):
        skeleton = frozenset(frozenset(e) for e in dag)
        classes.setdefault((skeleton, _vstructs(dag, dag)), []).append(dag)
    return {dag: len(members) for members in classes.values()
            for dag in members}


class TestDagToCpdag:
    def test_collider_is_fully_compelled(self):
        g = dag_from_edges([(0, 2), (1, 2)], 3)
        c = dag_to_cpdag(g)
        assert c.directed == {(0, 2), (1, 2)}
        assert not c.undirected

    def test_chain_is_fully_undirected(self):
        g = dag_from_edges([(0, 1), (1, 2)], 3)
        c = dag_to_cpdag(g)
        assert not c.directed
        assert c.undirected == {(0, 1), (1, 2)}
        # oracle: the three acyclic, collider-free orientations
        assert len(enumerate_mec(c)) == 3

    def test_single_edge_is_undirected(self):
        c = dag_to_cpdag(dag_from_edges([(0, 1)], 2))
        assert not c.directed
        assert c.undirected == {(0, 1)}

    def test_rejects_cycles(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ValueError):
            dag_to_cpdag(WeightedDag(w))

    def test_sink_knowledge_requires_a_sink(self):
        w = np.zeros((2, 2))
        w[1, 0] = 1.0  # outcome (index 1) has a child
        with pytest.raises(ValueError):
            dag_to_cpdag(WeightedDag(w), outcome_sink=True)


class TestEnumerateMec:
    def test_collider_class_is_a_singleton(self):
        c = dag_to_cpdag(dag_from_edges([(0, 2), (1, 2)], 3))
        members = enumerate_mec(c)
        assert len(members) == 1

    def test_empty_graph_is_its_own_class(self):
        c = dag_to_cpdag(dag_from_edges([], 3))
        assert len(enumerate_mec(c)) == 1

    def test_input_graph_is_among_the_members(self, rng):
        from conftest import random_dag

        for _ in range(25):
            g = random_dag(rng, 5, density=0.5)
            pattern = frozenset(map(tuple, np.argwhere(g.weights != 0)))
            members = enumerate_mec(dag_to_cpdag(g))
            patterns = [frozenset(map(tuple, np.argwhere(m.weights != 0)))
                        for m in members]
            assert pattern in patterns

    def test_round_trip_reproduces_the_cpdag(self, rng):
        from conftest import random_dag

        for _ in range(15):
            g = random_dag(rng, 5, density=0.5)
            c = dag_to_cpdag(g)
            for member in enumerate_mec(c):
                again = dag_to_cpdag(member)
                assert again.directed == c.directed
                assert again.undirected == c.undirected

    def test_counts_match_brute_force_on_four_nodes(self):
        sizes = brute_class_sizes(4)
        for dag, size in sizes.items():
            g = dag_from_edges(sorted(dag), 4)
            assert len(enumerate_mec(dag_to_cpdag(g))) == size

    def test_member_cap(self, monkeypatch):
        c = dag_to_cpdag(dag_from_edges([(0, 1), (1, 2)], 3))
        monkeypatch.setattr(mec, "MEMBER_CAP", 2)
        with pytest.raises(ValueError):
            enumerate_mec(c)

    def test_complete_graph_has_one_member_per_ordering(self):
        edges = list(itertools.combinations(range(6), 2))
        assert len(enumerate_mec(dag_to_cpdag(dag_from_edges(edges, 6)))) \
            == 720

    def test_random_tree_has_one_member_per_root(self):
        # random recursive tree, edges away from the root, nodes relabelled:
        # no v-structure, so 20 undirected edges and 21 members
        rng = np.random.default_rng(7)
        p = 21
        w = np.zeros((p, p))
        for child in range(1, p):
            w[rng.integers(0, child), child] = 1.0
        perm = rng.permutation(p)
        c = dag_to_cpdag(WeightedDag(w[np.ix_(perm, perm)]))
        assert len(c.undirected) == 20
        assert len(enumerate_mec(c)) == 21

    def test_cap_stops_the_complete_graph_on_seven_nodes(self, monkeypatch):
        edges = list(itertools.combinations(range(7), 2))
        monkeypatch.setattr(mec, "MEMBER_CAP", 1000)
        with pytest.raises(ValueError, match="cap of 1000"):
            enumerate_mec(dag_to_cpdag(dag_from_edges(edges, 7)))

    def test_cap_stops_two_complete_graphs_on_five_nodes(self):
        # two disjoint complete 5-node DAGs: 20 undirected edges and
        # 120 * 120 = 14,400 members, past the cap of 10,000
        edges = list(itertools.combinations(range(5), 2))
        edges += [(i + 5, j + 5) for i, j in edges]
        c = dag_to_cpdag(dag_from_edges(edges, 10))
        assert len(c.undirected) == 20
        with pytest.raises(ValueError, match="cap of 10000 members$"):
            enumerate_mec(c)

    def test_too_many_undirected_edges_fail_before_any_work(self,
                                                            monkeypatch):
        def no_work(*args):
            raise AssertionError("the search started")

        edges = list(itertools.combinations(range(8), 2))[:25]
        c = Cpdag(8, frozenset(), frozenset(edges))
        monkeypatch.setattr(mec, "_Closure", no_work)
        with pytest.raises(ValueError, match="^25 undirected edges is beyond"):
            enumerate_mec(c)

    @pytest.mark.parametrize("outcome_index", [99, 1.5, True, -4])
    def test_outcome_off_the_graph_fails_before_any_work(self, outcome_index,
                                                         monkeypatch):
        def no_work(*args):
            raise AssertionError("the search started")

        c = dag_to_cpdag(dag_from_edges([(0, 1), (1, 2)], 3))
        monkeypatch.setattr(mec, "_Closure", no_work)
        with pytest.raises(ValueError, match=r"^outcome_index must be an "
                                             r"integer in range\(3\)"):
            enumerate_mec(c, outcome_index=outcome_index)

    def test_members_come_in_ascending_orientation_code(self):
        c = dag_to_cpdag(dag_from_edges([(0, 1), (1, 2)], 3))
        patterns = [sorted(map(tuple, np.argwhere(m.weights != 0).tolist()))
                    for m in enumerate_mec(c)]
        # 0<-1<-2, 0<-1->2, 0->1->2
        assert patterns == [[(1, 0), (2, 1)], [(1, 0), (1, 2)],
                            [(0, 1), (1, 2)]]

    def test_hand_built_graph_keeps_only_valid_orientations(self):
        # not closed under the rules, so closing the root does the
        # filtering: rule 1 removes 1 -> 2 (the collider 0 -> 2 <- 1), and
        # rule 2 removes 2 -> 0 (the cycle 0 -> 1 -> 2 -> 0)
        collider = Cpdag(3, frozenset({(0, 2)}), frozenset({(1, 2)}))
        members = enumerate_mec(collider)
        assert [set(map(tuple, np.argwhere(m.weights != 0).tolist()))
                for m in members] == [{(0, 2), (2, 1)}]
        cycle = Cpdag(3, frozenset({(0, 1), (1, 2)}), frozenset({(0, 2)}))
        members = enumerate_mec(cycle)
        assert [set(map(tuple, np.argwhere(m.weights != 0).tolist()))
                for m in members] == [{(0, 1), (1, 2), (0, 2)}]


@st.composite
def dags(draw, max_dim=7):
    """A DAG on at most ``max_dim`` nodes, outcome last, and whether the
    outcome is a sink (then its row is cleared, so the knowledge holds)."""
    dim = draw(st.integers(2, max_dim))
    order = draw(st.permutations(range(dim)))
    pairs = list(itertools.combinations(range(dim), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs),
                            max_size=len(pairs)))
    w = np.zeros((dim, dim))
    for (a, b), keep in zip(pairs, present):
        if keep:
            w[order[a], order[b]] = 1.0
    sink = draw(st.booleans())
    if sink:
        w[dim - 1, :] = 0.0
    return WeightedDag(w), sink


@st.composite
def partial_dags(draw):
    """A hand-built ``Cpdag``: a DAG's skeleton with a random subset of its
    edges oriented as in the DAG and the rest undirected.  It need not be
    closed under the orientation rules, nor have any member."""
    g, _ = draw(dags())
    edges = sorted(map(tuple, np.argwhere(g.weights != 0).tolist()))
    oriented = draw(st.lists(st.booleans(), min_size=len(edges),
                             max_size=len(edges)))
    return Cpdag(g.dim, frozenset(e for e, o in zip(edges, oriented) if o),
                 frozenset(e for e, o in zip(edges, oriented) if not o))


class TestMecProperties:
    @settings(max_examples=40, deadline=None)
    @given(dags())
    def test_members_are_the_consistent_extensions_in_code_order(self, case):
        g, sink = case
        c = dag_to_cpdag(g, outcome_sink=sink)
        assume(len(c.undirected) <= 12)
        members = enumerate_mec(c, outcome_index=g.outcome_index)
        assert patterns_of(members) == consistent_extensions(c)

    @settings(max_examples=40, deadline=None)
    @given(dags())
    def test_directed_edges_are_the_ones_all_members_share(self, case):
        # the closure is complete: an edge stays undirected only when
        # members disagree on it
        g, sink = case
        c = dag_to_cpdag(g, outcome_sink=sink)
        members = patterns_of(enumerate_mec(c))
        assert c.directed == set.intersection(*members)

    # all undirected, with the chordless 4-cycle 0 - 1 - 2 - 6 - 0: no
    # consistent extension, so the closure's order can change its branches
    NO_EXTENSION = Cpdag(7, frozenset(), frozenset(
        {(0, 1), (1, 2), (2, 6), (0, 6), (0, 5)}))

    @settings(max_examples=60, deadline=None)
    @given(partial_dags())
    @example(NO_EXTENSION)
    def test_branch_closure_equals_a_full_rescan(self, c):
        # each search branch is a copy of a closed graph plus one edge; the
        # closure orients in no fixed order, which cannot change the closed
        # graph when it has a consistent extension.  Without one the class
        # has no member whatever the closure, as the next test shows
        skeleton = c.skeleton()
        directed, rest = rescan_closure(c.dim, skeleton, c.directed)
        adjacency = parent_masks(c.dim, [e for i, j in skeleton
                                         for e in ((i, j), (j, i))])
        closed = mec._Closure(adjacency, parent_masks(c.dim, directed)).close()
        assert closed.directed() == directed
        if not has_extension(c.dim, directed, rest):
            return
        for i, j in sorted(closed.undirected()):
            for edge in ((i, j), (j, i)):
                branch = closed.copy()
                branch.orient(*edge)
                branch.close()
                expected, rest = rescan_closure(c.dim, skeleton,
                                                directed | {edge})
                assert branch.directed() == expected
                assert branch.undirected() == rest

    @settings(max_examples=60, deadline=None)
    @given(partial_dags())
    @example(NO_EXTENSION)
    def test_hand_built_members_are_the_consistent_extensions(self, c):
        assume(len(c.undirected) <= 12)
        extensions = consistent_extensions(c)
        assert patterns_of(enumerate_mec(c)) == extensions
        assert has_extension(c.dim, c.directed, c.undirected) == bool(
            extensions)

    @settings(max_examples=40, deadline=None)
    @given(dags())
    def test_members_are_distinct_map_back_and_include_the_input(self, case):
        g, sink = case
        c = dag_to_cpdag(g, outcome_sink=sink)
        members = enumerate_mec(c, outcome_index=g.outcome_index)
        patterns = [m.weights.tobytes() for m in members]
        assert len(set(patterns)) == len(patterns)
        assert (g.weights != 0).astype(float).tobytes() in patterns
        for m in members:
            assert dag_to_cpdag(m, outcome_sink=sink) == c

    @settings(max_examples=40, deadline=None)
    @given(dags())
    def test_average_splits_each_skeleton_pair(self, case):
        g, sink = case
        c = dag_to_cpdag(g, outcome_sink=sink)
        avg = mec_average(enumerate_mec(c))
        assert ((avg >= 0.0) & (avg <= 1.0)).all()
        on_skeleton = np.zeros((g.dim, g.dim), bool)
        for i, j in c.skeleton():
            on_skeleton[i, j] = on_skeleton[j, i] = True
        both = avg + avg.T
        assert np.allclose(both[on_skeleton], 1.0, rtol=0, atol=1e-12)
        assert (both[~on_skeleton] == 0.0).all()


class TestClosure:
    def test_rule_four_fires_through_a_newly_oriented_edge(self):
        # closed: 0 - 1, 1 - 2, 0 - 2, 0 - 3, 2 -> 3.  Orienting 1 -> 2
        # compels 0 -> 3 by rule 4 (0 - 1, 1 -> 2 -> 3, 1 and 3
        # non-adjacent), though 0 - 3 touches neither 1 nor 2
        adjacency = [sum(1 << k for k in near)
                     for near in ({1, 2, 3}, {0, 2}, {0, 1, 3}, {0, 2})]
        closed = mec._Closure(adjacency, [0, 0, 0, 1 << 2]).close()
        assert closed.directed() == {(2, 3)}
        closed.orient(1, 2)
        assert closed.close().directed() == {(2, 3), (1, 2), (0, 3)}

    def test_trees_are_closed_by_rule_one_alone(self, monkeypatch):
        # a tree has no triangle and no other cycle, so rules 2-4 never fire
        # in one, and rule 1, decided both ways first, settles every edge
        # before they are tried
        def no_rules_2_to_4(*args):
            raise AssertionError("rules 2-4 tried on a tree")

        monkeypatch.setattr(mec._Closure, "_rules_2_to_4", no_rules_2_to_4)
        for undirected in range(12, 17):
            for seed in range(3):
                c = random_tree_cpdag(undirected, [undirected, seed])
                assert len(enumerate_mec(c)) == undirected + 1


class TestOutcomeSink:
    def test_members_keep_the_outcome_childless(self, rng):
        from conftest import random_dag

        for _ in range(20):
            g = random_dag(rng, 5, density=0.5)
            if np.any(g.weights[g.outcome_index] != 0):
                continue
            c = dag_to_cpdag(g, outcome_sink=True)
            for member in enumerate_mec(c, outcome_index=g.outcome_index):
                assert not member.weights[g.outcome_index].any()

    def test_chain_to_outcome_restricts_the_class(self):
        # skeleton z0 - z1 - y: three members unrestricted, two with y a sink
        g = dag_from_edges([(0, 1), (1, 2)], 3)
        assert len(enumerate_mec(dag_to_cpdag(g))) == 3
        restricted = dag_to_cpdag(g, outcome_sink=True)
        assert (1, 2) in restricted.directed
        assert len(enumerate_mec(restricted)) == 2

    def test_round_trip_with_knowledge(self):
        g = dag_from_edges([(0, 1), (1, 2)], 3)
        c = dag_to_cpdag(g, outcome_sink=True)
        for member in enumerate_mec(c):
            again = dag_to_cpdag(member, outcome_sink=True)
            assert again.directed == c.directed
            assert again.undirected == c.undirected


class TestMecAverage:
    def test_singleton_average_is_the_member(self):
        g = dag_from_edges([(0, 2), (1, 2)], 3)
        members = enumerate_mec(dag_to_cpdag(g))
        assert np.array_equal(mec_average(members), members[0].weights)

    def test_two_node_class_splits_evenly(self):
        members = enumerate_mec(dag_to_cpdag(dag_from_edges([(0, 1)], 2)))
        avg = mec_average(members)
        assert avg[0, 1] == pytest.approx(0.5)
        assert avg[1, 0] == pytest.approx(0.5)

    def test_three_member_chain_class(self):
        members = enumerate_mec(dag_to_cpdag(dag_from_edges([(0, 1), (1, 2)], 3)))
        avg = mec_average(members)
        # members: 0->1->2, 0<-1<-2, 0<-1->2
        expected = np.array([
            [0.0, 1 / 3, 0.0],
            [2 / 3, 0.0, 2 / 3],
            [0.0, 1 / 3, 0.0],
        ])
        assert np.allclose(avg, expected)
        assert ((avg >= 0.0) & (avg <= 1.0)).all()

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            mec_average([])

    def test_rejects_dimension_mismatch(self):
        a = dag_from_edges([], 2)
        b = dag_from_edges([], 3)
        with pytest.raises(ValueError):
            mec_average([a, b])

    def test_rejects_label_mismatch(self):
        # only dim was checked, so the average came back without complaint
        a = WeightedDag(np.zeros((2, 2)), labels=("a", "b"))
        b = WeightedDag(np.zeros((2, 2)), labels=("c", "d"))
        with pytest.raises(ValueError, match="^members disagree on labels"):
            mec_average([a, b])


class TestCpdagValidation:
    def test_directed_and_undirected_must_be_disjoint(self):
        with pytest.raises(ValueError):
            Cpdag(3, frozenset({(0, 1)}), frozenset({(0, 1)}))

    def test_directed_part_must_be_acyclic(self):
        with pytest.raises(ValueError):
            Cpdag(3, frozenset({(0, 1), (1, 0)}), frozenset())

    @pytest.mark.parametrize("dim", [2.5, True, -1])
    def test_dim_must_be_a_positive_integer(self, dim):
        # 2.5 and True raised TypeError, -1 said "expected -1 labels"
        with pytest.raises(ValueError, match="^dim must be at least 1 and an "
                                             f"integer, got {dim!r}$"):
            Cpdag(dim, frozenset(), frozenset())

    @pytest.mark.parametrize("dim, directed, undirected, labels, message", [
        (2, (), (), ("a",), "expected 2 labels"),
        (3, (), (), ("a", "y", "a"), r"duplicate labels \['a'\]$"),
        (2, ((1, 1),), (), (), "self-loops"),
        (2, (), ((0, 0),), (), "self-loops"),
        (2, ((0, 2),), (), (), r"edge endpoint must be an integer in range\(2\)"),
        (3, ((0.5, 1),), (), (), r"edge endpoint must be an integer in range\(3\)"),
        (3, ((True, 2),), (), (), r"edge endpoint must be an integer in range\(3\)"),
        (3, ((0, 1), (1, 2), (2, 0)), (), (), "directed subgraph .* acyclic"),
    ], ids=["labels", "repeated-labels", "directed-loop", "undirected-loop",
            "outside", "float", "bool", "cycle"])
    def test_malformed_input_is_an_error(self, dim, directed, undirected,
                                         labels, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            Cpdag(dim, frozenset(directed), frozenset(undirected), labels)

    @pytest.mark.parametrize("directed, undirected, name, entry", [
        ((), ((0, 1, 2),), "undirected", r"\(0, 1, 2\)"),
        ((5,), (), "directed", "5"),
        (((0, 1, 2),), (), "directed", r"\(0, 1, 2\)"),
        ((), ((1,),), "undirected", r"\(1,\)"),
    ], ids=["undirected-triple", "directed-int", "directed-triple",
            "undirected-single"])
    def test_edge_that_is_no_pair_is_an_error(self, directed, undirected,
                                              name, entry):
        # raised "too many values to unpack" or "cannot unpack non-iterable"
        with pytest.raises(ValueError, match=f"^each {name} edge must be a "
                                             rf"pair \(i, j\), got {entry}$"):
            Cpdag(3, frozenset(directed), frozenset(undirected))


class TestNumpyEndpoints:
    # 1 << np.int64(j) wraps past bit 63, so the masks must take int(j)
    def test_numpy_endpoints_past_bit_63_enumerate_as_python_ints(self):
        def cpdag(node):
            return Cpdag(70, frozenset({(node(0), node(1))}),
                         frozenset({(node(65), node(66)),
                                    (node(66), node(67))}))

        wide = enumerate_mec(cpdag(np.int64))
        plain = enumerate_mec(cpdag(int))
        assert len(wide) == 3
        assert [m.weights.tobytes() for m in wide] == \
            [m.weights.tobytes() for m in plain]

    def test_cpdag_of_a_dag_past_bit_63(self):
        c = dag_to_cpdag(dag_from_edges([(0, 1), (65, 66), (66, 67)], 70))
        assert c.directed == frozenset()
        assert c.undirected == {(0, 1), (65, 66), (66, 67)}


def random_tree_cpdag(undirected, seed):
    """CPDAG of a random recursive tree on ``undirected + 1`` nodes, drawn as
    ``test_random_tree_has_one_member_per_root`` draws it: every edge
    undirected."""
    rng = np.random.default_rng(seed)
    p = undirected + 1
    w = np.zeros((p, p))
    for child in range(1, p):
        w[rng.integers(0, child), child] = 1.0
    perm = rng.permutation(p)
    return dag_to_cpdag(WeightedDag(w[np.ix_(perm, perm)]))


def unchecked_cases():
    """(CPDAG, outcome) of every DAG on at most 4 nodes with and without
    outcome-sink knowledge, and of random trees with 12-16 undirected edges."""
    for dim in range(1, 5):
        for dag in all_dags(dim):
            g = dag_from_edges(sorted(dag), dim)
            yield dag_to_cpdag(g), g.outcome_index
            if not g.weights[-1].any():
                yield dag_to_cpdag(g, outcome_sink=True), g.outcome_index
    for undirected in range(12, 17):
        for seed in range(3):
            yield random_tree_cpdag(undirected, [undirected, seed]), -1


class TestUncheckedOutputs:
    # dag_to_cpdag and enumerate_mec skip the public constructors' checks;
    # what they build must be what those constructors would build
    def test_outputs_equal_the_checked_construction(self):
        for c, outcome in unchecked_cases():
            assert Cpdag(c.dim, c.directed, c.undirected, c.labels) == c
            assert all(type(k) is int
                       for edge in c.directed | c.undirected for k in edge)
            for m in enumerate_mec(c, outcome):
                checked = WeightedDag(m.weights, m.labels, m.outcome_index)
                assert checked.weights.tobytes() == m.weights.tobytes()
                assert checked.labels == m.labels
                assert checked.outcome_index == m.outcome_index
                assert m.weights.dtype == np.float64
                assert m.weights.flags.c_contiguous
                with pytest.raises(ValueError, match="read-only"):
                    m.weights[0, 0] = 1.0

    def test_class_without_a_member_is_empty(self):
        four_cycle = Cpdag(4, frozenset(),
                           frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        assert enumerate_mec(four_cycle) == []

    def test_class_without_a_member_costs_one_leaf(self, monkeypatch):
        # an undirected K6 and a disjoint chordless 4-cycle: 19 undirected
        # edges and no member, since every orientation of the 4-cycle has a
        # cycle or a collider.  A search that tests every leaf tests 2,160
        # here, three per ordering of the K6; the first leaf decides.
        edges = list(itertools.combinations(range(6), 2))
        edges += [(6, 7), (7, 8), (8, 9), (6, 9)]
        c = Cpdag(10, frozenset(), frozenset(edges))
        assert len(c.undirected) == 19
        leaves, acyclic = [], mec._acyclic

        def counted(parents):  # the leaf test runs the cycle check first
            leaves.append(parents)
            return acyclic(parents)

        monkeypatch.setattr(mec, "_acyclic", counted)
        assert enumerate_mec(c) == []
        assert len(leaves) == 1

    def test_one_node_class_is_one_zero_member(self):
        (member,) = enumerate_mec(Cpdag(1, frozenset(), frozenset()))
        assert member.weights.shape == (1, 1)
        assert not member.weights.any()
        assert member.outcome_index == 0

    @pytest.mark.parametrize("dim, edges", [
        (12, [(7, 8), (8, 9), (9, 10), (9, 11), (0, 1)]),
        (70, [(3, 9), (9, 20), (20, 40), (20, 63), (63, 64), (64, 69),
              (0, 1)]),
    ], ids=["two-byte-rows", "nine-byte-rows"])
    def test_members_wider_than_a_byte_are_the_extensions(self, dim, edges):
        # a tree, so every edge is undirected; edges at nodes >= 8 set bits
        # past the first byte of each mask row
        c = dag_to_cpdag(dag_from_edges(edges, dim))
        assert len(c.undirected) == len(edges)
        members = enumerate_mec(c)
        assert patterns_of(members) == consistent_extensions(c)
        for m, pattern in zip(members, consistent_extensions(c)):
            w = np.zeros((dim, dim))
            w[tuple(zip(*pattern))] = 1.0
            assert m.weights.tobytes() == w.tobytes()

    @pytest.mark.parametrize("dim", [64, 65])
    def test_members_either_side_of_64_nodes_are_the_extensions(self, dim):
        # every dim takes the one bytes unpack: at 64 nodes the last node
        # is bit 63 of an eight-byte row, at 65 it is the ninth byte's first
        edges = [(61, 62), (62, dim - 1), (dim - 1, 0)]
        for c in (dag_to_cpdag(dag_from_edges(edges, dim)),
                  Cpdag(dim, frozenset(), frozenset(edges))):
            members = enumerate_mec(c)
            assert len(members) == 4
            for m, pattern in zip(members, consistent_extensions(c)):
                w = np.zeros((dim, dim))
                w[tuple(zip(*pattern))] = 1.0
                assert m.weights.tobytes() == w.tobytes()
