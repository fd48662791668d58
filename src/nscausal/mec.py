"""Markov-equivalence-class utilities: CPDAGs, member enumeration, averaging.

Two DAGs are Markov equivalent when they share a skeleton and the same
v-structures (colliders ``x -> z <- y`` with ``x, y`` non-adjacent).  The
class is represented by a completed partially directed graph: compelled
edges directed, the rest undirected.  Construction starts from the
v-structures and closes under Meek's four orientation rules (Meek, UAI
1995); optional outcome-sink background knowledge pre-orients every
undirected outcome-incident edge into the outcome, shrinking the class to
graphs where the outcome has no children.

The closure is incremental: after each orientation it re-checks only the
undirected edges whose rule status that orientation can change, and the
member search branches from its parent's closed graph plus one edge
instead of closing every branch from scratch.  Both give exactly the
orientations, and so the members in the order, of a closure that rescans
every edge after every step.
"""

from dataclasses import dataclass

import numpy as np

from .graph import WeightedDag, check_count, check_node, default_labels, topological_order

DEFAULT_MEMBER_CAP = 10_000
# A true CPDAG never dead-ends in the search, but a hand-built ``Cpdag`` that
# is not one can branch into orientations that yield no member, so the cap
# alone does not bound the work; this is the one bound checked before any
# work starts.
_MAX_UNDIRECTED = 24


@dataclass(frozen=True)
class Cpdag:
    """Completed PDAG: disjoint directed and undirected edge sets."""

    dim: int
    directed: frozenset
    undirected: frozenset
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        check_count("dim", self.dim)
        labels = self.labels or default_labels(self.dim)
        if len(labels) != self.dim:
            raise ValueError(f"expected {self.dim} labels")
        undirected = frozenset(tuple(sorted(e)) for e in self.undirected)
        for i, j in list(self.directed) + list(undirected):
            check_node("edge endpoint", i, self.dim)
            check_node("edge endpoint", j, self.dim)
            if i == j:
                raise ValueError("self-loops are not allowed")
        for i, j in self.directed:
            if tuple(sorted((i, j))) in undirected:
                raise ValueError(f"edge ({i}, {j}) is both directed and undirected")
            if (j, i) in self.directed:
                raise ValueError(f"edge ({i}, {j}) directed both ways")
        pattern = np.zeros((self.dim, self.dim))
        for i, j in self.directed:
            pattern[i, j] = 1.0
        if topological_order(pattern) is None:
            raise ValueError("directed subgraph of a CPDAG must be acyclic")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "directed", frozenset(self.directed))
        object.__setattr__(self, "undirected", undirected)

    def skeleton(self) -> frozenset:
        return frozenset(tuple(sorted(e)) for e in self.directed) | self.undirected


def _v_structures(parents: list, adjacency: list) -> set:
    """Collider triples (x, z, y), x < y, with x and y non-adjacent."""
    found = set()
    for z, pa in enumerate(parents):
        pa = sorted(pa)
        for idx, x in enumerate(pa):
            for y in pa[idx + 1:]:
                if y not in adjacency[x]:
                    found.add((x, z, y))
    return found


class _Closure:
    """Partially directed graph closed incrementally under the orientation
    rules.

    Rules (each provably compelled on pain of a cycle or a new collider):
      1. c -> a, a - b, c and b non-adjacent          =>  a -> b
      2. a -> c -> b, a - b                            =>  a -> b
      3. a - b, a - c, a - d, c -> b, d -> b,
         c and d non-adjacent                          =>  a -> b
      4. a - b, a - d, d -> c, c -> b,
         b and d non-adjacent                          =>  a -> b

    Per-node parent, child and undirected-neighbour sets index the rules.
    ``compelled`` maps every undirected edge ``(i, j)``, ``i < j``, that some
    rule orients in the current graph to that orientation, ``i -> j``
    preferred.  Closing orients the smallest such edge, one at a time, and
    after ``x -> y`` re-checks only the undirected edges whose status that
    can change: those touching ``x`` or ``y``, and those joining an
    undirected neighbour of ``x`` to a child of ``y`` (rule 4 through
    ``x -> y``).  Every other edge keeps its status, so each step orients the
    same edge as a full rescan would.
    """

    def __init__(self, adjacency: list, directed):
        """Skeleton neighbours per node (kept, never changed) and the
        directed edges; every other skeleton edge is undirected."""
        self.adjacency = adjacency
        dim = len(adjacency)
        self.parents = [set() for _ in range(dim)]
        self.children = [set() for _ in range(dim)]
        for i, j in directed:
            self.parents[j].add(i)
            self.children[i].add(j)
        self.neighbours = [adjacency[i] - self.parents[i] - self.children[i]
                           for i in range(dim)]
        self.compelled: dict = {}
        self._recheck(self.undirected())

    def copy(self) -> "_Closure":
        other = object.__new__(_Closure)
        other.adjacency = self.adjacency
        other.parents = [set(s) for s in self.parents]
        other.children = [set(s) for s in self.children]
        other.neighbours = [set(s) for s in self.neighbours]
        other.compelled = dict(self.compelled)
        return other

    def directed(self) -> frozenset:
        return frozenset((i, j) for j, pa in enumerate(self.parents)
                         for i in pa)

    def undirected(self) -> frozenset:
        return frozenset((i, j) for i, nb in enumerate(self.neighbours)
                         for j in nb if i < j)

    def orient(self, x: int, y: int) -> None:
        """Direct the undirected edge ``x - y`` as ``x -> y``."""
        self.compelled.pop((x, y) if x < y else (y, x), None)
        nb = self.neighbours
        nb[x].discard(y)
        nb[y].discard(x)
        self.parents[y].add(x)
        self.children[x].add(y)
        touched = [(x, n) for n in nb[x]] + [(y, n) for n in nb[y]]
        below_y = self.children[y]
        for u in nb[x]:
            touched.extend((u, v) for v in below_y & nb[u])
        self._recheck(touched)

    def close(self) -> "_Closure":
        """Orient compelled edges, smallest first, until none is left."""
        compelled = self.compelled
        while compelled:
            self.orient(*compelled[min(compelled)])
        return self

    def _recheck(self, edges) -> None:
        for a, b in edges:
            edge = (a, b) if a < b else (b, a)
            a, b = edge
            if self._compelled(a, b):
                self.compelled[edge] = edge
            elif self._compelled(b, a):
                self.compelled[edge] = (b, a)
            else:
                self.compelled.pop(edge, None)

    def _compelled(self, a: int, b: int) -> bool:
        """Whether a rule orients the undirected edge ``a - b`` as ``a -> b``."""
        adjacency, children, into_b = self.adjacency, self.children, self.parents[b]
        near_b = adjacency[b]
        # rule 1 (b itself is no parent of a while a - b is undirected)
        if any(c not in near_b for c in self.parents[a]):
            return True
        if not children[a].isdisjoint(into_b):  # rule 2
            return True
        linked = self.neighbours[a] & into_b  # rule 3
        if len(linked) > 1 and any(d != c and d not in adjacency[c]
                                   for c in linked for d in linked):
            return True
        for d in self.neighbours[a]:  # rule 4
            if d != b and d not in near_b and not children[d].isdisjoint(into_b):
                return True
        return False


def _adjacency(dim: int, skeleton) -> list:
    adjacency = [set() for _ in range(dim)]
    for i, j in skeleton:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


def dag_to_cpdag(g: WeightedDag, outcome_sink: bool = False) -> Cpdag:
    """CPDAG of the class of ``g``; optionally restrict the outcome to a sink.

    With ``outcome_sink`` every undirected outcome-incident edge is
    pre-oriented into the outcome before closure, so all members keep the
    outcome childless.  The input must already satisfy the constraint.
    """
    order = topological_order(g.weights)
    if order is None:
        raise ValueError("input graph must be acyclic")
    edges = {(int(i), int(j)) for i, j in zip(*np.nonzero(g.weights))}
    skeleton = {tuple(sorted(e)) for e in edges}
    adjacency = _adjacency(g.dim, skeleton)
    parents = [set() for _ in range(g.dim)]
    for i, j in edges:
        parents[j].add(i)
    directed = set()
    for x, z, y in _v_structures(parents, adjacency):
        directed.add((x, z))
        directed.add((y, z))
    if outcome_sink:
        out = g.outcome_index
        if np.any(g.weights[out, :] != 0):
            raise ValueError("outcome-sink knowledge contradicts the input graph")
        for nb in adjacency[out]:
            if (out, nb) not in directed:
                directed.add((nb, out))
    closed = _Closure(adjacency, directed).close()
    return Cpdag(g.dim, closed.directed(), closed.undirected(), g.labels)


def enumerate_mec(c: Cpdag, cap: int = DEFAULT_MEMBER_CAP,
                  outcome_index: int = -1) -> list[WeightedDag]:
    """All member DAGs of the class, as unit-weight graphs.

    A member keeps every directed edge, orients every undirected edge, is
    acyclic, and introduces no v-structure beyond those already visible in
    the directed part of the CPDAG.  The search is depth first: it orients
    the largest remaining undirected edge ``(i, j)`` as ``j -> i``, then as
    ``i -> j``, and closes each choice under the orientation rules before
    going deeper.  Each branch starts from a copy of its parent's closed
    graph plus the one new edge and re-checks only the edges that edge can
    affect (see ``_Closure``).  Members therefore come in ascending
    orientation code, where bit ``k`` is set when the ``k``-th sorted
    undirected edge points from its lower to its higher index.  Each leaf
    is checked for acyclicity and v-structures, which a hand-built ``Cpdag``
    that is not closed under the rules needs.  ``cap`` must be an integer
    of at least 1 (numpy integers included, bools not) and ``c`` may have at
    most 24 undirected edges, both checked before any work; the search
    raises once the member count exceeds ``cap``, so the work is bounded by
    ``cap + 1`` members.
    """
    check_count("cap", cap)
    if len(c.undirected) > _MAX_UNDIRECTED:
        raise ValueError(f"{len(c.undirected)} undirected edges is beyond "
                         "the enumeration limit")
    root = _Closure(_adjacency(c.dim, c.skeleton()), c.directed)
    reference = _v_structures(root.parents, root.adjacency)
    members = []

    def search(state):
        undirected = state.undirected()
        if undirected:
            i, j = max(undirected)
            for x, y in ((j, i), (i, j)):
                branch = state.copy()
                branch.orient(x, y)
                search(branch.close())
            return
        w = np.zeros((c.dim, c.dim))
        for j, pa in enumerate(state.parents):
            for i in pa:
                w[i, j] = 1.0
        if topological_order(w) is None:
            return
        if _v_structures(state.parents, state.adjacency) != reference:
            return
        members.append(WeightedDag(w, c.labels, outcome_index))
        if len(members) > cap:
            raise ValueError(f"equivalence class exceeds the cap of {cap} members")

    search(root)
    return members


def mec_average(members: list) -> np.ndarray:
    """Entrywise mean of the members' adjacency matrices."""
    if not members:
        raise ValueError("cannot average an empty member list")
    dims = {m.dim for m in members}
    if len(dims) != 1:
        raise ValueError(f"members disagree on dimension: {sorted(dims)}")
    total = np.zeros((members[0].dim, members[0].dim))
    for m in members:
        total += m.weights
    return total / len(members)
