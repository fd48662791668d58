"""Markov-equivalence-class utilities: CPDAGs, member enumeration, averaging.

Two DAGs are Markov equivalent when they share a skeleton and the same
v-structures (colliders ``x -> z <- y`` with ``x, y`` non-adjacent).  The
class is represented by a completed partially directed graph: compelled
edges directed, the rest undirected.  Construction starts from the
v-structures and closes under the standard orientation rules; optional
outcome-sink background knowledge pre-orients every undirected
outcome-incident edge into the outcome, shrinking the class to graphs where
the outcome has no children.
"""

from dataclasses import dataclass

import numpy as np

from .graph import WeightedDag, topological_order

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
        labels = self.labels or tuple(f"z{i}" for i in range(self.dim - 1)) + ("y",)
        if len(labels) != self.dim:
            raise ValueError(f"expected {self.dim} labels")
        undirected = frozenset(tuple(sorted(e)) for e in self.undirected)
        for i, j in list(self.directed) + list(undirected):
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"edge ({i}, {j}) outside {self.dim} nodes")
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


def _v_structures(directed: set, adjacent) -> set:
    """Collider triples (x, z, y), x < y, with x and y non-adjacent."""
    parents: dict = {}
    for a, b in directed:
        parents.setdefault(b, set()).add(a)
    found = set()
    for z, pa in parents.items():
        pa = sorted(pa)
        for idx, x in enumerate(pa):
            for y in pa[idx + 1:]:
                if not adjacent(x, y):
                    found.add((x, z, y))
    return found


def _close_orientations(dim: int, skeleton: set, directed: set) -> tuple:
    """Fixpoint of the orientation rules over the partially directed graph.

    Rules (each provably compelled on pain of a cycle or a new collider):
      1. a -> b, b - c, a and c non-adjacent        =>  b -> c
      2. a -> b -> c, a - c                          =>  a -> c
      3. a - b, a - c, a - d, c -> b, d -> b,
         c and d non-adjacent                        =>  a -> b
      4. a - b, a - d, d -> c, c -> b,
         b and d non-adjacent                        =>  a -> b
    """
    adjacency: dict = {i: set() for i in range(dim)}
    for i, j in skeleton:
        adjacency[i].add(j)
        adjacency[j].add(i)
    directed = set(directed)
    undirected = {tuple(sorted(e)) for e in skeleton} - \
        {tuple(sorted(d)) for d in directed}

    def adjacent(x, y):
        return y in adjacency[x]

    def orient(a, b):
        undirected.discard(tuple(sorted((a, b))))
        directed.add((a, b))

    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected):
            for x, y in ((a, b), (b, a)):
                if _compelled(x, y, directed, undirected, adjacent):
                    orient(x, y)
                    changed = True
                    break
            if changed:
                break
    return frozenset(directed), frozenset(undirected)


def _compelled(a, b, directed, undirected, adjacent) -> bool:
    und = lambda x, y: tuple(sorted((x, y))) in undirected
    # rule 1: some c -> a with c, b non-adjacent
    for c, d in directed:
        if d == a and not adjacent(c, b) and c != b:
            return True
    # rule 2: directed chain a -> ... -> b of length two
    for c, d in directed:
        if c == a and (d, b) in directed:
            return True
    # rule 3: two non-adjacent parents of b, both undirected-linked to a
    parents_b = [c for c, d in directed if d == b]
    for i, c in enumerate(parents_b):
        if not und(a, c):
            continue
        for d in parents_b[i + 1:]:
            if und(a, d) and not adjacent(c, d):
                return True
    # rule 4: a - d, d -> c, c -> b, with b, d non-adjacent
    for d, c in directed:
        if und(a, d) and (c, b) in directed and not adjacent(b, d) and b != d:
            return True
    return False


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
    adjacency: dict = {i: set() for i in range(g.dim)}
    for i, j in skeleton:
        adjacency[i].add(j)
        adjacency[j].add(i)
    vstructs = _v_structures(edges, lambda x, y: y in adjacency[x])
    directed = set()
    for x, z, y in vstructs:
        directed.add((x, z))
        directed.add((y, z))
    if outcome_sink:
        out = g.outcome_index
        if np.any(g.weights[out, :] != 0):
            raise ValueError("outcome-sink knowledge contradicts the input graph")
        for nb in adjacency[out]:
            if (out, nb) not in directed:
                directed.add((nb, out))
    directed, undirected = _close_orientations(g.dim, skeleton, directed)
    return Cpdag(g.dim, directed, undirected, g.labels)


def enumerate_mec(c: Cpdag, cap: int = DEFAULT_MEMBER_CAP,
                  outcome_index: int = -1) -> list[WeightedDag]:
    """All member DAGs of the class, as unit-weight graphs.

    A member keeps every directed edge, orients every undirected edge, is
    acyclic, and introduces no v-structure beyond those already visible in
    the directed part of the CPDAG.  The search is depth first: it orients
    the largest remaining undirected edge ``(i, j)`` as ``j -> i``, then as
    ``i -> j``, and closes each choice under the orientation rules before
    going deeper.  Members therefore come in ascending orientation code,
    where bit ``k`` is set when the ``k``-th sorted undirected edge points
    from its lower to its higher index.  Each leaf is checked for
    acyclicity and v-structures.  Raises once the member count exceeds
    ``cap``, so the work is bounded by ``cap + 1`` members.
    """
    if len(c.undirected) > _MAX_UNDIRECTED:
        raise ValueError(f"{len(c.undirected)} undirected edges is beyond "
                         "the enumeration limit")
    skeleton = c.skeleton()
    adjacency: dict = {i: set() for i in range(c.dim)}
    for i, j in skeleton:
        adjacency[i].add(j)
        adjacency[j].add(i)

    def adjacent(x, y):
        return y in adjacency[x]

    reference = _v_structures(set(c.directed), adjacent)
    members = []

    def search(directed, undirected):
        if undirected:
            i, j = max(undirected)
            for edge in ((j, i), (i, j)):
                search(*_close_orientations(c.dim, skeleton, directed | {edge}))
            return
        w = np.zeros((c.dim, c.dim))
        for i, j in directed:
            w[i, j] = 1.0
        if topological_order(w) is None:
            return
        if _v_structures(directed, adjacent) != reference:
            return
        members.append(WeightedDag(w, c.labels, outcome_index))
        if len(members) > cap:
            raise ValueError(f"equivalence class exceeds the cap of {cap} members")

    search(c.directed, c.undirected)
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
