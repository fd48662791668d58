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
instead of closing every branch from scratch.  Each re-check decides
rule 1 both ways, two bit tests, before it tries rules 2-4 either way, so
an edge that rule 1 compels never reaches rules 2-4.  It orients the
compelled edges in no fixed order, which cannot change what it builds
from a graph that has a consistent extension; from one without, the
order can change the closed graph, but not its empty class.  Each rule is
sound: every consistent extension (a DAG with the graph's skeleton, its
directed edges and its v-structures) orients the edge the rule's way, so
an orientation keeps the set of consistent extensions.  The rules are also
complete for a pattern plus background knowledge (Meek 1995), here the
v-structures and the other directed edges of the ``Cpdag``; this module's
rule 4 drops Meek's condition that ``a`` and ``c`` be adjacent, which
keeps it sound and makes it no weaker.  So every order closes a graph that
has a consistent extension to the one graph that leaves undirected exactly
the edges its extensions orient both ways, and a graph without one has no
member whatever its closure.

The member search closes its root before it branches.  A closed graph with
one consistent extension keeps one under either orientation of any
undirected edge (completeness again), so no branch dead-ends: every leaf
is a member, or none is.  Only the first leaf is checked for a cycle and a
new v-structure.  When it fails, the class has no member and the search
ends, so a ``Cpdag`` with no member (one not closed under the rules can be
one) costs one path from the root.

Graphs are held as bit masks: a node's parents, children, undirected
neighbours and skeleton neighbours are each one Python int with bit ``k``
set for node ``k``, so the rules, the acyclicity checks and the
v-structure checks are integer operations, and a branch copies lists of
ints.  Each input graph is read into parent and skeleton masks once; a
``Cpdag`` is read the same way whether ``dag_to_cpdag`` built it or a
caller did.  The outputs are built from the masks unchecked
(``graph.unchecked``): the closure guarantees the ``Cpdag``'s invariants
and the member search a 0/1 acyclic matrix, so neither is re-validated,
and all members' matrices come from one unpack of their parent masks.
Endpoints are converted with ``int()`` before any shift, because
``1 << np.int64(j)`` wraps past bit 63.
"""

from dataclasses import dataclass

import numpy as np

from .graph import (WeightedDag, check_count, check_labels, check_node,
                    default_labels, outcome_position, unchecked)

MEMBER_CAP = 10_000
# The search visits at most ``MEMBER_CAP + 1`` leaves: its first leaf decides
# whether the class has a member, and every later leaf is one.  The number of
# undirected edges stays the one bound checked before any work starts.
_MAX_UNDIRECTED = 24


def _bits(mask: int):
    """The nodes of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _parent_masks(dim: int, edges) -> list:
    parents = [0] * dim
    for i, j in edges:
        parents[j] |= 1 << int(i)
    return parents


def _children(parents: list) -> list:
    children = [0] * len(parents)
    for j, pa in enumerate(parents):
        for i in _bits(pa):
            children[i] |= 1 << j
    return children


def _acyclic(parents: list) -> bool:
    """Whether the graph with these parent masks has no directed cycle:
    place every node whose parents are all placed until none is left."""
    placed, rest = 0, list(enumerate(parents))
    while rest:
        left = []
        for v, pa in rest:
            if pa & ~placed:
                left.append((v, pa))
            else:
                placed |= 1 << v
        if len(left) == len(rest):
            return False
        rest = left
    return True


def _collider_parents(pa: int, adjacency: list) -> int:
    """The parents in ``pa`` that have a non-adjacent co-parent in ``pa``:
    the tails of the v-structures into the node whose parents ``pa`` are."""
    found = 0
    if not pa & (pa - 1):  # fewer than two parents
        return found
    for x in _bits(pa):
        if pa & ~(adjacency[x] | 1 << x):
            found |= 1 << x
    return found


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
        check_labels(labels, self.dim)
        for name, edges in (("directed", self.directed),
                            ("undirected", self.undirected)):
            for edge in edges:
                if not (isinstance(edge, tuple) and len(edge) == 2):
                    raise ValueError(f"each {name} edge must be a pair "
                                     f"(i, j), got {edge!r}")
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
        if not _acyclic(_parent_masks(self.dim, self.directed)):
            raise ValueError("directed subgraph of a CPDAG must be acyclic")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "directed", frozenset(self.directed))
        object.__setattr__(self, "undirected", undirected)

    def skeleton(self) -> frozenset:
        return frozenset(tuple(sorted(e)) for e in self.directed) | self.undirected


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

    Per-node parent, child, undirected-neighbour and skeleton-neighbour
    masks index the rules.  ``compelled`` maps every undirected edge
    ``(i, j)``, ``i < j``, that some rule orients in the current graph to
    that orientation.  When rules compel it both ways, which only happens
    in a graph with no consistent extension, rule 1's way wins, then
    ``i -> j``.  Closing orients such edges, the last one found first,
    until none is left; the module docstring gives why the order cannot
    change the closed graph of a graph with a consistent extension (without
    one, it can).  After ``x -> y`` it
    re-checks only the undirected edges whose status that can change: those
    touching ``x`` or ``y``, and those joining an undirected neighbour of
    ``x`` to a child of ``y`` (rule 4 through ``x -> y``).  Every other edge
    keeps its status, so ``compelled`` stays exact and a closed graph has
    none.
    """

    def __init__(self, adjacency: list, parents: list):
        """Skeleton neighbour masks per node (kept, never changed) and the
        parent masks of the directed edges; every other skeleton edge is
        undirected."""
        self.adjacency = adjacency
        self.parents = parents.copy()
        self.children = _children(parents)
        self.neighbours = [near & ~(pa | ch) for near, pa, ch
                           in zip(self.adjacency, self.parents, self.children)]
        self.compelled: dict = {}
        self._recheck((i, nb >> i + 1 << i + 1)
                      for i, nb in enumerate(self.neighbours))

    def copy(self) -> "_Closure":
        """A copy of this closed graph (so none of its edges is compelled)."""
        other = object.__new__(_Closure)
        other.adjacency = self.adjacency
        other.parents = self.parents.copy()
        other.children = self.children.copy()
        other.neighbours = self.neighbours.copy()
        other.compelled = {}
        return other

    def directed(self) -> frozenset:
        return frozenset((i, j) for j, pa in enumerate(self.parents)
                         for i in _bits(pa))

    def undirected(self) -> frozenset:
        return frozenset((i, j) for i, nb in enumerate(self.neighbours)
                         for j in _bits(nb >> i + 1 << i + 1))

    def orient(self, x: int, y: int) -> None:
        """Direct the undirected edge ``x - y``, not in ``compelled``, as
        ``x -> y``."""
        nb = self.neighbours
        nb[x] &= ~(1 << y)
        nb[y] &= ~(1 << x)
        self.parents[y] |= 1 << x
        self.children[x] |= 1 << y
        touched = [(x, nb[x]), (y, nb[y])]
        below_y = self.children[y]
        if below_y:  # rule 4 through x -> y needs a child of y
            for u in _bits(nb[x]):
                if below_y & nb[u]:
                    touched.append((u, below_y & nb[u]))
        self._recheck(touched)

    def close(self) -> "_Closure":
        """Orient compelled edges until none is left."""
        compelled = self.compelled
        while compelled:
            self.orient(*compelled.popitem()[1])
        return self

    def _recheck(self, stars) -> None:
        """Re-check the undirected edges from each node ``u`` to the nodes of
        ``mask``, for every ``(u, mask)`` in ``stars``: rule 1 both ways
        here, ``a -> b`` first, then, when it fires neither way, rules 2-4
        ``a -> b`` and then ``b -> a``, each only when the head has a parent,
        as each of those rules needs one.  So an edge compelled both ways,
        which only a graph with no consistent extension has, takes rule 1's
        way, else ``a -> b``."""
        compelled, parents, adjacency = self.compelled, self.parents, self.adjacency
        for u, mask in stars:
            while mask:  # _bits(mask), inlined: the closure's hottest loop
                low = mask & -mask
                mask ^= low
                v = low.bit_length() - 1
                edge = a, b = (u, v) if u < v else (v, u)
                into_a, into_b = parents[a], parents[b]
                if into_a & ~adjacency[b]:  # rule 1, both ways first
                    compelled[edge] = edge
                elif into_b & ~adjacency[a]:
                    compelled[edge] = (b, a)
                elif into_b and self._rules_2_to_4(a, b, into_b):
                    compelled[edge] = edge
                elif into_a and self._rules_2_to_4(b, a, into_a):
                    compelled[edge] = (b, a)
                else:
                    compelled.pop(edge, None)

    def _rules_2_to_4(self, a: int, b: int, into_b: int) -> bool:
        """Whether rule 2, 3 or 4 orients the undirected edge ``a - b`` as
        ``a -> b``, where ``into_b`` holds the parents of ``b``."""
        adjacency, parents, around_a = self.adjacency, self.parents, self.neighbours[a]
        if self.children[a] & into_b:  # rule 2
            return True
        linked = around_a & into_b  # rule 3
        if linked & (linked - 1) and any(linked & ~(adjacency[c] | 1 << c)
                                         for c in _bits(linked)):
            return True
        # rule 4: d -> c -> b, a - d, b and d non-adjacent; ``above`` holds
        # the parents of b's parents, never b itself
        above = 0
        for c in _bits(into_b):
            above |= parents[c]
        return bool(above & around_a & ~adjacency[b])


def dag_to_cpdag(g: WeightedDag, outcome_sink: bool = False) -> Cpdag:
    """CPDAG of the class of ``g``; optionally restrict the outcome to a sink.

    With ``outcome_sink`` every undirected outcome-incident edge is
    pre-oriented into the outcome before closure, so all members keep the
    outcome childless.  The input must already satisfy the constraint.
    """
    parents = _parent_masks(g.dim, np.argwhere(g.weights).tolist())
    if not _acyclic(parents):
        raise ValueError("input graph must be acyclic")
    adjacency = [pa | ch for pa, ch in zip(parents, _children(parents))]
    compelled = [_collider_parents(pa, adjacency) for pa in parents]
    if outcome_sink:
        out = g.outcome_index
        if adjacency[out] != parents[out]:
            raise ValueError("outcome-sink knowledge contradicts the input graph")
        compelled[out] = adjacency[out]
    closed = _Closure(adjacency, compelled).close()
    return unchecked(Cpdag, dim=g.dim, directed=closed.directed(),
                     undirected=closed.undirected(), labels=g.labels)


def enumerate_mec(c: Cpdag, outcome_index: int = -1) -> list[WeightedDag]:
    """All member DAGs of the class, as unit-weight graphs.

    A member keeps every directed edge, orients every undirected edge, is
    acyclic, and introduces no v-structure beyond those already visible in
    the directed part of the CPDAG.  There is one way in, whether ``c``
    comes from ``dag_to_cpdag`` or is built by hand: its directed edges and
    its skeleton are read into masks and closed under the orientation
    rules, and the search starts from that closed graph.  It goes depth
    first: it orients the largest remaining undirected edge ``(i, j)`` as
    ``j -> i``, then as ``i -> j``, and closes each choice before going
    deeper.  The first branch starts from a copy of its parent's closed
    graph plus the one new edge, the second from the parent itself, and
    each re-checks only the edges that edge can affect (see ``_Closure``).
    Edges only disappear down a branch, so a branch resumes the scan for
    its largest undirected edge at its parent's ``i``.  Members therefore
    come in ascending orientation code, where bit ``k`` is set when the
    ``k``-th sorted undirected edge points from its lower to its higher
    index.  No branch of a closed graph dead-ends (see the module
    docstring), so the first leaf decides: it is checked for a cycle and for
    a v-structure with a newly oriented edge, and when it fails the class
    has no member and the search returns ``[]`` at once; every later leaf is
    a member without checks.  ``c`` may have at most 24 undirected edges and
    ``outcome_index`` must be a node of ``c`` (negatives count from the
    end), both checked before any work; the search raises once the member
    count exceeds ``MEMBER_CAP``, so it visits at most ``MEMBER_CAP + 1``
    leaves.  The members' weights come from one unpack of all members'
    parent masks, whatever ``dim``, and are read-only views of one
    ``(members, dim, dim)`` array, so keeping any one member keeps the whole
    class's array alive.
    """
    if len(c.undirected) > _MAX_UNDIRECTED:
        raise ValueError(f"{len(c.undirected)} undirected edges is beyond "
                         "the enumeration limit")
    outcome = outcome_position(outcome_index, c.dim)
    given = _parent_masks(c.dim, c.directed)
    low = _parent_masks(c.dim, c.skeleton())
    adjacency = [pa | ch for pa, ch in zip(low, _children(low))]
    members = []

    def search(state, top: int) -> bool:
        """Collect the leaves below ``state``, whose undirected edges all
        start at or below node ``top``; False when the first leaf fails its
        checks, which ends the search."""
        nb = state.neighbours
        for i in range(top, -1, -1):  # the largest undirected edge
            above = nb[i] >> i + 1
            if above:
                j = i + above.bit_length()
                branch = state.copy()
                branch.orient(j, i)
                if not search(branch.close(), i):
                    return False
                state.orient(i, j)
                return search(state.close(), i)
        parents = state.parents
        if not members and (  # the first leaf: a cycle or a new v-structure
                not _acyclic(parents)
                or any(_collider_parents(pa, adjacency) & ~old
                       for pa, old in zip(parents, given))):
            return False
        members.append(parents)  # no later step changes a leaf's masks
        if len(members) > MEMBER_CAP:
            raise ValueError(
                f"equivalence class exceeds the cap of {MEMBER_CAP} members")
        return True

    search(_Closure(adjacency, given).close(), c.dim - 2)
    # row j of a member's mask bytes holds bit i for the edge i -> j
    width = (c.dim + 7) // 8
    rows = np.frombuffer(b"".join(pa.to_bytes(width, "little")
                                  for parents in members for pa in parents),
                         dtype=np.uint8).reshape(len(members), c.dim, width)
    stack = np.unpackbits(rows, axis=-1, count=c.dim, bitorder="little")
    stack = stack.transpose(0, 2, 1).astype(float, order="C")
    stack.flags.writeable = False
    return [unchecked(WeightedDag, weights=w, labels=c.labels,
                      outcome_index=outcome) for w in stack]


def mec_average(members: list) -> np.ndarray:
    """Entrywise mean of the members' adjacency matrices."""
    if not members:
        raise ValueError("cannot average an empty member list")
    dims = {m.dim for m in members}
    if len(dims) != 1:
        raise ValueError(f"members disagree on dimension: {sorted(dims)}")
    labels = {m.labels for m in members}
    if len(labels) != 1:
        raise ValueError(f"members disagree on labels: {sorted(labels)}")
    total = np.zeros((members[0].dim, members[0].dim))
    for m in members:
        total += m.weights
    return total / len(members)
