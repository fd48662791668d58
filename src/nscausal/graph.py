"""Weighted DAGs, random graph generators, paths, and structural metrics.

The central object is :class:`WeightedDag`: a dense weighted adjacency matrix
``weights[i, j]`` giving the weight of the edge ``i -> j`` (zero means no
edge), together with node labels and a designated outcome node.  By
convention the outcome sits at the last index and never has outgoing edges
(its row is all zeros); generators and the structure learner enforce this,
the container itself stays permissive so that arbitrary matrices (including
cyclic ones) can be inspected with :func:`is_acyclic`.
"""

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_WEIGHT_RANGE = (0.5, 2.0)


def default_labels(dim: int) -> tuple[str, ...]:
    """Feature labels ``z0 .. z{d-1}`` with the outcome labelled ``y``."""
    return tuple(f"z{i}" for i in range(dim - 1)) + ("y",)


def is_integer(value) -> bool:
    """True for Python and numpy integers; bools and floats are not integers."""
    if type(value) is int:
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for finite Python and numpy reals; bools are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_count(name: str, value, low: int = 1):
    """Raise unless ``value`` is an integer (numpy's too) of at least ``low``."""
    if not (is_integer(value) and value >= low):
        raise ValueError(f"{name} must be at least {low} and an integer, got {value!r}")


def check_node(name: str, i, dim: int, outcome: int | None = None):
    """Raise unless ``i`` is an ``is_integer`` in ``range(dim)``, not ``outcome``."""
    if not (is_integer(i) and 0 <= i < dim):
        raise ValueError(f"{name} must be an integer in range({dim}), got {i!r}")
    if i == outcome:
        raise ValueError(f"{name} must be a feature index, not the outcome {outcome}")


def check_mask(name: str, mask):
    """Raise unless ``mask`` holds booleans (numpy's too); an empty one passes."""
    if np.size(mask) and np.asarray(mask).dtype != bool:
        raise ValueError(f"{name} must hold booleans, got {mask!r}")


def check_nonnegative(name: str, value):
    """Raise unless ``value`` is a finite real of at least 0."""
    if not (is_finite_number(value) and value >= 0):
        raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")


def check_labels(labels, dim: int):
    """Raise unless ``labels`` holds one label per node of ``dim``, none twice."""
    if len(labels) != dim:
        raise ValueError(f"expected {dim} labels, got {len(labels)}")
    if len(set(labels)) != dim:
        repeated = list(dict.fromkeys(x for x in labels if labels.count(x) > 1))
        raise ValueError(f"duplicate labels {repeated}")


def check_random_graph(graph_model: str, p, degree):
    """Raise unless the generators can draw a ``p``-node graph of ``graph_model``.

    ``p`` is an integer of at least 2.  An ``"er"`` degree is finite in
    ``[0, p)`` (the edge probability is ``degree / (p - 1)``); an ``"sf"``
    degree is the whole number of edges each arrival attaches, 1 to ``p - 1``.
    """
    check_count("p", p, low=2)
    if graph_model == "sf":
        if not (is_finite_number(degree) and float(degree).is_integer()
                and 1 <= degree < p):
            raise ValueError("expected_degree (attachment_degree) of a scale-free "
                             f"graph must be a whole number from 1 to p - 1 = {p - 1}, "
                             f"got {degree!r}")
    elif not (is_finite_number(degree) and 0 <= degree < p):
        raise ValueError("expected_degree of an Erdos-Renyi graph must be a finite "
                         f"number at least 0 and below p = {p}, got {degree!r}")


def outcome_position(outcome_index: int, dim: int) -> int:
    """``outcome_index`` as a node in ``range(dim)``; negatives count from the end."""
    if is_integer(outcome_index) and -dim <= outcome_index < 0:
        outcome_index += dim
    check_node("outcome_index", outcome_index, dim)
    return outcome_index


@dataclass(frozen=True, eq=False)
class WeightedDag:
    """Weighted adjacency matrix over labelled nodes with an outcome node.

    ``weights[i, j]`` is the weight of edge ``i -> j``; 0 encodes absence.
    ``==`` and ``hash`` go by identity.
    """

    weights: np.ndarray
    labels: tuple[str, ...] = ()
    outcome_index: int = -1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        dim = w.shape[0]
        labels = self.labels or default_labels(dim)
        check_labels(labels, dim)
        outcome = outcome_position(self.outcome_index, dim)
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "outcome_index", outcome)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without ``__post_init__``: for producers that already guarantee
    the invariants its checks would enforce.  Public construction keeps
    every check.  The fields go into the instance dict in one update, which
    the frozen ``__setattr__`` does not guard."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def topological_order(weights: np.ndarray) -> list[int] | None:
    """Kahn topological order of the nonzero pattern, or None on a cycle.

    Ties are broken by ascending node index so the order is deterministic.
    """
    weights = np.asarray(weights)
    dim = weights.shape[0]
    rows, cols = np.nonzero(weights)
    children: list[list[int]] = [[] for _ in range(dim)]
    indegree = [0] * dim
    for i, j in zip(rows.tolist(), cols.tolist()):
        children[i].append(j)
        indegree[j] += 1
    ready = [i for i in range(dim) if indegree[i] == 0]  # sorted, so a heap
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    return order if len(order) == dim else None


def is_acyclic(g: WeightedDag) -> bool:
    """True iff the nonzero pattern of ``g`` admits a topological order."""
    return topological_order(g.weights) is not None


def ancestors_of(g: WeightedDag, node: int) -> set[int]:
    """All nodes with a directed path into ``node`` (excluding itself)."""
    check_node("node", node, g.dim)
    pattern = g.weights != 0
    seen: set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        for parent in np.flatnonzero(pattern[:, current]):
            if parent not in seen:
                seen.add(int(parent))
                stack.append(int(parent))
    seen.discard(node)
    return seen


def enumerate_paths_to_outcome(g: WeightedDag, source: int) -> list[tuple[int, ...]]:
    """All directed paths from ``source`` to the outcome node.

    Depth-first enumeration over the nonzero pattern; requires an acyclic
    graph (path counts would otherwise be infinite).  Returns an empty list
    when the outcome is unreachable.
    """
    check_node("source", source, g.dim)
    if not is_acyclic(g):
        raise ValueError("path enumeration requires an acyclic graph")
    pattern = g.weights != 0
    target = g.outcome_index
    paths: list[tuple[int, ...]] = []

    def walk(node: int, trail: list[int]):
        if node == target:
            paths.append(tuple(trail))
            return
        for child in np.flatnonzero(pattern[node]):
            walk(int(child), trail + [int(child)])

    if source != target:
        walk(source, [source])
    return paths


def prune_weights(weights: np.ndarray, threshold: float) -> np.ndarray:
    """A copy of ``weights`` with the entries ``|weight| <= threshold`` zeroed
    and the rest bit-exact: the pruning rule, on a bare array.

    ``threshold`` must be finite and nonnegative.  Callers that read only the
    pruned pattern (a support, an acyclicity test with ``topological_order``,
    effects) use it without building a ``WeightedDag``.
    """
    check_nonnegative("threshold", threshold)
    return np.where(np.abs(weights) > threshold, weights, 0.0)


def prune(g: WeightedDag, threshold: float) -> WeightedDag:
    """Zero out entries with ``|weight| <= threshold``; keep the rest bit-exact."""
    return WeightedDag(prune_weights(g.weights, threshold), g.labels,
                       g.outcome_index)


def validate_weight_range(weight_range) -> tuple[float, float]:
    """``weight_range`` as an ordered pair of finite floats excluding 0."""
    try:
        lo, hi = weight_range
    except (TypeError, ValueError):
        lo = hi = None
    if not (is_finite_number(lo) and is_finite_number(hi)):
        raise ValueError("weight_range must be two finite numbers (lo, hi), "
                         f"got {weight_range!r}")
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise ValueError("weight_range must be ordered (lo, hi)")
    if lo <= 0.0 <= hi:
        raise ValueError("weight_range must exclude 0")
    return lo, hi


def random_er(num_nodes: int, expected_degree: float, weight_range=DEFAULT_WEIGHT_RANGE,
              seed=0) -> WeightedDag:
    """Erdos-Renyi style random DAG with the outcome fixed as the last node.

    A uniformly random permutation of the feature nodes becomes the
    topological order (outcome last); every forward pair gets an edge
    independently with probability ``expected_degree / (num_nodes - 1)``,
    which makes the expected total degree of a node ``expected_degree``.
    ``num_nodes`` is the ``p`` of :func:`check_random_graph`.
    """
    check_random_graph("er", num_nodes, expected_degree)
    lo, hi = validate_weight_range(weight_range)
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(num_nodes - 1), [num_nodes - 1]])
    prob = min(1.0, expected_degree / (num_nodes - 1))
    forward = np.triu(np.ones((num_nodes, num_nodes), dtype=bool), 1)
    present = (rng.random((num_nodes, num_nodes)) < prob) & forward
    draws = rng.uniform(lo, hi, size=(num_nodes, num_nodes))
    in_order = np.where(present, draws, 0.0)
    weights = np.zeros((num_nodes, num_nodes))
    weights[np.ix_(order, order)] = in_order
    return WeightedDag(weights, default_labels(num_nodes), num_nodes - 1)


def random_sf(num_nodes: int, attachment_degree: int, weight_range=DEFAULT_WEIGHT_RANGE,
              seed=0) -> WeightedDag:
    """Scale-free random DAG via preferential attachment, outcome last.

    Nodes arrive in index order; node ``k`` attaches to ``min(k, m)``
    distinct earlier nodes chosen proportionally to their current degree.
    Edges are oriented from the earlier node to the newcomer, so the result
    is acyclic by construction and the outcome (last arrival) is a sink.
    ``num_nodes`` is the ``p`` of :func:`check_random_graph`.
    """
    check_random_graph("sf", num_nodes, attachment_degree)
    m = int(attachment_degree)
    lo, hi = validate_weight_range(weight_range)
    rng = np.random.default_rng(seed)
    weights = np.zeros((num_nodes, num_nodes))
    # one list entry per edge endpoint: sampling from it is degree-weighted
    endpoints: list[int] = [0]
    for k in range(1, num_nodes):
        want = min(k, m)
        targets: set[int] = set()
        while len(targets) < want:
            targets.add(int(rng.choice(endpoints)))
        for t in sorted(targets):
            weights[t, k] = rng.uniform(lo, hi)
            endpoints.extend((t, k))
    return WeightedDag(weights, default_labels(num_nodes), num_nodes - 1)


@dataclass(frozen=True)
class GraphMetrics:
    fdr: float
    tpr: float
    shd: int


def graph_metrics(estimated: WeightedDag, truth: WeightedDag) -> GraphMetrics:
    """FDR, TPR and structural Hamming distance of ``estimated`` vs ``truth``.

    The edges are the nonzero off-diagonal entries; prune the estimate
    first to score it at an edge threshold.  A reversed edge counts once in
    the SHD and counts as a false discovery in the FDR numerator.  When
    both graphs have no edges the TPR is 1 (there is nothing to miss), which
    keeps ``graph_metrics(g, g) == (0, 1, 0)`` for every graph ``g``.
    Node ``i`` of one graph is scored as node ``i`` of the other, so the two
    must carry the same labels in the same order; else a ``ValueError``.
    """
    if estimated.dim != truth.dim:
        raise ValueError(
            f"node count mismatch: {estimated.dim} vs {truth.dim}")
    if estimated.labels != truth.labels:
        raise ValueError(f"label mismatch: {list(estimated.labels)} vs "
                         f"{list(truth.labels)}")
    off_diagonal = ~np.eye(truth.dim, dtype=bool)
    est = (estimated.weights != 0) & off_diagonal
    tru = (truth.weights != 0) & off_diagonal
    wrong = int((est & ~tru).sum())  # reversed or absent from the truth
    missing = int((tru & ~est & ~est.T).sum())  # in neither direction
    n_est, n_tru = int(est.sum()), int(tru.sum())
    tpr = int((est & tru).sum()) / n_tru if n_tru else float(not n_est)
    return GraphMetrics(fdr=wrong / max(1, n_est), tpr=tpr, shd=wrong + missing)
