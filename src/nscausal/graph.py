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
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for finite Python and numpy reals; bools are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def outcome_position(outcome_index: int, dim: int) -> int:
    """``outcome_index`` as a node in ``range(dim)``; negatives count from the end."""
    if not is_integer(outcome_index):
        raise ValueError(f"outcome_index must be an integer, got {outcome_index!r}")
    if not -dim <= outcome_index < dim:
        raise ValueError(f"outcome_index {outcome_index} out of range for {dim} nodes")
    return outcome_index % dim


@dataclass(frozen=True)
class WeightedDag:
    """Weighted adjacency matrix over labelled nodes with an outcome node.

    ``weights[i, j]`` is the weight of edge ``i -> j``; 0 encodes absence.
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
        if len(labels) != dim:
            raise ValueError(f"expected {dim} labels, got {len(labels)}")
        outcome = outcome_position(self.outcome_index, dim)
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "outcome_index", outcome)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


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


def prune(g: WeightedDag, threshold: float) -> WeightedDag:
    """Zero out entries with ``|weight| <= threshold``; keep the rest bit-exact."""
    if not threshold >= 0:  # NaN fails too
        raise ValueError(f"threshold must be nonnegative, got {threshold!r}")
    kept = np.where(np.abs(g.weights) > threshold, g.weights, 0.0)
    return WeightedDag(kept, g.labels, g.outcome_index)


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
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if expected_degree < 0:
        raise ValueError("expected_degree must be nonnegative")
    if expected_degree >= num_nodes:
        raise ValueError(
            f"expected_degree {expected_degree} too large for {num_nodes} nodes")
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
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    m = int(attachment_degree)
    if m < 1:
        raise ValueError("attachment_degree must be positive")
    if m >= num_nodes:
        raise ValueError(
            f"attachment_degree {m} too large for {num_nodes} nodes")
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
    """
    if estimated.dim != truth.dim:
        raise ValueError(
            f"node count mismatch: {estimated.dim} vs {truth.dim}")
    off_diagonal = ~np.eye(truth.dim, dtype=bool)
    est = (estimated.weights != 0) & off_diagonal
    tru = (truth.weights != 0) & off_diagonal
    wrong = int((est & ~tru).sum())  # reversed or absent from the truth
    missing = int((tru & ~est & ~est.T).sum())  # in neither direction
    n_est, n_tru = int(est.sum()), int(tru.sum())
    tpr = int((est & tru).sum()) / n_tru if n_tru else float(not n_est)
    return GraphMetrics(fdr=wrong / max(1, n_est), tpr=tpr, shd=wrong + missing)
