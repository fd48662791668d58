"""Shared builders: random DAGs and small binary structural models."""

import itertools

import numpy as np
import pytest

from nscausal.graph import WeightedDag
from nscausal.poc import DiscreteScm


def random_dag(rng, dim, density=0.5, weight_low=0.5, weight_high=2.0,
               signed=False):
    """Random acyclic weight matrix on a shuffled topological order."""
    order = rng.permutation(dim)
    weights = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(a + 1, dim):
            if rng.random() < density:
                w = rng.uniform(weight_low, weight_high)
                if signed and rng.random() < 0.5:
                    w = -w
                weights[order[a], order[b]] = w
    return WeightedDag(weights, outcome_index=int(order[-1]))


def inject_back_edge(g, rng, weight=1.0):
    """Reverse-edge injection: add (j, i) for an existing edge (i, j)."""
    edges = np.argwhere(g.weights != 0)
    if len(edges) == 0:
        i, j = sorted(rng.choice(g.dim, size=2, replace=False))
        w = g.weights.copy()
        w[i, j] = weight
        w[j, i] = weight
        return WeightedDag(w, g.labels, g.outcome_index)
    i, j = edges[rng.integers(len(edges))]
    w = g.weights.copy()
    w[j, i] = weight
    return WeightedDag(w, g.labels, g.outcome_index)


def tabular_scm(edges, dim, tables, noise_probs, domains=None):
    """Assemble a DiscreteScm from explicit function tables."""
    weights = np.zeros((dim, dim))
    for i, j in edges:
        weights[i, j] = 1.0
    graph = WeightedDag(weights, outcome_index=dim - 1)
    domains = domains or tuple((0, 1) for _ in range(dim))
    noise_domains = tuple((0, 1) for _ in range(dim))
    probs = tuple((1.0 - p, p) for p in noise_probs)
    return DiscreteScm(graph, tuple(domains), noise_domains, probs,
                       tuple(tables))


def random_binary_scm(rng, dim=4, edge_prob=0.6):
    """Random binary SCM with node 0 a root (kept intervention-ignorable).

    Edges run from lower to higher index; the outcome is the last node.
    Structural functions are arbitrary random binary tables, noise is
    binary with probability bounded away from 0 and 1.
    """
    weights = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(max(i + 1, 1), dim):
            if i == 0 and j == 0:
                continue
            if rng.random() < edge_prob:
                weights[i, j] = 1.0
    weights[:, 0] = 0.0  # node 0 stays a root
    graph = WeightedDag(weights, outcome_index=dim - 1)
    tables = []
    for i in range(dim):
        parents = tuple(int(p) for p in np.flatnonzero(weights[:, i]))
        table = {}
        if i == 0:
            table = {((), 0): 0, ((), 1): 1}  # non-degenerate root
        else:
            for pa in itertools.product((0, 1), repeat=len(parents)):
                for u in (0, 1):
                    table[(pa, u)] = int(rng.integers(2))
        tables.append(table)
    noise = tuple((1 - p, p) for p in rng.uniform(0.15, 0.85, size=dim))
    return DiscreteScm(graph,
                       tuple((0, 1) for _ in range(dim)),
                       tuple((0, 1) for _ in range(dim)),
                       noise, tuple(tables))


def random_additive_scm(rng, dim=4, edge_prob=0.6, max_weight=2):
    """Binary-noise SCM whose outcome is additive in its parents.

    Mediators keep arbitrary random binary tables; the outcome equals the
    integer-weighted sum of its parents plus binary noise, so its domain is
    finite, nonnegative, and the controlled difference in any parent is the
    (constant) parent weight.
    """
    weights = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < edge_prob:
                weights[i, j] = 1.0
    weights[:, 0] = 0.0
    outcome = dim - 1
    graph = WeightedDag(weights, outcome_index=outcome)
    tables = []
    domains = []
    for i in range(dim):
        parents = tuple(int(p) for p in np.flatnonzero(weights[:, i]))
        table = {}
        if i == outcome:
            coeffs = {p: int(rng.integers(0, max_weight + 1)) for p in parents}
            values = set()
            for pa in itertools.product((0, 1), repeat=len(parents)):
                base = sum(c * v for c, v in zip(
                    (coeffs[p] for p in parents), pa))
                for u in (0, 1):
                    table[(pa, u)] = base + u
                    values.add(base + u)
            domains.append(tuple(sorted(values)))
        elif i == 0:
            table = {((), 0): 0, ((), 1): 1}  # non-degenerate root
            domains.append((0, 1))
        else:
            for pa in itertools.product((0, 1), repeat=len(parents)):
                for u in (0, 1):
                    table[(pa, u)] = int(rng.integers(2))
            domains.append((0, 1))
        tables.append(table)
    noise = tuple((1 - p, p) for p in rng.uniform(0.15, 0.85, size=dim))
    return DiscreteScm(graph, tuple(domains),
                       tuple((0, 1) for _ in range(dim)),
                       noise, tuple(tables))


def monotone_scm(rng, mediate=False):
    """Construction where the counterfactual flip event is impossible.

    The outcome is a monotone (OR) function of the treatment path, so
    ``Y(Z != z) = y  and  Y(Z = z) != y`` never happens for z = 1, y = 1
    and the conditional-probability lower bound is attained exactly.
    """
    p_z = float(rng.uniform(0.2, 0.8))
    p_e = float(rng.uniform(0.1, 0.9))
    if not mediate:
        # z0 -> y with y = z0 OR e
        tables = (
            {((), 0): 0, ((), 1): 1},
            {((0,), 0): 0, ((0,), 1): 1, ((1,), 0): 1, ((1,), 1): 1},
        )
        return tabular_scm([(0, 1)], 2, tables, (p_z, p_e))
    # z0 -> m -> y, both monotone OR gates
    p_m = float(rng.uniform(0.1, 0.9))
    tables = (
        {((), 0): 0, ((), 1): 1},
        {((0,), 0): 0, ((0,), 1): 1, ((1,), 0): 1, ((1,), 1): 1},
        {((0,), 0): 0, ((0,), 1): 1, ((1,), 0): 1, ((1,), 1): 1},
    )
    return tabular_scm([(0, 1), (1, 2)], 3, tables, (p_z, p_m, p_e))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
