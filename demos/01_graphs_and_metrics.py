"""Random weighted DAGs, path enumeration, pruning, and structure metrics.

Walks through the graph toolbox: draw Erdos-Renyi and scale-free DAGs with
the outcome pinned as the last node, enumerate directed paths into the
outcome, prune noise edges, and score an estimate against a truth.
"""

import numpy as np

from nscausal import (WeightedDag, enumerate_paths_to_outcome, graph_metrics,
                      is_acyclic, prune, random_er, random_sf)

print("== Erdos-Renyi draw (8 nodes, expected degree 3) ==")
g = random_er(8, 3.0, seed=7)
print("acyclic:", is_acyclic(g))
print("edges:", np.count_nonzero(g.weights))
print("outcome row is all zero:", not g.weights[g.outcome_index].any())

print("\n== Scale-free draw (12 nodes, attachment 2) ==")
sf = random_sf(12, 2, seed=3)
in_degree = np.count_nonzero(sf.weights, axis=0)
print("in-degrees by arrival:", in_degree.tolist())

print("\n== Directed paths into the outcome ==")
for source in range(3):
    paths = enumerate_paths_to_outcome(g, source)
    names = [" -> ".join(g.labels[i] for i in p) for p in paths]
    print(f"from {g.labels[source]}: {names or 'no path'}")

print("\n== Pruning at the 0.3 threshold ==")
noisy = g.weights + np.triu(np.full((8, 8), 0.05), 1)
noisy[g.outcome_index, :] = 0.0
estimate = WeightedDag(noisy, g.labels, g.outcome_index)
cleaned = prune(estimate, 0.3)
print("edges before/after:", np.count_nonzero(estimate.weights),
      "/", np.count_nonzero(cleaned.weights))

print("\n== FDR / TPR / SHD ==")
m = graph_metrics(cleaned, g)
print("estimate vs truth:", m)
truth = WeightedDag([[0.0, 1.0], [0.0, 0.0]])
print("one reversed edge:", graph_metrics(WeightedDag(truth.weights.T), truth))
