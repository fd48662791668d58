"""MEC parity: fingerprint the Markov-equivalence layer on a fixed case set,
and compare two runs.

Run from anywhere inside a checkout; it imports the ``src/`` next to its
own directory (and ``perfbench/workloads.py`` for the benchmark's trees):

    python3 tools/mec_parity.py > mec.jsonl
    python3 tools/mec_parity.py --compare OLD.jsonl NEW.jsonl

Without ``--compare`` it writes one JSON line per case: the case's name,
its member count (null when a call raised) and one sha256 over the CPDAG
(``dag_to_cpdag``'s output, or the hand-built ``Cpdag``): its dim, the
``repr`` of its sorted directed and undirected edges (so the endpoints'
types count) and its labels; then each member of ``enumerate_mec`` in
order: its weights' bytes, dtype, shape, C-contiguity and writeable flag,
its labels and its outcome index.  A call that raises ``ValueError`` is
hashed as the error's message.  The cases:

* ``dag``: every DAG on 2-5 nodes, through ``dag_to_cpdag`` with
  ``outcome_sink`` False and True (the outcome is the last node);
* ``partial``: every partly oriented DAG on 2-4 nodes, a hand-built
  ``Cpdag`` whose directed edges are acyclic and whose other edges are
  undirected;
* ``tree``: the ``mec-trees`` benchmark trees (its 9 ops and its warm-up
  tree) at seeds 400 and 457, with both ``outcome_sink`` values;
* ``wide``: 70-node graphs whose endpoints pass bit 63: a ``Cpdag`` with
  ``np.int64`` and with ``int`` endpoints, and a DAG with both
  ``outcome_sink`` values;
* ``random``: 10,000 hand-built ``Cpdag``s on 2-8 nodes, case ``k`` drawn
  from ``default_rng(k)``; many have no member.

``enumerate_mec`` reads every ``Cpdag`` into masks and closes them the same
way, so one compare covers both sources: ``dag``, ``tree`` and the DAG
cases of ``wide`` reach it through ``dag_to_cpdag``, while ``partial``,
``random`` and the hand-built ``wide`` cases are built by hand.

``--compare`` lists every case whose hash differs and every case found in
one file only, prints the case and mismatch counts per family, and exits
1 when any case differs or is missing; else 0.  To compare a change with
its parent, run this file in a checkout of each.
"""

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(1, str(_ROOT / "perfbench"))

import numpy as np  # noqa: E402 - after the path
from nscausal.graph import WeightedDag  # noqa: E402
from nscausal.mec import Cpdag, dag_to_cpdag, enumerate_mec  # noqa: E402
import workloads  # noqa: E402 - perfbench's, for the benchmark's trees

TREE_SEEDS = (400, 457)
TREE_SECONDS = 24  # perfbench's default run length, which sets the op count
RANDOM_CASES = 10_000


def _acyclic(edges, dim: int) -> bool:
    """Whether ``edges`` has no directed cycle: remove sources until no node
    is left, or none of those left is a source."""
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


def _graph(edges, dim: int) -> WeightedDag:
    w = np.zeros((dim, dim))
    for i, j in edges:
        w[i, j] = 1.0
    return WeightedDag(w)


def _mixed_graphs(dim: int, kinds: int):
    """(directed, undirected) edge lists of every graph on ``dim`` nodes
    whose pairs each take one of the first ``kinds`` states: absent,
    ``i -> j``, ``j -> i``, undirected."""
    pairs = list(itertools.combinations(range(dim), 2))
    for states in itertools.product(range(kinds), repeat=len(pairs)):
        directed = [(i, j) if s == 1 else (j, i)
                    for (i, j), s in zip(pairs, states) if s in (1, 2)]
        undirected = [e for e, s in zip(pairs, states) if s == 3]
        if _acyclic(directed, dim):
            yield directed, undirected


def _random_cpdag(k: int) -> Cpdag:
    """Hand-built case ``k``: each pair adjacent with a drawn probability,
    each adjacent pair directed along a drawn node order with another
    drawn probability, else undirected."""
    rng = np.random.default_rng(k)
    dim = int(rng.integers(2, 9))
    adjacent, oriented = rng.uniform(0.2, 0.8), rng.uniform(0.0, 0.7)
    rank = rng.permutation(dim)
    directed, undirected = [], []
    for i, j in itertools.combinations(range(dim), 2):
        if rng.random() < adjacent:
            if rng.random() < oriented:
                directed.append((i, j) if rank[i] < rank[j] else (j, i))
            else:
                undirected.append((i, j))
    return Cpdag(dim, frozenset(directed), frozenset(undirected))


def trees():
    """(seed, k, tree) for the ``mec-trees`` benchmark's trees at each of
    ``TREE_SEEDS``: its ops ``k``, then its warm-up tree."""
    workload = workloads.WORKLOADS["mec-trees"]
    count = workloads.op_count(workload, TREE_SECONDS)
    sizes = workloads.MEC_SIZES
    for seed in TREE_SEEDS:
        for k in range(count + 1):
            size = sizes[k % len(sizes)] if k < count else 3
            yield seed, k, workloads.random_tree(size, [seed, k])


def cases():
    """(name, build) for every case, ``build`` returning the CPDAG and the
    outcome index to enumerate with."""
    for dim in range(2, 6):
        for code, (edges, _) in enumerate(_mixed_graphs(dim, 3)):
            for sink in (False, True):
                yield (f"dag {dim} {code} sink={sink}",
                       lambda e=edges, d=dim, s=sink:
                       (dag_to_cpdag(_graph(e, d), outcome_sink=s), -1))
    for dim in range(2, 5):
        for code, (directed, undirected) in enumerate(_mixed_graphs(dim, 4)):
            yield (f"partial {dim} {code}",
                   lambda d=dim, a=directed, u=undirected:
                   (Cpdag(d, frozenset(a), frozenset(u)), -1))
    for seed, k, tree in trees():
        for sink in (False, True):
            yield (f"tree {seed} {k} sink={sink}",
                   lambda t=tree, s=sink:
                   (dag_to_cpdag(t, outcome_sink=s), t.outcome_index))
    for node in (np.int64, int):
        yield (f"wide cpdag {node.__name__}",
               lambda n=node: (Cpdag(70, frozenset({(n(0), n(1))}),
                                     frozenset({(n(65), n(66)),
                                                (n(66), n(67))})), -1))
    for sink in (False, True):
        yield (f"wide dag sink={sink}",
               lambda s=sink: (dag_to_cpdag(_graph([(0, 1), (65, 66),
                                                    (66, 67)], 70),
                                            outcome_sink=s), -1))
    for k in range(RANDOM_CASES):
        yield f"random {k}", lambda k=k: (_random_cpdag(k), -1)


def fingerprint(build) -> tuple:
    """(member count or None, sha256) of one case."""
    digest = hashlib.sha256()
    try:
        c, outcome = build()
        digest.update(repr((c.dim, sorted(c.directed), sorted(c.undirected),
                            c.labels)).encode())
        members = enumerate_mec(c, outcome)
    except ValueError as error:
        digest.update(f"ValueError: {error}".encode())
        return None, digest.hexdigest()
    for m in members:
        w = m.weights
        digest.update(w.tobytes())
        digest.update(repr((w.dtype.str, w.shape, w.flags.c_contiguous,
                            w.flags.writeable, m.labels,
                            m.outcome_index)).encode())
    return len(members), digest.hexdigest()


def write(out) -> None:
    for name, build in cases():
        members, sha = fingerprint(build)
        out.write(json.dumps({"case": name, "members": members,
                              "sha256": sha}) + "\n")


def _load(path: str) -> dict:
    with open(path) as handle:
        rows = [json.loads(text) for text in handle if text.strip()]
    return {row["case"]: row for row in rows}


def compare(old_path: str, new_path: str, out) -> int:
    """Print what changed from ``old_path`` to ``new_path``; the exit code."""
    old, new = _load(old_path), _load(new_path)
    counts: dict = {}
    for name in old.keys() | new.keys():
        family = counts.setdefault(name.split()[0], [0, 0, 0])
        if name not in old or name not in new:
            family[2] += 1
            out.write(f"only in {'new' if name in new else 'old'}: {name}\n")
            continue
        family[0] += 1
        if old[name]["sha256"] != new[name]["sha256"]:
            family[1] += 1
            out.write(f"mismatch: {name}: members {old[name]['members']} -> "
                      f"{new[name]['members']}\n")
    out.write("family: cases in both, mismatches, cases in one file only\n")
    for family in sorted(counts):
        out.write(f"{family}: " + ", ".join(map(str, counts[family])) + "\n")
    return int(any(c[1] or c[2] for c in counts.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, sys.stdout)
    write(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
