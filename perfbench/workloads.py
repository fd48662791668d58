"""Workloads and ops of the nscausal benchmark.

Everything here drives the library through its public calls.  A fit op is
one replication composed exactly as ``bench._replication_rows`` composes
it: ``SeedSequence(seed).spawn(2)`` gives the graph and data streams, the
baseline fit warm-starts every selective fit, and each method yields the
same rows.  A MEC op is ``dag_to_cpdag`` then ``enumerate_mec`` on one
seeded tree.

Importing this module imports ``nscausal`` and numpy, which is part of the
set-up time the benchmark reports.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

import nscausal as ns
from tracing import NullTracer

# Tree classes cycle through these sizes (undirected edges) in this order,
# so every seed times the same mix of sizes and only the shapes differ.
MEC_SIZES = (12, 13, 14, 15, 16)
# Nominal cost of one scanned orientation (2-core x86 box); sets how many
# classes fill the requested seconds.
MEC_ORIENTATION_S = 1.3e-4


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    scenario: str = ""
    n: int = 0
    methods: tuple = ()
    # nominal seconds per op on a 2-core x86 box; sets the op count
    op_seconds: float = 0.0

    @property
    def kind(self) -> str:
        return "fit" if self.scenario else "mec"

    @property
    def effect_kind(self) -> str:
        return "de" if "nscsl-de" in self.methods else "te"


# Why these four (details in README.md): s1-te is call-overhead bound; s2-de
# is the same size but never runs the total-effect kernels; s4-wide is
# arithmetic bound with every baseline solve at the iteration cap; mec-trees
# runs no optimizer code at all.
WORKLOADS = {w.name: w for w in (
    Workload("s1-te", 100, scenario="s1", n=100, methods=("nscsl-te",),
             op_seconds=1.7),
    Workload("s2-de", 200, scenario="s2", n=100, methods=("nscsl-de",),
             op_seconds=1.1),
    Workload("s4-wide", 300, scenario="s4", n=1000,
             methods=("nscsl-te", "baseline"), op_seconds=4.9),
    Workload("mec-trees", 400),
)}


def op_count(workload: Workload, seconds: float) -> int:
    """Ops that fill ``seconds`` on the reference box; fixed by the arguments
    alone, so the deterministic counters of two runs can be compared."""
    if workload.kind == "fit":
        return max(1, round(seconds / workload.op_seconds))
    total, count = 0.0, 0
    while total < seconds:
        total += MEC_ORIENTATION_S * 2 ** MEC_SIZES[count % len(MEC_SIZES)]
        count += 1
    return count


def random_tree(undirected: int, seed) -> ns.WeightedDag:
    """Random recursive tree on ``undirected + 1`` nodes, edges pointing away
    from the root, nodes relabelled at random.

    Every node has at most one parent, so there is no v-structure: the
    CPDAG leaves all edges undirected and the class has one member per
    choice of root.
    """
    rng = np.random.default_rng(seed)
    p = undirected + 1
    w = np.zeros((p, p))
    for child in range(1, p):
        w[rng.integers(0, child), child] = rng.uniform(0.5, 2.0)
    perm = rng.permutation(p)
    return ns.WeightedDag(w[np.ix_(perm, perm)])


@dataclass
class Prepared:
    """The inputs of one run, built before the timed section."""

    workload: Workload
    seed: int
    ops: tuple  # replication seeds (fit) or trees (mec)
    spec: object = None
    config: object = None


def prepare(name: str, seed: int, seconds: float) -> Prepared:
    workload = WORKLOADS[name]
    count = op_count(workload, seconds)
    if workload.kind == "mec":
        trees = tuple(random_tree(MEC_SIZES[k % len(MEC_SIZES)], [seed, k])
                      for k in range(count))
        prepared = Prepared(workload, seed, trees)
        mec_op(random_tree(3, [seed, count]), NullTracer())  # warm-up
        return prepared
    spec = ns.scenario(workload.scenario, sample_sizes=(workload.n,),
                       methods=workload.methods, seed_base=seed,
                       replications=count)
    prepared = Prepared(workload, seed, tuple(seed + r for r in range(count)),
                        spec, ns.FitConfig())
    # warm-up: every public call of an op once, on a small cheap problem
    fit_op(spec, ns.FitConfig(max_dual_steps=1, max_inner_iter=5), 30,
           seed + count, NullTracer())
    return prepared


@dataclass
class OpResult:
    seconds: float
    failed: bool
    counters: tuple
    rows: list = field(default_factory=list)
    fits: list = field(default_factory=list)  # (role, FitResult)
    data: object = None
    delta_star: float = 0.0
    tree: object = None
    cpdag: object = None
    members: list = field(default_factory=list)


def _score(est, target) -> dict:
    m = ns.graph_metrics(est, target)
    return {"fdr": m.fdr, "tpr": m.tpr, "shd": float(m.shd)}


def _failed_row(method) -> dict:
    nan = float("nan")
    return {"method": method, "target": "nscg", "fdr": nan, "tpr": nan,
            "shd": nan, "failed": 1}


def fit_op(spec, config, n: int, seed: int, tracer) -> OpResult:
    """One replication of ``spec`` at sample size ``n``, seeded by ``seed``."""
    start = time.perf_counter()
    graph_ss, data_ss = np.random.SeedSequence(seed).spawn(2)
    with tracer.span("bench.scenario_truth"):
        truth = ns.scenario_truth(spec, graph_ss)
    with tracer.span("bench.nscg"):
        target = ns.nscg(truth)
    with tracer.span("scm.sample"):
        data = ns.shift_nonnegative(ns.sample_linear(
            ns.SemSpec(truth, spec.noise, spec.link), n, seed=data_ss))

    rows, fits, dstar = [], [], 0.0

    def row(method, tgt_name, est):
        with tracer.span("graph.score"):
            scored = _score(est, target if tgt_name == "nscg" else truth)
        return {"method": method, "target": tgt_name, **scored, "failed": 0}

    try:
        with tracer.span("optimizer.fit_baseline"):
            base = ns.fit_baseline(data, config)
        fits.append(("baseline", base))
    except Exception:  # noqa: BLE001 - counted as a failed op, as bench does
        rows = [_failed_row(m) for m in spec.methods]
    else:
        for method in spec.methods:
            if method == "baseline":
                rows.append(row(method, "nscg", base.graph))
                rows.append(row(method, "full", base.graph))
                continue
            kind = "te" if method == "nscsl-te" else "de"
            try:
                with tracer.span("effects.delta_star"):
                    dstar = ns.delta_star(data, lambda _: base.graph, kind)
                with tracer.span("optimizer.fit"):
                    result = ns.fit(data, replace(config, effect_kind=kind,
                                                  delta_star=dstar),
                                    warm_start=base)
                fits.append((method, result))
                rows.append(row(method, "nscg", result.graph))
            except Exception:  # noqa: BLE001
                rows.append(_failed_row(method))
    seconds = time.perf_counter() - start
    counters = (tuple(row_key(r) for r in rows)
                + tuple(fit_counters(role, f, config) for role, f in fits))
    return OpResult(seconds, any(r["failed"] for r in rows), counters,
                    rows, fits, data, dstar)


def mec_op(tree, tracer) -> OpResult:
    start = time.perf_counter()
    try:
        with tracer.span("mec.dag_to_cpdag"):
            cpdag = ns.dag_to_cpdag(tree)
        with tracer.span("mec.enumerate_mec"):
            members = ns.enumerate_mec(cpdag)
    except ValueError:
        return OpResult(time.perf_counter() - start, True, (tree.dim, -1, -1),
                        tree=tree)
    seconds = time.perf_counter() - start
    return OpResult(seconds, False,
                    (tree.dim, len(cpdag.undirected), len(members)),
                    tree=tree, cpdag=cpdag, members=members)


def row_key(row: dict) -> tuple:
    """A row's scored fields, exact (``repr`` keeps every bit, and NaN)."""
    return (row["method"], row["target"], repr(row["fdr"]), repr(row["tpr"]),
            repr(row["shd"]), int(row["failed"]))


def fit_counters(role: str, result, config) -> tuple:
    """(role, dual steps, inner iterations, capped solves, converged)."""
    inner = [d["inner_iterations"] for d in result.diagnostics]
    capped = sum(i >= config.max_inner_iter for i in inner)
    return (role, len(inner), sum(inner), capped, bool(result.converged))


def run_scenario_keys(prepared: Prepared, seed: int) -> tuple:
    """Rows that ``bench.run_scenario`` produces for one replication seed."""
    spec = replace(prepared.spec, seed_base=seed, replications=1)
    report = ns.run_scenario(spec, prepared.config, threads=1)
    return tuple(row_key(r) for r in report.rows)


def fit_invariant_errors(result, dim: int) -> list:
    """Broken ``FitResult`` invariants, as messages (empty when all hold)."""
    errors = []
    outcome = result.graph.outcome_index
    for label, g in (("graph", result.graph), ("raw_graph", result.raw_graph)):
        if np.any(g.weights[outcome, :] != 0):
            errors.append(f"{label} has a nonzero outcome row")
    if not ns.is_acyclic(result.graph):
        errors.append("pruned graph is cyclic")
    if len(result.selected) != dim - 1:
        errors.append(f"selected has length {len(result.selected)}, "
                      f"expected {dim - 1}")
    return errors


def mec_errors(op: OpResult) -> list:
    """Each tree on p nodes has exactly p members, all mapping back."""
    p = op.tree.dim
    if op.failed:
        return [f"tree on {p} nodes: enumeration failed"]
    errors = []
    if len(op.members) != p:
        errors.append(f"tree on {p} nodes gave {len(op.members)} members")
    if any(ns.dag_to_cpdag(m) != op.cpdag for m in op.members):
        errors.append(f"a member of the {p}-node tree class maps to "
                      "another CPDAG")
    return errors


def _per_call_us(call, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        call()
    return (time.perf_counter() - start) / reps * 1e6


def probe(op: OpResult, effect_kind: str, reps: int) -> dict:
    """Per-call microseconds of the public kernels on this op's fits.

    ``acyclicity_gradient``, ``relevance_constraint`` (the workload's
    effect kind) and ``least_squares_loss`` run on each fit's raw graph;
    ``total_effects`` on each fit's pruned graph.
    """
    out = {"optimizer.h1_grad_us": [], "optimizer.h2_us": [],
           "optimizer.ls_us": [], "effects.total_effects_us": []}
    data = op.data
    outcome = data.outcome_index
    features = [i for i in range(data.dim) if i != outcome]
    for _, result in op.fits:
        raw = result.raw_graph
        mask = np.ones(data.dim, dtype=bool)
        mask[features] = result.selected
        t = result.diagnostics[-1]["t"]
        out["optimizer.h1_grad_us"].append(_per_call_us(
            lambda: ns.acyclicity_gradient(raw, t), reps))
        out["optimizer.h2_us"].append(_per_call_us(
            lambda: ns.relevance_constraint(raw.weights, mask, effect_kind,
                                            op.delta_star, outcome), reps))
        out["optimizer.ls_us"].append(_per_call_us(
            lambda: ns.least_squares_loss(raw.weights, data, mask), reps))
        out["effects.total_effects_us"].append(_per_call_us(
            lambda: ns.total_effects(result.graph), reps))
    return out
