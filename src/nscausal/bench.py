"""Benchmark scenarios: synthetic ground truths, replication runs, reports.

Scenario presets follow the simulation design at desk scale.  The node
layouts are fixed per scenario (weights are redrawn each replication from
``weight_range``), so the spurious/causal composition is stable:

* s1 (p=5):  features z1, z2, z3 all cause the outcome (z1 also via z2);
  z0 is spurious, a collider child of z2 and z3.  Six edges, four in the
  true outcome subgraph.
* s2 (p=5):  z2 -> z3 -> y is the causal chain; z0 and z1 form a spurious
  chain hanging off z2.  Four edges, two causal.
* s3 (p=5):  no spurious nodes; z0 reaches y only through z1.
* s4 (p=20): z0 -> z1 -> y plus z0 -> y; the other 17 features form a
  fixed Erdos-Renyi block (expected within-block degree 5) plus two child
  edges from the causal pair, none with a path to y.
* s5 (p=50): a 3-feature causal core and a 46-node spurious block, same
  recipe; with ``graph_model="sf"`` the truth is drawn per replication
  from the scale-free generator instead and scored against its own
  outcome subgraph.

One recipe turns a replication seed into a truth and a dataset,
:func:`scenario_data`: the seed's ``SeedSequence`` spawns a graph stream and
a data stream; the truth is :func:`scenario_truth` on the first, the data
are drawn on the second from the SEM of ``spec.link`` and ``spec.noise``,
and the outcome column is shifted to be nonnegative.  Replication ``r`` of a
spec uses seed ``seed_base + r``.

Methods (``METHODS``, which the command line reads too): ``nscsl-te`` and
``nscsl-de`` run the selective learner with total or direct effects;
``baseline`` is the selection-free fit.  Selective methods are scored
against the necessary-and-sufficient subgraph of the truth; the baseline is
scored against both that target and the full truth.  :func:`score` builds
the ``fdr``/``tpr``/``shd`` part of every row, and of ``nscausal eval``'s
table.
"""

import os
import time
from dataclasses import dataclass, replace
from itertools import product, repeat

import numpy as np

from .graph import (WeightedDag, ancestors_of, graph_metrics,
                    is_finite_number, is_integer, random_er, random_sf,
                    validate_weight_range)
from .optimizer import FitConfig, fit, fit_baseline
from .scm import (LINKS, BernoulliNoise, GaussianNoise, SemSpec,
                  sample_linear, sample_nonlinear, shift_nonnegative)

# each method and the effect kind of its selective fit (None: the baseline)
METHODS = {"nscsl-te": "te", "nscsl-de": "de", "baseline": None}
SCENARIO_IDS = ("s1", "s2", "s3", "s4", "s5", "custom")

_PRESETS = {
    "s1": dict(p=5, expected_degree=2.0),
    "s2": dict(p=5, expected_degree=2.0),
    "s3": dict(p=5, expected_degree=2.0),
    "s4": dict(p=20, expected_degree=5.0),
    "s5": dict(p=50, expected_degree=5.0),
}

_FIXED_EDGES = {
    "s1": ((1, 2), (1, 4), (2, 4), (3, 4), (2, 0), (3, 0)),
    "s2": ((2, 3), (3, 4), (2, 0), (0, 1)),
    "s3": ((0, 1), (1, 4), (2, 3), (2, 4), (3, 4)),
}

_BLOCK_LAYOUT_SEEDS = {"s4": 940012, "s5": 951207}


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark configuration: graph model, SEM, sizes, methods, seeds.

    ``p``, ``replications``, ``seed_base`` and the ``sample_sizes`` are
    integers (numpy integers included, bools not); ``sample_sizes`` and
    ``methods`` are lists or tuples without repeats (``methods`` of
    strings), ``expected_degree`` is a finite number, ``weight_range`` two
    finite numbers on one side of 0, and ``noise`` holds one parameter or
    one per node.  ``graph_model="sf"`` is accepted for s5 and custom only;
    s1..s4 keep their fixed layouts, and a scale-free ``expected_degree``
    is a whole number from 1 to ``p - 1`` (the edges each node attaches).
    """

    id: str
    p: int = 5
    graph_model: str = "er"
    expected_degree: float = 2.0
    link: str = "linear"
    noise: object = BernoulliNoise(0.5)
    sample_sizes: tuple = (100,)
    replications: int = 50
    methods: tuple = ("nscsl-te",)
    seed_base: int = 0
    weight_range: tuple = (0.5, 2.0)

    def __post_init__(self):
        # value types first: the checks below iterate, index and compare
        for name in ("sample_sizes", "methods"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ValueError(f"{name} must be a list, got "
                                 f"{getattr(self, name)!r}")
        if not is_finite_number(self.expected_degree):
            raise ValueError("expected_degree must be a finite number, got "
                             f"{self.expected_degree!r}")
        if not isinstance(self.noise, (BernoulliNoise, GaussianNoise)):
            raise ValueError("noise must be a BernoulliNoise or GaussianNoise, "
                             f"got {self.noise!r}")
        if self.id not in SCENARIO_IDS:
            raise ValueError(f"unknown scenario id {self.id!r}")
        if self.graph_model not in ("er", "sf"):
            raise ValueError("graph_model must be 'er' or 'sf'")
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}, expected one of {LINKS}")
        if self.graph_model == "sf" and self.id not in ("s5", "custom"):
            raise ValueError(f"{self.id} has a fixed layout; only s5 and custom "
                             "draw scale-free graphs")
        if not self.methods:
            raise ValueError("methods list must not be empty")
        for m in self.methods:
            if not isinstance(m, str):
                raise ValueError(f"methods must hold strings, got {m!r}")
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from "
                                 f"{tuple(METHODS)}")
        sizes = tuple(self.sample_sizes)
        for name, value in ([("p", self.p), ("replications", self.replications),
                             ("seed_base", self.seed_base)]
                            + [("sample_sizes", n) for n in sizes]):
            if not is_integer(value):
                raise ValueError(f"{name} must hold integers, got {value!r}")
        if self.p < 2:
            raise ValueError(f"p must be at least 2, got {self.p}")
        # preferential attachment takes a whole number of edges per arrival
        if self.graph_model == "sf" and not (
                float(self.expected_degree).is_integer()
                and 1 <= self.expected_degree < self.p):
            raise ValueError("expected_degree of a scale-free graph must be an "
                             f"integer from 1 to p - 1 = {self.p - 1}, got "
                             f"{self.expected_degree!r}")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("sample_sizes must be positive")
        # a repeat would rerun the same seeds and pool them as new draws
        for name, values in (("sample_sizes", sizes),
                             ("methods", tuple(self.methods))):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got "
                                 f"{list(values)!r}")
        expected = _PRESETS.get(self.id)
        if expected is not None:
            if self.p != expected["p"] or self.expected_degree != expected["expected_degree"]:
                raise ValueError(
                    f"{self.id} preset fixes p={expected['p']} and "
                    f"degree={expected['expected_degree']}")
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in sizes))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "weight_range",
                           validate_weight_range(self.weight_range))
        self.noise.validate(self.p)


def scenario(spec_id: str, **overrides) -> ScenarioSpec:
    """Preset builder: fills in the fixed p and degree for s1..s5."""
    base = dict(_PRESETS.get(spec_id, {}))
    base.update(overrides)
    return ScenarioSpec(id=spec_id, **base)


def _block_pattern(spec_id: str) -> tuple:
    """Fixed edge pattern for the s4/s5 layouts (causal core + spurious block).

    The cross edges from the causal features into the spurious block target
    the block nodes with the most in-block parents, so each target is a
    collider with non-adjacent parents (orientation stays well determined).
    """
    rng = np.random.default_rng(_BLOCK_LAYOUT_SEEDS[spec_id])
    if spec_id == "s4":
        causal = (0, 1)
        core = ((0, 1), (0, 19), (1, 19))
        block = tuple(range(2, 19))
    else:
        causal = (0, 1, 2)
        core = ((0, 1), (1, 2), (2, 49), (0, 49))
        block = tuple(range(3, 49))
    edges = list(core)
    prob = 5.0 / (len(block) - 1)
    indegree = {i: 0 for i in block}
    for ai, i in enumerate(block):
        for j in block[ai + 1:]:
            if rng.random() < prob:
                edges.append((i, j))
                indegree[j] += 1
    targets = sorted(block, key=lambda i: (-indegree[i], i))[:len(causal)]
    edges.extend((c, t) for c, t in zip(causal, sorted(targets)))
    return tuple(edges)


def scenario_truth(spec: ScenarioSpec, rng) -> WeightedDag:
    """Ground-truth graph for one replication.

    Preset layouts keep their structure and redraw weights; the custom and
    scale-free variants draw the whole graph from the random generators.
    """
    rng = np.random.default_rng(rng)
    if spec.id == "custom" or spec.graph_model == "sf":
        if spec.graph_model == "sf":
            return random_sf(spec.p, int(spec.expected_degree),
                             spec.weight_range, rng)
        return random_er(spec.p, spec.expected_degree, spec.weight_range, rng)
    edges = _FIXED_EDGES.get(spec.id) or _block_pattern(spec.id)
    lo, hi = spec.weight_range
    weights = np.zeros((spec.p, spec.p))
    for (i, j), w in zip(edges, rng.uniform(lo, hi, size=len(edges))):
        weights[i, j] = w
    return WeightedDag(weights, outcome_index=spec.p - 1)


def nscg(truth: WeightedDag) -> WeightedDag:
    """Necessary-and-sufficient causal subgraph for the outcome.

    Keeps exactly the edges lying on a directed path into the outcome (all
    edges into the outcome's ancestors or into the outcome itself); other
    nodes stay, isolated, so indices are stable.
    """
    keep = ancestors_of(truth, truth.outcome_index)
    keep.add(truth.outcome_index)
    weights = truth.weights.copy()
    drop = [j for j in range(truth.dim) if j not in keep]
    weights[:, drop] = 0.0
    return WeightedDag(weights, truth.labels, truth.outcome_index)


def scenario_data(spec: ScenarioSpec, n: int, seed) -> tuple:
    """``(truth, data)`` of replication seed ``seed`` at sample size ``n``.

    ``SeedSequence(seed).spawn(2)`` gives one stream for the truth graph
    and one for the data, which are drawn from ``spec.link``'s sampler; the
    outcome column is shifted to be nonnegative.
    """
    graph_ss, data_ss = np.random.SeedSequence(seed).spawn(2)
    truth = scenario_truth(spec, graph_ss)
    sampler = sample_linear if spec.link == "linear" else sample_nonlinear
    sem = SemSpec(truth, spec.noise, spec.link)
    return truth, shift_nonnegative(sampler(sem, n, seed=data_ss))


def score(estimated: WeightedDag, target: WeightedDag) -> dict:
    """The ``fdr``, ``tpr`` and ``shd`` of ``estimated`` against ``target``."""
    m = graph_metrics(estimated, target)
    return {"fdr": m.fdr, "tpr": m.tpr, "shd": float(m.shd)}


def capped_solves(result) -> int:
    """Inner solves of a fit that stopped at ``max_inner_iter``."""
    return sum(d["stop_reason"] == "max_inner_iter"
               for d in result.diagnostics)


def _replication_rows(spec: ScenarioSpec, config: FitConfig, n: int, r: int) -> list:
    seed = spec.seed_base + r
    truth, data = scenario_data(spec, n, seed)
    target = nscg(truth)

    def row(method, fitted=None, runtime=float("nan"), error="",
            tgt_name="nscg"):
        """The row of ``fitted``, or of a failed fit when it is None."""
        nan = float("nan")
        out = {"scenario": spec.id, "method": method, "target": tgt_name,
               "n": n, "replication": r, "seed": seed, "fdr": nan, "tpr": nan,
               "shd": nan, "runtime_s": runtime, "failed": int(fitted is None),
               "error": error}
        if fitted is not None:
            out.update(score(fitted.graph, target if tgt_name == "nscg" else truth),
                       converged=int(fitted.converged),
                       dual_steps=len(fitted.diagnostics),
                       inner_iterations=sum(d["inner_iterations"]
                                            for d in fitted.diagnostics),
                       capped_solves=capped_solves(fitted))
        return out

    try:
        start = time.perf_counter()
        base = fit_baseline(data, config)
        base_time = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - batch keeps going, row records it
        return [row(m, error=str(exc)) for m in spec.methods]

    rows = []
    for method in spec.methods:
        kind = METHODS[method]
        if kind is None:
            rows.append(row(method, base, base_time))
            rows.append(row(method, base, base_time, tgt_name="full"))
            continue
        try:
            start = time.perf_counter()
            result = fit(data, replace(config, effect_kind=kind), warm_start=base)
            elapsed = time.perf_counter() - start
            rows.append(row(method, result, base_time + elapsed))
        except Exception as exc:  # noqa: BLE001
            rows.append(row(method, error=str(exc)))
    return rows


RAW_FIELDS = ("scenario", "method", "target", "n", "replication", "seed",
              "fdr", "tpr", "shd", "runtime_s", "failed", "error",
              "converged", "dual_steps", "inner_iterations", "capped_solves")
SUMMARY_FIELDS = ("scenario", "method", "target", "n", "replications",
                  "failures", "nonconverged", "capped_solves", "fdr_mean",
                  "fdr_se", "tpr_mean", "tpr_se", "shd_mean", "shd_se",
                  "runtime_mean", "runtime_se")


@dataclass(frozen=True)
class BenchReport:
    """Per-replication rows plus the aggregated summary."""

    spec: ScenarioSpec
    rows: tuple
    summary: tuple


def summarize(rows) -> tuple:
    """Aggregate raw rows into mean/standard-error summary rows.

    Each summary row takes its scenario from the raw rows it aggregates.

    The standard error is the sample standard deviation over replications
    divided by sqrt(count).  Failed replications are counted and excluded
    from the means; fits that ran without converging are counted in
    ``nonconverged`` and kept in the means, and ``capped_solves`` totals
    the inner solves of the non-failed rows that stopped at
    ``max_inner_iter``.
    """
    groups: dict = {}
    for raw in rows:
        key = (str(raw["method"]), str(raw["target"]), int(raw["n"]))
        groups.setdefault(key, []).append(raw)
    summary = []
    for method, target, n in sorted(groups):
        bucket = groups[(method, target, n)]
        good = [b for b in bucket if not int(b["failed"])]
        entry = {"scenario": bucket[0]["scenario"],
                 "method": method, "target": target, "n": n,
                 "replications": len(bucket), "failures": len(bucket) - len(good),
                 "nonconverged": sum(not int(b["converged"]) for b in good),
                 "capped_solves": sum(int(b["capped_solves"]) for b in good)}
        for field in ("fdr", "tpr", "shd", "runtime_s"):
            name = "runtime" if field == "runtime_s" else field
            vals = np.array([float(b[field]) for b in good])
            if len(vals) == 0:
                mean = se = float("nan")
            else:
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            entry[f"{name}_mean"] = mean
            entry[f"{name}_se"] = se
        summary.append(entry)
    return tuple(summary)


def run_scenario(spec: ScenarioSpec, fit_config: FitConfig | None = None,
                 threads: int = 1) -> BenchReport:
    """Run every (sample size, replication, method) cell and aggregate.

    Replication ``r`` is seeded as ``seed_base + r``; rows are assembled in
    deterministic task order regardless of the worker count, and method
    failures become counted rows rather than aborting the batch.  The worker
    count must be an integer from 1 to the number of cores, and
    ``fit_config.delta_star`` must be unset (each replication anchors delta*
    on its own baseline fit); both are checked before any work starts.
    """
    cores = os.cpu_count() or 1
    if not (is_integer(threads) and 1 <= threads <= cores):
        raise ValueError(f"threads must be an integer from 1 to {cores}, "
                         f"got {threads!r}")
    config = fit_config or FitConfig()
    if config.delta_star is not None:
        raise ValueError("run_scenario anchors delta_star on each replication's "
                         "baseline fit; leave FitConfig.delta_star unset")
    sizes, reps = zip(*product(spec.sample_sizes, range(spec.replications)))
    tasks = (repeat(spec), repeat(config), sizes, reps)
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_replication_rows, *tasks))
    else:
        chunks = list(map(_replication_rows, *tasks))
    rows = tuple(row for chunk in chunks for row in chunk)
    return BenchReport(spec, rows, summarize(rows))


def spec_from_dict(doc: dict) -> ScenarioSpec:
    """Build a ScenarioSpec from a JSON-style dict (the bench file format)."""
    if not isinstance(doc, dict):
        raise ValueError("scenario file must hold a JSON object")
    unknown = set(doc) - set(ScenarioSpec.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    doc = dict(doc)
    noise = doc.pop("noise", None)
    if noise is not None:
        if not isinstance(noise, dict):
            raise ValueError("noise must be an object with a 'kind' key")
        kind = noise.get("kind", "bernoulli")
        if kind == "bernoulli":
            key, family = "p", BernoulliNoise
        elif kind == "gaussian":
            key, family = "sigma", GaussianNoise
        else:
            raise ValueError(f"unknown noise kind {kind!r}")
        unknown = set(noise) - {"kind", key}
        if unknown:
            raise ValueError(f"unknown {kind} noise keys: {sorted(unknown)}")
        doc["noise"] = family(noise[key]) if key in noise else family()
    spec_id = doc.pop("id", None)
    if not isinstance(spec_id, str):
        raise ValueError(f"scenario file must carry a string 'id', got {spec_id!r}")
    return scenario(spec_id, **doc)
