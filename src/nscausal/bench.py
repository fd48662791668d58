"""Benchmark scenarios: synthetic ground truths, replication runs, reports.

Scenario presets follow the simulation design at desk scale.  The node
layouts are fixed per scenario (weights are redrawn each replication from
``weight_range``, by default ``DEFAULT_WEIGHT_RANGE``), so the
spurious/causal composition is stable.  Each preset is one ``_PRESETS``
entry: its size, its fixed edges and, for s4 and s5, its spurious block:

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
scored against both that target and the full truth.  Every target of a
method gets a row, a failed row when its fit failed.  :func:`replicate`
is the one recipe that fits a replication's methods, for
:func:`run_scenario`, ``nscausal fit`` and ``tools/quality_corpus.py``:
the baseline once, each selective method warm-started from it.
:func:`score` builds the ``fdr``/``tpr``/``shd`` part of every row, and of
``nscausal eval``'s table.
"""

import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import product, repeat

import numpy as np

from .graph import (DEFAULT_WEIGHT_RANGE, WeightedDag, ancestors_of,
                    check_count, check_random_graph, graph_metrics,
                    is_integer, random_er, random_sf, validate_weight_range)
from .optimizer import FitConfig, fit, fit_baseline
from .scm import (BernoulliNoise, GaussianNoise, SemSpec, check_sem,
                  sample_linear, sample_nonlinear, shift_nonnegative)

# each method and the effect kind of its selective fit (None: the baseline)
METHODS = {"nscsl-te": "te", "nscsl-de": "de", "baseline": None}
GRAPH_MODELS = ("er", "sf")
# each noise kind of a scenario document: its parameter key and its family
NOISE_KINDS = {"bernoulli": ("p", BernoulliNoise),
               "gaussian": ("sigma", GaussianNoise)}

# each preset: its size and fixed edges; s4 and s5 add a spurious block,
# (layout seed, causal features, block nodes), which _layout draws
_PRESETS = {
    "s1": dict(p=5, expected_degree=2.0,
               edges=((1, 2), (1, 4), (2, 4), (3, 4), (2, 0), (3, 0))),
    "s2": dict(p=5, expected_degree=2.0,
               edges=((2, 3), (3, 4), (2, 0), (0, 1))),
    "s3": dict(p=5, expected_degree=2.0,
               edges=((0, 1), (1, 4), (2, 3), (2, 4), (3, 4))),
    "s4": dict(p=20, expected_degree=5.0, edges=((0, 1), (0, 19), (1, 19)),
               block=(940012, (0, 1), range(2, 19))),
    "s5": dict(p=50, expected_degree=5.0,
               edges=((0, 1), (1, 2), (2, 49), (0, 49)),
               block=(951207, (0, 1, 2), range(3, 49))),
}
SCENARIO_IDS = (*_PRESETS, "custom")


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark configuration: graph model, SEM, sizes, methods, seeds.

    ``replications`` and the ``sample_sizes`` are positive integers and
    ``seed_base`` a nonnegative one (numpy integers included, bools not);
    ``sample_sizes`` and ``methods`` are lists or tuples without repeats
    (``methods`` of strings), and ``weight_range`` two finite numbers on
    one side of 0.
    ``graph_model="sf"`` is accepted for s5 and custom only; s1..s4 keep
    their fixed layouts.  Where the truth is drawn from a generator (custom,
    or scale-free), :func:`~nscausal.graph.check_random_graph` checks ``p``
    and ``expected_degree``; ``noise`` and ``link`` go through
    :func:`~nscausal.scm.check_sem`.  The size defaults, 10 nodes and
    expected degree 2, are the custom scenario's; a preset takes only its
    own fixed size, which :func:`scenario` fills in.
    """

    id: str
    p: int = 10
    graph_model: str = "er"
    expected_degree: float = 2.0
    link: str = "linear"
    noise: object = BernoulliNoise(0.5)
    sample_sizes: tuple = (100,)
    replications: int = 50
    methods: tuple = ("nscsl-te",)
    seed_base: int = 0
    weight_range: tuple = DEFAULT_WEIGHT_RANGE

    def __post_init__(self):
        # value types first: the checks below iterate, index and compare
        for name in ("sample_sizes", "methods"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ValueError(f"{name} must be a list, got "
                                 f"{getattr(self, name)!r}")
        if self.id not in SCENARIO_IDS:
            raise ValueError(f"unknown scenario id {self.id!r}")
        if self.graph_model not in GRAPH_MODELS:
            raise ValueError("graph_model must be "
                             + " or ".join(map(repr, GRAPH_MODELS)))
        if self.graph_model == "sf" and self.id not in ("s5", "custom"):
            raise ValueError(f"graph_model 'sf' is for s5 and custom only: "
                             f"{self.id} has a fixed layout, not a scale-free "
                             "draw")
        if not self.methods:
            raise ValueError("methods list must not be empty")
        for m in self.methods:
            if not isinstance(m, str):
                raise ValueError(f"methods must hold strings, got {m!r}")
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} in methods; choose "
                                 f"from {tuple(METHODS)}")
        sizes = tuple(self.sample_sizes)
        check_count("replications", self.replications)
        check_count("seed_base", self.seed_base, low=0)
        for n in sizes:
            check_count("sample_sizes", n)
        if not sizes:
            raise ValueError("sample_sizes must not be empty")
        # a repeat would rerun the same seeds and pool them as new draws
        for name, values in (("sample_sizes", sizes),
                             ("methods", tuple(self.methods))):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got "
                                 f"{list(values)!r}")
        expected = _PRESETS.get(self.id)
        if expected is not None and not (
                is_integer(self.p) and self.p == expected["p"]
                and self.expected_degree == expected["expected_degree"]):
            raise ValueError(
                f"{self.id} preset fixes p={expected['p']} and "
                f"expected_degree={expected['expected_degree']}")
        if self.id == "custom" or self.graph_model == "sf":
            check_random_graph(self.graph_model, self.p, self.expected_degree)
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in sizes))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "weight_range",
                           validate_weight_range(self.weight_range))
        check_sem(self.noise, self.link, self.p)


def scenario(spec_id: str, **overrides) -> ScenarioSpec:
    """Preset builder: fills in the fixed p and degree for s1..s5."""
    preset = _PRESETS.get(spec_id, {})
    size = {k: v for k, v in preset.items() if k in ("p", "expected_degree")}
    return ScenarioSpec(id=spec_id, **{**size, **overrides})


def _layout(preset: dict) -> list:
    """The edges of a preset's layout: its fixed edges, then, with a
    spurious block, the block's edges and its cross edges.

    The block's edges are drawn from its layout seed, each pair of block
    nodes joined with the probability that gives the preset's expected
    degree.  The cross edges from the causal features into the block
    target the block nodes with the most in-block parents, so each target
    is a collider with non-adjacent parents (orientation stays well
    determined).
    """
    edges = list(preset["edges"])
    if "block" in preset:
        seed, causal, nodes = preset["block"]
        rng = np.random.default_rng(seed)
        prob = preset["expected_degree"] / (len(nodes) - 1)
        block = [(i, j) for ai, i in enumerate(nodes) for j in nodes[ai + 1:]
                 if rng.random() < prob]
        indegree = Counter(j for _, j in block)
        targets = sorted(nodes, key=lambda i: (-indegree[i], i))[:len(causal)]
        edges += block + list(zip(causal, sorted(targets)))
    return edges


def scenario_truth(spec: ScenarioSpec, rng) -> WeightedDag:
    """Ground-truth graph for one replication.

    Preset layouts keep their structure and redraw weights; the custom and
    scale-free variants draw the whole graph from the random generators.
    """
    rng = np.random.default_rng(rng)
    if spec.graph_model == "sf":
        return random_sf(spec.p, spec.expected_degree, spec.weight_range, rng)
    if spec.id == "custom":
        return random_er(spec.p, spec.expected_degree, spec.weight_range, rng)
    edges = _layout(_PRESETS[spec.id])
    weights = np.zeros((spec.p, spec.p))
    i, j = np.transpose(edges)
    weights[i, j] = rng.uniform(*spec.weight_range, size=len(edges))
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


def _timed(call, *args, **kwargs) -> tuple:
    """``(result, seconds, None)`` of ``call(*args, **kwargs)``, or
    ``(None, nan, exception)`` when it raises."""
    start = time.perf_counter()
    try:
        return call(*args, **kwargs), time.perf_counter() - start, None
    except Exception as exc:  # noqa: BLE001 - the caller records it
        return None, float("nan"), exc


def replicate(data, methods, config: FitConfig) -> list:
    """``(method, fit, runtime_s, error)`` of each of ``methods`` on
    ``data``, in ``methods`` order: the one recipe of a replication.

    The selection-free baseline is fitted once.  The baseline method
    (``METHODS[m] is None``) gets that fit and its time; each selective
    method gets ``fit`` warm-started from it with its effect kind, timed as
    the baseline's time plus its own.  A fit that raises gives ``fit`` None,
    a NaN runtime and the exception as ``error`` (else None); a failed
    baseline fails every method with its exception.
    """
    base, base_time, error = _timed(fit_baseline, data, config)
    fits = []
    for method in methods:
        kind = METHODS[method]
        if base is None or kind is None:
            fits.append((method, base, base_time, error))
            continue
        fitted, seconds, exc = _timed(
            fit, data, replace(config, effect_kind=kind), warm_start=base)
        fits.append((method, fitted, base_time + seconds, exc))
    return fits


def _replication_rows(spec: ScenarioSpec, config: FitConfig, n: int, r: int) -> list:
    seed = spec.seed_base + r
    truth, data = scenario_data(spec, n, seed)
    # every method is scored against the NSCG, the baseline also against
    # the full truth
    targets = (("nscg", nscg(truth)), ("full", truth))

    def method_rows(method, fitted, runtime, error):
        """One row of ``method``'s fit ``fitted`` (None: a failed fit, which
        raised ``error``) per target of ``method``."""
        nan = float("nan")
        counts = {} if fitted is None else dict(
            converged=int(fitted.converged), **fitted.counters())
        scored = targets if METHODS[method] is None else targets[:1]
        return [{"scenario": spec.id, "method": method, "target": name,
                 "n": n, "replication": r, "seed": seed, "fdr": nan,
                 "tpr": nan, "shd": nan, "runtime_s": runtime,
                 "failed": int(fitted is None),
                 "error": "" if error is None else str(error),
                 **(score(fitted.graph, target) if fitted is not None else {}),
                 **counts} for name, target in scored]

    return [row for entry in replicate(data, spec.methods, config)
            for row in method_rows(*entry)]


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


def known_keys(doc, keys, what: str) -> dict:
    """``doc`` once it is a JSON object with no unknown keys; ``what`` names it."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return doc


def spec_from_dict(doc: dict) -> ScenarioSpec:
    """Build a ScenarioSpec from a JSON-style dict (the bench file format)."""
    doc = dict(known_keys(doc, ScenarioSpec.__dataclass_fields__, "scenario"))
    noise = doc.pop("noise", None)
    if noise is not None:
        # a noise that is no object reads as bernoulli and fails known_keys
        kind = (noise.get("kind", "bernoulli") if isinstance(noise, dict)
                else "bernoulli")
        if not isinstance(kind, str) or kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {kind!r}")
        key, family = NOISE_KINDS[kind]
        known_keys(noise, ("kind", key), "noise")
        doc["noise"] = family(noise[key]) if key in noise else family()
    spec_id = doc.pop("id", None)
    if not isinstance(spec_id, str):
        raise ValueError(f"scenario file must carry a string 'id', got {spec_id!r}")
    return scenario(spec_id, **doc)
