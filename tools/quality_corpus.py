"""Quality corpus: fingerprint a fixed set of fits, and compare two runs.

Run from anywhere inside a checkout; it imports the ``src/`` next to its
own directory, with single-threaded BLAS:

    python3 tools/quality_corpus.py --corpus main [--orders K] > main.jsonl
    python3 tools/quality_corpus.py --corpus heldout > heldout.jsonl
    python3 tools/quality_corpus.py --compare OLD.jsonl NEW.jsonl

The groups are one table of ``(name, ScenarioSpec)`` entries: a spec
holds the group's scenario settings, its one sample size, its selective
methods and its main seeds, ``seed_base`` and the ``replications`` after
it.  Both corpora hold the presets s1, s2, s4 and s5, custom Erdos-Renyi
graphs at p=100 and n=1000, and three limited-data groups of custom
Erdos-Renyi graphs, where a full-graph fit is over-dense: p=20 at n=100
and p=50 at n=100 and n=200.  ``CORPORA`` maps ``main`` to that table and
``heldout`` to its twin: the same groups at the next block of as many
seeds, from ``seed_base + replications`` on, without the main-only groups
s1-te-300 and s2-300.

``--corpus`` writes one JSON line per fit.  Every replication is fitted
by ``nscausal.bench.replicate``, the recipe of ``nscausal bench`` and
``nscausal fit``: ``fit_baseline`` once, then each selective method
warm-started from it.  With ``--orders K`` (default 1) each replication
is fitted in the column orders ``0 .. K-1``: order 0 is the identity,
and order ``k >= 1`` permutes the columns by
``default_rng([k, seed]).permutation(dim)``, the outcome moving with its
column.  Each estimate is mapped back to the identity order before it is
hashed and scored.  A line holds the group, scenario, n, seed and method;
``selected`` (null for the baseline); the sha256 of the pruned pattern, of
the raw graph's weights and of the ``diagnostics`` (as the fit recorded
them); ``converged``, then ``dual_steps``, ``inner_iterations`` and
``capped_solves`` (the inner solves that stopped at ``max_inner_iter``) as
``FitResult.counters`` counts them; ``shd`` against the outcome's
necessary-and-sufficient subgraph; then ``order`` and ``full_shd``, the
shd of the pruned graph against the whole true graph; then ``spurious``
and ``missed``, the features the line keeps that are not causal and the
causal features it does not keep.  The causal features are those with a
directed path to the outcome in that subgraph.  A selective fit keeps its
``selected`` features; a baseline line counts the screen, which keeps the
outcome's ancestors in the baseline's pruned graph.  A fit that raises
any exception, the baseline included, is written as a failure line: the
group, scenario, n, seed, method and order, ``selected`` null,
``converged`` false and ``failed``, the error message.  A failed baseline
fails each selective method of its replication with the same message; a
selective fit fails alone when, say, its reference score is 0 (no
feature's effect reaches the outcome in the baseline's pruned graph).

``--compare`` matches the fits of two such files, lists every changed
selection (the features it gained and lost, by position in ``selected``)
and pruned pattern (with its shd before and after), every fit that
stopped converging and every failure line, and prints per-group sums, with
the failure lines left out of the summed fields.  ``capped_solves`` takes
no part in the exit code; neither do a baseline group's spurious and
missed counts, which show the screen beside the selective fits.  It then
prints per group the summed ``full_shd`` of each order with their median,
minimum and maximum, and the selective fits whose selection differs
across orders.  It exits 1
when the files hold different fits, a selection changed, a fit stopped
converging (a new failure line does), a changed pattern's shd rose, or a
selective group's summed spurious or missed count rose; else 0.  A
changed baseline pattern is judged by ``full_shd``, since a baseline
nearer the whole truth can hold more edges outside the outcome's
subgraph; a selective one by ``shd``.  A line that lacks a field the
comparison reads is an error that names the file, the fit and the field,
so a field the tool stopped writing cannot drop its gate unseen; a line's
other fields (the ``start`` of older files) are ignored.  To compare a
change with its parent, run ``--corpus`` in a checkout of each.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402 - after the path and BLAS settings
import nscausal as ns  # noqa: E402
from nscausal.bench import replicate  # noqa: E402

# The main corpus: one scenario spec per group, holding its sample size,
# selective methods and seeds ``seed_base .. seed_base + replications - 1``.
# ``replicate`` fits every replication's baseline once, and its selective
# fits start from it.  The custom groups are Erdos-Renyi graphs of the
# custom scenario's default expected degree, 2, each from seed 1.
_custom = partial(ns.scenario, "custom", seed_base=1)
_TE_DE = ("nscsl-te", "nscsl-de")
_MAIN_ONLY = (
    ("s1-te-300", ns.scenario("s1", seed_base=300, replications=20)),
    ("s2-300", ns.scenario("s2", seed_base=300, replications=20,
                           methods=_TE_DE)),
)
_MAIN = (
    ("s1-te", ns.scenario("s1", seed_base=100)),
    ("s2", ns.scenario("s2", seed_base=200, methods=_TE_DE)),
    ("s4-te", ns.scenario("s4", sample_sizes=(1000,), seed_base=300,
                          replications=20)),
    ("s5-te", ns.scenario("s5", sample_sizes=(1000,), seed_base=500,
                          replications=6)),
    *_MAIN_ONLY,
    ("custom-p100", _custom(p=100, sample_sizes=(1000,), replications=5)),
    ("custom-p20-n100", _custom(p=20, replications=20)),
    ("custom-p50-n100", _custom(p=50, replications=10)),
    ("custom-p50-n200", _custom(p=50, sample_sizes=(200,), replications=10)),
)
# the held-out twin of a group takes the next block of as many seeds
CORPORA = {
    "main": _MAIN,
    "heldout": tuple(
        (group, replace(spec, seed_base=spec.seed_base + spec.replications))
        for group, spec in _MAIN if (group, spec) not in _MAIN_ONLY),
}
KEY = ("group", "scenario", "seed", "method", "order")
COUNTS = ("spurious", "missed")
# the fields --compare sums per group over the fits that did not fail
SUMMED = ("dual_steps", "inner_iterations", "capped_solves", "shd",
          "full_shd") + COUNTS


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def permutation(order: int, seed: int, dim: int) -> np.ndarray:
    """Column order ``order`` of replication ``seed``: the identity for 0."""
    if order == 0:
        return np.arange(dim)
    return np.random.default_rng([order, seed]).permutation(dim)


def permuted(data, perm: np.ndarray):
    """``data`` with column ``a`` holding its column ``perm[a]``."""
    return ns.Dataset(data.values[:, perm],
                      tuple(data.labels[i] for i in perm),
                      int(np.argsort(perm)[data.outcome_index]))


def mapped_back(fitted, perm: np.ndarray, truth):
    """A fit of the ``perm``-permuted data, in ``truth``'s column order."""
    inv = np.argsort(perm)
    outcome = truth.outcome_index

    def graph(g):
        return ns.WeightedDag(g.weights[np.ix_(inv, inv)], truth.labels,
                              outcome)

    active = np.insert(fitted.selected, inv[outcome], True)[inv]
    return replace(fitted, graph=graph(fitted.graph),
                   raw_graph=graph(fitted.raw_graph),
                   selected=np.delete(active, outcome))


def _line(fitted, truth, target, order, **fields):
    line = dict(
        fields,
        selected=(None if fields["method"] == "baseline"
                  else [bool(s) for s in fitted.selected]),
        pattern_sha256=_sha((fitted.graph.weights != 0).tobytes()),
        raw_sha256=_sha(fitted.raw_graph.weights.tobytes()),
        diagnostics_sha256=_sha(json.dumps(fitted.diagnostics).encode()),
        converged=fitted.converged,
        **fitted.counters(),
        shd=ns.graph_metrics(fitted.graph, target).shd)
    line.update(order=order,
                full_shd=ns.graph_metrics(fitted.graph, truth).shd)
    outcome = target.outcome_index
    if line["selected"] is None:  # the screen: the pruned graph's ancestors
        chosen = ns.ancestors_of(fitted.graph, outcome)
    else:
        features = [i for i in range(target.dim) if i != outcome]
        chosen = {i for i, kept in zip(features, fitted.selected) if kept}
    causes = ns.ancestors_of(target, outcome)
    line.update(spurious=len(chosen - causes), missed=len(causes - chosen))
    return line


def failure_line(error: Exception, **fields) -> dict:
    """The line of a fit that raised ``error``."""
    return dict(fields, selected=None, converged=False, failed=str(error))


def replication_lines(truth, data, methods, order, **where) -> list:
    """The lines of one replication's fits in column order ``order``: the
    baseline's, then each of ``methods``'."""
    perm = permutation(order, where["seed"], data.dim)
    target = ns.nscg(truth)
    lines = []
    for method, fitted, _, error in replicate(
            permuted(data, perm), ("baseline", *methods), ns.FitConfig()):
        if error is None:
            lines.append(_line(mapped_back(fitted, perm, truth), truth,
                               target, order, **where, method=method))
        else:
            lines.append(failure_line(error, **where, method=method,
                                      order=order))
    return lines


def run_corpus(name: str, out, orders: int = 1) -> None:
    """Write one JSON line per fit of corpus ``name`` in ``orders`` column
    orders to ``out``."""
    for group, spec in CORPORA[name]:
        n, = spec.sample_sizes
        for seed in range(spec.seed_base, spec.seed_base + spec.replications):
            truth, data = ns.scenario_data(spec, n, seed)
            for order in range(orders):
                for line in replication_lines(truth, data, spec.methods, order,
                                              group=group, scenario=spec.id,
                                              n=n, seed=seed):
                    out.write(json.dumps(line) + "\n")
                out.flush()


def _label(key: tuple) -> str:
    """A fit's name in a report: group, scenario, seed and method, then its
    order when not 0."""
    label = " ".join(str(k) for k in key[:4])
    return label + f" order {key[4]}" if key[4] else label


class _Line(dict):
    """A line of ``path``: reading a field it lacks is a ``ValueError``
    that names the file, the fit and the field."""

    def __init__(self, path: str, fields: dict):
        super().__init__(fields)
        self.path = path

    def __missing__(self, field):
        fit = _label(tuple(self.get(k) for k in KEY))
        raise ValueError(f"{self.path}: the line of fit {fit} has no field "
                         f"{field!r}")


def _load(path: str) -> dict:
    """The lines of ``path`` by ``KEY``; a line that is not JSON is a
    ``ValueError`` that names the file and its line."""
    rows = []
    with open(path) as handle:
        for line, text in enumerate(handle, 1):
            try:
                if text.strip():
                    rows.append(_Line(path, json.loads(text)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {line}: {exc.msg}") from None
    return {tuple(row[k] for k in KEY): row for row in rows}


def _by_order(rows: dict) -> dict:
    """(group, method) -> {order: summed full_shd} over the lines with one,
    and (group, method) -> the selective replications whose selection
    differs across orders."""
    sums, selections = {}, {}
    for (group, scenario, seed, method, order), row in rows.items():
        if "failed" not in row:
            orders = sums.setdefault((group, method), {})
            orders[order] = orders.get(order, 0) + row["full_shd"]
        if row["selected"] is not None:
            selections.setdefault((group, method, scenario, seed), set()).add(
                tuple(row["selected"]))
    varied = {}
    for (group, method, *_), seen in selections.items():
        varied[group, method] = (varied.get((group, method), 0)
                                 + (len(seen) > 1))
    return sums, varied


def _order_summary(orders: dict) -> str:
    if not orders:
        return "-"
    values = [orders[k] for k in sorted(orders)]
    return (f"{values} (median {statistics.median(values):g}, min "
            f"{min(values)}, max {max(values)})")


def _selection_change(old, new) -> str:
    """The features, by position in ``selected``, that ``new`` gained and
    lost against ``old``; both values as they are when either is null."""
    if old is None or new is None:
        return f"{old} -> {new}"
    gained = [k for k, (a, b) in enumerate(zip(old, new)) if b and not a]
    lost = [k for k, (a, b) in enumerate(zip(old, new)) if a and not b]
    return f"gained {gained}, lost {lost}"


def compare(old_path: str, new_path: str, out) -> int:
    """Print what changed from ``old_path`` to ``new_path``; the exit code."""
    old, new = _load(old_path), _load(new_path)
    failed = False
    if old.keys() != new.keys():
        failed = True
        out.write(f"fits differ: {len(old.keys() - new.keys())} only in old, "
                  f"{len(new.keys() - old.keys())} only in new\n")
    keys = [k for k in old if k in new]
    sums: dict = {}
    for key in keys:
        a, b = old[key], new[key]
        label = _label(key)
        for side, row in (("old", a), ("new", b)):
            if "failed" in row:
                out.write(f"fit failed in {side}: {label}: {row['failed']}\n")
        if a["selected"] != b["selected"]:
            failed = True
            out.write(f"selection changed: {label}: "
                      f"{_selection_change(a['selected'], b['selected'])}\n")
        unconverged = a["converged"] and not b["converged"]
        if unconverged:
            failed = True
            out.write(f"stopped converging: {label}\n")
        group = sums.setdefault((key[0], key[3]), {
            "fits": 0, "raw_changed": 0, "diagnostics_changed": 0,
            "unconverged": 0, "failures": [0, 0],
            **{field: [0, 0] for field in SUMMED}})
        group["fits"] += 1
        group["unconverged"] += unconverged
        group["failures"][0] += "failed" in a
        group["failures"][1] += "failed" in b
        if "failed" in a or "failed" in b:
            continue
        if a["pattern_sha256"] != b["pattern_sha256"]:
            # a baseline nearer the whole truth may gain edges outside nscg
            field = "full_shd" if key[3] == "baseline" else "shd"
            failed = failed or b[field] > a[field]
            out.write(f"pattern changed: {label}: {field} {a[field]} -> "
                      f"{b[field]}\n")
        group["raw_changed"] += a["raw_sha256"] != b["raw_sha256"]
        group["diagnostics_changed"] += (a["diagnostics_sha256"]
                                         != b["diagnostics_sha256"])
        for field in SUMMED:
            group[field][0] += a[field]
            group[field][1] += b[field]
    out.write("group method: fits, raw/diagnostics hashes changed, fits "
              "that stopped converging, then old -> new: failed fits, dual "
              "steps, inner iterations, capped solves, shd, full-graph shd, "
              "spurious, missed\n")
    for (group, method), s in sums.items():
        # the baseline's counts are the screen's, shown beside the fits
        failed = failed or method != "baseline" and any(
            s[field][1] > s[field][0] for field in COUNTS)
        out.write(f"{group} {method}: {s['fits']} fits, "
                  f"{s['raw_changed']}/{s['diagnostics_changed']} changed, "
                  f"{s['unconverged']} stopped converging, "
                  + ", ".join(f"{field} {s[field][0]} -> {s[field][1]}"
                              for field in ("failures",) + SUMMED)
                  + "\n")
    (old_sums, old_varied), (new_sums, new_varied) = map(_by_order,
                                                         (old, new))
    out.write("group method: summed full-graph shd per order, old -> new; "
              "selective replications whose selection differs across "
              "orders, old -> new\n")
    for group in sorted(old_sums.keys() | new_sums.keys() | old_varied.keys()
                        | new_varied.keys()):
        text = " -> ".join(_order_summary(side.get(group, {}))
                           for side in (old_sums, new_sums))
        if group in old_varied or group in new_varied:
            text += (f"; {old_varied.get(group, 0)} -> "
                     f"{new_varied.get(group, 0)} varying selections")
        out.write(f"{' '.join(group)}: {text}\n")
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--corpus", choices=tuple(CORPORA))
    action.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--orders", type=int, default=1,
                        help="column orders 0 .. K-1 per replication")
    args = parser.parse_args(argv)
    if args.orders < 1:
        parser.error("--orders must be at least 1")
    if args.corpus:
        run_corpus(args.corpus, sys.stdout, args.orders)
        return 0
    try:
        return compare(*args.compare, sys.stdout)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
