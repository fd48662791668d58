"""Quality corpus: fingerprint a fixed set of fits, and compare two runs.

Run from anywhere inside a checkout; it imports the ``src/`` next to its
own directory, with single-threaded BLAS:

    python3 tools/quality_corpus.py --corpus main > main.jsonl
    python3 tools/quality_corpus.py --corpus heldout > heldout.jsonl
    python3 tools/quality_corpus.py --compare OLD.jsonl NEW.jsonl

``--corpus`` writes one JSON line per fit.  Every replication gets
``fit_baseline``, then each selective method warm-started from it, as
``nscausal bench`` and ``nscausal.fit`` run them.  A line holds the group,
scenario, n, seed and method; ``selected`` (null for the baseline); the
sha256 of the pruned pattern, of the raw graph's weights and of the
``diagnostics``; ``converged``, ``dual_steps`` and ``inner_iterations``;
and ``shd`` against the outcome's necessary-and-sufficient subgraph.  A
selective fit's line also counts its ``spurious`` selected features and its
``missed`` causal features: the causal features are those with a directed
path to the outcome in that subgraph.

``--compare`` matches the fits of two such files, lists every changed
selection and pruned pattern (with its shd before and after) and every fit
that stopped converging, and prints per-group sums.  It exits 1 when the
files hold different fits, a selection changed, a fit stopped converging,
a changed pattern's shd rose, or a group's summed spurious or missed count
rose; else 0.  Lines written without the two counts are compared without
them, and a line's other fields (the ``start`` of older files) are
ignored.  To compare a change with its parent, run ``--corpus`` in a
checkout of each.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nscausal as ns  # noqa: E402 - after the path and BLAS settings
from nscausal.bench import METHODS  # noqa: E402

# group -> (scenario, n, seeds, selective methods); every replication is
# fitted once by ``fit_baseline``, which its selective fits start from
CORPORA = {
    "main": (
        ("s1-te", "s1", 100, range(100, 150), ("nscsl-te",)),
        ("s2", "s2", 100, range(200, 250), ("nscsl-te", "nscsl-de")),
        ("s4-te", "s4", 1000, range(300, 320), ("nscsl-te",)),
        ("s5-te", "s5", 1000, range(500, 506), ("nscsl-te",)),
        ("s1-te-300", "s1", 100, range(300, 320), ("nscsl-te",)),
        ("s2-300", "s2", 100, range(300, 320), ("nscsl-te", "nscsl-de")),
    ),
    "heldout": (
        ("s1-te", "s1", 100, range(150, 200), ("nscsl-te",)),
        ("s2", "s2", 100, range(250, 300), ("nscsl-te", "nscsl-de")),
        ("s4-te", "s4", 1000, range(320, 340), ("nscsl-te",)),
        ("s5-te", "s5", 1000, range(506, 512), ("nscsl-te",)),
    ),
}
KEY = ("group", "scenario", "seed", "method")
COUNTS = ("spurious", "missed")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line(fitted, target, **fields):
    line = dict(
        fields,
        selected=(None if fields["method"] == "baseline"
                  else [bool(s) for s in fitted.selected]),
        pattern_sha256=_sha((fitted.graph.weights != 0).tobytes()),
        raw_sha256=_sha(fitted.raw_graph.weights.tobytes()),
        diagnostics_sha256=_sha(json.dumps(fitted.diagnostics).encode()),
        converged=fitted.converged,
        dual_steps=len(fitted.diagnostics),
        inner_iterations=sum(d["inner_iterations"]
                             for d in fitted.diagnostics),
        shd=ns.graph_metrics(fitted.graph, target).shd)
    if line["selected"] is not None:
        outcome = target.outcome_index
        causes = ns.ancestors_of(target, outcome)
        features = [i for i in range(target.dim) if i != outcome]
        chosen = {i for i, kept in zip(features, fitted.selected) if kept}
        line.update(spurious=len(chosen - causes), missed=len(causes - chosen))
    return line


def run_corpus(name: str, out) -> None:
    """Write one JSON line per fit of corpus ``name`` to ``out``."""
    for group, scenario_id, n, seeds, methods in CORPORA[name]:
        spec = ns.scenario(scenario_id)
        for seed in seeds:
            truth, data = ns.scenario_data(spec, n, seed)
            target = ns.nscg(truth)
            base = ns.fit_baseline(data)
            where = dict(group=group, scenario=scenario_id, n=n, seed=seed)
            lines = [_line(base, target, **where, method="baseline")]
            for method in methods:
                fitted = ns.fit(data,
                                ns.FitConfig(effect_kind=METHODS[method]),
                                warm_start=base)
                lines.append(_line(fitted, target, **where, method=method))
            for line in lines:
                out.write(json.dumps(line) + "\n")
            out.flush()


def _load(path: str) -> dict:
    with open(path) as handle:
        rows = [json.loads(text) for text in handle if text.strip()]
    return {tuple(row[k] for k in KEY): row for row in rows}


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
        label = " ".join(str(k) for k in key)
        if a["selected"] != b["selected"]:
            failed = True
            out.write(f"selection changed: {label}: {a['selected']} -> "
                      f"{b['selected']}\n")
        if a["pattern_sha256"] != b["pattern_sha256"]:
            failed = failed or b["shd"] > a["shd"]
            out.write(f"pattern changed: {label}: shd {a['shd']} -> "
                      f"{b['shd']}\n")
        unconverged = a["converged"] and not b["converged"]
        if unconverged:
            failed = True
            out.write(f"stopped converging: {label}\n")
        group = sums.setdefault((key[0], key[3]), {
            "fits": 0, "raw_changed": 0, "diagnostics_changed": 0,
            "unconverged": 0})
        group["fits"] += 1
        group["unconverged"] += unconverged
        group["raw_changed"] += a["raw_sha256"] != b["raw_sha256"]
        group["diagnostics_changed"] += (a["diagnostics_sha256"]
                                         != b["diagnostics_sha256"])
        fields = ["dual_steps", "inner_iterations", "shd"]
        fields += [field for field in COUNTS if field in a and field in b]
        for field in fields:
            pair = group.setdefault(field, [0, 0])
            pair[0] += a[field]
            pair[1] += b[field]
    out.write("group method: fits, raw/diagnostics hashes changed, fits "
              "that stopped converging, dual steps, inner iterations, shd, "
              "spurious, missed (old -> new)\n")
    for (group, method), s in sums.items():
        fields = [field for field in ("dual_steps", "inner_iterations", "shd")
                  + COUNTS if field in s]
        failed = failed or any(s[field][1] > s[field][0] for field in COUNTS
                               if field in s)
        out.write(f"{group} {method}: {s['fits']} fits, "
                  f"{s['raw_changed']}/{s['diagnostics_changed']} changed, "
                  f"{s['unconverged']} stopped converging, "
                  + ", ".join(f"{field} {s[field][0]} -> {s[field][1]}"
                              for field in fields)
                  + "\n")
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--corpus", choices=tuple(CORPORA))
    action.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.corpus:
        run_corpus(args.corpus, sys.stdout)
        return 0
    return compare(*args.compare, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
