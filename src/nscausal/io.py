"""CSV and JSON serialization for graphs, datasets and fits."""

import contextlib
import csv
import json
import sys
from dataclasses import asdict

import numpy as np

from .graph import WeightedDag
from .optimizer import DIAGNOSTIC_FIELDS
from .scm import Dataset


def _fmt(x) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _csv_writer(path):
    """A CSV writer on a new file at ``path``, or on stdout when it is None."""
    if path is None:
        yield csv.writer(sys.stdout, lineterminator="\n")
        return
    with open(path, "w", newline="") as fh:
        yield csv.writer(fh, lineterminator="\n")


def _write_matrix_csv(labels, matrix, path):
    with _csv_writer(path) as writer:
        writer.writerow(labels)
        for row in matrix:
            writer.writerow([_fmt(x) for x in row])


def write_graph_csv(g: WeightedDag, path):
    """Adjacency matrix, header row = labels, row i = outgoing weights of i."""
    _write_matrix_csv(g.labels, g.weights, path)


def read_graph_csv(path, outcome_index: int = -1) -> WeightedDag:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty graph file")
    labels = tuple(rows[0])
    dim = len(labels)
    if len(rows) != dim + 1:
        raise ValueError(f"{path}: expected {dim} weight rows, found {len(rows) - 1}")
    weights = np.array([[float(x) for x in row] for row in rows[1:]])
    return WeightedDag(weights, labels, outcome_index)


def write_dataset_csv(data: Dataset, path):
    _write_matrix_csv(data.labels, data.values, path)


def load_csv(path, outcome) -> Dataset:
    """Load a numeric CSV with a header row and move the outcome column last.

    ``outcome`` is a column label or an integer index (labels win when both
    readings are possible).  Blank or non-numeric cells are reported with
    their row number and column label.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one observation")
    labels = [cell.strip() for cell in rows[0]]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise ValueError(f"{path}: duplicate column labels {dupes}")
    columns = len(labels)
    values = np.empty((len(rows) - 1, columns))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != columns:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {columns}")
        for c, cell in enumerate(row):
            try:
                values[r - 2, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {r}, column {labels[c]!r}: "
                    f"{cell!r}") from None
    if outcome in labels:
        idx = labels.index(outcome)
    else:
        try:
            idx = int(outcome)
        except (TypeError, ValueError):
            raise ValueError(
                f"{path}: unknown outcome column {outcome!r}; "
                f"available labels: {labels}") from None
        if not (0 <= idx < columns):
            raise ValueError(f"{path}: outcome index {idx} out of range")
    order = [c for c in range(columns) if c != idx] + [idx]
    return Dataset(values[:, order], tuple(labels[c] for c in order), columns - 1)


def write_fit_dir(result, outdir, meta: dict | None = None):
    """Persist a fit: graph.csv, raw_graph.csv, selected.csv, diagnostics.csv,
    meta.json."""
    import os

    os.makedirs(outdir, exist_ok=True)
    write_graph_csv(result.graph, os.path.join(outdir, "graph.csv"))
    write_graph_csv(result.raw_graph, os.path.join(outdir, "raw_graph.csv"))
    labels, outcome = result.graph.labels, result.graph.outcome_index
    features = [label for i, label in enumerate(labels) if i != outcome]
    write_rows_csv([{"label": label, "selected": int(mask)}
                    for label, mask in zip(features, result.selected)],
                   ("label", "selected"), os.path.join(outdir, "selected.csv"))
    write_rows_csv([{**entry, "dropped": ";".join(map(str, entry["dropped"]))}
                    for entry in result.diagnostics],
                   DIAGNOSTIC_FIELDS, os.path.join(outdir, "diagnostics.csv"))
    payload = {
        "delta_star": result.delta_star_used,
        "converged": result.converged,
        "config": asdict(result.config),
    }
    if meta:
        payload.update(meta)
    write_json(payload, os.path.join(outdir, "meta.json"))


def read_fit_dir(outdir) -> tuple:
    """The pruned graph and the selected-feature mask of a persisted fit."""
    import os

    graph = read_graph_csv(os.path.join(outdir, "graph.csv"))
    with open(os.path.join(outdir, "selected.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        selected = np.array([bool(int(row[1])) for row in reader if row])
    return graph, selected


def write_json(payload: dict, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_rows_csv(rows, fields, path=None):
    """Generic CSV writer for dict rows, floats via repr for exact round trips.

    Writes to stdout when ``path`` is None.
    """
    with _csv_writer(path) as writer:
        writer.writerow(fields)
        for row in rows:
            out = []
            for key in fields:
                value = row.get(key, "")
                if isinstance(value, float):
                    out.append(_fmt(value))
                else:
                    out.append(value)
            writer.writerow(out)
