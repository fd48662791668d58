"""CSV and JSON serialization for graphs, datasets and fits."""

import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .graph import WeightedDag
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


def _csv_rows(path) -> tuple:
    """``(lines, rows)``: the rows of the CSV file at ``path`` that hold a
    non-blank cell, and the 1-based line of the file each one starts on."""
    lines, rows = [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            start = 1
            for row in reader:
                if any(cell.strip() for cell in row):
                    lines.append(start)
                    rows.append(row)
                start = reader.line_num + 1
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: not a readable CSV file: {exc}") from None
    return lines, rows


def _read_matrix_csv(path) -> tuple:
    """``(labels, values)`` of a file with a header row over a numeric matrix.

    Blank rows are skipped and labels stripped.  An empty file, duplicate
    labels, a row of the wrong length and a blank, non-numeric or
    non-finite cell are errors that name the file, and the row (the line
    of the file it starts on) and column label where there is one.
    """
    lines, rows = _csv_rows(path)
    if not rows:
        raise ValueError(f"{path}: empty file")
    labels = [cell.strip() for cell in rows[0]]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise ValueError(f"{path}: duplicate column labels {dupes}")
    columns = len(labels)
    values = np.empty((len(rows) - 1, columns))
    for r, (line, row) in enumerate(zip(lines[1:], rows[1:])):
        if len(row) != columns:
            raise ValueError(f"{path}: row {line} has {len(row)} cells, "
                             f"expected {columns}")
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {line}, column "
                    f"{labels[c]!r}: {cell!r}") from None
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"{path}: non-finite cell at row {lines[r + 1]}, "
                         f"column {labels[c]!r}: {rows[r + 1][c]!r}")
    return labels, values


def read_graph_csv(path, outcome_index: int = -1) -> WeightedDag:
    """The graph that ``write_graph_csv`` wrote to ``path``."""
    labels, weights = _read_matrix_csv(path)
    if len(weights) != len(labels):
        raise ValueError(f"{path}: expected {len(labels)} weight rows, "
                         f"found {len(weights)}")
    return WeightedDag(weights, tuple(labels), outcome_index)


def write_dataset_csv(data: Dataset, path):
    _write_matrix_csv(data.labels, data.values, path)


def load_csv(path, outcome) -> Dataset:
    """Load a numeric CSV with a header row and move the outcome column last.

    ``outcome`` is a column label or an integer index (labels win when both
    readings are possible).  Malformed files are reported as
    ``_read_matrix_csv`` describes.
    """
    labels, values = _read_matrix_csv(path)
    columns = len(labels)
    if len(values) == 0:
        raise ValueError(f"{path}: need a header row and at least one observation")
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


def _feature_labels(g: WeightedDag) -> list:
    return [label for i, label in enumerate(g.labels) if i != g.outcome_index]


def write_fit_dir(result, outdir, meta: dict):
    """Persist a fit: graph.csv, raw_graph.csv, selected.csv, diagnostics.csv,
    meta.json (``converged``, the fit's ``counters()`` and its config, whose
    ``delta_star`` is the reference score the fit ran with, with ``meta``'s
    keys added, and last the outcome's label, which ``read_fit_dir`` reads
    back, so no key of ``meta`` replaces it)."""
    # the optimizer made ``result``, so this import loads nothing new; at
    # the top of the module it would load the learner into every CSV reader
    from .optimizer import DIAGNOSTIC_FIELDS

    os.makedirs(outdir, exist_ok=True)
    write_graph_csv(result.graph, os.path.join(outdir, "graph.csv"))
    write_graph_csv(result.raw_graph, os.path.join(outdir, "raw_graph.csv"))
    write_rows_csv([{"label": label, "selected": int(mask)}
                    for label, mask in zip(_feature_labels(result.graph),
                                           result.selected)],
                   ("label", "selected"), os.path.join(outdir, "selected.csv"))
    write_rows_csv([{**entry, "dropped": ";".join(map(str, entry["dropped"]))}
                    for entry in result.diagnostics],
                   DIAGNOSTIC_FIELDS, os.path.join(outdir, "diagnostics.csv"))
    payload = {
        "converged": result.converged,
        **result.counters(),
        "config": asdict(result.config),
        **meta,
        "outcome": result.graph.labels[result.graph.outcome_index],
    }
    write_json(payload, os.path.join(outdir, "meta.json"))


def read_fit_dir(outdir) -> tuple:
    """The pruned graph and the selected-feature mask of a persisted fit.

    The graph's outcome is the node that ``meta.json`` names under
    ``outcome``; a directory without that key (or without ``meta.json``)
    has it in the last column of ``graph.csv``.  ``selected.csv`` must hold
    the header ``label,selected`` and then, for each feature of the graph
    in order, its label and a 0 or 1.
    """
    path = os.path.join(outdir, "graph.csv")
    graph = read_graph_csv(path)
    meta = os.path.join(outdir, "meta.json")
    if os.path.exists(meta):
        with open(meta) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{meta}: expected a JSON object")
        outcome = doc.get("outcome", graph.labels[-1])
        if outcome not in graph.labels:
            raise ValueError(f"{meta}: the outcome {outcome!r} is not a node "
                             f"of {path}, {list(graph.labels)}")
        graph = WeightedDag(graph.weights, graph.labels,
                            graph.labels.index(outcome))
    path = os.path.join(outdir, "selected.csv")
    rows = _csv_rows(path)[1]
    features = _feature_labels(graph)
    if (rows[:1] != [["label", "selected"]]
            or [row[0] for row in rows[1:]] != features
            or any(row[1:] not in (["0"], ["1"]) for row in rows[1:])):
        raise ValueError(f"{path}: expected the header label,selected and a "
                         f"0 or 1 for each feature of the graph, {features}, "
                         "in order")
    return graph, np.array([row[1] == "1" for row in rows[1:]], dtype=bool)


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
