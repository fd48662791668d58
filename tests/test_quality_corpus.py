"""``tools/quality_corpus.py --compare`` on hand-written corpus lines."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "quality_corpus.py"
_SPEC = importlib.util.spec_from_file_location("quality_corpus", _PATH)
quality_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality_corpus)


def corpus_line(method, **fields):
    line = dict(group="s1-te", scenario="s1", n=100, seed=100, method=method,
                selected=None, pattern_sha256="p", raw_sha256="r",
                diagnostics_sha256="d", converged=True, dual_steps=3,
                inner_iterations=40, shd=1)
    if method != "baseline":
        line.update(selected=[False, True, True, True], spurious=0, missed=0)
    line.update(fields)
    return line


def compare(tmp_path, old_lines, new_lines):
    paths = []
    for name, lines in (("old", old_lines), ("new", new_lines)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        paths.append(str(path))
    out = io.StringIO()
    return quality_corpus.compare(*paths, out), out.getvalue()


LINES = [corpus_line("baseline"), corpus_line("nscsl-te")]


def test_identical_files_pass(tmp_path):
    code, report = compare(tmp_path, LINES, LINES)
    assert code == 0
    assert "s1-te nscsl-te: 1 fits, 0/0 changed, 0 stopped converging" in report


@pytest.mark.parametrize("method", ["baseline", "nscsl-te"])
def test_a_fit_that_stops_converging_fails(tmp_path, method):
    new = [dict(line, converged=line["method"] != method) for line in LINES]
    code, report = compare(tmp_path, LINES, new)
    assert code == 1
    assert f"stopped converging: s1-te s1 100 {method}\n" in report
    assert f"s1-te {method}: 1 fits, 0/0 changed, 1 stopped converging" in report
    # a fit that starts converging is no failure
    assert compare(tmp_path, new, LINES)[0] == 0


def test_a_changed_selection_fails(tmp_path):
    new = [LINES[0], dict(LINES[1], selected=[True, True, True, True])]
    code, report = compare(tmp_path, LINES, new)
    assert code == 1
    assert "selection changed: s1-te s1 100 nscsl-te" in report
