"""The readers and writers of ``nscausal.io``: every public one has a caller
in the package, the CSV readers name the file in every error, and a JSON
document that cannot be encoded leaves no partial file."""

import ast
import inspect
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nscausal
from nscausal import io
from nscausal.bench import replicate, scenario, scenario_data
from nscausal.optimizer import FitConfig


def _called_names(path: Path) -> set:
    """Names called in a module, as ``name(...)`` or ``obj.name(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_every_public_io_function_has_a_caller_in_the_package():
    package = Path(nscausal.__file__).parent
    called = set()
    for path in package.glob("*.py"):
        if path.name != "io.py":
            called |= _called_names(path)
    public = {name for name, obj in inspect.getmembers(io, inspect.isfunction)
              if obj.__module__ == io.__name__ and not name.startswith("_")}
    assert public, "no public functions found in nscausal.io"
    assert sorted(public - called) == []


_NUMBERS = st.one_of(st.integers(-9, 9).map(str),
                     st.floats(allow_nan=True, allow_infinity=True).map(repr))
_ODD_CELLS = st.sampled_from(["", " ", "x", "1,5", '"2"', " 0.5 ", "nan",
                              "inf", "-inf", "1e999"])


@st.composite
def matrix_csv_bytes(draw):
    """Header-plus-matrix CSV text: square or not, often with ragged rows,
    blank, non-numeric or non-finite cells, repeated or quoted labels, and
    sometimes a byte that is not UTF-8."""
    clean = draw(st.booleans())
    cells = _NUMBERS if clean else st.one_of(_NUMBERS, _ODD_CELLS)
    label = st.text(alphabet="yz0" if clean else 'yz0 ,"', max_size=3)
    labels = draw(st.lists(label, min_size=1, max_size=4, unique=clean))
    height = draw(st.one_of(st.just(len(labels)), st.integers(0, 5)))
    rows = [labels]
    for _ in range(height):
        ragged = 0 if clean else draw(st.sampled_from((0, 0, 0, -1, 1)))
        width = len(labels) + ragged
        rows.append(draw(st.lists(cells, min_size=width, max_size=width)))
    text = "\n".join(",".join(row) for row in rows).encode()
    if draw(st.sampled_from((False, False, False, False, True))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(content=matrix_csv_bytes())
def test_csv_readers_return_or_name_the_file(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(content)
        # outcome "0": the column labelled 0, else the first column
        for read in (lambda: io.load_csv(path, "0"),
                     lambda: io.read_graph_csv(path)):
            try:
                read()
            except ValueError as exc:
                assert str(path) in str(exc)


@pytest.mark.parametrize("text, line", [
    ("a,b,y\n\n1,2,3\nx,1,2\n", 4),
    ("a,b,y\n1,2,3\n\n\n1,2\n", 5),
    ('a,b,y\n\n"1\n",2,3\n\n1,inf,2\n', 6),
], ids=["non-numeric-below-a-blank-line", "ragged-below-two-blank-lines",
        "non-finite-below-a-two-line-row"])
def test_located_errors_name_the_line_of_the_file(tmp_path, text, line):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    for read in (lambda: io.load_csv(path, "y"),
                 lambda: io.read_graph_csv(path)):
        with pytest.raises(ValueError, match=rf"row {line}\b"):
            read()


def test_write_json_encodes_before_it_opens(tmp_path):
    # json.dump into the opened file stopped at the value and left
    # '{\n  "a": 1,\n  "b": ' behind, over whatever the file held
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text('{"kept": true}\n')
    for path in (new, old):
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            io.write_json({"a": 1, "b": np.int64(2)}, path)
    assert not new.exists()
    assert old.read_text() == '{"kept": true}\n'


def test_an_unencodable_meta_writes_no_part_of_a_fit_dir(tmp_path):
    # the four CSVs used to be written before meta.json stopped part-way
    _, data = scenario_data(scenario("s1"), 60, 0)
    [(_, result, _, error)] = replicate(data, ("baseline",), FitConfig())
    assert error is None
    fitdir = tmp_path / "fit"
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        io.write_fit_dir(result, fitdir, {"seed": np.int64(3)})
    assert not fitdir.exists()
