"""``tools/mec_parity.py`` on its case set and hand-written lines, and
``enumerate_mec``'s one way in on the DAG and tree cases."""

import collections
import dataclasses
import importlib.util
import io
import json
from pathlib import Path

import pytest

from nscausal.mec import Cpdag, dag_to_cpdag, enumerate_mec

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mec_parity.py"
_SPEC = importlib.util.spec_from_file_location("mec_parity", _PATH)
mec_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mec_parity)


def compare(tmp_path, old_lines, new_lines):
    paths = []
    for name, lines in (("old", old_lines), ("new", new_lines)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        paths.append(str(path))
    out = io.StringIO()
    return mec_parity.compare(*paths, out), out.getvalue()


LINES = [{"case": "dag 2 0 sink=False", "members": 1, "sha256": "a"},
         {"case": "random 0", "members": 0, "sha256": "b"}]


def test_case_families_have_their_documented_sizes():
    # every DAG on 2-5 nodes (3 + 25 + 543 + 29,281) with both sink values,
    # every mixed graph on 2-4 nodes with an acyclic directed part, the
    # benchmark's 9 ops and warm-up tree at two seeds with both sink values
    families = collections.Counter(name.split()[0]
                                   for name, _ in mec_parity.cases())
    assert families == {"dag": 59704, "partial": 3674, "tree": 40,
                        "wide": 4, "random": 10000}


def test_fingerprint_counts_members_and_hashes_errors():
    def class_of(directed, undirected):
        return lambda: (Cpdag(4, frozenset(directed), frozenset(undirected)),
                        -1)

    chain = class_of([], [(0, 1), (1, 2), (2, 3)])
    four_cycle = class_of([], [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert mec_parity.fingerprint(chain)[0] == 4
    assert mec_parity.fingerprint(four_cycle)[0] == 0
    assert mec_parity.fingerprint(chain) == mec_parity.fingerprint(chain)
    assert mec_parity.fingerprint(chain)[1] != \
        mec_parity.fingerprint(four_cycle)[1]
    cyclic = class_of([(0, 1), (1, 0)], [])
    assert mec_parity.fingerprint(cyclic)[0] is None


def test_identical_files_pass(tmp_path):
    code, report = compare(tmp_path, LINES, LINES)
    assert code == 0
    assert "dag: 1, 0, 0\nrandom: 1, 0, 0\n" in report


def test_a_changed_hash_fails(tmp_path):
    new = [LINES[0], dict(LINES[1], members=2, sha256="c")]
    code, report = compare(tmp_path, LINES, new)
    assert code == 1
    assert "mismatch: random 0: members 0 -> 2\n" in report
    assert "random: 1, 1, 0\n" in report


def test_a_missing_case_fails(tmp_path):
    code, report = compare(tmp_path, LINES, LINES[:1])
    assert code == 1
    assert "only in old: random 0\n" in report
    assert "random: 0, 0, 1\n" in report


def test_a_line_that_is_not_json_names_the_file_and_its_line(tmp_path,
                                                             capsys):
    # it used to end in a JSONDecodeError traceback that named neither
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(LINES[0]) + '\n{"case": \n')
    with pytest.raises(SystemExit) as exit_info:
        mec_parity.main(["--compare", str(path), str(path)])
    assert exit_info.value.code == 2
    assert f"{path}: line 2: Expecting value" in capsys.readouterr().err


def _dag_cases():
    """(name, graph, outcome index) for every DAG on 2-4 nodes and for the
    ``mec-trees`` trees, the graphs that reach ``enumerate_mec`` through
    ``dag_to_cpdag``."""
    for dim in range(2, 5):
        for code, (edges, _) in enumerate(mec_parity._mixed_graphs(dim, 3)):
            yield f"dag {dim} {code}", mec_parity._graph(edges, dim), -1
    for seed, k, tree in mec_parity.trees():
        yield f"tree {seed} {k}", tree, tree.outcome_index


def test_both_ways_into_enumerate_mec_agree():
    # dag_to_cpdag's Cpdag holds its four fields and nothing else, so it
    # and the same Cpdag built by hand are read into masks and closed the
    # same way, and the search is the same
    for name, g, outcome in _dag_cases():
        for sink in (False, True):
            try:
                c = dag_to_cpdag(g, outcome_sink=sink)
            except ValueError:  # the outcome has a child
                continue
            fresh = Cpdag(c.dim, c.directed, c.undirected, c.labels)
            assert c == fresh and hash(c) == hash(fresh), name
            # the repr shows the fields only (a set's repr follows its
            # build order, so the fresh one's may list edges differently)
            assert repr(c) == (f"Cpdag(dim={c.dim!r}, directed={c.directed!r}"
                               f", undirected={c.undirected!r}, "
                               f"labels={c.labels!r})"), name
            assert dataclasses.fields(c) == dataclasses.fields(fresh)
            assert vars(c).keys() == {f.name for f in
                                      dataclasses.fields(c)}, name
            members = [m.weights.tobytes()
                       for m in enumerate_mec(c, outcome)]
            assert members == [m.weights.tobytes()
                               for m in enumerate_mec(fresh, outcome)], name
            # enumerating changes nothing that a second call would see
            assert members == [m.weights.tobytes()
                               for m in enumerate_mec(c, outcome)], name
