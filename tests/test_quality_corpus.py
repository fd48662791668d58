"""``tools/quality_corpus.py`` on hand-written corpus lines and inputs."""

import hashlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from nscausal.bench import ScenarioSpec, scenario, scenario_data
from nscausal.graph import WeightedDag
from nscausal.optimizer import FitConfig, FitResult
from nscausal.scm import Dataset

_PATH = Path(__file__).resolve().parent.parent / "tools" / "quality_corpus.py"
_SPEC = importlib.util.spec_from_file_location("quality_corpus", _PATH)
quality_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality_corpus)


def corpus_line(method, **fields):
    # every field of a fit's line, as ``--corpus`` writes it
    line = dict(group="s1-te", scenario="s1", n=100, seed=100, method=method,
                selected=None, pattern_sha256="p", raw_sha256="r",
                diagnostics_sha256="d", converged=True, dual_steps=3,
                inner_iterations=40, capped_solves=0, shd=1, order=0,
                full_shd=2, spurious=0, missed=0)
    if method != "baseline":
        line.update(selected=[False, True, True, True])
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


@pytest.mark.parametrize("selected, change", [
    ([True, True, True, True], "gained [0], lost []"),
    ([True, False, True, False], "gained [0], lost [1, 3]"),
    (None, "[False, True, True, True] -> None"),
], ids=["gained", "swapped", "failed"])
def test_a_changed_selection_names_the_features_gained_and_lost(
        tmp_path, selected, change):
    new = [LINES[0], dict(LINES[1], selected=selected)]
    report = compare(tmp_path, LINES, new)[1]
    assert f"selection changed: s1-te s1 100 nscsl-te: {change}\n" in report


@pytest.mark.parametrize("method,shd,full_shd,code", [
    ("baseline", 2, 3, 0), ("baseline", 1, 5, 1), ("nscsl-te", 2, 3, 1)])
def test_a_changed_pattern_is_judged_by_the_shd_of_its_target(
        tmp_path, method, shd, full_shd, code):
    # a baseline against the whole truth, a selective fit against nscg
    old = [corpus_line(method, full_shd=4)]
    new = [corpus_line(method, pattern_sha256="q", shd=shd,
                       full_shd=full_shd)]
    field = "full_shd" if method == "baseline" else "shd"
    report_code, report = compare(tmp_path, old, new)
    assert report_code == code
    assert (f"pattern changed: s1-te s1 100 {method}: {field} "
            f"{old[0][field]} -> {new[0][field]}\n") in report


def test_a_te_fit_with_a_zero_reference_score_is_a_failure_line():
    # z0 -> z1 and an outcome y that is noise: no feature's effect reaches
    # y in the baseline's pruned graph, so the te fit has delta_star 0
    rng = np.random.default_rng(5)
    z0 = rng.normal(size=300)
    values = np.column_stack([z0, 1.5 * z0 + rng.normal(size=300),
                              rng.normal(size=300)])
    truth = WeightedDag(np.array([[0, 1.5, 0], [0, 0, 0], [0, 0, 0]]),
                        ("z0", "z1", "y"), 2)
    data = Dataset(values, truth.labels, 2)
    lines = quality_corpus.replication_lines(
        truth, data, ("nscsl-te",), 1, group="hand", scenario="custom",
        n=300, seed=7)
    assert [line["method"] for line in lines] == ["baseline", "nscsl-te"]
    assert lines[0]["full_shd"] == 0 and lines[0]["order"] == 1
    # the fixture writes the fields of a real fit's line
    assert sorted(lines[0]) == sorted(corpus_line("baseline"))
    assert lines[1] == dict(
        group="hand", scenario="custom", n=300, seed=7, method="nscsl-te",
        order=1, selected=None, converged=False,
        failed="delta_star is 0: no feature's effect reaches the outcome in "
               "the reference graph, so there is nothing to select against")


def test_a_baseline_line_counts_the_screen():
    # z0 -> y -> z1, with z1 a low-noise child of y: the baseline reverses
    # both edges, so the screen (the outcome's ancestors in its pruned
    # graph) keeps the non-cause z1 and misses the cause z0
    rng = np.random.default_rng(0)
    z0 = rng.normal(size=300)
    y = z0 + rng.normal(size=300)
    values = np.column_stack([z0, 0.5 * y + 0.1 * rng.normal(size=300), y])
    truth = WeightedDag(np.array([[0, 0, 1.0], [0, 0, 0], [0, 0.5, 0]]),
                        ("z0", "z1", "y"), 2)
    lines = quality_corpus.replication_lines(
        truth, Dataset(values, truth.labels, 2), (), 0, group="hand",
        scenario="custom", n=300, seed=0)
    assert [line["method"] for line in lines] == ["baseline"]
    assert lines[0]["spurious"] == 1 and lines[0]["missed"] == 1


def test_compare_sums_the_screen_beside_the_selective_fits(tmp_path):
    old = [dict(LINES[0], spurious=1, missed=0), LINES[1]]
    new = [dict(LINES[0], spurious=4, missed=2), LINES[1]]
    code, report = compare(tmp_path, old, new)
    assert code == 0  # the screen's counts take no part in the exit code
    assert "full_shd 2 -> 2, spurious 1 -> 4, missed 0 -> 2\n" in report
    # a selective fit's rising count still fails
    assert compare(tmp_path, new, [new[0], dict(LINES[1], missed=1)])[0] == 1


@pytest.mark.parametrize("fitter, failed", [
    ("fit_baseline", ["baseline", "nscsl-te", "nscsl-de"]),
    ("fit", ["nscsl-te", "nscsl-de"]),
], ids=["baseline", "selective"])
def test_any_failed_fit_is_a_failure_line(monkeypatch, fitter, failed):
    # not only a selective fit's ValueError: any exception, and a failed
    # baseline fails each selective fit of its replication with its message
    import nscausal.bench as bench

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(bench, fitter, boom)
    truth, data = scenario_data(scenario("s2"), 100, 200)
    where = dict(group="s2", scenario="s2", n=100, seed=200)
    lines = quality_corpus.replication_lines(
        truth, data, ("nscsl-te", "nscsl-de"), 0, **where)
    assert [line["method"] for line in lines] == [
        "baseline", "nscsl-te", "nscsl-de"]
    assert [line for line in lines if "failed" in line] == [
        dict(where, method=method, order=0, selected=None, converged=False,
             failed="synthetic") for method in failed]


def test_compare_reports_failure_lines(tmp_path):
    failure = quality_corpus.failure_line(
        ValueError("delta_star is 0"), group="s1-te", scenario="s1", n=100,
        seed=100, method="nscsl-te", order=0)
    code, report = compare(tmp_path, LINES, [LINES[0], failure])
    assert code == 1  # a new failure stops a fit converging
    assert ("fit failed in new: s1-te s1 100 nscsl-te: delta_star is 0"
            in report)
    assert "stopped converging: s1-te s1 100 nscsl-te\n" in report
    code, report = compare(tmp_path, [LINES[0], failure], [LINES[0], failure])
    assert code == 0
    # the failure lines are left out of the sums
    assert ("s1-te nscsl-te: 1 fits, 0/0 changed, 0 stopped converging, "
            "failures 1 -> 1, dual_steps 0 -> 0, inner_iterations 0 -> 0, "
            "capped_solves 0 -> 0, shd 0 -> 0, full_shd 0 -> 0, "
            "spurious 0 -> 0, missed 0 -> 0\n") in report


def test_compare_sums_full_graph_shd_per_order(tmp_path):
    old = [corpus_line("baseline", seed=seed, order=order, full_shd=shd)
           for seed, order, shd in ((100, 0, 4), (101, 0, 1), (100, 1, 2),
                                    (101, 1, 2), (100, 2, 9), (101, 2, 0))]
    new = [dict(line, full_shd=0) for line in old]
    code, report = compare(tmp_path, old, new)
    assert code == 0  # full-graph shd takes no part in the exit code
    assert ("s1-te baseline: [5, 4, 9] (median 5, min 4, max 9) -> "
            "[0, 0, 0] (median 0, min 0, max 0)\n") in report
    assert "full_shd 18 -> 0" in report


def test_compare_sums_capped_solves_when_both_files_carry_them(tmp_path):
    old = [dict(line, capped_solves=2) for line in LINES]
    new = [dict(line, capped_solves=5) for line in LINES]
    code, report = compare(tmp_path, old, new)
    assert code == 0  # capped solves take no part in the exit code
    assert ("s1-te baseline: 1 fits, 0/0 changed, 0 stopped converging, "
            "failures 0 -> 0, dual_steps 3 -> 3, inner_iterations 40 -> 40, "
            "capped_solves 2 -> 5, shd 1 -> 1, full_shd 2 -> 2, "
            "spurious 0 -> 0, missed 0 -> 0\n") in report
    # a file written before the field is an error, not compared without it
    older = [{k: v for k, v in line.items() if k != "capped_solves"}
             for line in LINES]
    with pytest.raises(ValueError, match="the line of fit s1-te s1 100 "
                       "baseline has no field 'capped_solves'$"):
        compare(tmp_path, older, new)


@pytest.mark.parametrize("field", [f for f in corpus_line("nscsl-te")
                                   if f != "n"])
def test_a_fit_line_without_a_field_is_an_error(tmp_path, capsys, field):
    # a field the tool stopped writing must not drop its gate unseen; every
    # field of a fit's line but ``n``, which no gate reads, is read
    older = [LINES[0], {k: v for k, v in LINES[1].items() if k != field}]
    for old, new in ((older, LINES), (LINES, older)):
        with pytest.raises(ValueError, match=f"has no field '{field}'$"):
            compare(tmp_path, old, new)
    with pytest.raises(SystemExit) as exit_info:
        quality_corpus.main(["--compare", str(tmp_path / "old.jsonl"),
                             str(tmp_path / "new.jsonl")])
    assert exit_info.value.code == 2
    assert f"has no field '{field}'" in capsys.readouterr().err


def test_compare_counts_selections_that_differ_across_orders(tmp_path):
    lines = [corpus_line("nscsl-te", order=order) for order in range(3)]
    varied = [dict(lines[0], selected=[True, True, True, True])] + lines[1:]
    report = compare(tmp_path, lines, varied)[1]
    assert "0 -> 1 varying selections" in report


def test_a_permuted_fit_maps_back_to_the_identity_order():
    perm = quality_corpus.permutation(3, 11, 4)
    assert sorted(perm) == [0, 1, 2, 3] and list(perm) != [0, 1, 2, 3]
    truth = WeightedDag(np.triu(np.arange(1.0, 17.0).reshape(4, 4), 1),
                        outcome_index=2)
    data = Dataset(np.arange(20.0).reshape(5, 4), truth.labels, 2)
    moved = quality_corpus.permuted(data, perm)
    assert moved.labels[moved.outcome_index] == truth.labels[2]
    assert (moved.values == data.values[:, perm]).all()
    # a fit that keeps z0 and z3 and drops z1, in the permuted order
    keep = {0: True, 1: False, 3: True}
    weights = truth.weights[np.ix_(perm, perm)]
    fitted = FitResult(WeightedDag(weights), WeightedDag(weights),
                       np.array([keep[i] for i in perm if i != 2]), (), True,
                       FitConfig())
    back = quality_corpus.mapped_back(fitted, perm, truth)
    assert (back.graph.weights == truth.weights).all()
    assert (back.raw_graph.weights == truth.weights).all()
    assert back.graph.outcome_index == 2
    assert list(back.selected) == [True, False, True]


@pytest.mark.parametrize("scenario_id,seeds,methods", [
    ("s1", range(100, 104), ("nscsl-te",)),
    ("s2", range(200, 204), ("nscsl-te", "nscsl-de")),
], ids=["s1", "s2"])
def test_selective_fits_do_not_depend_on_the_column_order(
        scenario_id, seeds, methods):
    # each order's estimate is mapped back to the identity order first
    for seed in seeds:
        truth, data = scenario_data(scenario(scenario_id), 100, seed)
        fits = [{line["method"]: (line["selected"], line["pattern_sha256"])
                 for line in quality_corpus.replication_lines(
                     truth, data, methods, order, group=scenario_id,
                     scenario=scenario_id, n=100, seed=seed)
                 if line["method"] != "baseline"}
                for order in range(4)]
        assert fits[1:] == [fits[0]] * 3, seed


@pytest.mark.parametrize("name, count, digest", [
    ("main", 422,
     "b0aeab4216ba5d647ae560c38f8d1966df7ae13f27e9f3a6ec05ddeb5950f1b4"),
    ("heldout", 342,
     "dd3594255392dd6635199fc615a1273076792b2cbcd2f8f628bc77b2f57be89b"),
])
def test_each_corpus_iterates_its_pinned_groups(monkeypatch, name, count,
                                                 digest):
    # the group, scenario settings, n, seed, methods and order that
    # ``run_corpus`` hands each replication, in corpus order, without a fit;
    # a rewrite of the group table must keep them all
    calls = []

    def data(spec, n, seed):
        return spec, (n, seed)

    def lines(spec, drawn, methods, order, **where):
        calls.append([where["group"], spec.id, spec.p, spec.expected_degree,
                      spec.graph_model, spec.link, repr(spec.noise),
                      list(spec.weight_range), *drawn, where["scenario"],
                      where["n"], where["seed"], list(methods), order])
        return []

    monkeypatch.setattr(quality_corpus.ns, "scenario_data", data)
    monkeypatch.setattr(quality_corpus, "replication_lines", lines)
    out = io.StringIO()
    quality_corpus.run_corpus(name, out, orders=2)
    assert out.getvalue() == ""
    assert len(calls) == count
    assert hashlib.sha256(json.dumps(calls).encode()).hexdigest() == digest


def test_a_group_with_an_unknown_method_is_an_error():
    # a group is a scenario spec, so a misspelled method fails when the
    # table is built, before any group's fits run
    assert all(isinstance(spec, ScenarioSpec)
               for groups in quality_corpus.CORPORA.values()
               for _, spec in groups)
    with pytest.raises(ValueError, match="unknown method 'nscsl-ee'"):
        scenario("s2", seed_base=200, methods=("nscsl-te", "nscsl-ee"))
