import contextlib
import csv
import dataclasses
import io as stdio
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nscausal.cli as cli
from nscausal import (BernoulliNoise, Dataset, GaussianNoise, WeightedDag,
                      io, scenario, scenario_data)
from nscausal.bench import (GRAPH_MODELS, METHODS, NOISE_KINDS, SCENARIO_IDS,
                            BenchReport, ScenarioSpec, replicate,
                            spec_from_dict)
from nscausal.cli import main
from nscausal.effects import EFFECT_FIELDS, EFFECT_KINDS, effect_rows
from nscausal.optimizer import DIAGNOSTIC_FIELDS, FitConfig
from nscausal.scm import LINKS


def read_meta(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("created_utc", None)
    return doc


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_writes_truth_nscg_and_data(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--scenario", "s1", "--n", "50",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        for name in ("truth.csv", "nscg.csv", "data.csv", "meta.json"):
            assert (out / name).exists()

    def test_identical_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--scenario", "s2", "--n", "40",
                         "--seed", "9", "--out", str(out)]) == 0
        for name in ("truth.csv", "nscg.csv", "data.csv"):
            assert file_bytes(a / name) == file_bytes(b / name)
        assert read_meta(a / "meta.json") == read_meta(b / "meta.json")

    def test_custom_scenario(self, tmp_path):
        out = tmp_path / "c"
        code = main(["simulate", "--scenario", "custom", "--p", "6",
                     "--degree", "2", "--n", "30", "--out", str(out)])
        assert code == 0

    def test_custom_scenario_defaults_to_ten_nodes(self, tmp_path):
        out = tmp_path / "c"
        assert main(["simulate", "--scenario", "custom", "--n", "30",
                     "--out", str(out)]) == 0
        assert len(io.read_graph_csv(out / "truth.csv").labels) == 10

    def test_custom_default_size_has_one_owner(self, tmp_path):
        # the dataclass, `scenario`, a bench file and simulate all
        # draw a custom scenario on 10 nodes with expected degree 2
        specs = (ScenarioSpec(id="custom"), scenario("custom"),
                 spec_from_dict({"id": "custom"}))
        assert {(s.p, s.expected_degree) for s in specs} == {(10, 2.0)}
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", "custom", "--n", "25",
                     "--seed", "6", "--out", str(out)]) == 0
        truth, data = scenario_data(specs[0], 25, 6)
        io.write_graph_csv(truth, tmp_path / "truth.csv")
        io.write_dataset_csv(data, tmp_path / "data.csv")
        for name in ("truth.csv", "data.csv"):
            assert file_bytes(out / name) == file_bytes(tmp_path / name)

    @pytest.mark.parametrize("flags, key", [
        (["--scenario", "s1", "--p", "7", "--degree", "4"], "p"),
        (["--scenario", "s1", "--degree", "4"], "expected_degree"),
        (["--scenario", "s5", "--model", "sf", "--degree", "3"],
         "expected_degree"),
    ], ids=["s1-p-degree", "s1-degree", "s5-sf-degree"])
    def test_preset_rejects_size_flags_by_name(self, tmp_path, capsys,
                                               flags, key):
        out = tmp_path / "sim"
        assert main(["simulate", *flags, "--n", "10", "--out", str(out)]) == 1
        assert names_a_key(capsys.readouterr().err, [key])
        assert not out.exists()

    def test_negative_seed_is_rejected_by_name(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" named no key
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "10",
                     "--seed", "-2", "--out", str(out)]) == 1
        assert "seed_base must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,spec", [
        (["--scenario", "s1"], scenario("s1")),
        (["--scenario", "s5", "--model", "sf"],
         scenario("s5", graph_model="sf")),
        (["--scenario", "custom", "--model", "sf", "--p", "7"],
         scenario("custom", p=7, graph_model="sf")),
        (["--scenario", "s2", "--noise", "gaussian", "--sigma", "0.5"],
         scenario("s2", noise=GaussianNoise(0.5))),
        (["--scenario", "s1", "--link", "rounded-log", "--noise-p", "0.3"],
         scenario("s1", link="rounded-log", noise=BernoulliNoise(0.3))),
        # a preset takes its own size: only another value is rejected
        (["--scenario", "s1", "--p", "5", "--degree", "2"], scenario("s1")),
        (["--scenario", "s4", "--degree", "5"], scenario("s4")),
    ], ids=["s1", "s5-sf", "custom-sf", "s2-gaussian", "s1-rounded-log",
            "s1-own-p-degree", "s4-own-degree"])
    def test_outputs_are_the_scenario_data_draw(self, tmp_path, flags, spec):
        out = tmp_path / "sim"
        assert main(["simulate", *flags, "--n", "25", "--seed", "6",
                     "--out", str(out)]) == 0
        truth, data = scenario_data(spec, 25, 6)
        io.write_graph_csv(truth, tmp_path / "truth.csv")
        io.write_dataset_csv(data, tmp_path / "data.csv")
        for name in ("truth.csv", "data.csv"):
            assert file_bytes(out / name) == file_bytes(tmp_path / name)


class TestPipeline:
    def test_simulate_fit_eval_effects(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        fitdir = tmp_path / "fit"
        assert main(["simulate", "--scenario", "s1", "--n", "120",
                     "--seed", "1", "--out", str(sim)]) == 0
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--method", "nscsl-te", "--out", str(fitdir)]) == 0
        for name in ("graph.csv", "raw_graph.csv", "selected.csv",
                     "diagnostics.csv", "meta.json"):
            assert (fitdir / name).exists()
        with open(fitdir / "diagnostics.csv", newline="") as fh:
            assert tuple(next(csv.reader(fh))) == DIAGNOSTIC_FIELDS
        assert main(["eval", "--estimated", str(fitdir / "graph.csv"),
                     "--truth", str(sim / "nscg.csv")]) == 0
        evaluated = capsys.readouterr().out.splitlines()
        assert evaluated[0] == "fdr,tpr,shd"
        assert len(evaluated) == 2
        assert main(["effects", "--fit", str(fitdir)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0] == "node,label,direct_effect,total_effect"

    def test_fit_method_baseline(self, tmp_path):
        sim = tmp_path / "sim"
        fitdir = tmp_path / "fit"
        assert main(["simulate", "--scenario", "s1", "--n", "80",
                     "--seed", "2", "--out", str(sim)]) == 0
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--method", "baseline", "--out", str(fitdir)]) == 0
        meta = read_meta(fitdir / "meta.json")
        assert meta["resolved"]["method"] == "baseline"

    def test_fit_log_counts_capped_solves(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "60",
                     "--seed", "4", "--out", str(sim)]) == 0
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        for inner, expect in ((3, True), (500, False)):
            cfg.write_text(json.dumps({"fit": {"max_inner_iter": inner}}))
            assert main(["fit", "--data", str(sim / "data.csv"),
                         "--outcome", "y", "--method", "baseline",
                         "--config", str(cfg),
                         "--out", str(tmp_path / f"fit{inner}")]) == 0
            log = capsys.readouterr().err
            assert ("inner solves stopped at max_inner_iter" in log) == expect

    def test_fit_meta_carries_the_diagnostics_counts(self, tmp_path):
        sim, fitdir = tmp_path / "sim", tmp_path / "fit"
        assert main(["simulate", "--scenario", "s1", "--n", "60",
                     "--seed", "4", "--out", str(sim)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": {"max_inner_iter": 3}}))
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--config", str(cfg), "--out", str(fitdir)]) == 0
        with open(fitdir / "diagnostics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        counts = {"dual_steps": len(rows),
                  "inner_iterations": sum(int(r["inner_iterations"])
                                          for r in rows),
                  "capped_solves": sum(r["stop_reason"] == "max_inner_iter"
                                       for r in rows)}
        assert counts["capped_solves"] > 0
        meta = read_meta(fitdir / "meta.json")
        assert {key: meta[key] for key in counts} == counts

    @pytest.mark.parametrize("position", [0, 2], ids=["first", "middle"])
    def test_fit_dir_reads_back_wherever_the_outcome_is(self, tmp_path,
                                                        capsys, position):
        # the library fits data whose outcome is not the last column (the
        # quality corpus fits column permutations); meta.json names the
        # outcome, so its directory reads back as it was written
        _, data = scenario_data(scenario("s1"), 100, 3)
        order = list(range(data.dim - 1))
        order.insert(position, data.outcome_index)
        moved = Dataset(data.values[:, order],
                        tuple(data.labels[c] for c in order), position)
        [(_, result, _, error)] = replicate(moved, ("nscsl-te",), FitConfig())
        assert error is None
        fitdir = tmp_path / "fit"
        io.write_fit_dir(result, fitdir, {})
        graph, selected = io.read_fit_dir(fitdir)
        assert (graph.labels, graph.outcome_index) == (result.graph.labels,
                                                       position)
        assert np.array_equal(graph.weights, result.graph.weights)
        assert np.array_equal(selected, result.selected)
        expected = tmp_path / "expected.csv"
        io.write_rows_csv(effect_rows(result.graph, result.selected),
                          EFFECT_FIELDS, expected)
        capsys.readouterr()
        assert main(["effects", "--fit", str(fitdir)]) == 0
        assert capsys.readouterr().out == expected.read_text()
        # without the key, graph.csv's last column is the outcome
        meta = json.loads((fitdir / "meta.json").read_text())
        del meta["outcome"]
        (fitdir / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="selected.csv"):
            io.read_fit_dir(fitdir)
        (fitdir / "meta.json").write_text(json.dumps({"outcome": "nope"}))
        with pytest.raises(ValueError, match="meta.json: the outcome 'nope'"):
            io.read_fit_dir(fitdir)
        (fitdir / "meta.json").write_text(json.dumps(["y"]))
        with pytest.raises(ValueError, match="meta.json: expected a JSON object"):
            io.read_fit_dir(fitdir)
        # a caller's meta key of that name does not replace the label
        io.write_fit_dir(result, fitdir, {"outcome": "2"})
        assert read_meta(fitdir / "meta.json")["outcome"] == "y"
        assert io.read_fit_dir(fitdir)[0].outcome_index == position

    @pytest.mark.parametrize("config", [
        FitConfig(max_inner_iter=np.int64(500)),
        FitConfig(prune_threshold=np.float32(0.3)),
    ], ids=["int64-cap", "float32-threshold"])
    def test_fit_dir_of_a_numpy_scalar_config_reads_back(self, tmp_path, config):
        # the config held the numpy scalar as given: meta.json stopped at it
        # ("not JSON serializable") and read_fit_dir met a truncated document
        _, data = scenario_data(scenario("s1"), 100, 3)
        [(_, result, _, error)] = replicate(data, ("nscsl-te",), config)
        assert error is None
        fitdir = tmp_path / "fit"
        io.write_fit_dir(result, fitdir, {})
        graph, selected = io.read_fit_dir(fitdir)
        assert np.array_equal(graph.weights, result.graph.weights)
        assert np.array_equal(selected, result.selected)
        assert (read_meta(fitdir / "meta.json")["config"]
                == dataclasses.asdict(result.config))

    def test_fit_with_an_outcome_index_reads_back(self, tmp_path, capsys):
        # --outcome names the column by index: meta.json records the label
        # under "resolved" as given and at the top level as the node it is
        sim, fitdir = tmp_path / "sim", tmp_path / "fit"
        assert main(["simulate", "--scenario", "s1", "--n", "100",
                     "--seed", "3", "--out", str(sim)]) == 0
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "2",
                     "--out", str(fitdir)]) == 0
        meta = read_meta(fitdir / "meta.json")
        assert (meta["resolved"]["outcome"], meta["outcome"]) == ("2", "z2")
        data = io.load_csv(sim / "data.csv", "2")
        [(_, result, _, error)] = replicate(data, ("nscsl-te",), FitConfig())
        assert error is None
        expected = tmp_path / "expected.csv"
        io.write_rows_csv(effect_rows(result.graph, result.selected),
                          EFFECT_FIELDS, expected)
        capsys.readouterr()
        assert main(["effects", "--fit", str(fitdir)]) == 0
        assert capsys.readouterr().out == expected.read_text()

    def test_fit_config_overrides(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "60",
                     "--seed", "4", "--out", str(sim)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": {"prune_threshold": 0.4}}))
        fitdir = tmp_path / "fit"
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--config", str(cfg), "--out", str(fitdir)]) == 0
        meta = read_meta(fitdir / "meta.json")
        assert meta["config"]["prune_threshold"] == 0.4

    @pytest.mark.parametrize("method, recorded", [("baseline", 0.0),
                                                  ("nscsl-te", 2.5)])
    def test_fit_meta_holds_the_delta_star_it_ran_with_once(
            self, tmp_path, method, recorded):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "60",
                     "--seed", "4", "--out", str(sim)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": {"delta_star": 2.5}}))
        fitdir = tmp_path / "fit"
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--method", method, "--config", str(cfg),
                     "--out", str(fitdir)]) == 0
        text = (fitdir / "meta.json").read_text()
        assert text.count('"delta_star"') == 1
        assert json.loads(text)["config"]["delta_star"] == recorded


class TestTables:
    def test_stdout_table_matches_the_file_table(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        fitdir = tmp_path / "fit"
        assert main(["simulate", "--scenario", "s1", "--n", "60",
                     "--seed", "2", "--out", str(sim)]) == 0
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--method", "baseline", "--out", str(fitdir)]) == 0
        for argv in (["eval", "--estimated", str(fitdir / "graph.csv"),
                      "--truth", str(sim / "nscg.csv")],
                     ["effects", "--fit", str(fitdir)]):
            capsys.readouterr()
            assert main(argv) == 0
            printed = capsys.readouterr().out
            table = tmp_path / "table.csv"
            assert main(argv + ["--out", str(table)]) == 0
            assert printed.encode() == file_bytes(table)


class TestBench:
    def test_bench_outputs_and_determinism(self, tmp_path):
        spec = {"id": "s1", "sample_sizes": [60], "replications": 2,
                "methods": ["baseline"], "seed_base": 11}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["bench", "--spec", str(spec_path),
                         "--out", str(out)]) == 0

        def stable(path):
            # drop the wall-clock columns; they are timing measurements
            rows = []
            with open(path) as fh:
                header = fh.readline().strip().split(",")
                keep = [i for i, h in enumerate(header)
                        if not h.startswith("runtime")]
                rows.append(",".join(header[i] for i in keep))
                for line in fh:
                    cells = line.strip().split(",")
                    rows.append(",".join(cells[i] for i in keep))
            return rows

        assert stable(a / "raw.csv") == stable(b / "raw.csv")
        assert stable(a / "summary.csv") == stable(b / "summary.csv")
        assert read_meta(a / "meta.json") == read_meta(b / "meta.json")

    def test_failed_fits_are_rows_on_every_target(self, tmp_path):
        # one sample is too few to fit, so every fit of the batch fails
        spec = {"id": "s1", "sample_sizes": [1], "replications": 2,
                "methods": ["baseline", "nscsl-te"]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["bench", "--spec", str(spec_path),
                     "--out", str(out)]) == 0
        with open(out / "raw.csv", newline="") as fh:
            raw = list(csv.DictReader(fh))
        assert [(r["method"], r["target"], r["failed"]) for r in raw] == [
            ("baseline", "nscg", "1"), ("baseline", "full", "1"),
            ("nscsl-te", "nscg", "1")] * 2
        assert all("n > dim rows" in r["error"] for r in raw)
        with open(out / "summary.csv", newline="") as fh:
            summary = {(s["method"], s["target"]): s
                       for s in csv.DictReader(fh)}
        assert set(summary) == {("baseline", "nscg"), ("baseline", "full"),
                                ("nscsl-te", "nscg")}
        assert all(s["failures"] == str(spec["replications"])
                   for s in summary.values())


class TestExitCodes:
    def test_unknown_outcome_is_a_validation_error(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "30",
                     "--seed", "0", "--out", str(sim)]) == 0
        assert main(["fit", "--data", str(sim / "data.csv"),
                     "--outcome", "nope", "--out", str(tmp_path / "f")]) == 1

    def test_as_many_rows_as_columns_is_a_validation_error(self, tmp_path,
                                                           capsys):
        # at n = dim the outcome's least squares fits the rows exactly
        data = tmp_path / "d.csv"
        data.write_text("z0,z1,y\n0,1,2\n1,0,1\n2,2,1\n")
        assert main(["fit", "--data", str(data), "--outcome", "y",
                     "--out", str(tmp_path / "f")]) == 1
        assert "n > dim rows" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()
        data.write_text("z0,z1,y\n0,1,2\n1,0,1\n2,2,1\n1,3,4\n")
        assert main(["fit", "--data", str(data), "--outcome", "y",
                     "--out", str(tmp_path / "f")]) == 0

    def test_out_of_range_outcome_index_is_a_validation_error(self, tmp_path,
                                                              capsys):
        data = tmp_path / "d.csv"
        data.write_text("z0,z1,y\n0,1,1\n1,0,1\n")
        assert main(["fit", "--data", str(data), "--outcome", "3",
                     "--out", str(tmp_path / "f")]) == 1
        assert "outcome index 3 out of range" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_independent_outcome_is_a_validation_error(self, tmp_path,
                                                       capsys):
        # z1 follows z0 and y is noise of its own: delta_star is 0
        rng = np.random.default_rng(3)
        z0, y = rng.normal(size=(2, 500))
        z1 = z0 + rng.normal(size=500)
        data = tmp_path / "d.csv"
        np.savetxt(data, np.column_stack([z0, z1, y]), delimiter=",",
                   header="z0,z1,y", comments="")
        assert main(["fit", "--data", str(data), "--outcome", "y",
                     "--out", str(tmp_path / "f")]) == 1
        assert "no feature's effect reaches the outcome" in (
            capsys.readouterr().err)
        assert main(["fit", "--data", str(data), "--outcome", "y",
                     "--method", "baseline", "--out",
                     str(tmp_path / "b")]) == 0

    def test_one_row_dataset_is_a_validation_error(self, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("z0,z1,y\n1.0,2.0,3.0\n")
        assert main(["fit", "--data", str(data), "--outcome", "y",
                     "--out", str(tmp_path / "f")]) == 1

    @pytest.mark.parametrize("name", ["absent.csv", ".", "file.csv/data.csv"],
                             ids=["absent", "directory", "below-a-file"])
    def test_missing_file_is_a_validation_error(self, tmp_path, capsys, name):
        (tmp_path / "file.csv").write_text("a,y\n1,2\n")
        path = str(tmp_path / name)
        for argv in (["fit", "--data", path, "--outcome", "y",
                      "--out", str(tmp_path / "f")],
                     ["eval", "--estimated", path, "--truth", path]):
            assert main(argv) == 1
            assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit", "bench"])
    def test_out_naming_an_existing_file_is_a_validation_error(
            self, tmp_path, capsys, command):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "30",
                     "--seed", "0", "--out", str(sim)]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"id": "s1", "sample_sizes": [30],
                                    "replications": 1,
                                    "methods": ["baseline"]}))
        out = tmp_path / "taken"
        out.write_text("kept\n")
        argv = {"simulate": ["simulate", "--scenario", "s1", "--n", "30"],
                "fit": ["fit", "--data", str(sim / "data.csv"),
                        "--outcome", "y"],
                "bench": ["bench", "--spec", str(spec)]}[command]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert f"error: {out}: " in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_bad_arguments_are_validation_errors(self):
        assert main(["simulate", "--scenario", "s1"]) == 1  # missing --n
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("key", ["learning_rate", "t", "l1_penalty",
                                     "penalty_growth"])
    def test_unknown_config_keys_are_validation_errors(self, tmp_path, key):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "30",
                     "--seed", "0", "--out", str(sim)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": {key: 1.0}}))
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--config", str(cfg), "--out", str(tmp_path / "f")]) == 1

    def test_negative_prune_threshold_fails_before_fitting(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "30",
                     "--seed", "0", "--out", str(sim)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": {"prune_threshold": -0.1}}))
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--config", str(cfg), "--out", str(tmp_path / "f")]) == 1
        assert not (tmp_path / "f").exists()

    def test_eval_of_graphs_with_other_labels_is_a_validation_error(
            self, tmp_path, capsys):
        # the truth's CSV orders its columns b, a, y: its b -> a is the
        # estimate's a -> b reversed, though both sit at index (0, 1)
        weights = np.zeros((3, 3))
        weights[0, 1] = 1.0
        for name, labels in (("est", ("a", "b", "y")),
                             ("truth", ("b", "a", "y"))):
            io.write_graph_csv(WeightedDag(weights, labels),
                               tmp_path / f"{name}.csv")
        assert main(["eval", "--estimated", str(tmp_path / "est.csv"),
                     "--truth", str(tmp_path / "truth.csv")]) == 1
        captured = capsys.readouterr()
        assert "error: label mismatch" in captured.err
        assert captured.out == ""

    def test_negative_eval_threshold_is_a_validation_error(self, tmp_path,
                                                          capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "30",
                     "--seed", "0", "--out", str(sim)]) == 0
        assert main(["eval", "--estimated", str(sim / "nscg.csv"),
                     "--truth", str(sim / "truth.csv"),
                     "--threshold", "-1", "--out", str(tmp_path / "m.csv")]) == 1
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("doc", [[{"fit": {}}], "fit", {"fit": [1]},
                                     {"fit": 3},
                                     {"fit": {"max_dual_steps": "10"}},
                                     {"fit": {"delta_star": -1.0}}])
    def test_malformed_fit_config_is_a_validation_error(self, tmp_path, doc):
        data = tmp_path / "data.csv"
        data.write_text("z0,z1,y\n0,1,1\n1,0,1\n1,1,0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["fit", "--data", str(data), "--outcome", "y",
                     "--config", str(cfg), "--out", str(tmp_path / "f")]) == 1
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("doc", [{"prune_threshold": 0.5}, {},
                                     {"note": {"fit": {}}}],
                             ids=["settings-at-root", "empty", "nested"])
    def test_config_without_a_fit_object_names_fit(self, tmp_path, capsys,
                                                   doc):
        # settings outside a 'fit' object used to run as the defaults
        data = tmp_path / "data.csv"
        data.write_text("z0,z1,y\n0,1,1\n1,0,1\n1,1,0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["fit", "--data", str(data), "--outcome", "y",
                     "--method", "baseline", "--config", str(cfg),
                     "--out", str(tmp_path / "f")]) == 1
        assert names_a_key(capsys.readouterr().err, ["fit"])
        assert not (tmp_path / "f").exists()
        code, log, ran = run_bench({"id": "s1", "replications": 1}, doc)
        assert (code, ran) == (1, False)
        assert names_a_key(log, ["fit"])

    def test_config_effect_kind_is_a_validation_error(self, tmp_path, capsys):
        # --method (or a bench spec's methods) sets the effect kind: the key
        # used to be accepted and silently overridden
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s2", "--n", "100",
                     "--seed", "201", "--out", str(sim)]) == 0
        doc = {"fit": {"effect_kind": "de"}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--method", "nscsl-te", "--config", str(cfg),
                     "--out", str(tmp_path / "f")]) == 1
        err = capsys.readouterr().err
        assert "effect_kind" in err and "--method" in err
        assert not (tmp_path / "f").exists()
        code, log, ran = run_bench({"id": "s2", "replications": 1}, doc)
        assert (code, ran) == (1, False)
        assert names_a_key(log, ["effect_kind"]), log

    def test_effects_of_an_overflowing_graph_are_a_validation_error(
            self, tmp_path, capsys):
        # the chain z0 -> z1 -> z2 -> y at weight 1e200 has total effects
        # past the float range; they used to be written as inf
        fitdir = tmp_path / "fit"
        fitdir.mkdir()
        w = np.diag([1e200] * 3, k=1)
        io.write_graph_csv(WeightedDag(w), fitdir / "graph.csv")
        (fitdir / "selected.csv").write_text("label,selected\nz0,1\nz1,1\nz2,1\n")
        capsys.readouterr()
        assert main(["effects", "--fit", str(fitdir)]) == 1
        captured = capsys.readouterr()
        assert "total effects are not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("doc,message", [
        ({"id": "s1", "replication": 2}, "replication"),
        ({"id": "s1", "noise": "gaussian"}, "noise"),
        (["s1"], "object"),
        ({"id": "s1", "replications": "2"}, "replications"),
        ({"id": "s1", "sample_sizes": [2.5]}, "sample_sizes"),
        ({"id": "s4", "graph_model": "sf"}, "scale-free"),
        ({"id": "s1", "weight_range": [0.0, 1.0]}, "weight_range"),
        ({"id": "s1", "sample_sizes": 100}, "sample_sizes"),
        ({"id": "s1", "weight_range": 5}, "weight_range"),
        ({"id": "s1", "weight_range": [1]}, "weight_range"),
        ({"id": "s1", "weight_range": [1, 2, 3]}, "weight_range"),
        ({"id": "s1", "weight_range": [1, True]}, "weight_range"),
        ({"id": "s1", "methods": 5}, "methods"),
        ({"id": "custom", "p": 6, "expected_degree": "2"}, "expected_degree"),
        ({"id": "custom", "p": 6, "expected_degree": None}, "expected_degree"),
        ({"id": "custom", "p": 6, "expected_degree": float("nan")},
         "expected_degree"),
        ({"id": "s1", "noise": {"kind": "bernoulli", "p": {"a": 1}}},
         "bernoulli p"),
        ({"id": "s1", "noise": {"kind": "bernoulli", "p": [0.5, 0.5]}},
         "bernoulli p"),
        ({"id": "s1", "noise": {"kind": "gaussian", "p": 0.3}}, "noise keys"),
        ({"id": "s1", "link": 5}, "link"),
        ({"id": ["s1"]}, "'id'"),
        ({"id": "s1", "sample_sizes": [30, 30]}, "sample_sizes"),
        ({"id": "s1", "methods": ["baseline", "baseline"]}, "methods"),
        ({"id": "s1", "methods": [[1]]}, "methods"),
        ({"id": "s1", "methods": [{}]}, "methods"),
        ({"id": "s1", "noise": {"kind": "bernoulli", "p": "0.5"}},
         "bernoulli p"),
        ({"id": "s1", "noise": {"kind": "gaussian", "sigma": True}},
         "gaussian sigma"),
        ({"id": "s1", "noise": {"kind": "gaussian", "sigma": "1"}},
         "gaussian sigma"),
        ({"id": "s1", "noise": {"kind": "gaussian",
                                "sigma": ["1", 1, 1, 1, 1]}},
         "gaussian sigma"),
        pytest.param({"id": "s1", "noise": {"kind": "poisson"}},
                     "noise kind must be one of", id="doc29-unknown noise kind"),
        pytest.param({"id": "s9"}, "id must be one of",
                     id="doc30-unknown scenario id"),
        ({"id": "s1", "graph_model": "ba"}, "graph_model"),
        ({"id": "custom", "p": 1, "expected_degree": 0.5},
         "p must be at least 2"),
        ({"id": "s1", "replications": 0}, "replications must be at least 1"),
        ({"id": "s1", "sample_sizes": [0]}, "sample_sizes must be at least 1"),
        ({"id": "s1", "sample_sizes": []}, "sample_sizes must be a non-empty list"),
    ])
    def test_malformed_bench_spec_is_a_validation_error(self, tmp_path, capsys,
                                                        doc, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["bench", "--spec", str(spec),
                     "--out", str(tmp_path / "b")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_scale_free_model_on_a_fixed_layout_is_a_validation_error(
            self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s4", "--model", "sf",
                     "--n", "30", "--out", str(out)]) == 1
        assert "scale-free" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("degree", ["2.5", "0.5"])
    def test_fractional_scale_free_degree_is_a_validation_error(
            self, tmp_path, capsys, degree):
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", "custom", "--model", "sf",
                     "--p", "6", "--degree", degree, "--n", "30",
                     "--out", str(out)]) == 1
        assert "expected_degree" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("selected", [
        "label,selected\nz0,1\nz1,1\n",
        "label,selected\n" + "".join(f"q{i},1\n" for i in range(4)),
        "label,selected\nz0,yes\nz1,1\nz2,1\nz3,1\n",
    ], ids=["two-features", "relabelled", "yes-cell"])
    def test_malformed_selected_csv_is_a_validation_error(self, tmp_path,
                                                          capsys, selected):
        sim, fitdir = tmp_path / "sim", tmp_path / "fit"
        assert main(["simulate", "--scenario", "s1", "--n", "40",
                     "--seed", "0", "--out", str(sim)]) == 0
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--method", "baseline", "--out", str(fitdir)]) == 0
        (fitdir / "selected.csv").write_text(selected)
        capsys.readouterr()
        assert main(["effects", "--fit", str(fitdir)]) == 1
        captured = capsys.readouterr()
        assert str(fitdir / "selected.csv") in captured.err
        assert captured.out == ""

    def test_internal_errors_are_runtime_failures(self, tmp_path, monkeypatch):
        from nscausal import bench as bench_mod

        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "30",
                     "--seed", "0", "--out", str(sim)]) == 0

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(bench_mod, "fit_baseline", boom)
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--method", "baseline",
                     "--out", str(tmp_path / "f")]) == 2

    @pytest.mark.parametrize("fitter", ["fit_baseline", "fit"])
    @pytest.mark.parametrize("error, code, prefix", [
        (ValueError, 1, "error"), (RuntimeError, 2, "runtime failure")],
        ids=["ValueError", "RuntimeError"])
    def test_a_failed_fit_exits_by_its_error(self, tmp_path, monkeypatch,
                                             capsys, fitter, error, code,
                                             prefix):
        # ``fit`` runs bench.replicate and re-raises the error it records,
        # whichever of the two fits of a selective method raised it
        from nscausal import bench as bench_mod

        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "s1", "--n", "30",
                     "--seed", "0", "--out", str(sim)]) == 0

        def boom(*args, **kwargs):
            raise error("synthetic")

        monkeypatch.setattr(bench_mod, fitter, boom)
        capsys.readouterr()
        assert main(["fit", "--data", str(sim / "data.csv"), "--outcome", "y",
                     "--method", "nscsl-te",
                     "--out", str(tmp_path / "f")]) == code
        assert capsys.readouterr().err == f"{prefix}: synthetic\n"
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("content", [b'{"fit": {', b"\xff\xfe{}",
                                         b"[" * 10**5 + b"]" * 10**5],
                             ids=["truncated", "not-utf-8", "too-deep"])
    @pytest.mark.parametrize("entry", ["fit --config", "bench --spec",
                                       "bench --config", "effects --fit"])
    def test_an_undecodable_json_file_is_named(self, tmp_path, capsys, entry,
                                               content):
        # the message used to be json's or the codec's alone, with no path,
        # and a document nested too deep was a runtime failure (exit 2)
        data, spec = tmp_path / "data.csv", tmp_path / "spec.json"
        data.write_text("z0,z1,y\n0,1,1\n1,0,1\n1,1,0\n")
        spec.write_text(json.dumps({"id": "s1", "replications": 1}))
        fitdir = tmp_path / "fit"
        fitdir.mkdir()
        (fitdir / "graph.csv").write_text("z0,y\n0.0,0.5\n0.0,0.0\n")
        (fitdir / "selected.csv").write_text("label,selected\nz0,1\n")
        bad, out = tmp_path / "bad.json", str(tmp_path / "out")
        argv = {"fit --config": ["fit", "--data", str(data), "--outcome", "y",
                                 "--config", str(bad)],
                "bench --spec": ["bench", "--spec", str(bad)],
                "bench --config": ["bench", "--spec", str(spec),
                                   "--config", str(bad)],
                "effects --fit": ["effects", "--fit", str(fitdir)]}[entry]
        if entry == "effects --fit":
            bad = fitdir / "meta.json"
        bad.write_bytes(content)
        assert main([*argv, "--out", out]) == 1
        assert f"{bad}: not a readable JSON file: " in capsys.readouterr().err
        assert not Path(out).exists()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# input documents: every document is either run or rejected with exit 1 and
# a message that names one of its keys

# values of every JSON type, nested a little
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
UNKNOWN_KEYS = st.from_regex(r"[a-z_]{1,8}", fullmatch=True)

# a well-formed value of each known key; p, expected_degree, graph_model,
# the per-node noise lists and the preset ids still constrain each other
_NOISE_PARAMETERS = (st.floats(0.05, 0.95)
                     | st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6))
SCENARIO_VALUES = {
    "id": st.sampled_from(SCENARIO_IDS),
    "p": st.integers(2, 8),
    "graph_model": st.sampled_from(GRAPH_MODELS),
    "expected_degree": st.integers(0, 8) | st.floats(0.0, 8.0),
    "link": st.sampled_from(LINKS),
    "noise": st.sampled_from(tuple(NOISE_KINDS)).flatmap(
        lambda kind: st.fixed_dictionaries(
            {"kind": st.just(kind)},
            optional={NOISE_KINDS[kind][0]: _NOISE_PARAMETERS})),
    "sample_sizes": st.lists(st.integers(1, 200), min_size=1, max_size=3,
                             unique=True),
    "replications": st.integers(1, 3),
    "methods": st.lists(st.sampled_from(tuple(METHODS)), min_size=1,
                        max_size=3, unique=True),
    "seed_base": st.integers(0, 10**6),
    "weight_range": st.builds(
        lambda ends, sign: sorted(sign * e for e in ends),
        st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
        st.sampled_from((1, -1))),
}
CONFIG_VALUES = {
    "effect_kind": st.sampled_from(EFFECT_KINDS),
    "prune_threshold": st.floats(0.0, 1.0),
    "selection_tolerance": st.floats(0.0, 1.0),
    "max_dual_steps": st.integers(1, 200),
    "max_inner_iter": st.integers(1, 600),
    "delta_star": st.none() | st.floats(0.0, 5.0),
}


@st.composite
def documents(draw, known, fields):
    """An object that sets some known keys to well-formed values, then sets
    up to two known keys to JSON values of any type and may add an unknown
    key; or, now and then, a root that is no object."""
    assert set(known) == set(fields)
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES.filter(lambda doc: not isinstance(doc, dict)))
    doc = draw(st.fixed_dictionaries({}, optional=known))
    for key in draw(st.lists(st.sampled_from(sorted(known)), max_size=2,
                             unique=True)):
        doc[key] = draw(JSON_VALUES)
    doc.update(draw(st.dictionaries(
        UNKNOWN_KEYS.filter(lambda key: key not in fields), JSON_VALUES,
        max_size=1)))
    return doc


def names_a_key(message, keys):
    return any(re.search(rf"(?<!\w){re.escape(key)}(?!\w)", message)
               for key in keys if key)


def run_bench(spec_doc, *config_doc):
    """``main(["bench", ...])`` on the scenario document and, if given, the
    ``--config`` document, with ``run_scenario`` stubbed out: the exit code,
    the error log and whether it ran."""
    ran = []

    def stub(spec, config, threads=1):
        ran.append((spec, config))
        return BenchReport(spec, (), ())

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_scenario", stub)
        argv = ["bench", "--out", str(Path(tmp) / "out")]
        for flag, doc in zip(("--spec", "--config"), (spec_doc, *config_doc)):
            path = Path(tmp) / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        log = stdio.StringIO()
        with contextlib.redirect_stderr(log):
            code = main(argv)
    return code, log.getvalue(), bool(ran)


class TestInputDocuments:
    @settings(max_examples=400, deadline=None)
    @given(doc=documents(SCENARIO_VALUES, ScenarioSpec.__dataclass_fields__))
    def test_scenario_documents_run_or_name_a_key(self, doc):
        code, log, ran = run_bench(doc)
        assert code in (0, 1), log
        assert ran == (code == 0)
        if code == 1:
            if not isinstance(doc, dict):
                assert "object" in log
            else:
                # "id" is required, so its absence is named too
                noise = doc.get("noise")
                keys = set(doc) | {"id"} | (set(noise) if isinstance(noise, dict)
                                            else set())
                assert names_a_key(log, keys), (doc, log)

    @settings(max_examples=200, deadline=None)
    @given(section=documents(CONFIG_VALUES, FitConfig.__dataclass_fields__),
           root=st.sampled_from(["fit", "bare", "list", "other"]))
    def test_config_documents_run_or_name_a_key(self, section, root):
        # settings are read only from a 'fit' object: a bare section (the
        # section itself as the document, without a 'fit' key) never runs
        bare = ({key: value for key, value in section.items() if key != "fit"}
                if isinstance(section, dict) else section)
        doc = {"fit": {"fit": section}, "bare": bare,
               "list": [{"fit": section}],
               "other": {"fit": section, "note": "ignored"}}[root]
        code, log, ran = run_bench({"id": "s1", "replications": 1}, doc)
        assert code in (0, 1), log
        assert ran == (code == 0)
        assert code == 1 or root != "bare"
        if code == 1:
            if root in ("list", "bare") or not isinstance(section, dict):
                assert names_a_key(log, ["fit"]), log
            else:
                assert names_a_key(log, section), (section, log)
