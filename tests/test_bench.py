import csv
import hashlib
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscausal.bench import (ScenarioSpec, nscg, replicate, run_scenario,
                            scenario, scenario_data, scenario_truth,
                            spec_from_dict, summarize)
from nscausal.effects import effect_rows
from nscausal.graph import (WeightedDag, ancestors_of,
                            enumerate_paths_to_outcome, graph_metrics,
                            is_acyclic)
from nscausal.io import (load_csv, read_graph_csv, write_dataset_csv,
                         write_graph_csv, write_rows_csv)
from nscausal.bench import RAW_FIELDS
from nscausal.optimizer import FitConfig, fit, fit_baseline
from nscausal.scm import (BernoulliNoise, Dataset, GaussianNoise, SemSpec,
                          sample_linear, sample_nonlinear, shift_nonnegative)

from conftest import random_dag


def graph_of(edges, dim):
    w = np.zeros((dim, dim))
    for i, j, value in edges:
        w[i, j] = value
    return WeightedDag(w, outcome_index=dim - 1)


def edges_of(g):
    return {(int(i), int(j)) for i, j in np.argwhere(g.weights != 0)}


class TestNscg:
    def test_keeps_exactly_the_outcome_pathways(self):
        # A, B, C are ancestors of Y; S, N, M sit off every outcome path
        labels = ("A", "B", "C", "S", "N", "M", "Y")
        w = np.zeros((7, 7))
        w[0, 1] = 1.0   # A -> B
        w[1, 6] = 1.0   # B -> Y
        w[2, 6] = 1.0   # C -> Y
        w[0, 3] = 1.0   # A -> S   (child of an ancestor, not on a Y path)
        w[4, 5] = 1.0   # N -> M   (disconnected pair)
        truth = WeightedDag(w, labels, 6)
        sub = nscg(truth)
        assert edges_of(sub) == {(0, 1), (1, 6), (2, 6)}
        assert sub.dim == 7  # off-path nodes stay, isolated

    def test_outcome_without_ancestors(self):
        truth = graph_of([(0, 1, 1.0)], 3)  # z0 -> z1, y isolated
        assert not nscg(truth).weights.any()

    def test_identity_when_everything_feeds_the_outcome(self):
        truth = graph_of([(0, 1, 0.5), (1, 2, 0.7)], 3)
        assert np.array_equal(nscg(truth).weights, truth.weights)

    def test_idempotent_acyclic_and_path_supported(self, rng):
        for _ in range(30):
            truth = random_dag(rng, 7, density=0.4)
            sub = nscg(truth)
            assert is_acyclic(sub)
            assert np.array_equal(nscg(sub).weights, sub.weights)
            for i, j in edges_of(sub):
                on_path = (j == sub.outcome_index
                           or enumerate_paths_to_outcome(sub, j))
                assert on_path, f"edge ({i}, {j}) is not on an outcome path"


@st.composite
def datasets(draw):
    columns = draw(st.integers(1, 5))
    labels = draw(st.lists(
        st.text("abcyz_019", min_size=1, max_size=6),
        min_size=columns, max_size=columns, unique=True))
    rows = draw(st.integers(1, 6))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=rows * columns,
                          max_size=rows * columns))
    outcome = draw(st.integers(0, columns - 1))
    return Dataset(np.reshape(cells, (rows, columns)), labels, outcome)


class TestLoadCsv:
    def test_outcome_by_label_moves_last(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data = load_csv(path, "b")
        assert data.labels == ("a", "c", "b")
        assert list(data.values[0]) == [1.0, 3.0, 2.0]
        assert data.outcome_index == 2

    def test_outcome_by_index(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n")
        data = load_csv(path, 0)
        assert data.labels == ("b", "c", "a")
        assert list(data.values[0]) == [2.0, 3.0, 1.0]

    def test_blank_cell_is_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,\n")
        with pytest.raises(ValueError, match=r"row 3.*'b'"):
            load_csv(path, "b")

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path, "a")

    def test_unknown_outcome_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="unknown outcome"):
            load_csv(path, "target")

    def test_round_trip(self, tmp_path):
        g = graph_of([(0, 1, 1.0)], 2)
        data = sample_linear(SemSpec(g, BernoulliNoise(0.5)), 40, seed=3)
        path = tmp_path / "d.csv"
        write_dataset_csv(data, path)
        again = load_csv(path, "y")
        assert again.labels == data.labels
        assert np.array_equal(again.values, data.values)

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_round_trip_property(self, data):
        # written in any column order, loaded with the outcome named: same
        # values, same labels, the outcome moved last
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            write_dataset_csv(data, path)
            again = load_csv(path, data.labels[data.outcome_index])
        order = [c for c in range(data.dim) if c != data.outcome_index]
        order.append(data.outcome_index)
        assert again.labels == tuple(data.labels[c] for c in order)
        assert again.outcome_index == data.dim - 1
        assert np.array_equal(again.values, data.values[:, order])


class TestReportEffects:
    def test_unit_chain_rows(self):
        g = graph_of([(0, 1, 1.0), (1, 2, 1.0)], 3)
        data = sample_linear(SemSpec(g, BernoulliNoise(0.5)), 5000, seed=2)
        config = FitConfig(effect_kind="te")
        result = fit(data, config, warm_start=fit_baseline(data, config))
        rows = {r["label"]: r
                for r in effect_rows(result.graph, result.selected)}
        assert abs(rows["z0"]["direct_effect"]) < 0.1
        assert abs(rows["z0"]["total_effect"] - 1.0) < 0.25
        assert abs(rows["z1"]["total_effect"] - 1.0) < 0.1

    def test_empty_selection_gives_no_rows(self):
        # ``fit`` rejects these independent columns (delta_star is 0), so
        # the empty mask is given with the selection-free fit's graph
        g = WeightedDag(np.zeros((3, 3)))
        data = sample_linear(SemSpec(g, BernoulliNoise(0.5)), 2000, seed=9)
        result = fit_baseline(data)
        assert effect_rows(result.graph, np.zeros(2, dtype=bool)) == []


class TestScenarioSpec:
    def test_presets_pin_their_shape(self):
        with pytest.raises(ValueError):
            ScenarioSpec(id="s1", p=6)
        with pytest.raises(ValueError):
            scenario("s4", expected_degree=3.0)

    @pytest.mark.parametrize("degree", [5, 7, -1.0])
    def test_erdos_renyi_degree_is_checked_at_construction(self, degree):
        # the edge probability is degree / (p - 1), so p = 5 takes 0 <= d < 5
        with pytest.raises(ValueError, match="expected_degree"):
            scenario("custom", p=5, expected_degree=degree)
        scenario("custom", p=5, expected_degree=4.5)

    def test_methods_validation(self):
        with pytest.raises(ValueError):
            scenario("s1", methods=())
        with pytest.raises(ValueError):
            scenario("s1", methods=("pc",))

    def test_empty_sample_sizes_are_rejected_by_name(self):
        with pytest.raises(ValueError, match="sample_sizes must not be empty"):
            scenario("s1", sample_sizes=())

    def test_from_dict(self):
        spec = spec_from_dict({
            "id": "s2", "sample_sizes": [50], "replications": 2,
            "methods": ["baseline"], "seed_base": 7,
            "noise": {"kind": "bernoulli", "p": 0.5},
        })
        assert spec.id == "s2" and spec.p == 5
        assert spec.seed_base == 7
        with pytest.raises(ValueError):
            spec_from_dict({"sample_sizes": [10]})

    def test_specs_with_per_node_sigma_compare_and_hash_by_value(self):
        # a per-node sigma list made the spec unhashable
        doc = {"id": "s1", "noise": {"kind": "gaussian",
                                     "sigma": [0.5, 1.0, 1.5, 1.0, 0.5]}}
        a, b = spec_from_dict(doc), spec_from_dict(doc)
        assert a == b and hash(a) == hash(b)
        assert a.noise.sigma == (0.5, 1.0, 1.5, 1.0, 0.5)

    def test_fixed_layouts_are_deterministic(self):
        spec = scenario("s4", methods=("baseline",))
        a = scenario_truth(spec, np.random.default_rng(3))
        b = scenario_truth(spec, np.random.default_rng(3))
        assert np.array_equal(a.weights, b.weights)
        # structure is shared across replications, weights are not
        c = scenario_truth(spec, np.random.default_rng(4))
        assert np.array_equal(a.weights != 0, c.weights != 0)
        assert not np.array_equal(a.weights, c.weights)

    @pytest.mark.parametrize("spec_id,count,digest", [
        ("s1", 6, "b53126ae2079a79c3c9ff4a903b7fc61a36a11fd7f2a0eb064f226b913dd8bc9"),
        ("s2", 4, "f8eb0300bb3f026fa48c0fc56d6f59b7042f3c11eba76aa7ebafd733da171839"),
        ("s3", 5, "98002caefd3957ecb69e069eb3c1bfc244b8391b763a5aece6571be9ca9d1b56"),
        ("s4", 40, "08c9a23d7cd51dfff76345caa9d42aaa53a13f6fe4f74f93f0b8ff8ae3197227"),
        ("s5", 122, "c2bd6ba5e25645eb8331f25fb514d83530221f410d56a752dd78f3c1a913dfa8"),
    ])
    def test_preset_layouts_are_pinned(self, spec_id, count, digest):
        # a changed fixed edge or spurious block shows here, not only in
        # the quality corpus; the digest is of the sorted edge list's repr
        truth = scenario_truth(scenario(spec_id), np.random.default_rng(0))
        edges = sorted(map(tuple, np.argwhere(truth.weights != 0).tolist()))
        assert len(edges) == count
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest

    def test_s5_layout_has_three_causal_features(self):
        truth = scenario_truth(scenario("s5"), np.random.default_rng(0))
        assert truth.dim == 50 and truth.outcome_index == 49
        assert is_acyclic(truth)
        assert ancestors_of(truth, 49) == {0, 1, 2}
        assert edges_of(nscg(truth)) == {(0, 1), (1, 2), (2, 49), (0, 49)}

    def test_scale_free_variant_draws_random_truths(self):
        spec = scenario("s5", graph_model="sf", methods=("baseline",))
        a = scenario_truth(spec, np.random.default_rng(0))
        b = scenario_truth(spec, np.random.default_rng(1))
        assert is_acyclic(a) and is_acyclic(b)
        assert not np.array_equal(a.weights != 0, b.weights != 0)

    @pytest.mark.parametrize("field,value", [
        ("replications", "2"), ("replications", 2.0), ("replications", True),
        ("sample_sizes", (2.5,)), ("sample_sizes", (100, "50")),
        ("sample_sizes", (True,)), ("seed_base", 1.5), ("seed_base", None),
    ])
    def test_counts_and_seeds_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            scenario("s1", **{field: value})

    @pytest.mark.parametrize("value", [-1, -3, np.int64(-2)])
    def test_negative_seed_base_is_rejected_by_name(self, value):
        # run_scenario failed later in numpy's seeding, with a message that
        # named no key
        with pytest.raises(ValueError, match="^seed_base must be at least 0"):
            scenario("s1", seed_base=value)
        assert scenario("s1", seed_base=0).seed_base == 0

    def test_noise_must_be_a_noise_model(self):
        with pytest.raises(ValueError, match="noise must be"):
            scenario("s1", noise="gaussian")

    def test_custom_node_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match="p must"):
            scenario("custom", p=6.0)

    @pytest.mark.parametrize("field,value", [
        ("sample_sizes", (30, 30)), ("sample_sizes", (30, np.int64(30))),
        ("methods", ("baseline", "baseline")),
    ])
    def test_repeated_entries_are_rejected(self, field, value):
        # a repeat would rerun the same seeds and count them as new draws
        with pytest.raises(ValueError, match=field):
            scenario("s1", **{field: value})

    def test_numpy_integers_are_accepted(self):
        spec = scenario("custom", p=np.int64(6), replications=np.int32(2),
                        sample_sizes=(np.int64(30),), seed_base=np.uint8(4))
        assert spec.sample_sizes == (30,) and type(spec.sample_sizes[0]) is int
        assert spec.replications == 2 and spec.seed_base == 4

    @pytest.mark.parametrize("spec_id", ["s1", "s2", "s3", "s4"])
    def test_scale_free_needs_a_drawn_layout(self, spec_id):
        with pytest.raises(ValueError, match="scale-free"):
            scenario(spec_id, graph_model="sf")
        assert scenario("custom", graph_model="sf").graph_model == "sf"

    @pytest.mark.parametrize("weight_range", [(0.0, 1.0), (-1.0, 1.0),
                                              (2.0, 0.5)])
    def test_weight_range_is_validated(self, weight_range):
        with pytest.raises(ValueError, match="weight_range"):
            scenario("s1", weight_range=weight_range)
        assert scenario("s1", weight_range=[-2, -1]).weight_range == (-2.0, -1.0)

    def test_from_dict_rejects_string_counts(self):
        with pytest.raises(ValueError, match="replications"):
            spec_from_dict({"id": "s1", "replications": "2"})


def _hand_drawn(spec, n, seed):
    """The replication recipe written out, as perfbench's fit_op copies it."""
    graph_ss, data_ss = np.random.SeedSequence(seed).spawn(2)
    truth = scenario_truth(spec, graph_ss)
    sampler = sample_linear if spec.link == "linear" else sample_nonlinear
    data = shift_nonnegative(sampler(SemSpec(truth, spec.noise, spec.link), n,
                                     seed=data_ss))
    return truth, data


class TestScenarioData:
    @pytest.mark.parametrize("spec", [
        scenario("s1"),
        scenario("s4"),
        scenario("s5", graph_model="sf"),
        scenario("custom", p=7, expected_degree=2.0),
        scenario("custom", p=7, graph_model="sf", expected_degree=2.0),
        scenario("s1", link="rounded-log"),
        scenario("s2", noise=GaussianNoise(0.8)),
    ], ids=["s1", "s4", "s5-sf", "custom-er", "custom-sf", "s1-rounded-log",
            "s2-gaussian"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_the_written_out_recipe(self, spec, seed):
        truth, data = scenario_data(spec, 40, seed)
        want_truth, want_data = _hand_drawn(spec, 40, seed)
        assert np.array_equal(truth.weights, want_truth.weights)
        assert truth.outcome_index == want_truth.outcome_index
        assert np.array_equal(data.values, want_data.values)
        assert data.labels == want_data.labels
        assert data.values[:, data.outcome_index].min() >= 0.0

    def test_rows_score_the_drawn_truth(self):
        spec = scenario("s1", sample_sizes=(60,), replications=1,
                        methods=("baseline",), seed_base=5)
        truth, data = scenario_data(spec, 60, 5)
        base = fit_baseline(data)
        full = [r for r in run_scenario(spec).rows if r["target"] == "full"]
        assert full[0]["shd"] == float(graph_metrics(base.graph, truth).shd)


class TestGraphSerialization:
    def test_adjacency_round_trip_is_bit_exact(self, rng, tmp_path):
        g = random_dag(rng, 6, density=0.5, signed=True)
        path = tmp_path / "g.csv"
        write_graph_csv(g, path)
        again = read_graph_csv(path, g.outcome_index)
        assert again.labels == g.labels
        assert np.array_equal(again.weights, g.weights)


class TestReplicate:
    METHODS = ("nscsl-de", "baseline", "nscsl-te")

    def test_methods_in_order_from_one_baseline_fit(self, monkeypatch):
        from nscausal import bench as bench_mod

        calls = []

        def baseline(data, config):
            calls.append(("baseline", fit_baseline(data, config)))
            return calls[-1][1]

        def selective(data, config, warm_start=None):
            calls.append((config.effect_kind, warm_start))
            return fit(data, config, warm_start=warm_start)

        monkeypatch.setattr(bench_mod, "fit_baseline", baseline)
        monkeypatch.setattr(bench_mod, "fit", selective)
        _, data = scenario_data(scenario("s1"), 60, 5)
        fits = replicate(data, self.METHODS, FitConfig())
        assert [kind for kind, _ in calls] == ["baseline", "de", "te"]
        base = calls[0][1]
        assert all(start is base for _, start in calls[1:])
        assert [(m, e) for m, _, _, e in fits] == [(m, None)
                                                   for m in self.METHODS]
        assert fits[1][1] is base
        assert [f.config.effect_kind for f in (fits[0][1], fits[2][1])] == [
            "de", "te"]
        # a selective method's runtime includes the baseline's
        assert 0 < fits[1][2] < min(fits[0][2], fits[2][2])

    def test_a_failed_baseline_fails_every_method_with_its_error(
            self, monkeypatch):
        from nscausal import bench as bench_mod

        error = RuntimeError("synthetic baseline failure")

        def boom(data, config):
            raise error

        def no_fit(*args, **kwargs):
            raise AssertionError("a selective fit was started")

        monkeypatch.setattr(bench_mod, "fit_baseline", boom)
        monkeypatch.setattr(bench_mod, "fit", no_fit)
        _, data = scenario_data(scenario("s1"), 60, 5)
        fits = replicate(data, self.METHODS, FitConfig())
        assert [(m, f, e) for m, f, _, e in fits] == [
            (m, None, error) for m in self.METHODS]
        assert all(math.isnan(runtime) for _, _, runtime, _ in fits)

    def test_a_selective_failure_stays_with_its_method(self, monkeypatch):
        from nscausal import bench as bench_mod

        error = ValueError("synthetic te failure")

        def te_fails(data, config, warm_start=None):
            if config.effect_kind == "te":
                raise error
            return fit(data, config, warm_start=warm_start)

        monkeypatch.setattr(bench_mod, "fit", te_fails)
        _, data = scenario_data(scenario("s1"), 60, 5)
        (de, de_fit, de_time, de_error), baseline, te = replicate(
            data, self.METHODS, FitConfig())
        assert de_fit is not None and de_error is None and de_time > 0
        assert baseline[1] is not None and baseline[3] is None
        assert te[0] == "nscsl-te" and te[1] is None and te[3] is error
        assert math.isnan(te[2])


class TestRunScenario:
    def test_single_replication_is_deterministic(self):
        spec = scenario("s1", sample_sizes=(60,), replications=1,
                        methods=("baseline",), seed_base=5)
        a = run_scenario(spec)
        b = run_scenario(spec)
        rows_a = [{k: v for k, v in r.items() if k != "runtime_s"} for r in a.rows]
        rows_b = [{k: v for k, v in r.items() if k != "runtime_s"} for r in b.rows]
        assert rows_a == rows_b

    def test_summary_recomputes_from_persisted_rows(self, tmp_path):
        spec = scenario("s1", sample_sizes=(60,), replications=3,
                        methods=("baseline",))
        report = run_scenario(spec)
        path = tmp_path / "raw.csv"
        write_rows_csv(report.rows, RAW_FIELDS, path)
        with open(path, newline="") as fh:
            loaded = list(csv.DictReader(fh))
        again = summarize(loaded)
        assert again == report.summary

    def test_rows_carry_the_convergence_counts_of_their_fit(self):
        spec = scenario("s1", sample_sizes=(60,), replications=1,
                        methods=("nscsl-te", "baseline"), seed_base=5)
        rows = {(r["method"], r["target"]): r
                for r in run_scenario(spec).rows}
        _, data = scenario_data(spec, 60, 5)
        base = fit_baseline(data)
        selective = fit(data, FitConfig(), warm_start=base)
        for key, result in ((("baseline", "nscg"), base),
                            (("baseline", "full"), base),
                            (("nscsl-te", "nscg"), selective)):
            assert rows[key]["converged"] == int(result.converged)
            assert rows[key]["dual_steps"] == len(result.diagnostics)
            assert rows[key]["inner_iterations"] == sum(
                d["inner_iterations"] for d in result.diagnostics)

    def test_summary_counts_nonconverged_fits(self):
        # one dual step cannot push h1 under its tolerance
        spec = scenario("s1", sample_sizes=(60,), replications=2,
                        methods=("baseline",))
        report = run_scenario(spec, FitConfig(max_dual_steps=1))
        assert all(r["converged"] == 0 for r in report.rows)
        assert [s["nonconverged"] for s in report.summary] == [2, 2]
        assert all(s["failures"] == 0 for s in report.summary)

    def test_rows_and_summary_count_capped_solves(self):
        # three accepted steps cannot finish an inner solve, so every fit
        # has capped solves; the default cap leaves s1 at n=60 with none
        spec = scenario("s1", sample_sizes=(60,), replications=2,
                        methods=("nscsl-te", "baseline"))
        report = run_scenario(spec, FitConfig(max_inner_iter=3))
        for r in report.rows:
            assert 1 <= r["capped_solves"] <= r["dual_steps"]
        for entry in report.summary:
            assert entry["capped_solves"] == sum(
                r["capped_solves"] for r in report.rows
                if (r["method"], r["target"]) == (entry["method"],
                                                  entry["target"]))
        uncapped = run_scenario(spec)
        assert all(r["capped_solves"] == 0 for r in uncapped.rows)

    def test_failures_become_counted_rows(self, monkeypatch):
        from nscausal import bench as bench_mod

        def boom(data, config):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(bench_mod, "fit_baseline", boom)
        spec = scenario("s1", sample_sizes=(60,), replications=2,
                        methods=("baseline", "nscsl-te"))
        report = run_scenario(spec)
        # a failed baseline fails on both of its targets
        assert [(r["replication"], r["method"], r["target"], r["failed"])
                for r in report.rows] == [
            (rep, method, target, 1) for rep in (0, 1)
            for method, target in (("baseline", "nscg"), ("baseline", "full"),
                                   ("nscsl-te", "nscg"))]
        assert {(s["method"], s["target"]): s["failures"]
                for s in report.summary} == {("baseline", "full"): 2,
                                             ("baseline", "nscg"): 2,
                                             ("nscsl-te", "nscg"): 2}

    def test_selective_fit_failure_keeps_the_baseline_rows(self, monkeypatch):
        from nscausal import bench as bench_mod

        def boom(data, config, warm_start=None):
            raise RuntimeError("synthetic selective failure")

        monkeypatch.setattr(bench_mod, "fit", boom)
        spec = scenario("s1", sample_sizes=(60,), replications=1,
                        methods=("baseline", "nscsl-te"))
        rows = run_scenario(spec).rows
        assert [(r["method"], r["target"], r["failed"]) for r in rows] == [
            ("baseline", "nscg", 0), ("baseline", "full", 0),
            ("nscsl-te", "nscg", 1)]
        assert rows[2]["error"] == "synthetic selective failure"
        assert all(r["error"] == "" for r in rows[:2])

    def test_custom_scenario_scores_against_its_own_subgraph(self):
        spec = scenario("custom", p=6, expected_degree=1.5,
                        sample_sizes=(200,), replications=2,
                        methods=("baseline",))
        report = run_scenario(spec)
        assert len(report.rows) == 4  # two targets per baseline replication
        assert all(r["failed"] == 0 for r in report.rows)
        # truths differ between replications for the custom generator
        a = scenario_truth(spec, np.random.SeedSequence(0).spawn(2)[0])
        b = scenario_truth(spec, np.random.SeedSequence(1).spawn(2)[0])
        assert not np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize(
        "threads", [0, (os.cpu_count() or 1) + 1, 1.5, True],
        ids=["zero", "above_core_count", "fraction", "bool"])
    def test_thread_count_is_bounded_before_any_worker_starts(
            self, threads, monkeypatch):
        import concurrent.futures

        from nscausal import bench as bench_mod

        def no_work(*args, **kwargs):
            raise AssertionError("a worker pool or replication was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(bench_mod, "_replication_rows", no_work)
        spec = scenario("s1", sample_sizes=(60,), replications=2,
                        methods=("baseline",))
        with pytest.raises(ValueError, match="threads"):
            run_scenario(spec, threads=threads)

    def test_fixed_delta_star_is_rejected_before_any_work(self, monkeypatch):
        from nscausal import bench as bench_mod

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit was started")

        monkeypatch.setattr(bench_mod, "fit_baseline", no_fit)
        spec = scenario("s1", sample_sizes=(60,), replications=1)
        with pytest.raises(ValueError, match="delta_star"):
            run_scenario(spec, FitConfig(delta_star=50.0))

    def test_worker_pool_matches_serial(self):
        spec = scenario("s1", sample_sizes=(60,), replications=2,
                        methods=("baseline",))
        serial = run_scenario(spec, threads=1)
        pooled = run_scenario(spec, threads=2)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_s"}
                              for r in rows]
        assert strip(serial.rows) == strip(pooled.rows)
