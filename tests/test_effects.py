import numpy as np
import pytest

from nscausal.effects import (delta_star, direct_effect, effect_rows,
                              outcome_effects, total_effect,
                              total_effect_by_paths, total_effects)
from nscausal.graph import WeightedDag
from nscausal.optimizer import fit_baseline, relevance_constraint
from nscausal.scm import BernoulliNoise, SemSpec, sample_linear

from conftest import random_dag
from test_graph import table1_graph


def chain_to_outcome(weights):
    dim = len(weights) + 1
    w = np.zeros((dim, dim))
    for i, value in enumerate(weights):
        w[i, i + 1] = value
    return WeightedDag(w)


class TestDirectEffect:
    def test_reads_the_outcome_column(self):
        w = np.zeros((4, 4))
        w[0, 3] = 0.5
        w[2, 3] = 1.2
        g = WeightedDag(w)
        assert direct_effect(g, 0) == 0.5
        assert direct_effect(g, 1) == 0.0
        assert direct_effect(g, 2) == 1.2

    def test_two_route_example(self):
        g = table1_graph(omega1=0.3, omega2=0.7, c=1.0)
        assert direct_effect(g, 0) == pytest.approx(0.3)
        assert direct_effect(g, 1) == pytest.approx(0.7)

    def test_rejects_outcome_node(self):
        with pytest.raises(ValueError):
            direct_effect(chain_to_outcome([1.0]), 1)


class TestNodeIndex:
    @pytest.mark.parametrize("effect", [direct_effect, total_effect,
                                        total_effect_by_paths])
    @pytest.mark.parametrize("i, message", [
        (3, "must be a feature index, not the outcome 3"),
        (4, r"must be an integer in range\(4\), got 4"),
        (-1, r"must be an integer in range\(4\), got -1"),
        (0.5, r"must be an integer in range\(4\), got 0.5"),
        (1.0, r"must be an integer in range\(4\), got 1.0"),
        (True, r"must be an integer in range\(4\), got True"),
    ])
    def test_i_must_be_a_feature_index(self, effect, i, message):
        # 0.5 and 1.0 raised numpy's IndexError, True a TypeError
        with pytest.raises(ValueError, match=f"^i {message}"):
            effect(chain_to_outcome([2.0, 3.0, 0.5]), i)

    def test_numpy_integers_are_indices(self):
        g = chain_to_outcome([2.0, 3.0, 0.5])
        for effect in (direct_effect, total_effect, total_effect_by_paths):
            assert effect(g, np.int64(1)) == effect(g, 1)


class TestTotalEffect:
    def test_chain_multiplies_weights(self):
        assert total_effect(chain_to_outcome([2.0, 3.0]), 0) == pytest.approx(6.0)

    def test_two_route_example(self):
        g = table1_graph(omega1=0.3, omega2=0.7, c=1.0)
        assert total_effect(g, 0) == pytest.approx(1.0)
        assert total_effect(g, 1) == pytest.approx(0.7)

    def test_matches_path_enumeration(self, rng):
        for _ in range(200):
            g = random_dag(rng, dim=int(rng.integers(3, 9)), density=0.5,
                           signed=True)
            for i in range(g.dim):
                if i == g.outcome_index:
                    continue
                closed = total_effect(g, i)
                brute = total_effect_by_paths(g, i)
                assert abs(closed - brute) < 1e-10

    def test_only_direct_path_equals_direct_effect(self):
        w = np.zeros((3, 3))
        w[0, 2] = 1.7
        w[1, 0] = 0.4  # upstream of 0, irrelevant for node 0's own effect
        g = WeightedDag(w)
        assert total_effect(g, 0) == pytest.approx(direct_effect(g, 0))

    def test_zero_without_outgoing_edges(self, rng):
        g = random_dag(rng, 6, density=0.6)
        w = g.weights.copy()
        node = next(i for i in range(6) if i != g.outcome_index)
        w[node, :] = 0.0
        cut = WeightedDag(w, g.labels, g.outcome_index)
        assert total_effect_by_paths(cut, node) == 0.0
        assert abs(total_effect(cut, node)) < 1e-12

    def test_no_path_is_a_positive_zero(self):
        # z0 is a sink whose parents z1 and z2 both reach y, so the closed
        # form's sum for it can round to -0.0; `nscausal effects` prints it
        w = np.zeros((4, 4))
        w[1, 0], w[2, 0], w[1, 3], w[2, 3], w[1, 2] = 2.0, 0.5, 1.5, 0.7, 1.0
        te = total_effects(WeightedDag(w))
        assert te == pytest.approx([0.0, 2.2, 0.7, 0.0])
        assert not np.signbit(te[te == 0.0]).any()

    def test_linear_in_each_weight(self, rng):
        # finite-difference slope equals the engine's total-effect jacobian:
        # with mask {i} and delta_star 0 the relevance constraint is
        # -|TE_i| (the outcome is a sink), so its gradient's [k, l] entry is
        # -sign(TE_i) * dTE_i/dB[k, l]
        for _ in range(20):
            g = random_dag(rng, 6, density=0.6)
            edges = np.argwhere(g.weights != 0)
            if len(edges) == 0:
                continue
            k, l = edges[rng.integers(len(edges))]
            te = total_effects(g)
            i = next((i for i in range(6)
                      if i != g.outcome_index and te[i] != 0.0), None)
            if i is None:
                continue
            step = 1e-6
            up, down = g.weights.copy(), g.weights.copy()
            up[k, l] += step
            down[k, l] -= step
            slope = (total_effect(WeightedDag(up, g.labels, g.outcome_index), i)
                     - total_effect(WeightedDag(down, g.labels, g.outcome_index), i)) / (2 * step)
            mask = np.arange(6) == i
            _, grad = relevance_constraint(g.weights, mask, "te", 0.0,
                                           g.outcome_index)
            assert abs(-np.sign(te[i]) * slope - grad[k, l]) < 1e-6

    def test_rejects_cyclic(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.9
        with pytest.raises(ValueError):
            total_effect(WeightedDag(w), 0)

    def test_overflow_is_an_error(self):
        # z0 -> z1 -> z2 -> y at 1e200 used to give [inf, inf, 1e200, 0]
        with pytest.raises(ValueError, match="^total effects are not finite"):
            total_effects(chain_to_outcome([1e200] * 3))


class TestOutcomeEffects:
    def test_is_the_column_total_effects_reads(self, rng):
        for _ in range(50):
            g = random_dag(rng, dim=int(rng.integers(2, 8)), density=0.5,
                           signed=True)
            eye = np.eye(g.dim)
            te, inverse = outcome_effects(g.weights, g.outcome_index, "te", eye)
            assert np.array_equal(inverse, np.linalg.inv(eye - g.weights))
            expected = total_effects(g)
            mask = np.arange(g.dim) != g.outcome_index
            assert np.array_equal(te[mask], expected[mask])
            de, identity = outcome_effects(g.weights, g.outcome_index, "de",
                                           eye)
            assert identity is eye
            assert np.array_equal(de, g.weights[:, g.outcome_index])

    @pytest.mark.parametrize("w, message", [
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "I - B is singular"),
        (np.diag([1e200] * 3, k=1), r"\(I - B\)\^-1 is not finite"),
    ], ids=["singular", "overflow"])
    def test_undefined_total_effect_is_a_floating_point_error(self, w,
                                                               message):
        # the fit's line search rejects such a trial point
        with pytest.raises(FloatingPointError, match=message):
            outcome_effects(w, len(w) - 1, "te", np.eye(len(w)))


class TestEffectReport:
    def test_empty_graph(self):
        rows = effect_rows(WeightedDag(np.zeros((4, 4))))
        assert len(rows) == 3
        assert all(r["direct_effect"] == 0.0 and r["total_effect"] == 0.0
                   for r in rows)

    def test_two_route_example(self):
        rows = effect_rows(table1_graph(0.3, 0.7, 1.0))
        by_label = {r["label"]: r for r in rows}
        assert by_label["F"]["direct_effect"] == pytest.approx(0.3)
        assert by_label["F"]["total_effect"] == pytest.approx(1.0)
        assert by_label["D"]["direct_effect"] == pytest.approx(0.7)
        assert by_label["D"]["total_effect"] == pytest.approx(0.7)

    def test_direct_column_matches_weights(self, rng):
        g = random_dag(rng, 7, density=0.5)
        for row in effect_rows(g):
            assert row["direct_effect"] == g.weights[row["node"], g.outcome_index]

    @pytest.mark.parametrize("selected", [[True], [True] * 4,
                                          [[True, True, True]]])
    def test_mask_of_another_length_is_an_error(self, monkeypatch, selected):
        # zip used to truncate the mask: [True] gave one row of three
        import nscausal.effects as effects

        def no_work(g):
            raise AssertionError("effect_rows ran before checking its mask")

        monkeypatch.setattr(effects, "total_effects", no_work)
        g = chain_to_outcome([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="^selected must have shape"):
            effect_rows(g, selected)


    @pytest.mark.parametrize("selected", [[True, "x", True], [2, 0, 1],
                                          np.ones(3)])
    def test_mask_must_hold_booleans(self, selected):
        # a truthy entry counted as selected
        with pytest.raises(ValueError, match="^selected must hold booleans"):
            effect_rows(chain_to_outcome([1.0, 1.0, 1.0]), selected)

    def test_graph_without_features_takes_an_empty_mask(self):
        assert effect_rows(WeightedDag(np.zeros((1, 1))), []) == []


class TestDeltaStar:
    @staticmethod
    def _baseline(data):
        return fit_baseline(data).graph

    def test_empty_generating_graph(self):
        g = WeightedDag(np.zeros((4, 4)))
        data = sample_linear(SemSpec(g, BernoulliNoise(0.5)), 4000, seed=0)
        assert delta_star(data, self._baseline, "te") <= 0.1

    def test_chain_total_effects(self):
        data = sample_linear(SemSpec(chain_to_outcome([1.0, 1.0])), 5000, seed=1)
        value = delta_star(data, self._baseline, "te")
        assert 1.7 <= value <= 2.3

    def test_chain_direct_effects(self):
        data = sample_linear(SemSpec(chain_to_outcome([1.0, 1.0])), 5000, seed=1)
        value = delta_star(data, self._baseline, "de")
        assert 0.8 <= value <= 1.2

    def test_overflowing_total_effects_are_an_error(self):
        # it returned inf; the direct effects of the same graph are finite
        g = chain_to_outcome([1e200] * 3)
        data = sample_linear(SemSpec(chain_to_outcome([1.0, 1.0, 1.0])), 50,
                             seed=0)
        with pytest.raises(ValueError, match="^total effects are not finite"):
            delta_star(data, lambda _: g, "te")
        assert delta_star(data, lambda _: g, "de") == 1e200

    @pytest.mark.parametrize("kind", ["te", "de"])
    def test_cyclic_reference_graph_is_an_error(self, kind):
        # de read the outcome column unchecked: 2.0 on z0 <-> z1 -> y
        w = np.zeros((3, 3))
        w[0, 1], w[1, 0], w[1, 2] = 1.0, 0.5, 2.0
        data = sample_linear(SemSpec(chain_to_outcome([1.0, 1.0])), 50, seed=0)
        with pytest.raises(ValueError, match="^g must be acyclic"):
            delta_star(data, lambda _: WeightedDag(w), kind)

    def test_is_the_effect_mass_of_the_reference_graph(self, rng):
        data = sample_linear(SemSpec(chain_to_outcome([1.0])), 50, seed=0)
        for _ in range(20):
            g = random_dag(rng, 7, density=0.5)
            col = g.weights[:, g.outcome_index]
            assert delta_star(data, lambda _: g, "de") == float(
                np.abs(col).sum() - abs(col[g.outcome_index]))
            assert delta_star(data, lambda _: g, "te") == float(
                np.abs(total_effects(g)).sum())

    def test_rejects_unknown_kind(self):
        data = sample_linear(SemSpec(chain_to_outcome([1.0])), 50, seed=0)
        with pytest.raises(ValueError):
            delta_star(data, self._baseline, "ate")
