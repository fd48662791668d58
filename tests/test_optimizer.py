import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscausal.bench import nscg, scenario, scenario_data, scenario_truth
from nscausal.effects import delta_star, direct_effect, total_effect
from nscausal.graph import (WeightedDag, graph_metrics, is_acyclic, prune,
                            prune_weights, topological_order)
from nscausal.optimizer import (_FTOL, _GRAD_TOL, _H1_TOL, _LBFGS_HALVINGS,
                                _LBFGS_MEMORY, _PENALTY_CAP, _PENALTY_INIT,
                                _STEP_SIZE, DIAGNOSTIC_FIELDS,
                                SELECTION_H1_GATE, FitConfig,
                                _lbfgs_minimize, _Memory, _Objective,
                                _selection_update, _unit_gram,
                                acyclicity_gradient, acyclicity_value, fit,
                                fit_baseline, least_squares_loss,
                                relevance_constraint)
from nscausal.scm import (BernoulliNoise, Dataset, GaussianNoise, SemSpec,
                          sample_linear, shift_nonnegative)

def chain_dataset(weights=(1.0, 1.0), n=5000, seed=1, noise=None):
    dim = len(weights) + 1
    w = np.zeros((dim, dim))
    for i, value in enumerate(weights):
        w[i, i + 1] = value
    spec = SemSpec(WeightedDag(w), noise or BernoulliNoise(0.5))
    return sample_linear(spec, n, seed=seed), WeightedDag(w)


def s1_replication(r, n=100):
    truth, data = scenario_data(scenario("s1"), n, r)
    return truth, nscg(truth), data


def central_difference(value_fn, w, step=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            up, down = w.copy(), w.copy()
            up[i, j] += step
            down[i, j] -= step
            grad[i, j] = (value_fn(up) - value_fn(down)) / (2 * step)
    return grad


def gradient_probe(rng, dim=6):
    """Random instance with entries away from the |.| kinks."""
    while True:
        w = (rng.uniform(0.2, 1.0, (dim, dim))
             * np.sign(rng.standard_normal((dim, dim)))
             * (rng.random((dim, dim)) < 0.4))
        np.fill_diagonal(w, 0.0)
        if np.abs(np.linalg.eigvals(w)).max() > 0.9:
            w *= 0.5
        nonzero = np.abs(w[w != 0])
        if len(nonzero) and nonzero.min() < 1e-3:
            continue
        te = np.linalg.inv(np.eye(dim) - w)[:, dim - 1]
        if np.abs(te[:-1][np.abs(te[:-1]) > 0]).min(initial=1.0) < 1e-3:
            continue
        return w


class TestAcyclicityValue:
    def test_zero_matrix(self):
        for dim in (2, 5, 9):
            assert acyclicity_value(WeightedDag(np.zeros((dim, dim))), 1.0) == 0.0

    def test_two_cycle_closed_form(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        # (I + E)^2 = 2I + 2E for E = [[0,1],[1,0]]; trace 4, minus 2
        assert acyclicity_value(WeightedDag(w), 1.0) == pytest.approx(2.0)

    def test_triangular_is_exactly_zero(self, rng):
        w = np.triu(rng.uniform(0.5, 2.0, (7, 7)), 1)
        assert acyclicity_value(WeightedDag(w), 1.0) == 0.0

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            acyclicity_value(WeightedDag(np.zeros((2, 2))), 0.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -math.inf,
                                   True, "0.5"])
    def test_t_must_be_a_finite_positive_number(self, t):
        # nan and inf read as an overflow, True as 1, and a string raised a
        # bare TypeError
        g = WeightedDag(np.zeros((2, 2)))
        for function in (acyclicity_value, acyclicity_gradient):
            with pytest.raises(ValueError,
                               match="^t must be a finite positive number"):
                function(g, t)

    def test_overflow_is_a_value_error_without_warnings(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1e100  # z0 <-> z1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                acyclicity_value(WeightedDag(w), 1.0)
        assert str(info.value) == "acyclicity value overflowed; decrease t"


class TestAcyclicityGradient:
    def test_zero_at_origin(self):
        g = WeightedDag(np.zeros((4, 4)))
        assert not acyclicity_gradient(g, 1.0).any()

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            w = rng.uniform(-0.8, 0.8, (5, 5))
            np.fill_diagonal(w, 0.0)
            g = WeightedDag(w)
            analytic = acyclicity_gradient(g, 0.7)
            numeric = central_difference(
                lambda m: acyclicity_value(WeightedDag(m), 0.7), w)
            assert np.abs(analytic - numeric).max() < 1e-5


class TestAcyclicityExponent:
    """``h1`` is the trace of ``(I + t B∘B)^k`` at ``k = 2^j + 1``, the
    smallest such exponent of at least ``dim``."""

    @staticmethod
    def exponent(dim):
        k = 2
        while k < dim:
            k = 2 * k - 1
        return k

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 9, 17, 20, 50])
    def test_value_is_the_trace_power_at_k(self, dim):
        rng = np.random.default_rng(dim)
        w = rng.uniform(-1.0, 1.0, (dim, dim)) * (rng.random((dim, dim)) < 0.5)
        np.fill_diagonal(w, 0.0)
        t = 1.0 / dim
        power = np.linalg.matrix_power(np.eye(dim) + t * w * w,
                                       self.exponent(dim))
        assert acyclicity_value(WeightedDag(w), t) == pytest.approx(
            np.trace(power) - dim, rel=1e-10)

    @pytest.mark.parametrize("dim", [20, 50])
    def test_zero_on_a_dag_and_positive_on_the_longest_cycle(self, dim):
        rng = np.random.default_rng(dim)
        w = np.triu(rng.uniform(0.5, 2.0, (dim, dim)), 1)
        assert acyclicity_value(WeightedDag(w), 1.0 / dim) == 0.0
        cycle = np.roll(np.eye(dim), 1, axis=1)  # i -> i + 1 mod dim
        # (I + A)^k for the cycle's permutation matrix A: only the closed
        # walks of length dim contribute, C(k, dim) of them from each node
        k = self.exponent(dim)
        assert acyclicity_value(WeightedDag(cycle), 1.0) == pytest.approx(
            dim * math.comb(k, dim), rel=1e-10)

    @pytest.mark.parametrize("dim", [6, 20])
    def test_gradient_matches_finite_differences_where_k_exceeds_dim(
            self, dim):
        assert self.exponent(dim) > dim
        rng = np.random.default_rng(dim)
        w = rng.uniform(-1.0, 1.0, (dim, dim)) * (rng.random((dim, dim)) < 0.4)
        np.fill_diagonal(w, 0.0)
        t = 1.0 / dim
        analytic = acyclicity_gradient(WeightedDag(w), t)
        numeric = central_difference(
            lambda m: acyclicity_value(WeightedDag(m), t), w)
        assert np.abs(analytic - numeric).max() < 1e-6 * max(
            1.0, np.abs(analytic).max())


class TestLeastSquaresLoss:
    def test_perfect_fit_leaves_only_the_root_energy(self):
        # every explained column has zero residual; the root's own value is
        # the irreducible part of the objective
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=400)
        x1 = 2.0 * x0
        y = 3.0 * x1
        data = Dataset(np.column_stack([x0, x1, y]), ("z0", "z1", "y"), 2)
        w = np.zeros((3, 3))
        w[0, 1], w[1, 2] = 2.0, 3.0
        loss, _ = least_squares_loss(w, data, np.ones(3, bool))
        assert loss == pytest.approx(0.5 * np.var(x0))
        loss2, _ = least_squares_loss(w, data, np.array([False, True, True]))
        assert loss2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix_gives_scaled_norm(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(50, 3))
        data = Dataset(values, ("z0", "z1", "y"), 2)
        loss, _ = least_squares_loss(np.zeros((3, 3)), data, np.ones(3, bool))
        centered = values - values.mean(axis=0)
        assert loss == pytest.approx(0.5 * np.sum(centered ** 2) / 50)

    def test_equals_the_fit_objective_at_the_raw_graph(self):
        # the fit minimises f on centered data over its active columns; the
        # public loss is that f, for the baseline and for the te fit from
        # it, which drops z0, at any data scale (both inf past the float
        # range)
        _, _, unit = s1_replication(300)
        for exponent in (0, 520, 1019, -600):
            data = Dataset(np.ldexp(unit.values, exponent), unit.labels,
                           unit.outcome_index)
            base = fit_baseline(data)
            selective = fit(data, FitConfig(effect_kind="te"), warm_start=base)
            assert selective.selected.tolist() == [False, True, True, True]
            for result in (base, selective):
                mask = np.insert(result.selected, data.outcome_index, True)
                loss, _ = least_squares_loss(result.raw_graph.weights, data,
                                             mask)
                assert loss == result.diagnostics[-1]["f"]

    def test_gradient_matches_finite_differences(self, rng):
        values = rng.normal(size=(60, 5))
        data = Dataset(values, tuple("abcde"), 4)
        mask = np.array([True, True, False, True, True])
        w = rng.uniform(-0.5, 0.5, (5, 5))
        np.fill_diagonal(w, 0.0)
        _, analytic = least_squares_loss(w, data, mask)
        numeric = central_difference(
            lambda m: least_squares_loss(m, data, mask)[0], w)
        numeric[4, :] = 0.0          # outcome row is clamped in the gradient
        numeric[~mask, :] = 0.0
        numeric[:, ~mask] = 0.0
        assert np.abs(analytic - numeric).max() < 1e-5

    def test_mask_must_include_outcome(self):
        data = Dataset(np.zeros((5, 3)) + 1.0, ("a", "b", "y"), 2)
        with pytest.raises(ValueError):
            least_squares_loss(np.zeros((3, 3)), data,
                               np.array([True, True, False]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_b_is_a_value_error(self, value):
        # a NaN entry gave a NaN loss
        data = Dataset(np.random.default_rng(0).normal(size=(10, 3)),
                       ("a", "b", "y"), 2)
        w = np.zeros((3, 3))
        w[0, 1] = value
        with pytest.raises(ValueError, match="^B must be finite"):
            least_squares_loss(w, data, np.ones(3, bool))

    def test_empty_dataset_is_an_error(self):
        data = Dataset(np.zeros((0, 3)), ("a", "b", "y"), 2)
        with pytest.raises(ValueError, match="^dataset is empty"):
            least_squares_loss(np.zeros((3, 3)), data, np.ones(3, bool))

    @pytest.mark.parametrize("w, mask, name", [
        (np.zeros((4, 4)), np.ones(3, bool), "mask"),
        (np.zeros((4, 4)), np.ones(5, bool), "mask"),
        (np.zeros((3, 3)), np.ones(4, bool), "B"),
        (np.zeros((4, 3)), np.ones(4, bool), "B"),
    ], ids=["short-mask", "long-mask", "small-B", "non-square-B"])
    def test_shapes_must_match_the_data_before_any_work(self, monkeypatch, w,
                                                        mask, name):
        import nscausal.optimizer as optimizer

        def no_work(*args):
            raise AssertionError("the loss ran before checking its inputs")

        monkeypatch.setattr(optimizer, "_unit_gram", no_work)
        data = Dataset(np.random.default_rng(0).normal(size=(10, 4)),
                       ("a", "b", "c", "y"), 3)
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            least_squares_loss(w, data, mask)


@pytest.mark.parametrize("mask", [[1, 2, 1, 1], [True, "x", True, True],
                                  np.ones(4)])
def test_masks_must_hold_booleans(mask):
    # ints and strings were read as True
    data = Dataset(np.random.default_rng(0).normal(size=(10, 4)),
                   ("a", "b", "c", "y"), 3)
    with pytest.raises(ValueError, match="^mask must hold booleans"):
        least_squares_loss(np.zeros((4, 4)), data, mask)
    with pytest.raises(ValueError, match="^mask must hold booleans"):
        relevance_constraint(np.zeros((4, 4)), mask, "te", 1.0)


class TestRelevanceConstraint:
    def test_fixed_point_at_delta_star_source(self):
        data, _ = chain_dataset(n=2000)
        base = fit_baseline(data)
        dstar = delta_star(data, lambda _: base.graph, "te")
        value, _ = relevance_constraint(base.graph.weights, np.ones(3, bool),
                                        "te", dstar)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_empty_mask_keeps_reference_and_row_penalty(self):
        w = np.zeros((3, 3))
        w[2, 0] = 0.4  # edge out of the outcome, penalized
        value, _ = relevance_constraint(w, np.zeros(3, bool), "te", 1.5)
        assert value == pytest.approx(1.5 + 0.4)

    def test_unit_chain_is_tight_at_two(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = 1.0
        value, _ = relevance_constraint(w, np.ones(3, bool), "te", 2.0)
        # total effects are 2 (path 0->1->2) ... wait: TE_0 = 1, TE_1 = 1
        assert value == pytest.approx(0.0)

    def test_gradients_match_finite_differences(self, rng):
        for kind in ("te", "de"):
            for _ in range(5):
                w = gradient_probe(rng)
                mask = np.ones(6, bool)
                _, analytic = relevance_constraint(w, mask, kind, 3.0)
                numeric = central_difference(
                    lambda m: relevance_constraint(m, mask, kind, 3.0)[0], w)
                assert np.abs(analytic - numeric).max() < 1e-5

    def test_cyclic_contraction_takes_the_resolvent(self):
        # spectral radius 0.71, but ||B^3||^(1/3) = 1.44: the truncated
        # series I + B + B^2 would give TE = (0.1, 1), the resolvent (0.2, 2)
        w = np.zeros((3, 3))
        w[0, 1], w[1, 0], w[1, 2] = 0.1, 5.0, 1.0
        mask = np.ones(3, bool)
        value, analytic = relevance_constraint(w, mask, "te", 2.0)
        assert value == pytest.approx(2.0 - 0.2 - 2.0)
        numeric = central_difference(
            lambda m: relevance_constraint(m, mask, "te", 2.0)[0], w)
        assert np.abs(analytic - numeric).max() < 1e-5

    @pytest.mark.parametrize("kind", ["te", "de"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_b_is_a_value_error(self, kind, value):
        # a NaN entry read as "total effects undefined" (te) or gave a NaN
        # value (de)
        w = np.zeros((3, 3))
        w[0, 1] = value
        with pytest.raises(ValueError, match="^B must be finite"):
            relevance_constraint(w, np.ones(3, bool), kind, 1.0)

    def test_singular_resolvent_is_an_error(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = w[1, 2] = 1.0  # I - B is singular
        with pytest.raises(ValueError, match="singular"):
            relevance_constraint(w, np.ones(3, bool), "te", 2.0)

    def test_non_finite_resolvent_is_an_error(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = 1e300  # the path z0 -> z1 -> y carries 1e600
        with pytest.raises(ValueError, match="not finite"):
            relevance_constraint(w, np.ones(3, bool), "te", 2.0)

    def test_overflowing_jacobian_is_an_error(self):
        # at 1e154 the total effect of z0, 1e308, is finite, but the
        # Jacobian multiplies two resolvent entries of that size; at 1e300
        # the resolvent itself overflows.  Neither may warn on the way.
        for weight in (1e154, 1e300):
            w = np.zeros((3, 3))
            w[0, 1] = w[1, 2] = weight
            with pytest.raises(ValueError, match="not finite"):
                relevance_constraint(w, np.ones(3, bool), "te", 2.0)

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_delta_star_must_be_finite_and_nonnegative(self, value):
        # FitConfig rejects these values; at -1 the value read -2.0, at nan nan
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 3] = 1.0
        with pytest.raises(ValueError, match="delta_star must be a finite"):
            relevance_constraint(w, np.ones(4, bool), "te", value)

    @pytest.mark.parametrize("w, mask, message", [
        (np.zeros((4, 4)), np.ones(3, bool), "mask must have shape"),
        (np.zeros((4, 4)), np.ones(5, bool), "mask must have shape"),
        (np.zeros((4, 3)), np.ones(4, bool), "B must be a square matrix"),
        (np.zeros(4), np.ones(4, bool), "B must be a square matrix"),
    ], ids=["short-mask", "long-mask", "non-square-B", "vector-B"])
    def test_shapes_are_checked_before_any_work(self, monkeypatch, w, mask,
                                                message):
        import nscausal.optimizer as optimizer

        def no_work(*args):
            raise AssertionError("the constraint ran before checking its "
                                 "inputs")

        monkeypatch.setattr(optimizer, "_h2", no_work)
        with pytest.raises(ValueError, match=f"^{message}"):
            relevance_constraint(w, mask, "te", 1.0)

    @pytest.mark.parametrize("index", [3, 7, -4])
    def test_out_of_range_outcome_is_an_error(self, index):
        with pytest.raises(ValueError, match="outcome_index"):
            relevance_constraint(np.zeros((3, 3)), np.ones(3, bool), "te",
                                 1.0, outcome_index=index)

    def test_negative_outcome_counts_from_the_end(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = 1.0
        mask = np.ones(3, bool)
        value, grad = relevance_constraint(w, mask, "te", 2.0, outcome_index=-3)
        same_value, same_grad = relevance_constraint(w, mask, "te", 2.0,
                                                     outcome_index=0)
        assert value == same_value and np.array_equal(grad, same_grad)


class TestEngineObjective:
    def test_gradient_matches_finite_differences(self, rng):
        # the composed augmented Lagrangian the inner solve descends, with
        # every penalty switched on and one feature deactivated
        dim = 6
        active = np.ones(dim, bool)
        active[1] = False
        for kind in ("te", "de"):
            for _ in range(5):
                values = rng.normal(size=(80, dim))
                centered = values - values.mean(axis=0)
                objective = _Objective(
                    centered.T @ centered / 80, dim - 1, active, t=0.4,
                    kind=kind, delta_star=3.0)
                objective.lam1, objective.c = 0.7, 1.3
                objective.lam2, objective.d_pen = -0.6, 2.5
                free = objective.free.astype(bool)
                w = gradient_probe(rng, dim) * objective.free
                analytic = objective(w)[1]
                numeric = central_difference(lambda m: objective(m)[0], w)
                error = np.abs(analytic - numeric)[free].max()
                assert error <= 1e-5 * max(1.0, np.abs(numeric[free]).max())
                assert not analytic[~free].any()


class TestLbfgsSolver:
    @staticmethod
    def least_squares_problem(dim=5, n=200, seed=4, objective_class=_Objective):
        # lam1 = c = 0 and no relevance: the objective is the column-wise
        # least squares alone, with one feature switched off.  Columns on
        # scales 1 to 10 make it ill-conditioned enough (gram condition
        # number 5e4) that a broken L-BFGS direction misses the
        # minimizer within 100 steps.
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, dim)) @ rng.normal(size=(dim, dim))
        values *= np.logspace(0, 1, dim)
        centered = values - values.mean(axis=0)
        gram = centered.T @ centered / n
        active = np.ones(dim, bool)
        active[1] = False
        objective = objective_class(gram, dim - 1, active, t=0.2,
                                    kind="te", delta_star=0.0)
        w0 = rng.uniform(-1.0, 1.0, (dim, dim))
        return gram, objective, w0

    def test_reaches_the_closed_form_regression(self):
        gram, objective, w0 = self.least_squares_problem()
        free = objective.free.astype(bool)
        expected = np.zeros_like(gram)
        for j in np.flatnonzero(objective.cols):
            rows = np.flatnonzero(free[:, j])
            expected[rows, j] = np.linalg.solve(gram[np.ix_(rows, rows)],
                                                gram[rows, j])
        w, solve = _lbfgs_minimize(w0, objective, 0.05, 100, 1e-10)
        assert np.abs(w - expected).max() < 1e-6
        assert solve["inner_iterations"] < 100
        assert solve["objective_end"] == objective(w)[0]

    def test_accepted_iterates_never_raise_the_objective(self):
        # the solve is deterministic, so capping it at k steps returns its
        # k-th accepted iterate
        _, objective, w0 = self.least_squares_problem()
        totals = [_lbfgs_minimize(w0, objective, 0.05, k,
                                  1e-10)[1]["objective_end"]
                  for k in range(30)]
        assert totals[0] == objective(w0 * objective.free)[0]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] < totals[0]

    def test_rejected_trials_are_counted_and_skipped(self):
        # a trial with an entry past 0.03 raises as an h1 overflow would; the
        # first trial from 0 reaches 0.05 (the plain gradient step), so the
        # line search must reject it and halve
        class Bounded(_Objective):
            calls = rejected = 0

            def __call__(self, w):
                Bounded.calls += 1
                if np.abs(w).max() > 0.03:
                    Bounded.rejected += 1
                    raise FloatingPointError("trial out of bounds")
                return super().__call__(w)

        _, objective, w0 = self.least_squares_problem(objective_class=Bounded)
        w, solve = _lbfgs_minimize(
            np.zeros_like(w0), objective, 0.05, 20, 1e-10)
        assert Bounded.rejected >= 1
        assert solve["evaluations"] == Bounded.calls
        assert solve["inner_iterations"] >= 1
        assert solve["objective_end"] < solve["objective_start"]
        assert np.abs(w).max() <= 0.03

    def test_overflowing_trials_are_rejected_without_warnings(self):
        # the first trials of a 1e40-sized step overflow h1; every trial
        # is rejected, quietly, and the solve ends where it started
        _, objective, w0 = self.least_squares_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, solve = _lbfgs_minimize(w0, objective, 1e40, 10, 1e-10)
        assert (solve["inner_iterations"], solve["stop_reason"]) == (
            0, "no_descent")
        assert solve["evaluations"] == 1 + _LBFGS_HALVINGS
        assert solve["objective_end"] == solve["objective_start"]

    def test_entries_off_the_free_mask_stay_exactly_zero(self):
        _, objective, w0 = self.least_squares_problem()
        for k in (1, 5, 100):
            w = _lbfgs_minimize(w0, objective, 0.05, k, 1e-10)[0]
            assert not w[objective.free == 0].any()

    def test_relative_progress_stop_ends_the_solve_early(self):
        _, objective, w0 = self.least_squares_problem()
        exact = _lbfgs_minimize(w0, objective, 0.05, 500, 1e-10)[1]
        early = _lbfgs_minimize(w0, objective, 0.05, 500, 1e-10, _FTOL)[1]
        assert exact["stop_reason"] != "ftol"
        assert early["stop_reason"] == "ftol"
        assert early["inner_iterations"] < exact["inner_iterations"]
        # it stops short of the rounding floor, not far from the minimum
        assert (exact["objective_end"] <= early["objective_end"]
                <= exact["objective_end"] * (1.0 + 1e-6))

    def test_engine_solves_with_the_relative_stop(self, monkeypatch):
        # the baseline's solves stop at kappa * h1 of the step before, within
        # [_FTOL, kappa].  A selective fit warm-started from a baseline that
        # passes the gate solves at kappa * SELECTION_H1_GATE, the rule's
        # value there, and one from a baseline above the gate at _FTOL, its
        # value at 0.  s1 seed 300's baseline settles before h1 <=
        # _FTOL / kappa, so the tight regime is checked on scripted solves
        # whose support keeps changing there
        import nscausal.optimizer as optimizer

        kappa = optimizer._FTOL_PER_H1
        seen = []

        def recording(*args):
            seen.append((args[1].relevance, args[5]))
            return _lbfgs_minimize(*args)

        def check_baseline_ftols(ftols, base):
            h1s = [row["h1"] for row in base.diagnostics]
            assert ftols[0] == kappa
            assert ftols[1:] == [max(_FTOL, min(kappa, kappa * h1))
                                 for h1 in h1s[:-1]]
            tight = [ftol for ftol, h1 in zip(ftols[1:], h1s)
                     if h1 <= _FTOL / kappa]
            assert all(ftol == _FTOL for ftol in tight)
            return tight

        chain, short = TestSettledStop.CHAIN, TestSettledStop.SHORT
        script = [(chain, 1e-3), (chain, 1e-5), (short, 1e-6), (chain, 1e-7),
                  (short, 1e-9)]
        ftols = []
        with monkeypatch.context() as scripted:
            TestSettledStop.scripted_solver(scripted, script, ftols=ftols)
            base = fit_baseline(chain_dataset(n=200)[0],
                                FitConfig(max_dual_steps=5))
        assert len(ftols) == len(base.diagnostics) == 5
        assert check_baseline_ftols(ftols, base)

        monkeypatch.setattr(optimizer, "_lbfgs_minimize", recording)
        _, _, data = s1_replication(300)
        base = fit_baseline(data)
        assert [relevance for relevance, _ in seen] == [False] * len(
            base.diagnostics)
        check_baseline_ftols([ftol for _, ftol in seen], base)

        assert base.diagnostics[-1]["h1"] <= SELECTION_H1_GATE
        seen.clear()
        result = fit(data, warm_start=base)
        assert seen and all(relevance and ftol == kappa * SELECTION_H1_GATE
                            for relevance, ftol in seen)
        assert "ftol" in {d["stop_reason"] for d in result.diagnostics}

        early = fit_baseline(data, FitConfig(max_dual_steps=4))
        assert early.diagnostics[-1]["h1"] > SELECTION_H1_GATE
        seen.clear()
        ungated = fit(data, warm_start=early)
        assert len(seen) == len(ungated.diagnostics) > 1
        assert all(relevance and ftol == _FTOL for relevance, ftol in seen)
        assert "ftol" in {d["stop_reason"] for d in ungated.diagnostics}

    @staticmethod
    def textbook_direction(pairs, grad):
        q = grad.copy()
        alphas = []
        for s, y in reversed(pairs):
            a = (s @ q) / (s @ y)
            q -= a * y
            alphas.append(a)
        s, y = pairs[-1]
        q *= (s @ y) / (y @ y)
        for (s, y), a in zip(pairs, reversed(alphas)):
            q += (a - (y @ q) / (s @ y)) * s
        return -q

    @pytest.mark.parametrize("k", [5, 380])
    def test_memory_direction_matches_the_textbook_recursion(self, k):
        # pairs from a random positive definite Hessian, pushed as the solve
        # pushes them: past the memory size (so the oldest are evicted),
        # with pairs of negative curvature that must be rejected, and with
        # a reset while the ring is rotated, after which new pairs reuse
        # slots that still hold old rows
        rng = np.random.default_rng(k)
        root = rng.normal(size=(k, k))
        hessian = root @ root.T / k + 0.1 * np.eye(k)
        memory = _Memory(k)
        kept = []
        for push in range(3 * _LBFGS_MEMORY):
            if push == 2 * _LBFGS_MEMORY:
                memory.clear()
                kept.clear()
            s = rng.normal(size=k)
            before = list(memory.slots)
            if push % 4 == 3:
                memory.push(s, -hessian @ s)
                assert memory.slots == before
            else:
                memory.push(s, hessian @ s)
                kept = (kept + [(s, hessian @ s)])[-_LBFGS_MEMORY:]
                assert len(memory.slots) == len(kept)
            grad = rng.normal(size=k)
            got = memory.direction(grad)
            expected = self.textbook_direction(kept, grad)
            assert np.abs(got - expected).max() <= \
                1e-12 * np.abs(expected).max()

    def test_rejected_overflowing_pair_leaves_the_direction(self):
        # a candidate pair is written into the spare slot before its test;
        # one whose gradient change overflowed must not reach a direction
        rng = np.random.default_rng(3)
        memory = _Memory(4)
        pairs = []
        for _ in range(_LBFGS_MEMORY + 2):
            s = rng.normal(size=4)
            pairs = (pairs + [(s, 2.0 * s)])[-_LBFGS_MEMORY:]
            memory.push(*pairs[-1])
        before = list(memory.slots)
        with np.errstate(invalid="ignore"):
            memory.push(rng.normal(size=4), np.full(4, np.inf))
        assert memory.slots == before
        grad = rng.normal(size=4)
        expected = self.textbook_direction(pairs, grad)
        assert np.abs(memory.direction(grad) - expected).max() <= \
            1e-12 * np.abs(expected).max()

    def test_scale_is_one_without_the_acyclicity_terms(self):
        # lam1 = c = 0 leaves the solve's variables unscaled, so the paths
        # above run exactly as the unscaled solve; so does the baseline's
        # first subproblem, at its zero start with lam1 = 0
        gram, objective, w0 = self.least_squares_problem()
        assert (objective.scale(w0) == 1.0).all()
        dim = len(gram)
        first = _Objective(gram, dim - 1, np.ones(dim, bool), t=1.0 / dim,
                           kind="te", delta_star=0.0)
        first.c = _PENALTY_INIT
        assert (first.scale(np.zeros_like(gram)) == 1.0).all()

    @staticmethod
    def penalty_problem(c, lam1, active=None):
        # the subproblem of a late selection-free step: s2 n=100 seed 265 on
        # the unit-free gram, at least squares on the true pattern plus
        # every reversed true edge at 1e-3, so h1 = 5.6e-6
        truth, data = scenario_data(scenario("s2"), 100, 265)
        gram = _unit_gram(data)[0]
        gram /= np.diag(gram).mean()
        dim = data.dim
        pattern = truth.weights != 0
        w = 1e-3 * pattern.T
        for j in range(dim):
            rows = np.flatnonzero(pattern[:, j])
            w[rows, j] = np.linalg.solve(gram[np.ix_(rows, rows)],
                                         gram[rows, j])
        w[data.outcome_index, :] = 0.0
        active = np.ones(dim, bool) if active is None else active
        objective = _Objective(gram, data.outcome_index, active, t=1.0 / dim,
                               kind="te", delta_star=0.0)
        objective.lam1, objective.c = lam1, c
        return objective, w

    @pytest.mark.parametrize("c, lam1", [(1e6, 20.0), (1e8, 200.0)])
    def test_penalty_dominated_subproblem_stops_on_ftol(self, c, lam1):
        # unscaled, these solves took 259 and 518 iterations to the same
        # stop; the penalty's curvature is what made them slow
        objective, w0 = self.penalty_problem(c, lam1)
        solve = _lbfgs_minimize(w0, objective, _STEP_SIZE, 100, _GRAD_TOL,
                                _FTOL)[1]
        assert solve["stop_reason"] == "ftol"
        # it stops short of the rounding floor, not far from the minimum
        exact = _lbfgs_minimize(w0, objective, _STEP_SIZE, 2000, 0.0)[1]
        assert exact["stop_reason"] != "max_inner_iter"
        assert (exact["objective_end"] <= solve["objective_end"]
                <= exact["objective_end"] * (1.0 + 1e-6))

    def test_scaled_entries_off_the_free_mask_stay_exactly_zero(self):
        active = np.ones(5, bool)  # s2 has four features
        active[1] = False
        objective, w0 = self.penalty_problem(1e6, 20.0, active)
        assert (objective.scale(w0 * objective.free) < 1.0).any()
        w0 += 0.1  # masked entries too
        for k in (1, 5, 100):
            w = _lbfgs_minimize(w0, objective, _STEP_SIZE, k, _GRAD_TOL,
                                _FTOL)[0]
            assert not w[objective.free == 0].any()

    def test_overflowing_curvature_gives_a_finite_solve(self):
        # z0 -> z1 -> z2 at 1e75 is acyclic, so h1 and its gradient are 0,
        # but P[z0, z2] is 1.9e299 and lam1 * 2 dim t P^T overflows at the
        # entry z2 -> z0; its scale is clamped, not 0, so that entry's
        # variable B / scale stays 0 instead of NaN
        dim = 4
        w0 = np.zeros((dim, dim))
        w0[0, 1] = w0[1, 2] = 1e75
        objective = _Objective(np.eye(dim), dim - 1, np.ones(dim, bool),
                               t=1.0 / dim, kind="te", delta_star=0.0)
        objective.lam1 = objective.c = _PENALTY_CAP
        with np.errstate(over="ignore"):
            scale = objective.scale(w0)
        assert np.isfinite(scale).all() and (scale > 0).all()
        assert scale[2, 0] == np.finfo(float).max ** -0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, solve = _lbfgs_minimize(
                w0, objective, _STEP_SIZE, 20, _GRAD_TOL, _FTOL)
        assert np.isfinite(w).all() and math.isfinite(solve["objective_end"])
        assert solve["objective_end"] <= solve["objective_start"]
        assert w[2, 0] == 0.0

    def test_no_free_entries_stop_on_the_gradient_tolerance(self):
        gram, _, w0 = self.least_squares_problem()
        dim = len(gram)
        only_outcome = np.zeros(dim, bool)
        only_outcome[dim - 1] = True
        objective = _Objective(gram, dim - 1, only_outcome, t=0.2,
                               kind="te", delta_star=0.0)
        w, solve = _lbfgs_minimize(w0, objective, 0.05, 100, 1e-10)
        assert (solve["inner_iterations"], solve["stop_reason"],
                solve["evaluations"]) == (0, "grad_tol", 1)
        assert not w.any()
        assert (solve["objective_end"] == solve["objective_start"]
                == objective(w)[0])

    def test_engine_spends_only_the_solves_evaluations(self, monkeypatch):
        calls = []
        original = _Objective.__call__

        def counting(self, w):
            calls.append(1)
            return original(self, w)

        monkeypatch.setattr(_Objective, "__call__", counting)
        _, _, data = s1_replication(300)
        result = fit_baseline(data)
        assert len(calls) == sum(d["evaluations"] for d in result.diagnostics)


def abs_effects(b, outcome, kind):
    """|CE| of every node on the outcome, the outcome's own entry zero."""
    if kind == "de":
        return np.abs(b[:, outcome])
    ce = np.abs(np.linalg.inv(np.eye(len(b)) - b)[:, outcome])
    ce[outcome] = 0.0
    return ce


@st.composite
def selection_cases(draw):
    """An iterate (outcome row zero), an active mask keeping the outcome, a
    config and delta_star; the cutoff sometimes sits exactly on an effect,
    and a feature sometimes reaches the outcome only through an edge that
    pruning removes."""
    dim = draw(st.integers(2, 6))
    outcome = dim - 1
    entry = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    w = np.array(draw(st.lists(entry, min_size=dim * dim,
                               max_size=dim * dim))).reshape(dim, dim)
    np.fill_diagonal(w, 0.0)
    w[outcome] = 0.0
    config = FitConfig(effect_kind=draw(st.sampled_from(["te", "de"])),
                       prune_threshold=draw(st.floats(0.0, 1.0)),
                       selection_tolerance=draw(
                           st.floats(0.0, 1.0, exclude_max=True)))
    if draw(st.booleans()):  # no pruned back edge: the pruned pattern is a DAG
        w[np.tril(np.abs(w) > config.prune_threshold)] = 0.0
    if dim > 2 and draw(st.booleans()):
        # z_i -> z_j -> y is z_i's only path, and z_i -> z_j sits at the prune
        # threshold: z_i's pruned effect is 0, its unpruned total effect four
        # times the threshold
        i, j = draw(st.permutations(range(outcome)))[:2]
        w[i] = w[j] = 0.0
        w[i, j] = config.prune_threshold
        w[j, outcome] = 4.0
    active = np.array(draw(st.lists(st.booleans(), min_size=dim,
                                    max_size=dim)))
    active[outcome] = True
    delta_star = draw(st.floats(0.0, 10.0))
    pruned = np.where(np.abs(w) > config.prune_threshold, w, 0.0)
    if draw(st.booleans()) and is_acyclic(WeightedDag(pruned)):
        # tolerance 0.5 on twice the effect: the cutoff is the effect exactly
        config = replace(config, selection_tolerance=0.5)
        delta_star = 2.0 * float(abs_effects(pruned, outcome,
                                             config.effect_kind)
                                 [draw(st.integers(0, dim - 1))])
    return w, active, config, delta_star


@st.composite
def pruning_cases(draw):
    """A matrix whose entries include 0, -0.0, exactly +-threshold and
    negative weights, sometimes with a planted cycle (a self-loop included)
    above the threshold or exactly at it; a threshold, an active mask
    keeping the outcome, an effect kind and a cutoff, sometimes exactly on a
    pruned effect."""
    dim = draw(st.integers(2, 6))
    outcome = dim - 1
    threshold = draw(st.sampled_from([0.0, 0.25, 0.3, 1.0]))
    entry = st.one_of(st.sampled_from([0.0, -0.0, threshold, -threshold]),
                      st.floats(-2.0, 2.0))
    w = np.array(draw(st.lists(entry, min_size=dim * dim,
                               max_size=dim * dim))).reshape(dim, dim)
    w[outcome] = 0.0  # as on every engine iterate
    if draw(st.booleans()):  # a DAG before the planting
        w[np.tril_indices(dim)] = 0.0
    if draw(st.booleans()):
        cycle = draw(st.permutations(range(outcome)))[:draw(
            st.integers(1, max(1, outcome)))]
        at = draw(st.sampled_from([threshold, 2.0 * threshold + 0.5]))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            w[a, b] = draw(st.sampled_from([at, -at]))
    active = np.array(draw(st.lists(st.booleans(), min_size=dim,
                                    max_size=dim)))
    active[outcome] = True
    kind = draw(st.sampled_from(["te", "de"]))
    cutoff = draw(st.floats(0.0, 3.0))
    kept = np.where(np.abs(w) > threshold, w, 0.0)
    if draw(st.booleans()) and is_acyclic(WeightedDag(kept)):
        cutoff = float(abs_effects(kept, outcome, kind)[
            draw(st.integers(0, dim - 1))])
    return w, threshold, active, kind, cutoff


class TestSelectionUpdate:
    @settings(max_examples=300, deadline=None)
    @given(selection_cases())
    def test_drops_exactly_the_features_under_the_cutoff(self, case):
        w, active, config, delta_star = case
        outcome = len(w) - 1
        before = active.copy()
        pruned = np.where(np.abs(w) > config.prune_threshold, w, 0.0)
        if is_acyclic(WeightedDag(pruned)):
            ce = abs_effects(pruned, outcome, config.effect_kind)
            cutoff = config.selection_tolerance * delta_star
            expected = sorted(
                (i for i in range(outcome) if before[i] and ce[i] <= cutoff),
                key=lambda i: (ce[i], i))
        else:
            expected = []
        dropped = _selection_update(w, active, outcome, config,
                                    config.selection_tolerance * delta_star)
        assert dropped == expected
        kept = before.copy()
        kept[expected] = False
        assert np.array_equal(active, kept)

    @settings(max_examples=300, deadline=None)
    @given(pruning_cases())
    def test_array_reads_match_the_pruned_graph(self, case):
        # the engine reads supports and selections off prune_weights and
        # topological_order; they must agree with prune, is_acyclic and the
        # public effect functions on the WeightedDag they no longer build
        w, threshold, active, kind, cutoff = case
        outcome = len(w) - 1
        graph = prune(WeightedDag(w), threshold)
        kept = prune_weights(w, threshold)
        assert np.array_equal(kept, graph.weights)
        assert np.array_equal(np.signbit(kept), np.signbit(graph.weights))
        assert (topological_order(kept) is not None) == is_acyclic(graph)
        expected = []
        if is_acyclic(graph):
            effect = total_effect if kind == "te" else direct_effect
            ce = {i: abs(effect(graph, i)) for i in range(outcome)
                  if active[i]}
            expected = sorted((i for i in ce if ce[i] <= cutoff),
                              key=lambda i: (ce[i], i))
        config = FitConfig(effect_kind=kind, prune_threshold=threshold)
        assert _selection_update(w, active.copy(), outcome, config,
                                 cutoff) == expected

    def test_cyclic_pruned_pattern_selects_nothing(self):
        # every feature is under the cutoff, but z0 <-> z1 survives pruning
        # (and makes I - B singular, so no effect is computed at all)
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        active = np.ones(3, bool)
        config = FitConfig(selection_tolerance=0.5)
        assert _selection_update(w, active, 2, config,
                                 config.selection_tolerance * 200.0) == []
        assert active.all()


class TestStopReasons:
    def test_iteration_cap_is_recorded(self):
        _, _, data = s1_replication(0)
        result = fit_baseline(data, FitConfig(max_inner_iter=3))
        first = result.diagnostics[0]
        assert first["stop_reason"] == "max_inner_iter"
        assert first["inner_iterations"] == 3
        assert first["evaluations"] >= 4

    def test_low_noise_chain_stops_on_gradient_or_descent(self):
        data, _ = chain_dataset((2.0, 0.8), n=2000, seed=2,
                                noise=GaussianNoise(1e-3))
        result = fit(data, warm_start=fit_baseline(data))
        assert result.converged
        assert result.diagnostics[-1]["stop_reason"] in ("grad_tol", "ftol",
                                                         "no_descent")


class TestFit:
    def test_s1_recovery_rate(self):
        hits = 0
        total = 50
        for r in range(total):
            truth, target, data = s1_replication(r, n=1000)
            base = fit_baseline(data)
            result = fit(data, FitConfig(effect_kind="te"), warm_start=base)
            if graph_metrics(result.graph, target).shd <= 1:
                hits += 1
        assert hits >= 0.9 * total

    def test_independent_outcome_is_a_value_error(self):
        # z0 -> z1, and y is noise of its own: the reference graph has
        # edges but none into y, so delta_star is 0 and there is nothing
        # to select against, whichever way it was resolved
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        data = sample_linear(SemSpec(WeightedDag(w), BernoulliNoise(0.5)),
                             3000, seed=5)
        base = fit_baseline(data)
        assert base.graph.weights[:, 2].tolist() == [0.0, 0.0, 0.0]
        assert base.graph.weights.any()
        message = "no feature's effect reaches the outcome"
        for kind in ("te", "de"):
            with pytest.raises(ValueError, match=message):
                fit(data, FitConfig(effect_kind=kind), warm_start=base)
            with pytest.raises(ValueError, match=message):
                fit(data, FitConfig(effect_kind=kind, delta_star=0.0),
                    warm_start=base)

    def test_warm_start_from_a_settled_baseline_caps_no_solve(self):
        # s2 n=100 seed 265: before the settled stop, a baseline run on to
        # c = 1e12 left this te fit's first solve at max_inner_iter (500
        # iterations, then 49, 17 and 7); the settled baseline ended at c =
        # 1e6 after 572 inner iterations, and with the solve scaled by the
        # penalty's curvature it settles one dual step later, at c = 1e8,
        # after 230
        _, data = scenario_data(scenario("s2"), 100, 265)
        base = fit_baseline(data)
        assert base.diagnostics[-1]["c"] == 1e8
        result = fit(data, FitConfig(effect_kind="te"), warm_start=base)
        assert result.converged
        assert all(row["stop_reason"] != "max_inner_iter"
                   for row in result.diagnostics)

    @pytest.mark.parametrize("scenario_id, n, seed", [
        ("s1", 100, 300), ("s2", 100, 265), ("s4", 1000, 300)])
    def test_every_dual_step_uses_t_of_one_over_dim(self, scenario_id, n,
                                                    seed):
        _, data = scenario_data(scenario(scenario_id), n, seed)
        base = fit_baseline(data)
        for result in (base, fit(data, warm_start=base)):
            assert {row["t"] for row in result.diagnostics} == {1.0 / data.dim}

    @pytest.mark.parametrize("kind", ["te", "de"])
    @pytest.mark.parametrize("scenario_id, n, seed", [
        ("s1", 100, 300), ("s1", 100, 301), ("s2", 100, 265),
        ("s4", 1000, 300)])
    def test_step_zero_gate_reads_the_warm_start_h1(self, monkeypatch, kind,
                                                    scenario_id, n, seed):
        # the gate before the first solve evaluates the same h1 as the
        # baseline's last solve, at the same iterate
        import nscausal.optimizer as optimizer

        _, data = scenario_data(scenario(scenario_id), n, seed)
        base = fit_baseline(data)
        original = optimizer._h1
        values = []

        def recording(*args):
            out = original(*args)
            values.append(out[0])
            return out

        monkeypatch.setattr(optimizer, "_h1", recording)
        fit(data, FitConfig(effect_kind=kind), warm_start=base)
        assert values[0] == base.diagnostics[-1]["h1"]

    @pytest.mark.parametrize("scenario_id, n, seed", [
        ("s1", 100, 100), ("s1", 100, 300), ("s2", 100, 265),
        ("s4", 1000, 300)])
    def test_kernel_call_budget(self, monkeypatch, scenario_id, n, seed):
        # each objective evaluation runs _h1 and _ls once; beyond them a
        # solve runs _h1 once for its scale and a step _ls once for its
        # data-unit f, and a gated selective fit runs _h1 once more for the
        # step-0 gate (an evaluation after a late drop runs both)
        import nscausal.optimizer as optimizer

        _, data = scenario_data(scenario(scenario_id), n, seed)
        calls = {"_h1": 0, "_ls": 0}
        for name in calls:
            def counting(*args, name=name, original=getattr(optimizer, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(optimizer, name, counting)
        base = fit_baseline(data)
        steps = len(base.diagnostics)
        evaluations = sum(row["evaluations"] for row in base.diagnostics)
        assert calls == {"_h1": evaluations + steps, "_ls": evaluations + steps}

        assert base.diagnostics[-1]["h1"] <= SELECTION_H1_GATE
        calls.update(_h1=0, _ls=0)
        fit(data, FitConfig(effect_kind="te"), warm_start=base)
        assert calls["_h1"] == calls["_ls"] + 1

    @pytest.mark.parametrize("scenario_id, seed, kind", [
        ("s1", 300, "te"), ("s2", 213, "de")])
    def test_dual_steps_build_no_objective_or_graph(self, monkeypatch,
                                                    scenario_id, seed, kind):
        # one objective per feature mask: at the fit's start and after each
        # selection that drops a feature (s2 seed 213's de fit drops at the
        # gate and again after its first solve); the loop builds no
        # WeightedDag, so a fit builds only the raw and pruned graphs it
        # returns
        import nscausal.optimizer as optimizer

        _, data = scenario_data(scenario(scenario_id), 100, seed)
        counts = {"objectives": 0, "graphs": 0, "drops": 0}

        def count(owner, name, key):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                out = original(*args, **kwargs)
                counts[key] += 1 if key != "drops" else bool(out)
                return out

            monkeypatch.setattr(owner, name, counting)

        count(_Objective, "__init__", "objectives")
        count(WeightedDag, "__post_init__", "graphs")
        count(optimizer, "_selection_update", "drops")
        base = fit_baseline(data)
        assert counts == {"objectives": 1, "graphs": 2, "drops": 0}
        counts.update(objectives=0, graphs=0, drops=0)
        fit(data, FitConfig(effect_kind=kind), warm_start=base)
        assert counts["drops"] >= 1
        assert counts == {"objectives": 1 + counts["drops"], "graphs": 2,
                          "drops": counts["drops"]}

    def test_chain_weights_within_tolerance(self):
        data, truth = chain_dataset((1.0, 1.0), n=5000, seed=7)
        result = fit(data, warm_start=fit_baseline(data))
        assert np.abs(result.graph.weights - truth.weights).max() < 0.1

    def test_determinism_bit_exact(self):
        _, _, data = s1_replication(3)
        config = FitConfig(effect_kind="te")
        a = fit(data, config, warm_start=fit_baseline(data, config))
        b = fit(data, config, warm_start=fit_baseline(data, config))
        assert np.array_equal(a.graph.weights, b.graph.weights)
        assert np.array_equal(a.raw_graph.weights, b.raw_graph.weights)
        assert a.diagnostics == b.diagnostics
        assert a.config.delta_star == b.config.delta_star

    def test_diagnostics_rows_have_the_schema_keys_in_order(self):
        _, _, data = s1_replication(3, n=60)
        base = fit_baseline(data)
        for result in (base, fit(data, warm_start=base)):
            for entry in result.diagnostics:
                assert tuple(entry) == DIAGNOSTIC_FIELDS

    def test_result_invariants(self):
        for r in range(5):
            truth, target, data = s1_replication(r)
            config = FitConfig(effect_kind="te")
            result = fit(data, config, warm_start=fit_baseline(data, config))
            raw = result.raw_graph
            assert result.converged
            assert acyclicity_value(raw, 1e-2) <= 1e-8
            assert is_acyclic(result.graph)
            assert not raw.weights[raw.outcome_index].any()
            expected = prune(raw, result.config.prune_threshold)
            assert np.array_equal(result.graph.weights, expected.weights)
            features = [i for i in range(raw.dim) if i != raw.outcome_index]
            for i, kept in zip(features, result.selected):
                if not kept:
                    assert not raw.weights[i].any()
                    assert not raw.weights[:, i].any()

    def test_warm_start_anchors_delta_star_without_a_baseline_fit(
            self, monkeypatch):
        import nscausal.optimizer as optimizer

        _, _, data = s1_replication(300)
        base = fit_baseline(data)

        def no_baseline(*args, **kwargs):
            raise AssertionError("fit refitted the baseline")

        monkeypatch.setattr(optimizer, "fit_baseline", no_baseline)
        for kind in ("te", "de"):
            dstar = delta_star(data, lambda _: base.graph, kind)
            explicit = fit(data, FitConfig(effect_kind=kind, delta_star=dstar),
                           warm_start=base)
            anchored = fit(data, FitConfig(effect_kind=kind), warm_start=base)
            # each fit's config records the delta_star it ran with
            assert (anchored.config.delta_star == explicit.config.delta_star
                    == dstar)
            assert np.array_equal(anchored.raw_graph.weights,
                                  explicit.raw_graph.weights)
            assert np.array_equal(anchored.graph.weights,
                                  explicit.graph.weights)
            assert np.array_equal(anchored.selected, explicit.selected)
            assert anchored.diagnostics == explicit.diagnostics
            assert anchored.converged == explicit.converged

    @staticmethod
    def record_solve_columns(monkeypatch):
        """Record the active columns of every inner solve of the fits run."""
        import nscausal.optimizer as optimizer

        columns = []

        def recording(w0, objective, *args):
            columns.append(np.flatnonzero(objective.cols).tolist())
            return _lbfgs_minimize(w0, objective, *args)

        monkeypatch.setattr(optimizer, "_lbfgs_minimize", recording)
        return columns

    @pytest.mark.parametrize("spec_id,n", [("s1", 100), ("s4", 1000)])
    def test_warm_start_is_selected_before_the_first_solve(
            self, monkeypatch, spec_id, n):
        _, data = scenario_data(scenario(spec_id), n, 300)
        base = fit_baseline(data)
        columns = self.record_solve_columns(monkeypatch)
        result = fit(data, warm_start=base)
        # the engine's own rule, applied to the warm start itself
        active = np.ones(data.dim, dtype=bool)
        config = result.config
        dropped = _selection_update(base.raw_graph.weights, active,
                                    data.outcome_index, config,
                                    config.selection_tolerance
                                    * config.delta_star)
        assert dropped
        first = result.diagnostics[0]
        assert first["dropped"] == tuple(dropped)
        assert first["n_active"] == data.dim - 1 - len(dropped)
        assert columns[0] == np.flatnonzero(active).tolist()

    def test_given_zero_delta_star_raises_before_any_fit(self, monkeypatch):
        import nscausal.optimizer as optimizer

        _, _, data = s1_replication(300)
        base = fit_baseline(data)

        def no_work(*args, **kwargs):
            raise AssertionError("fit ran before checking delta_star")

        monkeypatch.setattr(optimizer, "_engine", no_work)
        with pytest.raises(ValueError, match="delta_star is 0"):
            fit(data, FitConfig(delta_star=0.0), warm_start=base)

    def test_warm_start_is_required(self):
        # the selection-free start is fitted once, by the caller
        # (bench.replicate), never inside fit
        _, _, data = s1_replication(300)
        with pytest.raises(TypeError, match="warm_start"):
            fit(data, FitConfig(effect_kind="te"))

    def test_fit_from_a_cyclic_baseline_iterate_selects_the_causes(self):
        # the baseline's raw iterate still carries faint cycles (h1 > 0),
        # where a truncated path sum is not the total effect; with the exact
        # resolvent the fit from it converges and drops z0, a child of the
        # outcome's parents
        _, target, data = s1_replication(105)
        base = fit_baseline(data)
        dstar = delta_star(data, lambda _: base.graph, "te")
        result = fit(data, FitConfig(delta_star=dstar), warm_start=base)
        assert result.converged
        assert result.selected.tolist() == [False, True, True, True]
        assert graph_metrics(result.graph, target).shd == 0

    @pytest.mark.parametrize("field", ["dim", "outcome_index", "labels"])
    def test_warm_start_from_other_data_is_rejected(self, monkeypatch, field):
        import nscausal.optimizer as optimizer

        values = np.random.default_rng(0).normal(size=(40, 5))
        labels = ("z0", "z1", "z2", "z3", "y")
        data = Dataset(values, labels, 4)
        other = {"dim": Dataset(values[:, 1:], labels[1:], 3),
                 "outcome_index": Dataset(values, labels, 2),
                 "labels": Dataset(values, ("v",) + labels[1:], 4)}[field]
        base = fit_baseline(other)

        def no_work(*args, **kwargs):
            raise AssertionError("fit ran before checking its warm start")

        monkeypatch.setattr(optimizer, "_engine", no_work)
        for config in (FitConfig(), FitConfig(delta_star=1.0)):
            with pytest.raises(ValueError, match=f"its {field} is"):
                fit(data, config, warm_start=base)

    def test_selective_warm_start_is_rejected(self, monkeypatch):
        # a selective fit's pruned graph would anchor delta_star: 6.435 on
        # this replication, against 6.399 from its baseline
        import nscausal.optimizer as optimizer

        _, _, data = s1_replication(100)
        selective = fit(data, warm_start=fit_baseline(data))
        assert selective.config.delta_star != 0

        def no_work(*args, **kwargs):
            raise AssertionError("fit ran before checking its warm start")

        monkeypatch.setattr(optimizer, "_engine", no_work)
        # the message names the warm start's own delta_star, also the None
        # of a result built by hand with the default config
        for warm_start in (selective, replace(selective, config=FitConfig())):
            message = ("warm_start must be a selection-free fit (config."
                       "delta_star 0), got config.delta_star "
                       f"{warm_start.config.delta_star!r}")
            for config in (FitConfig(), FitConfig(delta_star=1.0)):
                with pytest.raises(ValueError,
                                   match=f"^{re.escape(message)}$"):
                    fit(data, config, warm_start=warm_start)

    @pytest.mark.parametrize("case", ["graph", "no-rows"])
    def test_malformed_warm_start_is_rejected(self, monkeypatch, case):
        # a WeightedDag raised AttributeError, a result without diagnostics
        # rows IndexError (diagnostics[-1])
        import nscausal.optimizer as optimizer

        _, _, data = s1_replication(100)
        base = fit_baseline(data)
        warm, message = {
            "graph": (base.graph, "^warm_start must be a FitResult, got "
                                  "WeightedDag$"),
            "no-rows": (replace(base, diagnostics=()),
                        "^warm_start has no diagnostics rows")}[case]

        def no_work(*args, **kwargs):
            raise AssertionError("fit ran before checking its warm start")

        monkeypatch.setattr(optimizer, "_engine", no_work)
        for config in (FitConfig(), FitConfig(delta_star=1.0)):
            with pytest.raises(ValueError, match=message):
                fit(data, config, warm_start=warm)

    def test_inner_solves_never_increase_the_objective(self):
        _, _, data = s1_replication(1)
        config = FitConfig(effect_kind="te")
        result = fit(data, config, warm_start=fit_baseline(data, config))
        for entry in result.diagnostics:
            assert entry["objective_end"] <= entry["objective_start"] + 1e-6

    def test_consistency_trend(self):
        # medians of the subgraph distance shrink with the sample size
        spec = scenario("s1", sample_sizes=(1,), replications=1)
        truth = scenario_truth(spec, np.random.SeedSequence(77))
        target = nscg(truth)
        medians = []
        for n in (200, 2000):
            shds = []
            for r in range(10):
                data = shift_nonnegative(sample_linear(
                    SemSpec(truth, BernoulliNoise(0.5)), n,
                    seed=np.random.SeedSequence([88, r])))
                base = fit_baseline(data)
                result = fit(data, FitConfig(effect_kind="te"),
                             warm_start=base)
                shds.append(graph_metrics(result.graph, target).shd)
            medians.append(float(np.median(shds)))
        assert medians[-1] == 0.0
        assert medians[0] >= medians[-1]


class TestUnmeetableRelevance:
    # independent noise: the baseline keeps one noise edge z1 -> y, so
    # delta* > 0.  At the baseline's own delta*, the rule keeps z1 before the
    # first solve and the fit meets the constraint through that edge; at a
    # given delta* of 50, far above any effect the data carry, it drops both
    # features before the first solve and can never meet the constraint.
    @staticmethod
    def data_and_baseline():
        values = np.random.default_rng(6).normal(size=(50, 3))
        data = Dataset(values, ("z0", "z1", "y"), 2)
        return data, fit_baseline(data)

    @classmethod
    def unmeetable_fit(cls):
        data, base = cls.data_and_baseline()
        return fit(data, FitConfig(delta_star=50.0), warm_start=base)

    def test_stalled_fit_stops_early_and_unconverged(self):
        result = self.unmeetable_fit()
        assert result.config.delta_star > 0.0
        assert not result.selected.any()
        assert not result.converged
        # d grows tenfold per step to its cap, then three stalled steps
        assert len(result.diagnostics) < FitConfig().max_dual_steps // 4

    def test_solves_without_free_entries_stop_at_once(self):
        result = self.unmeetable_fit()
        assert result.diagnostics[0]["dropped"] == (0, 1)
        for entry in result.diagnostics:
            assert entry["stop_reason"] == "grad_tol"
            assert entry["inner_iterations"] == 0
            assert entry["evaluations"] == 1
        assert not result.raw_graph.weights.any()

    def test_warm_start_keeps_the_noise_edge_and_converges(self):
        data, base = self.data_and_baseline()
        result = fit(data, warm_start=base)
        assert result.config.delta_star == delta_star(
            data, lambda _: base.graph, "te")
        first = result.diagnostics[0]
        assert (first["dropped"], first["n_active"]) == ((0,), 1)
        assert result.converged
        assert result.selected.tolist() == [False, True]
        assert result.graph.weights[1, 2] != 0.0
        assert len(result.diagnostics) < 10


class TestUnits:
    @pytest.mark.parametrize("seed", [300, 301])
    def test_rescaled_data_give_the_same_fit(self, seed):
        _, _, data = s1_replication(seed)
        patterns = set()
        for k in (1e-3, 1.0, 1e3, 1e6):
            scaled = Dataset(data.values * k, data.labels, data.outcome_index)
            base = fit_baseline(scaled)
            result = fit(scaled, warm_start=base)
            assert base.converged and result.converged
            patterns.add((result.graph.weights != 0).tobytes()
                         + result.selected.tobytes())
        assert len(patterns) == 1

    @pytest.mark.parametrize("exponent", [520, 1019, -600])
    def test_extreme_scales_give_the_unit_scale_fit(self, exponent):
        # the gram of these data overflows at 2**520 (the baseline came back
        # empty with f = nan), their column sums at 2**1019, and the gram
        # underflows at 2**-600 (the data read as constant); every te fit
        # raised "delta_star is 0".  Scaling the data by a power of two is
        # exact, so only f moves
        _, _, data = s1_replication(300)
        scaled = Dataset(np.ldexp(data.values, exponent), data.labels,
                         data.outcome_index)
        fits = []
        for d in (data, scaled):
            base = fit_baseline(d)
            fits.append((base, fit(d, warm_start=base)))

        def without_f(result):
            return [{k: v for k, v in row.items() if k != "f"}
                    for row in result.diagnostics]

        for unit, extreme in zip(*fits):
            assert np.array_equal(unit.raw_graph.weights,
                                  extreme.raw_graph.weights)
            assert np.array_equal(unit.selected, extreme.selected)
            assert without_f(unit) == without_f(extreme)
            assert (unit.converged, unit.config.delta_star) == (
                extreme.converged, extreme.config.delta_star)
        assert fits[0][1].selected.tolist() == [False, True, True, True]
        f = fits[1][0].diagnostics[-1]["f"]
        assert f == math.inf if exponent > 0 else 0.0 <= f < 1e-300

    def test_wide_independent_noise_gives_the_empty_graph(self):
        # on the raw gram the absolute penalty schedule fails this draw: 19
        # dual steps, unconverged, both noise features kept in a 2-cycle.
        # The empty reference graph leaves fit nothing to select against.
        data = Dataset(np.random.default_rng(0).normal(0.0, 1e6, (50, 3)),
                       ("z0", "z1", "y"), 2)
        result = fit_baseline(data)
        assert result.converged
        assert not result.graph.weights.any()
        with pytest.raises(ValueError, match="delta_star is 0"):
            fit(data, warm_start=result)

    def test_constant_columns_fit_the_empty_graph_without_warnings(self):
        data = Dataset(np.full((20, 3), 4.0), ("z0", "z1", "y"), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = fit_baseline(data)
            with pytest.raises(ValueError, match="delta_star is 0"):
                fit(data, warm_start=base)
        assert base.converged
        assert not base.raw_graph.weights.any()
        assert base.diagnostics[-1]["f"] == 0.0


class TestSettledStop:
    """A fit ends after two dual steps in a row with ``h1 <=
    SELECTION_H1_GATE``, ``|h2|`` within the selection cutoff, no drop and
    one acyclic pruned support."""

    @staticmethod
    def settled_supports(monkeypatch, data):
        """``fit_baseline(data)`` and, per dual step, the support ``|w| >
        prune_threshold`` of the solve's iterate when its ``h1`` passes the
        gate and its pruned graph is acyclic, else None."""
        import nscausal.optimizer as optimizer

        iterates = []
        solve = optimizer._lbfgs_minimize  # the real one, or a scripted one

        def recording(*args):
            out = solve(*args)
            iterates.append(out[0])
            return out

        monkeypatch.setattr(optimizer, "_lbfgs_minimize", recording)
        result = fit_baseline(data)
        supports = []
        for row, w in zip(result.diagnostics, iterates):
            support = np.abs(w) > FitConfig().prune_threshold
            pruned = WeightedDag(np.where(support, w, 0.0))
            settled = row["h1"] <= SELECTION_H1_GATE and is_acyclic(pruned)
            supports.append(support if settled else None)
        return result, supports

    @pytest.mark.parametrize("scenario_id, n, seed", [
        ("s1", 100, 300), ("s2", 100, 265), ("s4", 1000, 300),
        ("s4", 1000, 301)])
    def test_baseline_ends_on_the_first_settled_step(self, monkeypatch,
                                                     scenario_id, n, seed):
        _, data = scenario_data(scenario(scenario_id), n, seed)
        result, supports = self.settled_supports(monkeypatch, data)
        first = next(k for k in range(1, len(supports))
                     if supports[k] is not None and supports[k - 1] is not None
                     and np.array_equal(supports[k], supports[k - 1]))
        assert len(result.diagnostics) == first + 1
        assert result.converged
        assert result.diagnostics[-1]["h1"] > _H1_TOL  # not the h1 test

    def test_baseline_runs_on_while_the_support_changes(self, monkeypatch):
        # scripted solves pass the gate at step 10 and change the support at
        # steps 11, 12 and 13, as the solves of a real s4 fit can
        chain, short = self.CHAIN, self.SHORT
        self.scripted_solver(monkeypatch, [(chain, 1e-4)] * 10 + [
            (chain, 1e-6), (short, 1e-6), (chain, 1e-6), (short, 1e-6)])
        data, _ = chain_dataset(n=200)
        result, supports = self.settled_supports(monkeypatch, data)
        assert result.diagnostics[10]["h1"] <= SELECTION_H1_GATE
        assert all(supports[k] is not None for k in (10, 11, 12, 13))
        assert not np.array_equal(supports[11], supports[10])
        assert not np.array_equal(supports[12], supports[11])
        assert not np.array_equal(supports[13], supports[12])
        assert len(result.diagnostics) == 15

    @staticmethod
    def scripted_solver(monkeypatch, script, h2=1.0, ftols=None):
        """Replace the inner solve by one that returns the ``(w, h1)`` pairs
        of ``script`` in turn (the last one from then on), with ``h2`` for a
        selective solve and 0 for a baseline one, as the engine's does; each
        solve's ``ftol`` is appended to ``ftols`` when given."""
        import nscausal.optimizer as optimizer

        calls = []

        def solve(w0, objective, step_size, max_iter, grad_tol, ftol=0.0):
            w, h1 = script[min(len(calls), len(script) - 1)]
            calls.append(objective.relevance)
            if ftols is not None:
                ftols.append(ftol)
            h2v = h2 if objective.relevance else 0.0
            return w.copy(), {"inner_iterations": 1, "stop_reason": "ftol",
                              "evaluations": 1, "objective_start": 0.0,
                              "objective_end": 0.0, "h1": h1, "h2": h2v}

        monkeypatch.setattr(optimizer, "_lbfgs_minimize", solve)
        return calls

    # z0 -> z1 -> y, and the same with z1 -> z0 added (a 2-cycle)
    CHAIN = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    CYCLE = CHAIN + np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0],
                              [0.0, 0.0, 0.0]])
    # the chain with the edge z1 -> y below the prune threshold
    SHORT = CHAIN * np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.2],
                              [1.0, 1.0, 1.0]])

    @pytest.mark.parametrize("script, steps", [
        ([(CHAIN, 1e-6)], 2),
        ([(CHAIN, 1e-4), (CHAIN, 1e-6)], 3),
        ([(CHAIN, 1e-6), (CHAIN, 1e-4), (CHAIN, 1e-6)], 4),
        ([(CHAIN, 1e-6), (SHORT, 1e-6), (CHAIN, 1e-6)], 4),
        ([(CHAIN, 1e-6), (CHAIN + 0.1 * SHORT, 1e-6)], 2),
        ([(CYCLE, 1e-6)], 6),
        ([(CYCLE, 1e-6), (CHAIN, 1e-6)], 3),
    ], ids=["settled", "gate-first", "gate-left", "support-changed",
            "weights-moved", "cyclic", "cyclic-then-settled"])
    def test_rule_on_scripted_solves(self, monkeypatch, script, steps):
        data, _ = chain_dataset(n=200)
        self.scripted_solver(monkeypatch, script)
        result = fit_baseline(data, FitConfig(max_dual_steps=6))
        assert len(result.diagnostics) == steps
        assert result.converged == (steps < 6)

    # the chain plus z0 -> y; the chain plus a back edge z1 -> z0 below the
    # prune threshold, whose h1 is above the gate though its pruned graph is
    # the chain
    WIDE = CHAIN + np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0]])
    FAINT_CYCLE = CHAIN + np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0],
                                    [0.0, 0.0, 0.0]])

    # z0 -> z1 below the prune threshold: the selection drops z0 after the
    # first solve, which leaves the pruned support as it was and h2 at 0
    FAINT = CHAIN * np.array([[1.0, 0.1, 1.0], [1.0, 1.0, 2.0],
                              [1.0, 1.0, 1.0]])

    # delta_star = 2 puts the selection cutoff at 0.02
    @pytest.mark.parametrize("w, h2, steps", [
        (CHAIN, 1.0, 6), (CHAIN, 0.01, 2), (FAINT, 0.01, 3),
    ], ids=["above-cutoff", "within-cutoff", "drop-then-settled"])
    def test_selective_fits_settle_within_the_cutoff(self, monkeypatch, w,
                                                     h2, steps):
        # from a warm start above the gate, which seeds no settled step and
        # has every solve, before and after a drop, stop at _FTOL
        data, _ = chain_dataset(n=200)
        self.scripted_solver(monkeypatch, [(self.FAINT_CYCLE, 1e-6)])
        base = fit_baseline(data, FitConfig(max_dual_steps=6))
        ftols = []
        calls = self.scripted_solver(monkeypatch, [(w, 1e-6)], h2, ftols)
        config = FitConfig(delta_star=2.0, max_dual_steps=6)
        result = fit(data, config, warm_start=base)
        assert calls == [True] * steps
        assert ftols == [_FTOL] * steps
        assert len(result.diagnostics) == steps
        assert result.selected.tolist() == [w is self.CHAIN, True]
        assert result.converged == (steps < 6)

    @pytest.mark.parametrize("warm, w, gated, steps", [
        (CHAIN, CHAIN, True, 1), (CHAIN, WIDE, True, 2),
        (FAINT_CYCLE, CHAIN, False, 2),
    ], ids=["gated-settled", "gated-support-changed", "above-the-gate"])
    def test_gated_warm_start_counts_as_a_settled_step(self, monkeypatch,
                                                       warm, w, gated, steps):
        # a warm start that passes the gate seeds the settled stop with its
        # pruned support, and its fit solves at the baseline rule's tolerance
        # at the gate; a warm start above the gate seeds nothing
        import nscausal.optimizer as optimizer

        data, _ = chain_dataset(n=200)
        self.scripted_solver(monkeypatch, [(warm, 1e-6)])
        base = fit_baseline(data, FitConfig(max_dual_steps=6))
        assert np.array_equal(base.raw_graph.weights, warm)
        assert (acyclicity_value(base.raw_graph, 1.0 / data.dim)
                <= SELECTION_H1_GATE) == gated
        ftols = []
        calls = self.scripted_solver(monkeypatch, [(w, 1e-6)], 0.01, ftols)
        config = FitConfig(delta_star=2.0, max_dual_steps=6)
        result = fit(data, config, warm_start=base)
        assert calls == [True] * steps
        assert ftols == [optimizer._FTOL_PER_H1 * SELECTION_H1_GATE
                         if gated else _FTOL] * steps
        assert result.converged
        assert result.selected.tolist() == [True, True]

    def test_warm_started_s1_fit_settles_after_one_step(self):
        # s1 n=100 seed 300: the warm start passes the gate, and the first
        # solve keeps its pruned support, so the te fit settles at once with
        # h1 still above _H1_TOL
        _, _, data = s1_replication(300)
        result = fit(data, warm_start=fit_baseline(data))
        assert result.converged
        assert len(result.diagnostics) == 1
        assert result.diagnostics[-1]["h1"] > _H1_TOL
        assert result.selected.tolist() == [False, True, True, True]


class TestFitBaseline:
    def test_s1_false_discovery_band(self):
        fdrs = []
        for r in range(15):
            truth, target, data = s1_replication(r, n=100)
            result = fit_baseline(data)
            fdrs.append(graph_metrics(result.graph, target).fdr)
        assert 0.34 - 0.15 <= np.mean(fdrs) <= 0.34 + 0.15

    def test_near_noise_free_chain_recovers_exactly(self):
        data, truth = chain_dataset((2.0, 0.8), n=2000, seed=2,
                                    noise=GaussianNoise(1e-3))
        result = fit_baseline(data)
        assert graph_metrics(result.graph, truth).shd == 0
        assert np.abs(result.graph.weights - truth.weights).max() < 0.05

    def test_rejects_fewer_than_two_rows(self):
        data = Dataset(np.array([[1.0, 2.0, 3.0]]), ("z0", "z1", "y"), 2)
        with pytest.raises(ValueError, match="n > dim rows"):
            fit_baseline(data)
        # fit checks its own data too, whatever its warm start was fitted on
        values = np.random.default_rng(0).normal(size=(40, 3))
        warm = fit_baseline(Dataset(values, data.labels, 2))
        with pytest.raises(ValueError, match="n > dim rows"):
            fit(data, FitConfig(delta_star=1.0), warm_start=warm)

    def test_needs_more_rows_than_columns(self):
        # at n = dim the outcome's regression on the other two columns and
        # the intercept fits the rows exactly; one row more leaves a residual
        rows = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 2.0, 1.0],
                [1.0, 3.0, 4.0]]
        with pytest.raises(ValueError, match="n > dim rows"):
            fit_baseline(Dataset(np.array(rows[:3]), ("z0", "z1", "y"), 2))
        result = fit_baseline(Dataset(np.array(rows), ("z0", "z1", "y"), 2))
        assert result.diagnostics

    def test_baseline_keeps_every_feature(self):
        _, _, data = s1_replication(0)
        result = fit_baseline(data)
        assert result.selected.all()
        assert result.config.delta_star == 0.0

    def test_records_delta_star_zero_whatever_the_config_holds(self):
        # a baseline runs without relevance terms, so the delta_star of the
        # config it was given is not the one it ran with
        _, _, data = s1_replication(0)
        config = FitConfig(delta_star=2.5)
        base = fit_baseline(data, config)
        assert base.config == replace(config, delta_star=0.0)
        result = fit(data, config, warm_start=base)
        assert result.config.delta_star == 2.5

    def test_determinism_bit_exact(self):
        _, _, data = s1_replication(2)
        a = fit_baseline(data)
        b = fit_baseline(data)
        assert np.array_equal(a.raw_graph.weights, b.raw_graph.weights)
        assert a.diagnostics == b.diagnostics


class TestConfigValidation:
    def test_effect_kind(self):
        with pytest.raises(ValueError):
            FitConfig(effect_kind="ate")

    def test_prune_threshold_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="prune_threshold"):
            FitConfig(prune_threshold=-0.1)

    def test_at_least_one_dual_step(self):
        with pytest.raises(ValueError, match="max_dual_steps"):
            FitConfig(max_dual_steps=0)

    def test_at_least_one_inner_iteration(self):
        with pytest.raises(ValueError, match="max_inner_iter"):
            FitConfig(max_inner_iter=0)

    @pytest.mark.parametrize("name", ["prune_threshold", "selection_tolerance",
                                      "delta_star"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0,
                                       True, "0.3"])
    def test_thresholds_must_be_finite_and_nonnegative(self, name, value):
        with pytest.raises(ValueError, match=name):
            FitConfig(**{name: value})

    @pytest.mark.parametrize("value", [1, 1.0, np.float64(2.0)])
    def test_selection_tolerance_must_be_below_one(self, value):
        # a cutoff at delta_star or above could drop every feature and
        # leave an empty fit that settles, converged
        with pytest.raises(ValueError, match="selection_tolerance"):
            FitConfig(selection_tolerance=value)
        assert FitConfig(selection_tolerance=0.99).selection_tolerance == 0.99

    @pytest.mark.parametrize("name", ["max_dual_steps", "max_inner_iter"])
    @pytest.mark.parametrize("value", [2.5, 10.0, True, "10"])
    def test_step_caps_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            FitConfig(**{name: value})

    def test_numpy_scalars_and_zero_are_accepted(self):
        config = FitConfig(prune_threshold=np.float64(0.0), delta_star=0.0,
                           selection_tolerance=0, max_dual_steps=np.int64(3),
                           max_inner_iter=np.int32(7))
        assert config.max_dual_steps == 3 and config.max_inner_iter == 7
