import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nscausal.bench import nscg, scenario, scenario_data, scenario_truth
from nscausal.effects import delta_star
from nscausal.graph import WeightedDag, graph_metrics, is_acyclic, prune
from nscausal.optimizer import (_FTOL, _H1_TOL, _LBFGS_HALVINGS,
                                _LBFGS_MEMORY, DIAGNOSTIC_FIELDS,
                                SELECTION_H1_GATE, FitConfig,
                                _lbfgs_minimize, _Objective,
                                _selection_update, _Solve, _two_loop,
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
        # the fit minimises f on centered data; the public loss is that f
        _, _, data = s1_replication(300)
        base = fit_baseline(data)
        loss, _ = least_squares_loss(base.raw_graph.weights, data,
                                     np.ones(data.dim, bool))
        assert loss == base.diagnostics[-1]["f"]

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
                    lam1=0.7, c=1.3, relevance=True, lam2=-0.6, d_pen=2.5,
                    kind=kind, delta_star=3.0)
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
        # number 5e4) that a broken two-loop recursion misses the
        # minimizer within 100 steps.
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, dim)) @ rng.normal(size=(dim, dim))
        values *= np.logspace(0, 1, dim)
        centered = values - values.mean(axis=0)
        gram = centered.T @ centered / n
        active = np.ones(dim, bool)
        active[1] = False
        objective = objective_class(
            gram, dim - 1, active, t=0.2, lam1=0.0, c=0.0, relevance=False,
            lam2=0.0, d_pen=0.0, kind="te", delta_star=0.0)
        w0 = rng.uniform(-1.0, 1.0, (dim, dim))
        return gram, objective, w0

    def test_reaches_the_closed_form_regression(self):
        gram, objective, w0 = self.least_squares_problem()
        free = objective.free.astype(bool)
        expected = np.zeros_like(gram)
        for j in objective.cols:
            rows = np.flatnonzero(free[:, j])
            expected[rows, j] = np.linalg.solve(gram[np.ix_(rows, rows)],
                                                gram[rows, j])
        w, total, iterations, _, _ = _lbfgs_minimize(
            w0, objective, 0.05, 100, 1e-10)
        assert np.abs(w - expected).max() < 1e-6
        assert iterations < 100
        assert total == objective(w)[0]

    def test_accepted_iterates_never_raise_the_objective(self):
        # the solve is deterministic, so capping it at k steps returns its
        # k-th accepted iterate
        _, objective, w0 = self.least_squares_problem()
        totals = [_lbfgs_minimize(w0, objective, 0.05, k, 1e-10)[1]
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
        w, total, iterations, _, solve = _lbfgs_minimize(
            np.zeros_like(w0), objective, 0.05, 20, 1e-10)
        assert Bounded.rejected >= 1
        assert solve.evaluations == Bounded.calls
        assert iterations >= 1
        assert total < solve.objective_start
        assert np.abs(w).max() <= 0.03

    def test_overflowing_trials_are_rejected_without_warnings(self):
        # the first trials of a 1e40-sized step overflow h1; every trial
        # is rejected, quietly, and the solve ends where it started
        _, objective, w0 = self.least_squares_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, total, iterations, reason, solve = _lbfgs_minimize(
                w0, objective, 1e40, 10, 1e-10)
        assert (iterations, reason) == (0, "no_descent")
        assert solve.evaluations == 1 + _LBFGS_HALVINGS
        assert total == solve.objective_start

    def test_entries_off_the_free_mask_stay_exactly_zero(self):
        _, objective, w0 = self.least_squares_problem()
        for k in (1, 5, 100):
            w = _lbfgs_minimize(w0, objective, 0.05, k, 1e-10)[0]
            assert not w[objective.free == 0].any()

    def test_relative_progress_stop_ends_the_solve_early(self):
        _, objective, w0 = self.least_squares_problem()
        exact = _lbfgs_minimize(w0, objective, 0.05, 500, 1e-10)
        early = _lbfgs_minimize(w0, objective, 0.05, 500, 1e-10, _FTOL)
        assert exact[3] != "ftol"
        assert early[3] == "ftol"
        assert early[2] < exact[2]
        # it stops short of the rounding floor, not far from the minimum
        assert exact[1] <= early[1] <= exact[1] * (1.0 + 1e-6)

    def test_engine_solves_with_the_relative_stop(self, monkeypatch):
        # the baseline's solves stop at kappa * h1 of the step before, within
        # [_FTOL, kappa]; every selective solve stops at _FTOL.  s1 seed
        # 300's baseline settles before h1 <= _FTOL / kappa, so the tight
        # regime is checked on s4 n=1000 seed 317, whose support is still
        # changing there
        import nscausal.optimizer as optimizer

        kappa = optimizer._FTOL_PER_H1
        seen = []

        def recording(*args):
            seen.append((args[1].relevance, args[5]))
            return _lbfgs_minimize(*args)

        monkeypatch.setattr(optimizer, "_lbfgs_minimize", recording)
        _, s4_data = scenario_data(scenario("s4"), 1000, 317)
        _, _, data = s1_replication(300)
        for replication in (s4_data, data):
            seen.clear()
            base = fit_baseline(replication)
            assert [relevance for relevance, _ in seen] == [False] * len(
                base.diagnostics)
            ftols = [ftol for _, ftol in seen]
            h1s = [row["h1"] for row in base.diagnostics]
            assert ftols[0] == kappa
            assert ftols[1:] == [max(_FTOL, min(kappa, kappa * h1))
                                 for h1 in h1s[:-1]]
            tight = [ftol for ftol, h1 in zip(ftols[1:], h1s)
                     if h1 <= _FTOL / kappa]
            assert all(ftol == _FTOL for ftol in tight)
            if replication is s4_data:
                assert tight

        seen.clear()
        result = fit(data, warm_start=base)
        assert seen and all(relevance and ftol == _FTOL
                            for relevance, ftol in seen)
        assert "ftol" in {d["stop_reason"] for d in result.diagnostics}

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
    def test_two_loop_matches_the_textbook_recursion(self, k):
        # pairs from a random positive definite Hessian, stored in rotated
        # slots as the solve's ring of rows leaves them
        rng = np.random.default_rng(k)
        memory = _LBFGS_MEMORY
        for count in range(1, memory + 1):
            root = rng.normal(size=(k, k))
            hessian = root @ root.T / k + 0.1 * np.eye(k)
            pairs = [(s, hessian @ s)
                     for s in rng.normal(size=(count, k))]
            grad = rng.normal(size=k)
            basis = np.zeros((2 * memory + 1, k))
            slots = [(count + i) % memory for i in range(count)]
            for slot, (s, y) in zip(slots, pairs):
                basis[slot], basis[memory + slot] = s, y
            basis[-1] = grad
            got = _two_loop(basis, [(slot, 1.0 / (s @ y))
                                    for slot, (s, y) in zip(slots, pairs)])
            expected = self.textbook_direction(pairs, grad)
            assert np.abs(got - expected).max() <= \
                1e-12 * np.abs(expected).max()

    def test_no_free_entries_stop_on_the_gradient_tolerance(self):
        gram, _, w0 = self.least_squares_problem()
        dim = len(gram)
        only_outcome = np.zeros(dim, bool)
        only_outcome[dim - 1] = True
        objective = _Objective(gram, dim - 1, only_outcome, t=0.2, lam1=0.0,
                               c=0.0, relevance=False, lam2=0.0, d_pen=0.0,
                               kind="te", delta_star=0.0)
        w, total, iterations, reason, solve = _lbfgs_minimize(
            w0, objective, 0.05, 100, 1e-10)
        assert (iterations, reason, solve.evaluations) == (0, "grad_tol", 1)
        assert not w.any()
        assert total == solve.objective_start == objective(w)[0]

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
    config and delta_star; the cutoff sometimes sits exactly on an effect."""
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


class TestSelectionUpdate:
    @settings(max_examples=300, deadline=None)
    @given(selection_cases())
    def test_drops_exactly_the_features_under_both_cutoffs(self, case):
        w, active, config, delta_star = case
        outcome = len(w) - 1
        before = active.copy()
        pruned = np.where(np.abs(w) > config.prune_threshold, w, 0.0)
        if is_acyclic(WeightedDag(pruned)):
            try:
                with np.errstate(all="ignore"):
                    ce = abs_effects(pruned, outcome, config.effect_kind)
                    raw = abs_effects(w, outcome, config.effect_kind)
            except np.linalg.LinAlgError:
                assume(False)
            assume(np.isfinite(raw).all())
            cutoff = config.selection_tolerance * delta_star
            spared_above = max(cutoff, config.prune_threshold)
            expected = sorted(
                (i for i in range(outcome) if before[i]
                 and ce[i] <= cutoff and raw[i] <= spared_above),
                key=lambda i: (ce[i], i))
        else:
            expected = []
        dropped = _selection_update(w, active, outcome, config,
                                    config.selection_tolerance * delta_star)
        assert dropped == expected
        kept = before.copy()
        kept[expected] = False
        assert np.array_equal(active, kept)

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
        result = fit(data)
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
            for warm_start in (None, base):
                with pytest.raises(ValueError, match=message):
                    fit(data, FitConfig(effect_kind=kind),
                        warm_start=warm_start)
            with pytest.raises(ValueError, match=message):
                fit(data, FitConfig(effect_kind=kind, delta_star=0.0))

    def test_warm_start_from_a_settled_baseline_caps_no_solve(self):
        # s2 n=100 seed 265: a baseline run on to c = 1e12 left this te
        # fit's first solve at max_inner_iter (500 iterations, then 49, 17
        # and 7); the settled baseline ends at c = 1e8
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

    def test_chain_weights_within_tolerance(self):
        data, truth = chain_dataset((1.0, 1.0), n=5000, seed=7)
        result = fit(data)
        assert np.abs(result.graph.weights - truth.weights).max() < 0.1

    def test_determinism_bit_exact(self):
        _, _, data = s1_replication(3)
        config = FitConfig(effect_kind="te")
        a = fit(data, config)
        b = fit(data, config)
        assert np.array_equal(a.graph.weights, b.graph.weights)
        assert np.array_equal(a.raw_graph.weights, b.raw_graph.weights)
        assert a.diagnostics == b.diagnostics
        assert a.delta_star_used == b.delta_star_used

    def test_diagnostics_rows_have_the_schema_keys_in_order(self):
        _, _, data = s1_replication(3, n=60)
        base = fit_baseline(data)
        for result in (base, fit(data, warm_start=base)):
            for entry in result.diagnostics:
                assert tuple(entry) == DIAGNOSTIC_FIELDS

    def test_result_invariants(self):
        for r in range(5):
            truth, target, data = s1_replication(r)
            result = fit(data, FitConfig(effect_kind="te"))
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
        dstar = delta_star(data, lambda _: base.graph, "te")
        explicit = fit(data, FitConfig(delta_star=dstar), warm_start=base)

        def no_baseline(*args, **kwargs):
            raise AssertionError("fit refitted the baseline")

        monkeypatch.setattr(optimizer, "fit_baseline", no_baseline)
        anchored = fit(data, FitConfig(), warm_start=base)
        assert anchored.delta_star_used == explicit.delta_star_used == dstar
        assert np.array_equal(anchored.raw_graph.weights,
                              explicit.raw_graph.weights)
        assert np.array_equal(anchored.graph.weights, explicit.graph.weights)
        assert np.array_equal(anchored.selected, explicit.selected)
        assert anchored.diagnostics == explicit.diagnostics
        assert anchored.converged == explicit.converged

    @staticmethod
    def record_solve_columns(monkeypatch):
        """Record the active columns of every inner solve of the fits run."""
        import nscausal.optimizer as optimizer

        columns = []

        def recording(w0, objective, *args):
            columns.append(objective.cols.tolist())
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
                                    * result.delta_star_used)
        assert dropped
        first = result.diagnostics[0]
        assert first["dropped"] == tuple(dropped)
        assert first["n_active"] == data.dim - 1 - len(dropped)
        assert columns[0] == np.flatnonzero(active).tolist()

    def test_fit_without_warm_start_solves_first_on_every_feature(
            self, monkeypatch):
        _, _, data = s1_replication(300)
        base = fit_baseline(data)
        dstar = delta_star(data, lambda _: base.graph, "te")
        columns = self.record_solve_columns(monkeypatch)
        fit(data, FitConfig(delta_star=dstar))
        assert columns[0] == list(range(data.dim))

    def test_cold_start_through_a_cyclic_iterate_selects_the_causes(self):
        # the zero start passes through cyclic iterates, where a truncated
        # path sum is not the total effect; with the exact resolvent the fit
        # converges and drops z0, a child of the outcome's parents
        _, target, data = s1_replication(105)
        base = fit_baseline(data)
        dstar = delta_star(data, lambda _: base.graph, "te")
        result = fit(data, FitConfig(delta_star=dstar))
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

    def test_inner_solves_never_increase_the_objective(self):
        _, _, data = s1_replication(1)
        result = fit(data, FitConfig(effect_kind="te"))
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
    # delta* > 0.  Started from zero, the selective fit drops both features
    # at its first step and can never meet the relevance constraint; started
    # from the baseline, the rule keeps z1 before the first solve and the fit
    # meets the constraint through that edge.
    @staticmethod
    def data_and_baseline():
        values = np.random.default_rng(6).normal(size=(50, 3))
        data = Dataset(values, ("z0", "z1", "y"), 2)
        return data, fit_baseline(data)

    @classmethod
    def unmeetable_fit(cls):
        data, base = cls.data_and_baseline()
        dstar = delta_star(data, lambda _: base.graph, "te")
        return fit(data, FitConfig(delta_star=dstar))

    def test_stalled_fit_stops_early_and_unconverged(self):
        result = self.unmeetable_fit()
        assert result.delta_star_used > 0.0
        assert not result.selected.any()
        assert not result.converged
        # d grows tenfold per step to its cap, then three stalled steps
        assert len(result.diagnostics) < FitConfig().max_dual_steps // 4

    def test_solves_without_free_entries_stop_at_once(self):
        result = self.unmeetable_fit()
        assert result.diagnostics[0]["dropped"] == (0, 1)
        for entry in result.diagnostics[1:]:
            assert entry["stop_reason"] == "grad_tol"
            assert entry["inner_iterations"] == 0
            assert entry["evaluations"] == 1
        assert not result.raw_graph.weights.any()

    def test_warm_start_keeps_the_noise_edge_and_converges(self):
        data, base = self.data_and_baseline()
        result = fit(data, warm_start=base)
        assert result.delta_star_used == self.unmeetable_fit().delta_star_used
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

        def recording(*args):
            out = _lbfgs_minimize(*args)
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
        # s4 n=1000 seed 317 passes the gate at step 10 and changes its
        # support at steps 11, 12 and 13
        _, data = scenario_data(scenario("s4"), 1000, 317)
        result, supports = self.settled_supports(monkeypatch, data)
        assert result.diagnostics[10]["h1"] <= SELECTION_H1_GATE
        assert all(supports[k] is not None for k in (10, 11, 12, 13))
        assert not np.array_equal(supports[11], supports[10])
        assert not np.array_equal(supports[12], supports[11])
        assert not np.array_equal(supports[13], supports[12])
        assert len(result.diagnostics) == 15

    @staticmethod
    def scripted_solver(monkeypatch, script, h2=1.0):
        """Replace the inner solve by one that returns the ``(w, h1)`` pairs
        of ``script`` in turn (the last one from then on), with ``h2`` for a
        selective solve and 0 for a baseline one, as the engine's does."""
        import nscausal.optimizer as optimizer

        calls = []

        def solve(w0, objective, *args):
            w, h1 = script[min(len(calls), len(script) - 1)]
            calls.append(objective.relevance)
            h2v = h2 if objective.relevance else 0.0
            return w.copy(), 0.0, 1, "ftol", _Solve(1, 0.0, h1, h2v)

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
        data, _ = chain_dataset(n=200)
        calls = self.scripted_solver(monkeypatch, [(w, 1e-6)], h2)
        config = FitConfig(delta_star=2.0, max_dual_steps=6)
        result = fit(data, config)
        assert calls == [True] * steps
        assert len(result.diagnostics) == steps
        assert result.selected.tolist() == [w is self.CHAIN, True]
        assert result.converged == (steps < 6)

    def test_warm_started_s1_fit_settles_after_two_steps(self):
        # s1 n=100 seed 300: the selection and pattern are fixed from the
        # first step, so the te fit settles with h1 still above _H1_TOL
        _, _, data = s1_replication(300)
        result = fit(data, warm_start=fit_baseline(data))
        assert result.converged
        assert len(result.diagnostics) == 2
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
        for learner in (fit, fit_baseline):
            with pytest.raises(ValueError, match="2 rows"):
                learner(data)

    def test_baseline_keeps_every_feature(self):
        _, _, data = s1_replication(0)
        result = fit_baseline(data)
        assert result.selected.all()
        assert result.delta_star_used == 0.0

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
