import numpy as np
import pytest

from nscausal.graph import WeightedDag
from nscausal.scm import (BernoulliNoise, Dataset, GaussianNoise, SemSpec,
                          round_half_away, sample_linear, sample_nonlinear,
                          shift_nonnegative)


def chain(dim, weight=1.0):
    w = np.zeros((dim, dim))
    for i in range(dim - 1):
        w[i, i + 1] = weight
    return WeightedDag(w)


class TestLinearSampling:
    def test_disconnected_bernoulli_means(self):
        g = WeightedDag(np.zeros((5, 5)))
        data = sample_linear(SemSpec(g), 10_000, seed=11)
        means = data.values.mean(axis=0)
        # 6 sigma band of a fair binomial mean at n = 10,000
        assert ((means > 0.47) & (means < 0.53)).all()

    def test_chain_child_is_a_convolution(self):
        data = sample_linear(SemSpec(chain(2)), 40_000, seed=3)
        child = data.values[:, 1]
        values, counts = np.unique(child, return_counts=True)
        assert set(values) == {0.0, 1.0, 2.0}
        freq = counts / len(child)
        for observed, expected in zip(freq, (0.25, 0.5, 0.25)):
            assert abs(observed - expected) < 6 * np.sqrt(0.25 / 40_000) + 0.01

    def test_single_row(self):
        data = sample_linear(SemSpec(chain(3)), 1, seed=0)
        assert data.values.shape == (1, 3)

    def test_rejects_cyclic_graph(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 1.0
        spec = SemSpec(WeightedDag(w))
        with pytest.raises(ValueError):
            sample_linear(spec, 10)

    def test_rejects_wrong_link(self):
        spec = SemSpec(chain(3), link="rounded-log")
        with pytest.raises(ValueError):
            sample_linear(spec, 10)

    def test_gaussian_covariance_closed_form(self):
        rng = np.random.default_rng(5)
        w = np.triu(rng.uniform(0.5, 1.5, (5, 5)), 1) * (rng.random((5, 5)) < 0.5)
        g = WeightedDag(w)
        sigma = 0.8
        data = sample_linear(SemSpec(g, GaussianNoise(sigma)), 50_000, seed=2)
        inv = np.linalg.inv(np.eye(5) - w)
        expected = inv.T @ (sigma ** 2 * np.eye(5)) @ inv
        observed = np.cov(data.values, rowvar=False)
        rel = np.linalg.norm(observed - expected) / np.linalg.norm(expected)
        assert rel < 0.05

    def test_identical_seed_bit_exact(self):
        spec = SemSpec(chain(4))
        a = sample_linear(spec, 100, seed=21)
        b = sample_linear(spec, 100, seed=21)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("sample, link", [(sample_linear, "linear"),
                                              (sample_nonlinear, "rounded-log")])
    def test_seed_sequences_follow_the_docstring(self, sample, link):
        spec = SemSpec(chain(3), link=link)
        first = sample(spec, 50, seed=7).values
        # an integer seed repeats its draw
        assert np.array_equal(sample(spec, 50, seed=7).values, first)
        # a fresh SeedSequence of the same entropy repeats the first draw
        seq = np.random.SeedSequence(7)
        assert np.array_equal(sample(spec, 50, seed=seq).values, first)
        # spawning advanced it: the same object again draws new data
        assert not np.array_equal(sample(spec, 50, seed=seq).values, first)

    def test_column_depends_only_on_ancestor_noise(self):
        # graph: 0 -> 1 -> 2, node 3 isolated; perturbing node 3's noise
        # leaves columns 0..2 bit-exact, perturbing node 0's does not.
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 2] = 1.0
        g = WeightedDag(w)
        base = sample_linear(SemSpec(g, BernoulliNoise(0.5)), 200, seed=9)
        bumped = sample_linear(
            SemSpec(g, BernoulliNoise([0.5, 0.5, 0.5, 0.9])), 200, seed=9)
        assert np.array_equal(base.values[:, :3], bumped.values[:, :3])
        shifted = sample_linear(
            SemSpec(g, BernoulliNoise([0.9, 0.5, 0.5, 0.5])), 200, seed=9)
        assert not np.array_equal(base.values[:, 1], shifted.values[:, 1])
        assert np.array_equal(base.values[:, 3], shifted.values[:, 3])


class TestRounding:
    def test_half_away_from_zero(self):
        x = np.array([0.5, -0.5, 1.5, 2.5, -2.5, 0.49, -0.49])
        expected = np.array([1.0, -1.0, 2.0, 3.0, -3.0, 0.0, -0.0])
        assert np.array_equal(round_half_away(x), expected)

    def test_log_link_values(self):
        assert round_half_away(2 * np.log1p(0.0)) == 0.0
        assert round_half_away(2 * np.log1p(np.e - 1.0)) == 2.0


class TestNonlinearSampling:
    def test_root_nodes_are_pure_noise(self):
        g = WeightedDag(np.zeros((3, 3)))
        data = sample_nonlinear(SemSpec(g, link="rounded-log"), 500, seed=1)
        assert set(np.unique(data.values)) <= {0.0, 1.0}

    def test_child_values_follow_the_link(self):
        spec = SemSpec(chain(2), link="rounded-log")
        data = sample_nonlinear(spec, 2_000, seed=8)
        parent, child = data.values[:, 0], data.values[:, 1]
        # psi(0) = 0, psi(1) = round(2 log 2) = 1, plus binary noise
        assert set(np.unique(child[parent == 0])) <= {0.0, 1.0}
        assert set(np.unique(child[parent == 1])) <= {1.0, 2.0}

    def test_log_domain_error_names_the_node(self):
        spec = SemSpec(chain(3, weight=-2.0), link="rounded-log")
        with pytest.raises(ValueError, match="z1"):
            sample_nonlinear(spec, 500, seed=3)

    def test_identical_seed_bit_exact(self):
        spec = SemSpec(chain(3), link="rounded-log")
        a = sample_nonlinear(spec, 50, seed=4)
        b = sample_nonlinear(spec, 50, seed=4)
        assert np.array_equal(a.values, b.values)


class TestShiftNonnegative:
    def test_already_nonnegative_unchanged(self):
        data = Dataset(np.array([[1.0, 2.0], [0.0, 3.0]]), ("z0", "y"), 1)
        assert shift_nonnegative(data) is data

    def test_shifts_by_the_minimum(self):
        data = Dataset(np.array([[0.0, -2.0], [0.0, 0.0], [0.0, 3.0]]),
                       ("z0", "y"), 1)
        shifted = shift_nonnegative(data)
        assert list(shifted.values[:, 1]) == [0.0, 2.0, 5.0]
        assert np.array_equal(shifted.values[:, 0], data.values[:, 0])

    def test_constant_negative_column(self):
        data = Dataset(np.array([[-1.0], [-1.0]]), ("y",), 0)
        assert list(shift_nonnegative(data).values[:, 0]) == [0.0, 0.0]


class TestValidation:
    def test_bernoulli_bounds(self):
        with pytest.raises(ValueError):
            SemSpec(chain(2), BernoulliNoise(0.0))

    def test_gaussian_sigma(self):
        with pytest.raises(ValueError):
            SemSpec(chain(2), GaussianNoise(-1.0))

    def test_unknown_link(self):
        with pytest.raises(ValueError):
            SemSpec(chain(2), link="cubic")

    @pytest.mark.parametrize("noise", ["x", None])
    def test_noise_must_be_a_noise_model(self, noise):
        with pytest.raises(ValueError, match="noise"):
            SemSpec(chain(2), noise)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_sample_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be"):
            sample_linear(SemSpec(chain(2)), n)

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), ("a", "b"), 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dataset_values_must_be_finite(self, value):
        values = np.zeros((3, 2))
        values[1, 0] = value
        with pytest.raises(ValueError, match="^values must be finite$"):
            Dataset(values, ("a", "y"), 1)

    def test_dataset_values_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="^values must be 2-d"):
            Dataset(np.zeros(3), ("a", "b", "y"), 2)

    def test_dataset_label_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), ("a",), 1)

    def test_dataset_rejects_repeated_labels(self):
        # a fit of such data wrote a fit directory no reader accepts
        with pytest.raises(ValueError, match=r"^duplicate labels \['z0'\]$"):
            Dataset(np.zeros((2, 3)), ("z0", "z0", "y"), 2)

    @pytest.mark.parametrize("outcome", [1.5, 2.0, True, "2", None])
    def test_dataset_outcome_index_must_be_an_integer(self, outcome):
        with pytest.raises(ValueError, match="outcome_index"):
            Dataset(np.zeros((3, 3)), ("a", "b", "y"), outcome)

    @pytest.mark.parametrize("outcome", [-1, 3])
    def test_dataset_outcome_index_must_name_a_column(self, outcome):
        with pytest.raises(ValueError, match="outcome_index"):
            Dataset(np.zeros((3, 3)), ("a", "b", "y"), outcome)

    def test_dataset_accepts_numpy_integer_outcome_index(self):
        data = Dataset(np.zeros((3, 3)), ("a", "b", "y"), np.int64(2))
        assert data.outcome_index == 2


class TestNoiseByValue:
    """A per-node parameter given as a list, a tuple or a 1-d array is held
    as a tuple, so noises compare and hash by value."""

    @pytest.mark.parametrize("family, values", [
        (GaussianNoise, [0.5, 1.0, 2.0]), (BernoulliNoise, [0.2, 0.5, 0.7])])
    def test_array_and_list_noises_are_equal(self, family, values):
        # comparing two array noises raised "truth value ... is ambiguous"
        # and hashing raised TypeError
        forms = [family(np.array(values)), family(list(values)),
                 family(tuple(values))]
        assert all(form == forms[0] for form in forms)
        assert len({hash(form) for form in forms}) == 1
        assert family(np.array(values)) != family(values[::-1])

    @pytest.mark.parametrize("family", [GaussianNoise, BernoulliNoise])
    def test_samples_do_not_depend_on_the_parameter_form(self, family):
        values = [0.3, 0.6, 0.4]
        draws = {sample_linear(SemSpec(chain(3), family(form)), 50,
                               seed=9).values.tobytes()
                 for form in (values, tuple(values), np.array(values))}
        assert len(draws) == 1
        scalar = sample_linear(SemSpec(chain(3), family(0.4)), 50, seed=9)
        per_node = sample_linear(SemSpec(chain(3), family(np.full(3, 0.4))),
                                 50, seed=9)
        assert np.array_equal(scalar.values, per_node.values)

    @pytest.mark.parametrize("sigma", [np.ones((2, 2)), np.float64(1.0), 1])
    def test_other_parameters_stay_as_given(self, sigma):
        assert GaussianNoise(sigma).sigma is sigma

    @pytest.mark.parametrize("p", [[0.5, "x", 0.5], np.array([True, False,
                                                             True])])
    def test_tuples_are_still_validated(self, p):
        with pytest.raises(ValueError, match="bernoulli p must be"):
            SemSpec(chain(3), BernoulliNoise(p))

