"""Structural-equation data generators.

Two links are supported: the linear model ``x = W^T x + eps`` and a
rounded-log variant where a node's value is ``round(2*log(1 + s)) + eps``
for ``s`` the weighted sum of its parents.  Noise draws use one independent
substream per node (spawned from the seed), so a column's values depend only
on the noise of the node itself and its ancestors.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .graph import WeightedDag, check_count, check_labels, check_node, topological_order


def _per_node(value, dim: int, name: str) -> np.ndarray:
    """``value``, one number or one per node, as ``dim`` floats.

    Strings and bools are not numbers here, though numpy would convert them.
    """
    items = value if isinstance(value, (list, tuple)) else np.ravel(value)
    try:
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in items):
            raise TypeError
        return np.broadcast_to(np.asarray(value, dtype=float), (dim,))
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number or a list of {dim} numbers, "
                         f"got {value!r}") from None


def _by_value(value):
    """A list, tuple or 1-d array as a tuple, to compare and hash by value."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        value = value.tolist()
    return tuple(value) if isinstance(value, (list, tuple)) else value


@dataclass(frozen=True)
class BernoulliNoise:
    """Independent 0/1 noise; ``p`` is scalar or per-node (held as a tuple)."""

    p: object = 0.5

    def __post_init__(self):
        object.__setattr__(self, "p", _by_value(self.p))

    def validate(self, dim: int) -> np.ndarray:
        p = _per_node(self.p, dim, "bernoulli p")
        if not ((p > 0) & (p < 1)).all():
            raise ValueError("bernoulli p must lie in (0, 1)")
        return p

    def sample(self, rng: np.random.Generator, n: int, p_i: float) -> np.ndarray:
        return (rng.random(n) < p_i).astype(float)


@dataclass(frozen=True)
class GaussianNoise:
    """Centered Gaussian noise; ``sigma`` is scalar or per-node (held as a tuple)."""

    sigma: object = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _by_value(self.sigma))

    def validate(self, dim: int) -> np.ndarray:
        s = _per_node(self.sigma, dim, "gaussian sigma")
        if not (s > 0).all():
            raise ValueError("gaussian sigma must be positive")
        return s

    def sample(self, rng: np.random.Generator, n: int, sigma_i: float) -> np.ndarray:
        return rng.normal(0.0, sigma_i, size=n)


LINKS = ("linear", "rounded-log")


def check_sem(noise, link, dim: int) -> np.ndarray:
    """The ``dim`` per-node noise parameters, once ``noise`` and ``link`` pass."""
    if not isinstance(noise, (BernoulliNoise, GaussianNoise)):
        raise ValueError(f"noise must be a BernoulliNoise or GaussianNoise, got {noise!r}")
    if link not in LINKS:
        raise ValueError(f"unknown link {link!r}, expected one of {LINKS}")
    return noise.validate(dim)


@dataclass(frozen=True)
class SemSpec:
    """Generative description: graph plus noise family plus link."""

    graph: WeightedDag
    noise: object = BernoulliNoise()
    link: str = "linear"

    def __post_init__(self):
        check_sem(self.noise, self.link, self.graph.dim)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n x (d+1) observation matrix with column labels and an outcome column.

    ``outcome_index`` is a column index in ``range(d + 1)``: an integer
    (numpy integers included, bools not).  ``==`` and ``hash`` go by identity.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    outcome_index: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"values must be 2-d, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("dataset contains non-finite entries")
        check_labels(self.labels, v.shape[1])
        check_node("outcome_index", self.outcome_index, v.shape[1])
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer, ties going away from zero."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _noise_matrix(spec: SemSpec, n: int, seed) -> np.ndarray:
    dim = spec.graph.dim
    params = spec.noise.validate(dim)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(dim)
    eps = np.empty((n, dim))
    for i in range(dim):
        eps[:, i] = spec.noise.sample(np.random.default_rng(children[i]), n, params[i])
    return eps


def _draw(spec: SemSpec, link: str, n: int, seed) -> Dataset:
    """Draw ``n`` observations in topological order under ``link``."""
    if spec.link != link:
        raise ValueError(f"spec.link is {spec.link!r}, expected {link!r}")
    check_count("n", n)
    order = topological_order(spec.graph.weights)
    if order is None:
        raise ValueError("generative graph must be acyclic")
    eps = _noise_matrix(spec, n, seed)
    w = spec.graph.weights
    values = np.zeros((n, spec.graph.dim))
    for i in order:
        agg = values @ w[:, i]
        if link == "rounded-log":
            if (agg <= -1.0 + 1e-12).any():
                raise ValueError(
                    f"parent aggregate of node {spec.graph.labels[i]!r} "
                    f"(index {i}) fell to -1 or below; log(1 + s) undefined")
            agg = round_half_away(2.0 * np.log1p(agg))
        values[:, i] = agg + eps[:, i]
    return Dataset(values, spec.graph.labels, spec.graph.outcome_index)


def sample_linear(spec: SemSpec, n: int, seed=0) -> Dataset:
    """Draw ``n`` observations of ``x = W^T x + eps`` in topological order.

    ``seed`` is an integer or a ``SeedSequence``, and the per-node noise
    streams are spawned from it.  An integer seed draws the same data on
    every call.  Spawning advances a ``SeedSequence``, so passing the same
    object twice draws new data.
    """
    return _draw(spec, "linear", n, seed)


def sample_nonlinear(spec: SemSpec, n: int, seed=0) -> Dataset:
    """Draw from the rounded-log model ``round(2*log(1 + parent sum)) + eps``.

    The parent aggregate is the weighted sum of parent values; it must stay
    above -1 or the log leaves its domain, in which case the offending node
    is named in the error.

    ``seed`` is an integer or a ``SeedSequence``, and the per-node noise
    streams are spawned from it.  An integer seed draws the same data on
    every call.  Spawning advances a ``SeedSequence``, so passing the same
    object twice draws new data.
    """
    return _draw(spec, "rounded-log", n, seed)


def shift_nonnegative(data: Dataset) -> Dataset:
    """Shift the outcome column by its minimum when that minimum is negative."""
    y = data.values[:, data.outcome_index]
    low = y.min()
    if low >= 0:
        return data
    values = data.values.copy()
    values[:, data.outcome_index] = y - low
    return Dataset(values, data.labels, data.outcome_index)
