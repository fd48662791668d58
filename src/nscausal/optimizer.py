"""Structure learner: least squares under acyclicity and relevance constraints.

The learner estimates a weighted adjacency matrix ``B`` for the model
``x = B^T x + eps`` by minimizing

    f(B) + lambda1*h1(B) + lambda2*h2(B; g) + c*h1(B)^2 + d*h2(B; g)^2

with dual ascent on the multipliers and geometric growth of the penalties.
The schedule is the fixed augmented-Lagrangian recipe of NOTEARS (Zheng
et al. 2018) and lives in module constants, not in ``FitConfig``:
``_PENALTY_INIT``, ``_PENALTY_GROWTH``, ``_PROGRESS_RATIO``, ``_H1_TOL``,
``_H2_TOL`` and ``_PENALTY_CAP``; both multipliers start at 0, and ``h1``'s
``t`` is ``1/dim``.

* ``f`` is the scaled least-squares residual over the active columns.  The
  fit minimises it on the centered gram divided by its mean diagonal (the
  mean column variance), so the objective carries no data units and the
  absolute schedule and tolerances mean the same at every scale.  A uniform
  rescale keeps the constrained minimiser, and unlike standardising each
  column it keeps the relative variances that identify the DAG.
* ``h1(B) = tr[(I + t * B∘B)^k] - dim`` with ``t = 1/dim``, the
  polynomial of DAG-GNN (Yu et al. 2019), is zero exactly on acyclic
  patterns for every ``k >= dim``, as no cycle is longer than ``dim``.  It
  takes ``k = 2^j + 1``, the smallest such ``k >= dim``, so ``j`` squarings
  give ``(I + t * B∘B)^(k-1)``.  ``t`` is fixed for the whole fit, so the
  ``h1`` values the engine compares across dual steps all come from one
  function.  Each solve starts from an iterate accepted at that ``t``, or
  from it masked, which can only lower ``h1``, so its starting ``h1`` is
  finite; a trial point where ``h1`` overflows is rejected by the line
  search.
* ``h2(B; g) = delta_star - sum_i |CE_i(B)| + sum_j |B[outcome, j]|``
  compares the absolute causal-effect mass of the active features against
  the all-features reference ``delta_star`` and penalizes edges out of the
  outcome (zero on the engine's iterates, so only ``relevance_constraint``
  adds it).  ``CE`` is the total or the direct effect, per configuration;
  ``effects.outcome_effects`` is the one place that picks it, for ``h2``,
  the selection rule and ``effects.total_effects`` alike.  The total effect
  is the outcome column of ``(I - B)^-1``: exact on acyclic patterns and
  defined wherever ``I - B`` is invertible; a trial point where it is not,
  or where it overflows, is rejected by the line search, like ``h1``'s.

A fit's ``config.delta_star`` is the reference score it ran with, its one
record: 0 for the selection-free fit, which turns ``h2`` off, and the
resolved or given positive score for a selective fit.  A selective fit
starts from a selection-free fit of the same data, at its raw graph and its
last ``lambda1`` and ``c`` (see ``fit``).  The feature
mask ``g`` shrinks monotonically: once the iterate is nearly acyclic, every
feature whose pruned-graph effect is at most the cutoff ``selection_tolerance
* delta_star`` is deactivated (rows and columns clamped to zero), so every
selected feature has a path to the outcome in the pruned graph the selection
read.  The rule runs after each solve and, on a start that already passes
the ``h1`` gate, once before the first solve, so that solve runs only on the
surviving features; both go through one helper of ``_engine`` that masks
the iterate when a feature went.  Drops before the first solve are
recorded in step 0's ``dropped``, and every dual step runs one body.  The
outcome row is kept at zero by projection throughout.  A dual step costs
its solve and little else: one ``_Objective`` per feature mask takes each
step's multipliers, and supports and selections are read off the pruned
array (``prune_weights``, ``topological_order``), not a ``WeightedDag``.
Each inner minimization is L-BFGS with an
Armijo backtracking line search over the free entries (as in NOTEARS, Zheng
et al. 2018); a step is taken only when it lowers the objective, so no inner
solve ever increases it.  At the problem sizes here an iteration is bound by
the count of numpy calls, not by their arithmetic, so an iteration makes
only the calls whose results are read, and takes its products with
``ndarray.dot``: the BLAS routines of ``@``, at about half its dispatch cost
on a 5 x 5 product.  The solve runs on the flattened weight matrix, whose
masked entries stay zero through the masked start and the masked gradient,
evaluates every point along one inline path, and keeps the step it took
rather than recomputing it from the iterates.  Each evaluation runs ``_ls``
and ``_h1`` once (and ``_h2`` when ``delta_star > 0``) and forms only the
gradient from ``_h1``'s ``P^T``; the curvature matrix ``2 k t P^T`` is built
once per solve, for its scale.  Each direction comes from the compact form
of the inverse Hessian (Byrd, Nocedal & Schnabel 1994): small matrices that
each stored pair changes by one row and column, all read off one product
with the pair written into a spare slot, and one preallocated vector of
coefficients (``_Memory``).  It runs in rescaled variables ``z = B / s``,
with ``s`` set once per solve at its masked start (``_Objective.scale``) to
one over the square root of a diagonal curvature: 1 for the least squares
(its mean curvature on the unit-free gram) plus the acyclicity terms'
Hessian diagonal without its term in ``dP/dB``.  Without it the late
subproblems, at ``c`` of 1e4 and up, where the acyclicity term acts as a
quadratic penalty (Ng et al., AISTATS 2022), are badly scaled, and their
solves crawl or stop at ``max_inner_iter``.  ``s`` is 1 at the
selection-free fit's zero start, so its first subproblem is solved as
without scaling.  A solve stops once a
step lowers the objective by less than ``ftol`` relative (SciPy L-BFGS-B's
test), instead of crawling to the rounding floor.  Every solve of every fit
takes one rule, ``ftol = max(_FTOL, min(_FTOL_PER_H1, _FTOL_PER_H1 *
h1_ref))``, loose while the fit is far from acyclic, since only its last
subproblems decide the answer (inexact augmented Lagrangian; Conn, Gould &
Toint 1991).  ``h1_ref`` is the previous step's ``h1`` for the
selection-free fit: ``inf`` at step 0, so ``_FTOL_PER_H1``, and ``_FTOL``
once ``h1 <= _FTOL / _FTOL_PER_H1``.  A selective fit fixes it at its
start: at ``SELECTION_H1_GATE`` when the start passes the gate, so every
solve stops at ``_FTOL_PER_H1 * SELECTION_H1_GATE`` (1e-8), and at 0, so
at ``_FTOL``, when it does not.  It goes no looser, since its solves feed
the selection rule, which cannot undo a drop: at 3e-8 a held-out s4 fit
kept a spurious feature.  Every ``diagnostics`` row records why its solve
stopped and how many objective evaluations it spent, and the engine
evaluates the objective nowhere else except after a deactivation; its
``f`` is in data units, its ``objective_start`` and ``objective_end`` in
the rescaled units.  Once every unmet constraint's penalty is capped, a fit
ends after three dual steps without progress, unconverged.

Every fit has one stop rule.  It converges when a step's solve meets both
tolerances (``h1 <= _H1_TOL``, ``|h2| <= _H2_TOL``) and its selection drops
nothing, or once it has settled: two dual steps in a row end with ``h1 <=
SELECTION_H1_GATE``, ``|h2|`` at most the selection cutoff and no drop, and
share one support ``|w| > prune_threshold`` whose pruned graph is acyclic.
A selective start that passes the gate counts as the first of those steps:
its support after the selection before the first solve, when acyclic, is
the one the first solve's is compared with, so a fit whose first solve
keeps it ends after one solve.  The selection-free fit has cutoff 0 and
``h2 = 0``; a fit that dropped every feature has ``h2 = delta_star``, above
the cutoff as ``selection_tolerance < 1``, so it never settles.  In measured
s1, s2, s4 and s5 fits the selection and pruned graph no longer changed from
there; later steps only pushed ``h1`` and ``h2`` toward their tolerances at
penalties up to 1e13, the ill-conditioned subproblems of the
quadratic-penalty regime (Ng et al., AISTATS 2022).  So a fit's last
``diagnostics`` row may show ``h1 > _H1_TOL`` and ``|h2| > _H2_TOL``.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import effects as _effects
from .graph import (WeightedDag, check_count, check_mask, check_nonnegative,
                    is_finite_number, outcome_position, prune, prune_weights,
                    topological_order)
from .scm import Dataset

# iterate must be this close to acyclic before selection decisions are
# trusted, and before a fit may stop on a settled support
SELECTION_H1_GATE = 1e-5

# dual ascent: initial penalties c and d, their growth factor when a
# constraint shrinks by less than the progress ratio, the feasibility
# tolerances, and the cap on multipliers and penalties
_PENALTY_INIT = 1.0
_PENALTY_GROWTH = 10.0
_PROGRESS_RATIO = 0.25
_H1_TOL = 1e-8
_H2_TOL = 1e-6
_PENALTY_CAP = 1e16

# inner solve: curvature pairs kept, Armijo constant, line-search halvings,
# largest entry change of a plain gradient step (taken while no curvature
# is known), the gradient size that ends a solve, and the relative decrease
# below which a step ends it (SciPy L-BFGS-B's default, factr 1e7 times
# machine epsilon; Byrd, Lu, Nocedal & Zhu 1995)
_LBFGS_MEMORY = 6
_ARMIJO_C1 = 1e-4
_LBFGS_HALVINGS = 40
_STEP_SIZE = 0.05
_GRAD_TOL = 1e-7
_FTOL = 2.220446049250313e-09

# every solve's relative-decrease stop per unit of its reference h1, capped
# at this value and floored at _FTOL (see the module docstring)
_FTOL_PER_H1 = 1e-3

_FLOAT_MAX = np.finfo(float).max


@dataclass(frozen=True)
class FitConfig:
    """The settings a caller may choose; everything else is engine constants.

    ``prune_threshold`` is the edge threshold of the returned graph.
    ``selection_tolerance`` scales the deactivation cutoff relative to the
    reference score, below 1; with the subset selector realized as
    monotone shrinkage the size pressure comes from that cutoff.
    ``max_dual_steps`` caps the dual-ascent steps of a fit and
    ``max_inner_iter`` the accepted L-BFGS steps of each inner solve.
    ``delta_star`` may hold a precomputed reference score, which overrides
    only the score: every selective fit still starts from the
    selection-free warm start that ``fit`` requires, and None means take
    the score from that fit's pruned graph.  A ``FitResult``'s ``config``
    holds the score the fit ran with: ``fit`` records the one it resolved
    or was given, ``fit_baseline`` 0.0 whatever was given.  The thresholds
    and ``delta_star`` must be finite and nonnegative, the step caps
    integers (numpy integers included, bools not).

    The penalty schedule, ``h1``'s ``t = 1/dim`` and the inner-solve
    constants (``_STEP_SIZE``, ``_GRAD_TOL``, ``_FTOL`` and
    ``_FTOL_PER_H1``) are fixed by the engine; see the module docstring.
    """

    effect_kind: str = "te"
    prune_threshold: float = 0.3
    selection_tolerance: float = 0.01
    max_dual_steps: int = 100
    max_inner_iter: int = 500
    delta_star: float | None = None

    def __post_init__(self):
        _effects.check_effect_kind(self.effect_kind)
        for name in ("prune_threshold", "selection_tolerance", "delta_star"):
            if name != "delta_star" or self.delta_star is not None:
                check_nonnegative(name, getattr(self, name))
        if self.selection_tolerance >= 1:
            raise ValueError("selection_tolerance must be below 1, got "
                             f"{self.selection_tolerance!r}")
        for name in ("max_dual_steps", "max_inner_iter"):
            check_count(name, getattr(self, name))


# the keys of a ``FitResult.diagnostics`` row, one row per dual step, in the
# column order of a fit directory's diagnostics.csv
DIAGNOSTIC_FIELDS = ("step", "f", "h1", "h2", "lambda1", "lambda2", "c", "d",
                     "t", "inner_iterations", "stop_reason", "evaluations",
                     "objective_start", "objective_end", "n_active", "dropped")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Learned graph, the selected feature mask, and the optimization trace.

    ``converged`` says the last dual step met the fit's stop rule (see the
    module docstring); a settled fit is converged though its last
    ``diagnostics`` row may show ``h1 > _H1_TOL`` or ``|h2| > _H2_TOL``.  A
    selective fit from a warm start that passes the gate may settle on its
    first row.  ``config`` is the configuration the fit ran with, and its
    ``delta_star`` the fit's one record of the reference score: 0.0 for a
    selection-free fit, the resolved or given score for a selective one.
    ``==`` and ``hash`` go by identity.
    """

    graph: WeightedDag
    raw_graph: WeightedDag
    selected: np.ndarray
    diagnostics: tuple
    converged: bool
    config: FitConfig = field(repr=False)

    def counters(self) -> dict:
        """The fit's counts, as every report writes them: ``dual_steps``
        (the ``diagnostics`` rows), ``inner_iterations`` (their sum) and
        ``capped_solves``, the inner solves whose ``stop_reason`` is
        ``"max_inner_iter"``."""
        rows = self.diagnostics
        return {"dual_steps": len(rows),
                "inner_iterations": sum(d["inner_iterations"] for d in rows),
                "capped_solves": sum(d["stop_reason"] == "max_inner_iter"
                                     for d in rows)}


# ---------------------------------------------------------------------------
# kernels: the objective pieces the engine evaluates, shared by the public API


def _unit_gram(data: Dataset):
    """``(G, k)`` with ``G 2^k = X_c^T X_c / n`` for the column-centered data
    ``X_c``: ``G`` is the centered gram of ``X 2^-e``, whose largest magnitude
    is in ``[0.5, 1)``, and ``k = 2e``.  The power of two is exact, and keeps
    the column means and ``G`` in the float range at any data scale.  Column
    means act as implicit intercepts: the noise need not be centered.
    """
    exponent = math.frexp(np.abs(data.values).max())[1]
    scaled = np.ldexp(data.values, -exponent)
    centered = scaled - scaled.mean(axis=0)
    return centered.T @ centered / data.n, 2 * exponent


def _in_data_units(value: float, k: int) -> float:
    """``value 2^k``: ``inf`` past the float range, toward 0 below it."""
    try:
        return math.ldexp(value, k)
    except OverflowError:
        return math.copysign(math.inf, value)


def _ls(w: np.ndarray, gram: np.ndarray, eye_cols: np.ndarray):
    """``0.5 tr[R^T gram R]`` for the residual ``R = B - eye_cols``, with
    ``eye_cols`` the identity restricted to the active columns, and its
    gradient ``gram R``: one subtraction, one product and one dot per
    evaluation.  ``B`` must be zero on the inactive columns, as every engine
    iterate is (the start, every step and every iterate after a drop are
    masked), so ``R`` and the gradient are zero there."""
    r = w - eye_cols
    gr = gram.dot(r)
    return 0.5 * float(np.vdot(r, gr)), gr


def _h1(w: np.ndarray, t: float, eye: np.ndarray):
    """``tr[M^k] - dim`` for ``M = I + t B∘B``, ``P^T`` for ``P = M^(k-1)``,
    and ``2 k t``; ``k = 2^j + 1`` is the smallest such exponent ``>= dim``,
    so ``P`` is ``j`` squarings of ``M``.  The gradient is ``2 k t P^T``
    times ``B`` entrywise, and the curvature matrix ``2 k t P^T`` is the
    Hessian's diagonal without the term in ``dP/dB``.  Callers form what
    they read: an objective evaluation only the gradient, from ``P^T * B``
    scaled once, and ``_Objective.scale``, once per solve, the curvature
    matrix as well."""
    dim = w.shape[0]
    m = eye + t * (w * w)
    squarings = max(0, dim - 2).bit_length()
    p = m
    for _ in range(squarings):
        p = p.dot(p)
    pt = p.T
    value = float(np.vdot(pt, m)) - dim
    if not math.isfinite(value):
        raise FloatingPointError("acyclicity value overflowed")
    return value, pt, (2 ** squarings + 1) * t * 2.0


def _h2(w: np.ndarray, outcome: int, feature_active: np.ndarray, kind: str,
        delta_star: float, eye: np.ndarray):
    """``delta_star - sum_active |CE_i|`` and its subgradient, with CE and
    ``M`` from ``effects.outcome_effects``: ``h2`` less its outcome-row
    penalty, zero on every engine iterate (``relevance_constraint`` adds
    it).  One Jacobian, ``d CE_i / d B[a, b] = M[i, a] M[b, outcome]``,
    serves both effect kinds.

    A non-finite subgradient (a finite total effect can have an overflowing
    Jacobian) raises ``FloatingPointError``, a rejected trial to the line
    search, as in ``effects.outcome_effects``.
    """
    ce, m = _effects.outcome_effects(w, outcome, kind, eye)
    signs = np.sign(ce) * feature_active
    value = delta_star - float(signs.dot(ce))
    grad = np.multiply.outer(signs.dot(m), -m[:, outcome])
    if not np.isfinite(grad).all():
        raise FloatingPointError("relevance gradient is not finite")
    return value, grad


# ---------------------------------------------------------------------------
# public single-shot operations


def _h1_checked(g: WeightedDag, t: float):
    if not is_finite_number(t) or t <= 0:
        raise ValueError(f"t must be a finite positive number, got {t!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value, pt, k2t = _h1(g.weights, t, np.eye(g.dim))
            return value, (k2t * pt) * g.weights
    except FloatingPointError:
        raise ValueError("acyclicity value overflowed; decrease t") from None


def _checked_array(name: str, value, shape: tuple, dtype) -> np.ndarray:
    """``value`` as an array of ``dtype``; a ``ValueError`` naming the
    argument unless its shape is ``shape``."""
    array = np.asarray(value, dtype=dtype)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got "
                         f"{array.shape}")
    return array


def _check_finite_b(w: np.ndarray):
    if not np.isfinite(w).all():
        raise ValueError("B must be finite")


def acyclicity_value(g: WeightedDag, t: float) -> float:
    """Trace-power acyclicity score ``tr[(I + t B∘B)^k] - dim``, with ``k``
    as in the module docstring; zero exactly when the pattern is a DAG.
    Where ``k > dim`` it overflows (a ``ValueError``) at smaller weights
    than ``k = dim`` would, at ``t = 1`` for instance."""
    return _h1_checked(g, t)[0]


def acyclicity_gradient(g: WeightedDag, t: float) -> np.ndarray:
    """Analytic gradient ``k * t * [(I + t B∘B)^(k-1)]^T ∘ 2B``, with
    ``acyclicity_value``'s exponent ``k``."""
    return _h1_checked(g, t)[1]


def least_squares_loss(B: np.ndarray, data: Dataset, mask: np.ndarray):
    """Scaled residual ``(1/2n) ||W - B^T W||_F^2`` over the masked columns.

    ``W`` is the column-centered data, as in the fit, so at a fit's raw
    graph this is the ``f`` of its last ``diagnostics`` row at any data
    scale: both are formed on the gram of ``_unit_gram`` and then put in
    data units, ``inf`` past the float range.

    The gradient is zeroed on the outcome row and on unselected rows and
    columns.  ``B`` is ``dim x dim`` for the data's ``dim`` nodes, and
    ``mask`` is a boolean vector over those nodes that must include the
    outcome column; anything else is a ``ValueError``.

    Every call checks its inputs and forms the centered gram of the whole
    dataset, an ``O(n dim^2)`` product, before the loss; the fit forms the
    gram once and reuses it.  So at ``dim`` 5 and ``n`` 100 a call costs
    about ten times one of the fit's own loss and gradient evaluations
    (29 against 3 us on a 2-core x86 box), over half of it in the gram.
    perfbench's ``optimizer.ls_us`` times this call, not the fit's.
    """
    w = _checked_array("B", B, (data.dim, data.dim), float)
    _check_finite_b(w)
    check_mask("mask", mask)
    mask = _checked_array("mask", mask, (data.dim,), bool)
    if data.n == 0:
        raise ValueError("dataset is empty")
    if not mask[data.outcome_index]:
        raise ValueError("mask must include the outcome column")
    cols = mask.astype(float)
    gram, k = _unit_gram(data)
    loss, grad = _ls(w * cols, gram, np.diag(cols))
    grad[~mask, :] = 0.0
    grad[data.outcome_index, :] = 0.0
    with np.errstate(over="ignore"):
        return _in_data_units(loss, k), np.ldexp(grad, k)


def relevance_constraint(B: np.ndarray, mask: np.ndarray, effect_kind: str,
                         delta_star: float, outcome_index: int = -1):
    """Value and subgradient of the causal-relevance constraint.

    ``value = delta_star - sum_{i in mask} |CE_i(B)| + sum_j |B[outcome, j]|``
    where CE is the direct effect or the total effect, the outcome column of
    ``(I - B)^-1``: exact on DAGs and defined wherever ``I - B`` is
    invertible; a singular ``I - B`` is a ``ValueError``.  The subgradient
    of ``|x|`` at 0 is taken to be 0.  ``B`` is square, ``mask`` a boolean
    vector over its nodes and ``delta_star`` finite and nonnegative, as in
    ``FitConfig``; anything else is a ``ValueError``.
    """
    _effects.check_effect_kind(effect_kind)
    check_nonnegative("delta_star", delta_star)
    w = np.asarray(B, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"B must be a square matrix, got shape {w.shape}")
    _check_finite_b(w)
    dim = w.shape[0]
    check_mask("mask", mask)
    feature_active = _checked_array("mask", mask, (dim,), bool).copy()
    outcome = outcome_position(outcome_index, dim)
    feature_active[outcome] = False
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad = _h2(w, outcome, feature_active, effect_kind,
                              delta_star, np.eye(dim))
    except FloatingPointError as exc:
        raise ValueError(f"total effects undefined: {exc}") from None
    row = w[outcome, :]
    grad[outcome, :] += np.sign(row)
    return value + float(np.abs(row).sum()), grad


# ---------------------------------------------------------------------------
# engine


class _Objective:
    """Augmented-Lagrangian value and gradient at one feature mask.

    The inner loop calls this tens of thousands of times, so the identity
    matrix, the 0/1 active-column vector and the projection mask ``free``
    are cached up front and the kernels are called directly rather than
    through the validating public single-shot operations.  The engine
    builds one per mask.  Its multipliers ``lam1``, ``c``, ``lam2`` and
    ``d_pen`` start at 0, and the engine sets them before each solve.
    """

    def __init__(self, gram, outcome, active, t, kind, delta_star):
        self.gram = gram
        self.outcome = outcome
        self.feature_active = active.copy()
        self.feature_active[outcome] = False
        self.cols = active.astype(float)
        self.eye_cols = np.diag(self.cols)
        self.free = np.outer(self.cols, self.cols)
        self.free[outcome, :] = 0.0
        np.fill_diagonal(self.free, 0.0)
        self.eye = np.eye(gram.shape[0])
        self.t = t
        # ``fit`` refuses a reference score of 0, so only a baseline has it
        self.relevance = delta_star > 0
        self.kind = kind
        self.delta_star = delta_star
        self.lam1 = self.c = self.lam2 = self.d_pen = 0.0

    def __call__(self, w: np.ndarray):
        """``(total, gradient, h1, h2)`` at ``w``, which must be zero on the
        inactive columns (see ``_ls``); the gradient is masked by
        ``free``."""
        f, grad = _ls(w, self.gram, self.eye_cols)
        h1v, pt, k2t = _h1(w, self.t, self.eye)
        total = f + self.lam1 * h1v + self.c * h1v * h1v
        gh1 = pt * w
        gh1 *= (self.lam1 + 2.0 * self.c * h1v) * k2t
        grad += gh1
        h2v = 0.0
        if self.relevance:
            h2v, gh2 = _h2(w, self.outcome, self.feature_active, self.kind,
                           self.delta_star, self.eye)
            total += self.lam2 * h2v + self.d_pen * h2v * h2v
            grad += (self.lam2 + 2.0 * self.d_pen * h2v) * gh2
        grad *= self.free
        return total, grad, h1v, h2v

    def scale(self, w: np.ndarray) -> np.ndarray:
        """The inner solve's variable scale at ``w``, ``(1 + (lam1 + 2c h1)
        2 k t P^T + 2c (dh1/dB)^2) ** -0.5``: the acyclicity terms' Hessian
        diagonal without the term in ``dP/dB`` (``P`` from ``_h1``, and
        ``dh1/dB = 2 k t P^T * B``), plus the least-squares curvature taken at
        its mean, 1 on the unit-free gram.  This is the one place the
        curvature matrix ``2 k t P^T`` is built: once per solve, at its
        start, while the evaluations form only the gradient.

        It is exactly 1 when ``lam1 = c = 0``, and at ``B = 0`` with ``lam1 =
        0`` (the selection-free fit's start), where ``h1`` and its gradient
        vanish.  A diagonal that overflows is clamped to the largest float,
        so the scale stays finite and positive.
        """
        h1v, pt, k2t = _h1(w, self.t, self.eye)
        curvature = k2t * pt
        diagonal = (1.0 + (self.lam1 + 2.0 * self.c * h1v) * curvature
                    + 2.0 * self.c * (curvature * w) ** 2)
        return np.fmin(diagonal, _FLOAT_MAX) ** -0.5


class _Memory:
    """The newest ``_LBFGS_MEMORY`` curvature pairs ``(s, y)``, and the
    L-BFGS direction ``-H g`` from the compact form of their inverse Hessian
    (Byrd, Nocedal & Schnabel 1994) with the newest pair's scaling ``gamma
    = s.y / y.y``: ``-H g = -gamma g - S v + gamma Y u``, ``u = R^-1 S^T g``
    and ``v = R^-T ((D + gamma Y^T Y) u - gamma Y^T g)``.

    The pairs sit in a ring of ``m = _LBFGS_MEMORY + 1`` slots, oldest
    first in ``slots``, with the steps in ``rows[:m]`` and the gradient
    changes in ``rows[m:]``.  Per slot it keeps ``D = s.y``, ``Y^T Y`` and
    ``R^-1``, the inverse of the upper triangle of ``S^T Y`` in pair-age
    order; a stored pair borders them with one row and column.  The one
    slot not in ``slots`` is the ``spare``: each candidate pair is written
    there first, so that one product of the rows with its ``y`` gives its
    ``s.y`` and ``y.y`` as well as the border, and only ``s.s`` takes a dot
    of its own.  A rejected pair is wiped from the spare and leaves the
    stored pairs as they were.  The trailing block of a triangular matrix's
    inverse is the inverse of its trailing block, so evicting the oldest
    pair zeroes its row of ``R^-1``; its column, the first in pair-age
    order, is zero but for the diagonal.  The evicted slot is the next
    spare.  A slot out of use, zero there, takes no part in a direction.
    """

    def __init__(self, size: int):
        m = _LBFGS_MEMORY + 1
        self.rows = np.zeros((2 * m, size))
        self.sy = np.zeros(m)
        self.yy = np.zeros((m, m))
        self.r_inv = np.zeros((m, m))
        self.coefficients = np.empty(2 * m)
        self.gamma = 0.0
        self.slots = []
        self.spare = 0

    def push(self, step: np.ndarray, change: np.ndarray):
        """Store the pair over the oldest when full, if ``s.y > 1e-10 |s||y|``
        (else ``H`` could lose positive definiteness)."""
        m = self.sy.size
        slot = self.spare
        rows = self.rows
        rows[slot] = step
        rows[m + slot] = change
        products = rows.dot(change)
        sy = products[slot]
        yy = products[m + slot]
        if not sy > 1e-10 * math.sqrt(step.dot(step) * yy):
            # rows slot and m + slot: a zero row times a zero coefficient
            # stays zero in a direction even when the pair overflowed
            rows[slot::m] = 0.0
            return
        if len(self.slots) == _LBFGS_MEMORY:
            self.spare = self.slots.pop(0)
            self.r_inv[self.spare] = 0.0
        else:  # from empty, the slots fill in index order
            self.spare = len(self.slots) + 1
        self.slots.append(slot)
        # R gains the column S^T y with diagonal s.y, so R^-1 gains the
        # column -R^-1 S^T y / s.y with diagonal 1 / s.y
        self.r_inv[:, slot] = self.r_inv.dot(products[:m]) / -sy
        self.r_inv[slot, slot] = 1.0 / sy
        self.yy[slot] = self.yy[:, slot] = products[m:]
        self.sy[slot] = sy
        self.gamma = sy / yy

    def clear(self):
        self.slots.clear()
        self.r_inv[:] = 0.0
        self.spare = 0

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """``-H g``, with the row coefficients ``-v`` and ``gamma u`` written
        into one preallocated vector.  ``-v`` is taken as ``(gamma (Y^T g -
        Y^T Y u) - D u) R^-1``: negation is exact, so it rounds as ``v``
        does."""
        m = self.sy.size
        products = self.rows.dot(grad)
        u = self.r_inv.dot(products[:m])
        coefficients = self.coefficients
        (self.gamma * (products[m:] - self.yy.dot(u))
         - self.sy * u).dot(self.r_inv, out=coefficients[:m])
        np.multiply(u, self.gamma, out=coefficients[m:])
        direction = coefficients.dot(self.rows)
        direction -= self.gamma * grad
        return direction


# an overflowing trial is rejected by the line search (see below), so numpy
# need not warn about it; the state is set once per solve, not per evaluation
@np.errstate(over="ignore", invalid="ignore")
def _lbfgs_minimize(w0: np.ndarray, objective: _Objective, step_size: float,
                    max_iter: int, grad_tol: float, ftol: float = 0.0):
    """Deterministic L-BFGS with Armijo backtracking on the free entries.

    The solve runs on the flattened weight matrix from ``w0`` masked by
    ``objective.free``, in the variables ``z = B / scale`` with ``scale =
    objective.scale`` at that masked start: finite and positive, so masked
    entries start at ``z = 0``.  The gradient in ``z`` is the objective's
    times ``scale``; it is zero off the mask, so every step is too and masked
    entries stay exactly zero.  ``grad_tol`` is tested on that scaled
    gradient, and ``step_size`` bounds the change of ``z``.  Directions come
    from the compact form of the last ``_LBFGS_MEMORY`` curvature pairs
    (``_Memory``), which keeps a pair only when ``s.y > 1e-10 |s||y|``, so
    the implied inverse Hessian stays positive definite.  Without pairs (the
    first step, and after a reset) the direction is the negative gradient
    sized so that its largest entry is ``step_size``.  The line search
    halves the direction in place, which is exact, and the memory stores
    the accepted, halved direction as the step.  Every accepted step
    satisfies the Armijo condition and lowers the objective.  A line search
    that fails empties the memory and retries once from that gradient step;
    if that fails too, the solve stops.  An accepted step that lowers the
    objective from ``prev`` to ``total`` by no more than ``ftol *
    max(|prev|, |total|, 1)`` also ends the solve; the default ``ftol = 0``
    never does, so the solve runs to the gradient tolerance or the rounding
    floor.  With no
    free entries the solve stops at once on the gradient tolerance.

    Returns the final iterate, masked, and the solve's record:
    ``inner_iterations`` (the accepted steps), ``stop_reason``
    (``"grad_tol"``, ``"ftol"``, ``"max_inner_iter"`` or ``"no_descent"``),
    ``evaluations``, ``objective_start`` and ``objective_end``, in
    ``DIAGNOSTIC_FIELDS`` order, then ``h1`` and ``h2`` at the final
    iterate, all taken from the solve's own objective evaluations.
    """
    shape = w0.shape
    z = (w0 * objective.free).ravel()
    scale = objective.scale(z.reshape(shape)).ravel()
    z /= scale
    total, grad, h1v, h2v = objective((z * scale).reshape(shape))
    grad = grad.ravel() * scale
    start = total
    evaluations = 1
    memory = _Memory(z.size)
    it = 0
    while True:
        grad_max = np.abs(grad).max()
        if grad_max <= grad_tol:
            reason = "grad_tol"
            break
        if it >= max_iter:
            reason = "max_inner_iter"
            break
        if memory.slots:
            direction = memory.direction(grad)
        else:
            direction = grad * (-step_size / grad_max)
        slope = grad.dot(direction)
        accepted = None
        # a direction that does not descend (possible only by rounding)
        # counts as a failed line search
        for _ in range(_LBFGS_HALVINGS if slope < 0 else 0):
            trial = z + direction
            try:
                out = objective((trial * scale).reshape(shape))
            except FloatingPointError:  # h1 overflowed or I - B singular
                out = None
            evaluations += 1
            # the strict test matters once c1*slope is below the rounding
            # of ``total``: a step must still lower the objective
            if (out is not None and out[0] < total
                    and out[0] <= total + _ARMIJO_C1 * slope):
                accepted = out
                break
            direction *= 0.5
            slope *= 0.5
        if accepted is None:
            if not memory.slots:
                reason = "no_descent"
                break
            memory.clear()
            continue
        new_grad = accepted[1].ravel() * scale
        # the halved direction is the step; trial - z would only round it
        memory.push(direction, new_grad - grad)
        prev = total
        z, grad = trial, new_grad
        total, _, h1v, h2v = accepted
        it += 1
        if prev - total <= ftol * max(abs(prev), abs(total), 1.0):
            reason = "ftol"
            break
    return (z * scale).reshape(shape), {
        "inner_iterations": it, "stop_reason": reason,
        "evaluations": evaluations, "objective_start": start,
        "objective_end": total, "h1": h1v, "h2": h2v}


def _selection_update(w, active, outcome, config, cutoff):
    """Deactivate every active feature whose effect is at most ``cutoff``
    (the fit's ``selection_tolerance * delta_star``); return them smallest
    effect first (ties by index), or ``[]`` when the pruned pattern is cyclic.

    Effects are read off the pruned current iterate, so sub-threshold noise
    edges cannot keep a feature alive, and a feature with no path to the
    outcome in that pruned graph (effect 0) always goes.
    """
    pruned = prune_weights(w, config.prune_threshold)
    if topological_order(pruned) is None:
        return []
    ce = np.abs(_effects.outcome_effects(pruned, outcome, config.effect_kind,
                                         np.eye(w.shape[0]))[0])
    dropped = sorted((int(i) for i in np.flatnonzero(active) if i != outcome
                      and ce[i] <= cutoff), key=lambda i: (ce[i], i))
    active[dropped] = False
    return dropped


def _engine(data: Dataset, config: FitConfig, init: tuple) -> FitResult:
    dim = data.dim
    outcome = data.outcome_index
    if data.n <= dim or dim < 2:
        # the outcome's least squares on its dim - 1 candidate parents plus
        # the centring intercept has n - dim residual degrees of freedom: at
        # n <= dim it fits exactly, and the fit would "converge" near dense
        raise ValueError("dataset needs n > dim rows and at least 2 columns")
    cutoff = config.selection_tolerance * config.delta_star
    # fit on a unit-free gram: a uniform rescale of the data leaves the
    # constrained minimiser unchanged, while the penalty schedule and the
    # solver tolerances are absolute.  ``_unit_gram`` keeps it in the float
    # range at any data scale; only ``f``, in data units, is ``inf`` where
    # the data's own second moments exceed that range.  All-constant data
    # (mean variance 0) keep their zero gram and fit to the empty graph.
    unit_gram, unit_exponent = _unit_gram(data)
    scale = float(np.diag(unit_gram).mean())
    gram = unit_gram / scale if scale > 0 else unit_gram

    w, lam1, c = init
    active = np.ones(dim, dtype=bool)
    lam2 = 0.0
    d_pen = _PENALTY_INIT
    cap = _PENALTY_CAP
    h1_prev = math.inf
    h2_prev = math.inf
    support_prev = None  # the last step's settled support
    t = 1.0 / dim  # one h1 for the whole fit (see the module docstring)
    diagnostics = []
    converged = False
    stall = 0

    def objective_for_mask():
        return _Objective(gram, outcome, active, t, config.effect_kind,
                          config.delta_star)

    def select(w):
        """Apply the selection rule to ``w``; when a feature went, build the
        objective of the new mask and mask ``w`` by it."""
        nonlocal objective
        dropped = _selection_update(w, active, outcome, config, cutoff)
        if dropped:
            objective = objective_for_mask()
            w = w * objective.free
        return w, dropped

    def settled_support(w):
        """The support ``|w| > prune_threshold``, or None when its pruned
        graph is cyclic."""
        pruned = prune_weights(w, config.prune_threshold)
        return pruned != 0 if topological_order(pruned) is not None else None

    # one objective per feature mask; each dual step sets its multipliers
    objective = objective_for_mask()
    relevance = objective.relevance
    # a selective fit's start, its baseline, gets the selection rule before
    # the first solve when it is already nearly acyclic, so that solve runs
    # only on the survivors; the drops go in step 0's row, and the masked
    # start counts as a settled step.  Its solves read the tolerance rule at
    # the gate; those from a start above the gate read it at 0, so at _FTOL
    dropped = []
    start_ref = 0.0
    if relevance and _h1(w, t, objective.eye)[0] <= SELECTION_H1_GATE:
        w, dropped = select(w)
        support_prev = settled_support(w)
        start_ref = SELECTION_H1_GATE
    for step in range(config.max_dual_steps):
        objective.lam1, objective.c = lam1, c
        objective.lam2, objective.d_pen = lam2, d_pen
        # one tolerance rule for every solve (see the module docstring)
        h1_ref = start_ref if relevance else h1_prev
        ftol = max(_FTOL, min(_FTOL_PER_H1, _FTOL_PER_H1 * h1_ref))
        w, solve = _lbfgs_minimize(w, objective, _STEP_SIZE,
                                   config.max_inner_iter, _GRAD_TOL, ftol)
        h1v, h2v = solve.pop("h1"), solve.pop("h2")

        late = []  # the drops after this step's solve
        if relevance and h1v <= SELECTION_H1_GATE:
            w, late = select(w)
            if late:
                dropped += late
                _, _, h1v, h2v = objective(w)

        # ``f`` in data units, so that it equals the public
        # ``least_squares_loss`` at the fit's raw graph
        f_val = _in_data_units(_ls(w, unit_gram, objective.eye_cols)[0],
                               unit_exponent)
        diagnostics.append({
            "step": step, "f": f_val, "h1": h1v, "h2": h2v,
            "lambda1": lam1, "lambda2": lam2, "c": c, "d": d_pen, "t": t,
            **solve,
            "n_active": int(active.sum()) - 1, "dropped": tuple(dropped),
        })

        # a baseline solve reports h2 = 0: it is feasible for h2 and leaves
        # lambda2 and d untouched
        ok1 = h1v <= _H1_TOL
        ok2 = abs(h2v) <= _H2_TOL
        # a fit also ends once two steps in a row settle on one pruned DAG
        support = None
        if h1v <= SELECTION_H1_GATE and abs(h2v) <= cutoff and not late:
            support = settled_support(w)
        settled = support is not None and np.array_equal(support, support_prev)
        support_prev = support
        if (ok1 and ok2 and not late) or settled:
            converged = True
            break

        lam1 = min(lam1 + 2.0 * c * h1v, cap)
        lam2 = min(max(lam2 + 2.0 * d_pen * h2v, -cap), cap)
        if not ok1 and h1v > _PROGRESS_RATIO * h1_prev:
            c = min(c * _PENALTY_GROWTH, cap)
        if not ok2 and abs(h2v) > _PROGRESS_RATIO * h2_prev:
            d_pen = min(d_pen * _PENALTY_GROWTH, cap)

        # h1 improves only from an infeasible value: a feasible h1, often
        # exactly 0 after 0, passes the ratio test trivially (and so would
        # the baseline's h2)
        improved = ((h1_prev > _H1_TOL and h1v <= _PROGRESS_RATIO * h1_prev)
                    or (relevance and abs(h2v) <= _PROGRESS_RATIO * h2_prev)
                    or bool(dropped))
        saturated = (ok1 or c >= cap) and (ok2 or d_pen >= cap)
        stall = stall + 1 if (saturated and not improved) else 0
        if stall >= 3:
            break
        h1_prev = max(h1v, 1e-300)
        h2_prev = max(abs(h2v), 1e-300)
        dropped = []

    raw = WeightedDag(w, data.labels, outcome)
    return FitResult(
        graph=prune(raw, config.prune_threshold),
        raw_graph=raw,
        selected=np.delete(active, outcome),
        diagnostics=tuple(diagnostics),
        converged=converged,
        config=config,
    )


def fit_baseline(data: Dataset, config: FitConfig = FitConfig()) -> FitResult:
    """Selection-free structural fit: the relevance machinery is disabled.

    The fit runs under, and its result records, ``config`` with
    ``delta_star`` 0.0, whatever ``config.delta_star`` holds.

    The fit ends, converged, once two dual steps in a row have ``h1 <=
    SELECTION_H1_GATE`` and one acyclic support ``|w| > prune_threshold``
    (or once ``h1 <= _H1_TOL``): the one stop rule of every fit, with cutoff
    and ``h2`` 0.  So its last ``h1`` may still be above ``_H1_TOL``.
    Data with ``n <= dim`` rows, or fewer than 2 columns, are a
    ``ValueError`` before any work, here and in ``fit``: at ``n <= dim`` the
    outcome's regression on every other column fits the data exactly.
    """
    return _engine(data, replace(config, delta_star=0.0),
                   (np.zeros((data.dim, data.dim)), 0.0, _PENALTY_INIT))


def fit(data: Dataset, config: FitConfig = FitConfig(), *,
        warm_start: FitResult) -> FitResult:
    """Joint structure learning and feature selection.

    Every fit starts from ``warm_start``, a selection-free fit of the same
    data (``fit_baseline``'s), at its raw graph and its last ``lambda1``
    and ``c``.  The argument is required.  A warm start that is not a
    ``FitResult`` or has no ``diagnostics`` rows, a selective fit
    (``config.delta_star`` not 0) or a fit of data with another ``dim``,
    ``outcome_index`` or ``labels`` is a ``ValueError``.
    When the warm start is nearly acyclic, the selection rule runs on it
    before the first solve, and its drops are recorded in step 0's
    ``dropped``; the fit then solves at the tolerance rule's value at the
    gate, and counts the masked warm start as a settled step, so a
    first solve that keeps its pruned support ends the fit.  The reference
    score is ``config.delta_star`` when given, else the effect mass of the
    warm start's pruned graph, and stays frozen for the constrained run; the
    result's ``config.delta_star`` records it.  A reference score of 0,
    resolved or given, is a ``ValueError``, raised before any solve: no
    feature's effect reaches the outcome in the reference graph, so there
    is nothing to select against.  The fit stops by ``fit_baseline``'s
    rule, with ``|h2|`` within the cutoff.
    """
    if not isinstance(warm_start, FitResult):
        raise ValueError("warm_start must be a FitResult, got "
                         f"{type(warm_start).__name__}")
    if not warm_start.diagnostics:
        raise ValueError("warm_start has no diagnostics rows, so it has "
                         "no lambda1 and c to start from")
    if warm_start.config.delta_star != 0:
        raise ValueError("warm_start must be a selection-free fit "
                         "(config.delta_star 0), got config.delta_star "
                         f"{warm_start.config.delta_star!r}")
    raw = warm_start.raw_graph
    for name, theirs, ours in (
            ("dim", raw.dim, data.dim),
            ("outcome_index", raw.outcome_index, data.outcome_index),
            ("labels", raw.labels, data.labels)):
        if theirs != ours:
            raise ValueError(f"warm_start does not match the data: its "
                             f"{name} is {theirs!r}, the data's {ours!r}")
    dstar = config.delta_star
    if dstar is None:
        dstar = _effects.delta_star(data, lambda _: warm_start.graph,
                                    config.effect_kind)
    if dstar == 0:
        raise ValueError("delta_star is 0: no feature's effect reaches the "
                         "outcome in the reference graph, so there is "
                         "nothing to select against")
    last = warm_start.diagnostics[-1]
    return _engine(data, replace(config, delta_star=float(dstar)),
                   (raw.weights, last["lambda1"], last["c"]))
