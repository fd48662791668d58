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
* ``h1(B) = tr[(I + t * B∘B)^dim] - dim`` with ``t = 1/dim``, the
  polynomial of DAG-GNN (Yu et al. 2019), is zero exactly on acyclic
  patterns.  ``t`` is fixed for the whole fit, so the ``h1`` values the
  engine compares across dual steps all come from one function.  Each
  solve starts from an iterate accepted at that ``t``, or from it masked,
  which can only lower ``h1``, so its starting ``h1`` is finite; a trial
  point where ``h1`` overflows is rejected by the line search.
* ``h2(B; g) = delta_star - sum_i |CE_i(B)| + sum_j |B[outcome, j]|``
  compares the absolute causal-effect mass of the active features against
  the all-features reference ``delta_star`` and penalizes edges out of the
  outcome.  ``CE`` is the total or the direct effect, per configuration;
  ``_effect_parts`` is the one place that picks it, for ``h2`` and for the
  selection rule alike.  The total effect is the outcome column of
  ``(I - B)^-1`` (as in ``effects.total_effects``): exact on acyclic
  patterns and defined wherever ``I - B`` is invertible; a trial point
  where it is not is rejected by the line search, like an ``h1`` overflow.

The feature mask ``g`` shrinks monotonically: once the iterate is nearly
acyclic, every feature whose pruned-graph effect is at most the cutoff
``selection_tolerance * delta_star``, and whose unpruned effect is at most
``max(cutoff, prune_threshold)``, is deactivated (rows and columns clamped
to zero).  The rule runs after each solve and, on a warm start that already
passes the ``h1`` gate, once before the first solve, so that solve runs
only on the surviving features; both go through one step of ``_engine``
that masks the iterate when a feature went.  Drops before the first solve
are recorded in step 0's ``dropped``.  The outcome row is kept at zero by
projection throughout.  Each inner minimization is L-BFGS with an Armijo
backtracking line search over the free entries (as in NOTEARS, Zheng et al.
2018); a step is taken only when it lowers the objective, so no inner solve
ever increases it.  At the problem sizes here an iteration is
bound by numpy call overhead, so the solve works on the flat vector of free
entries and takes each direction from the inner products of its stored
vectors (``_two_loop``) in a few dense calls.  A solve stops once a step
lowers the objective by less than ``_FTOL`` relative (SciPy L-BFGS-B's
test), instead of crawling to the rounding floor.  The selection-free fit
loosens that test while it is far from acyclic: its solve at each dual step
stops at ``max(_FTOL, min(_FTOL_PER_H1, _FTOL_PER_H1 * h1))`` with ``h1``
the previous step's (so ``_FTOL_PER_H1`` at step 0, and ``_FTOL`` once
``h1 <= _FTOL / _FTOL_PER_H1``), since only its last subproblems decide the
answer (inexact augmented Lagrangian; Conn, Gould & Toint 1991).  Selective
solves feed the selection rule, which cannot undo a drop, and always stop at
``_FTOL``.  Every ``diagnostics``
row records why its solve stopped and how many objective evaluations it
spent, and the engine evaluates the objective nowhere else except after a
deactivation; its ``f`` is in data units, its ``objective_start`` and
``objective_end`` in the rescaled units.  Once every unmet constraint's
penalty is capped, a fit ends after three dual steps without progress,
unconverged.

Every fit has one stop rule.  It converges when a step's solve meets both
tolerances (``h1 <= _H1_TOL``, ``|h2| <= _H2_TOL``) and its selection drops
nothing, or once it has settled: two dual steps in a row end with ``h1 <=
SELECTION_H1_GATE``, ``|h2|`` at most the selection cutoff and no drop, and
share one support ``|w| > prune_threshold`` whose pruned graph is acyclic.
The selection-free fit has cutoff 0 and ``h2 = 0``; a fit that dropped
every feature has ``h2 = delta_star``, above the cutoff as
``selection_tolerance < 1``, so it never settles.  In measured s1, s2, s4
and s5 fits the selection and pruned graph no longer changed from there;
later steps only pushed ``h1`` and ``h2`` toward their tolerances at
penalties up to 1e13, the ill-conditioned subproblems of the
quadratic-penalty regime (Ng et al., AISTATS 2022).  So a fit's last
``diagnostics`` row may show ``h1 > _H1_TOL`` and ``|h2| > _H2_TOL``; a fit
warm-started from a baseline starts at its last ``lambda1`` and ``c``.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import effects as _effects
from .graph import (WeightedDag, is_finite_number, is_integer,
                    outcome_position, prune, topological_order)
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

# a selection-free solve's relative-decrease stop per unit of the previous
# step's h1 (capped at this value, floored at _FTOL; see the module docstring)
_FTOL_PER_H1 = 1e-3


@dataclass(frozen=True)
class FitConfig:
    """The settings a caller may choose; everything else is engine constants.

    ``prune_threshold`` is the edge threshold of the returned graph.
    ``selection_tolerance`` scales the deactivation cutoff relative to the
    reference score, below 1; with the subset selector realized as
    monotone shrinkage the size pressure comes from that cutoff.
    ``max_dual_steps`` caps the dual-ascent steps of a fit and
    ``max_inner_iter`` the accepted L-BFGS steps of each inner solve.
    ``delta_star`` may hold a precomputed reference score; None means
    compute it from a pruned selection-free fit of the same data.  The
    thresholds and ``delta_star`` must be finite and nonnegative, the step
    caps integers (numpy integers included, bools not).

    The penalty schedule, ``h1``'s ``t = 1/dim`` and the inner-solve
    constants (``_STEP_SIZE``, ``_GRAD_TOL``, ``_FTOL`` and the baseline's
    ``_FTOL_PER_H1``) are fixed by the engine; see the module docstring.
    """

    effect_kind: str = "te"
    prune_threshold: float = 0.3
    selection_tolerance: float = 0.01
    max_dual_steps: int = 100
    max_inner_iter: int = 500
    delta_star: float | None = None

    def __post_init__(self):
        if self.effect_kind not in _effects.EFFECT_KINDS:
            raise ValueError("effect_kind must be 'te' or 'de'")
        for name in ("prune_threshold", "selection_tolerance", "delta_star"):
            value = getattr(self, name)
            if name == "delta_star" and value is None:
                continue
            if not is_finite_number(value) or value < 0:
                raise ValueError(f"{name} must be a finite nonnegative number, "
                                 f"got {value!r}")
        if self.selection_tolerance >= 1:
            raise ValueError("selection_tolerance must be below 1, got "
                             f"{self.selection_tolerance!r}")
        for name in ("max_dual_steps", "max_inner_iter"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, "
                                 f"got {value!r}")


# the keys of a ``FitResult.diagnostics`` row, one row per dual step, in the
# column order of a fit directory's diagnostics.csv
DIAGNOSTIC_FIELDS = ("step", "f", "h1", "h2", "lambda1", "lambda2", "c", "d",
                     "t", "inner_iterations", "stop_reason", "evaluations",
                     "objective_start", "objective_end", "n_active", "dropped")


@dataclass(frozen=True)
class FitResult:
    """Learned graph, the selected feature mask, and the optimization trace.

    ``converged`` says the last dual step met the fit's stop rule (see the
    module docstring); a settled fit is converged though its last
    ``diagnostics`` row may show ``h1 > _H1_TOL`` or ``|h2| > _H2_TOL``.
    """

    graph: WeightedDag
    raw_graph: WeightedDag
    selected: np.ndarray
    diagnostics: tuple
    delta_star_used: float
    converged: bool
    config: FitConfig = field(repr=False)


# ---------------------------------------------------------------------------
# kernels: the objective pieces the engine evaluates, shared by the public API


def _centered_gram(data: Dataset) -> np.ndarray:
    """``X_c^T X_c / n`` for the column-centered data ``X_c``.

    Column means act as implicit intercepts: the noise need not be centered.
    """
    centered = data.values - data.values.mean(axis=0)
    return centered.T @ centered / data.n


def _ls(w: np.ndarray, gram: np.ndarray, cols: np.ndarray, eye: np.ndarray):
    """``0.5 tr[(I - B)_cols^T gram (I - B)_cols]`` and its gradient."""
    if len(cols) == len(w):  # every column active: no index copies
        rc = eye - w
        gr = gram @ rc
        return 0.5 * float((rc * gr).sum()), -gr
    rc = eye[:, cols] - w[:, cols]
    gr = gram @ rc
    loss = 0.5 * float((rc * gr).sum())
    grad = np.zeros_like(w)
    grad[:, cols] = -gr
    return loss, grad


def _matpow(a: np.ndarray, n: int) -> np.ndarray:
    """``a^n`` for ``n >= 1``, multiplied in ``np.linalg.matrix_power``'s
    order (so bit-identical to it) without its per-call validation."""
    if n == 3:
        return (a @ a) @ a
    z = result = None
    while n > 0:
        z = a if z is None else z @ z
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def _h1(w: np.ndarray, t: float, eye: np.ndarray):
    """``tr[(I + t B∘B)^dim] - dim`` and its gradient."""
    dim = w.shape[0]
    m = eye + t * (w * w)
    p_minor = _matpow(m, dim - 1)
    value = float((p_minor @ m).trace() - dim)
    if not math.isfinite(value):
        raise FloatingPointError("acyclicity value overflowed")
    grad = (dim * t * 2.0) * p_minor.T * w
    return value, grad


def _te_parts(w: np.ndarray, outcome: int, eye: np.ndarray):
    """Total-effect vector, the outcome column of ``(I - B)^-1`` with the
    outcome's own entry zeroed, plus that inverse for the Jacobian.

    Exact on acyclic patterns (``B`` is nilpotent, so the inverse is the
    finite path sum) and defined wherever ``I - B`` is invertible.  A
    singular ``I - B`` or a non-finite inverse raises ``FloatingPointError``,
    which the line search treats as a rejected trial.
    """
    try:
        m = np.linalg.inv(eye - w)
    except np.linalg.LinAlgError:
        raise FloatingPointError("I - B is singular") from None
    if not np.isfinite(m).all():
        raise FloatingPointError("(I - B)^-1 is not finite")
    te = m[:, outcome].copy()
    te[outcome] = 0.0
    return te, m


def _effect_parts(w: np.ndarray, outcome: int, kind: str, eye: np.ndarray):
    """Effect vector ``CE`` of every node on the outcome, plus ``(I - B)^-1``
    for the total effect's Jacobian (None for the direct effect, whose
    Jacobian is a column selection)."""
    if kind == "de":
        return w[:, outcome], None
    return _te_parts(w, outcome, eye)


def _h2(w: np.ndarray, outcome: int, feature_active: np.ndarray, kind: str,
        delta_star: float, eye: np.ndarray):
    """``delta_star - sum_active |CE_i| + sum_j |B[outcome, j]|`` and its
    subgradient, with CE the total (``te``) or direct (``de``) effect.

    A non-finite subgradient (a finite total effect can have an overflowing
    Jacobian) raises ``FloatingPointError``, a rejected trial to the line
    search, as in ``_te_parts``.
    """
    ce, m = _effect_parts(w, outcome, kind, eye)
    signs = np.where(feature_active, np.sign(ce), 0.0)
    value = (delta_star - float(np.abs(ce * signs).sum())
             + float(np.abs(w[outcome, :]).sum()))
    if m is None:
        grad = np.zeros_like(w)
        grad[:, outcome] = -signs
    else:  # d TE_i / d B[a, b] = M[i, a] M[b, outcome]
        grad = -((m.T @ signs)[:, None] * m[:, outcome])
    grad[outcome, :] += np.sign(w[outcome, :])
    if not np.isfinite(grad).all():
        raise FloatingPointError("relevance gradient is not finite")
    return value, grad


# ---------------------------------------------------------------------------
# public single-shot operations


def _h1_checked(g: WeightedDag, t: float):
    if t <= 0:
        raise ValueError("t must be positive")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _h1(g.weights, t, np.eye(g.dim))
    except FloatingPointError:
        raise ValueError("acyclicity value overflowed; decrease t") from None


def acyclicity_value(g: WeightedDag, t: float) -> float:
    """Trace-power acyclicity score; zero exactly when the pattern is a DAG."""
    return _h1_checked(g, t)[0]


def acyclicity_gradient(g: WeightedDag, t: float) -> np.ndarray:
    """Analytic gradient ``dim * t * [(I + t B∘B)^(dim-1)]^T ∘ 2B``."""
    return _h1_checked(g, t)[1]


def least_squares_loss(B: np.ndarray, data: Dataset, mask: np.ndarray):
    """Scaled residual ``(1/2n) ||W - B^T W||_F^2`` over the masked columns.

    ``W`` is the column-centered data, as in the fit, so at a fit's raw
    graph this is the ``f`` of its last ``diagnostics`` row.

    The gradient is zeroed on the outcome row and on unselected rows and
    columns.  ``mask`` is a boolean vector over nodes and must include the
    outcome column.
    """
    w = np.asarray(B, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if data.n == 0:
        raise ValueError("dataset is empty")
    if not mask[data.outcome_index]:
        raise ValueError("mask must include the outcome column")
    loss, grad = _ls(w, _centered_gram(data), np.flatnonzero(mask),
                     np.eye(w.shape[0]))
    grad[~mask, :] = 0.0
    grad[:, ~mask] = 0.0
    grad[data.outcome_index, :] = 0.0
    return loss, grad


def relevance_constraint(B: np.ndarray, mask: np.ndarray, effect_kind: str,
                         delta_star: float, outcome_index: int = -1):
    """Value and subgradient of the causal-relevance constraint.

    ``value = delta_star - sum_{i in mask} |CE_i(B)| + sum_j |B[outcome, j]|``
    where CE is the direct effect or the total effect, the outcome column of
    ``(I - B)^-1``: exact on DAGs and defined wherever ``I - B`` is
    invertible; a singular ``I - B`` is a ``ValueError``.  The subgradient
    of ``|x|`` at 0 is taken to be 0.
    """
    if effect_kind not in _effects.EFFECT_KINDS:
        raise ValueError("effect_kind must be 'te' or 'de'")
    w = np.asarray(B, dtype=float)
    dim = w.shape[0]
    outcome = outcome_position(outcome_index, dim)
    feature_active = np.asarray(mask, dtype=bool).copy()
    feature_active[outcome] = False
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _h2(w, outcome, feature_active, effect_kind, delta_star,
                       np.eye(dim))
    except FloatingPointError as exc:
        raise ValueError(f"total effects undefined: {exc}") from None


# ---------------------------------------------------------------------------
# engine


def _free_mask(active: np.ndarray, outcome: int) -> np.ndarray:
    free = np.outer(active, active).astype(float)
    free[outcome, :] = 0.0
    np.fill_diagonal(free, 0.0)
    return free


class _Objective:
    """Augmented-Lagrangian value and gradient at fixed multipliers and mask.

    The inner loop calls this tens of thousands of times, so the identity
    matrix, active-column index, and projection mask are cached up front and
    the kernels are called directly rather than through the validating
    public single-shot operations.
    """

    def __init__(self, gram, outcome, active, t, lam1, c, relevance,
                 lam2, d_pen, kind, delta_star):
        self.gram = gram
        self.outcome = outcome
        self.feature_active = active.copy()
        self.feature_active[outcome] = False
        self.cols = np.flatnonzero(active)
        self.free = _free_mask(active, outcome)
        self.eye = np.eye(gram.shape[0])
        self.t = t
        self.lam1, self.c = lam1, c
        self.relevance = relevance
        self.lam2, self.d_pen = lam2, d_pen
        self.kind = kind
        self.delta_star = delta_star

    def __call__(self, w: np.ndarray):
        f, grad = _ls(w, self.gram, self.cols, self.eye)
        h1v, gh1 = _h1(w, self.t, self.eye)
        total = f + self.lam1 * h1v + self.c * h1v * h1v
        grad += (self.lam1 + 2.0 * self.c * h1v) * gh1
        h2v = 0.0
        if self.relevance:
            h2v, gh2 = _h2(w, self.outcome, self.feature_active, self.kind,
                           self.delta_star, self.eye)
            total += self.lam2 * h2v + self.d_pen * h2v * h2v
            grad += (self.lam2 + 2.0 * self.d_pen * h2v) * gh2
        grad *= self.free
        return total, grad, f, h1v, h2v


def _two_loop(basis: np.ndarray, pairs: list) -> np.ndarray:
    """The L-BFGS direction ``-H g``, from inner products alone.

    ``basis`` holds the steps ``s`` in rows ``[0, m)``, the gradient changes
    ``y`` in rows ``[m, 2m)`` and the gradient ``g`` in its last row;
    ``pairs`` lists ``(slot, 1 / s.y)`` oldest first for the slots in use,
    and ``H`` is the two-loop inverse Hessian of those pairs with the
    ``s.y / y.y`` scaling of the newest.  Every vector of the recursion is a
    combination of the rows, so it runs on their coefficients: one Gram
    matrix, the recursion on Python floats, and one combination of the rows
    (vector-free L-BFGS; Chen, Wang & Zhou 2014).
    """
    m = len(basis) // 2
    gram = (basis @ basis.T).tolist()
    newest_first = [slot for slot, _ in reversed(pairs)]
    # q = g - sum_j a_j y_j, the a_j = rho_j s_j.q taken newest first; the
    # sums run left to right in explicit loops, so the rounding does not
    # depend on how a Python version implements ``sum``
    alphas = []
    for slot, rho in reversed(pairs):
        row = gram[slot]
        acc = 0.0
        for j, a in zip(newest_first, alphas):
            acc += a * row[m + j]
        alphas.append(rho * (row[-1] - acc))
    newest = newest_first[0]
    gamma = gram[newest][m + newest] / gram[m + newest][m + newest]
    # r = gamma q + sum_j b_j s_j, the b_j = a_j - rho_j y_j.r taken
    # oldest first
    betas = []
    for (slot, rho), a in zip(pairs, reversed(alphas)):
        row = gram[m + slot]
        acc = 0.0
        for j, aj in zip(newest_first, alphas):
            acc += aj * row[m + j]
        yr = gamma * (row[-1] - acc)
        acc = 0.0
        for (j, _), b in zip(pairs, betas):
            acc += b * row[j]
        betas.append(a - rho * (yr + acc))
    coef = [0.0] * len(basis)
    coef[-1] = -gamma
    for j, a in zip(newest_first, alphas):
        coef[m + j] = gamma * a
    for (j, _), b in zip(pairs, betas):
        coef[j] = -b
    return np.array(coef) @ basis


class _Solve(NamedTuple):
    """How an inner solve went, beyond its iterate and final objective."""

    evaluations: int
    objective_start: float
    h1: float
    h2: float


# an overflowing trial is rejected by the line search (see below), so numpy
# need not warn about it; the state is set once per solve, not per evaluation
@np.errstate(over="ignore", invalid="ignore")
def _lbfgs_minimize(w0: np.ndarray, objective: _Objective, step_size: float,
                    max_iter: int, grad_tol: float, ftol: float = 0.0):
    """Deterministic L-BFGS with Armijo backtracking on the free entries.

    The solve runs on the vector of the entries where ``objective.free`` is
    nonzero; every trial point is scattered into a fresh zero matrix, so
    masked entries of the iterate are exactly zero.  Directions come from
    the two-loop recursion over the last ``_LBFGS_MEMORY`` curvature pairs
    (``_two_loop``); a pair is kept only when ``s.y > 1e-10 |s||y|``, so the
    implied inverse Hessian stays positive definite.  Without pairs (the
    first step, and after a reset) the direction is the gradient scaled so
    that its largest entry is ``step_size``.  Every accepted step satisfies
    the Armijo condition and lowers the objective.  A line search that fails
    empties the memory and retries once from the scaled gradient; if that
    fails too, the solve stops.  An accepted step that lowers the objective
    from ``prev`` to ``total`` by no more than
    ``ftol * max(|prev|, |total|, 1)`` also ends the solve; the default
    ``ftol = 0`` never does, so the solve runs to the gradient tolerance or
    the rounding floor.  With no free entries the solve stops at once on
    the gradient tolerance.

    Returns the final iterate and objective, the accepted steps, why the
    solve stopped (``"grad_tol"``, ``"ftol"``, ``"max_inner_iter"`` or
    ``"no_descent"``) and a ``_Solve``: the number of objective
    evaluations, the objective at the start, and ``h1`` and ``h2`` at the
    final iterate, all taken from the solve's own evaluations.
    """
    idx = np.flatnonzero(objective.free)
    memory = _LBFGS_MEMORY
    basis = np.zeros((2 * memory + 1, idx.size))
    grad = basis[-1]  # the gradient on the free entries, a view

    def evaluate(x):
        w = np.zeros(w0.shape)
        w.ravel()[idx] = x
        return w, objective(w)

    x = w0.take(idx)
    w, current = evaluate(x)
    start = total = current[0]
    grad[:] = current[1].take(idx)
    evaluations = 1
    pairs = []  # (slot, 1 / s.y), oldest first
    it = 0

    def done(reason):
        return w, total, it, reason, _Solve(evaluations, start, current[3],
                                            current[4])

    while True:
        grad_max = np.abs(grad).max(initial=0.0)
        if grad_max <= grad_tol:
            return done("grad_tol")
        if it >= max_iter:
            return done("max_inner_iter")
        if pairs:
            direction = _two_loop(basis, pairs)
        else:
            direction = grad * (-step_size / grad_max)
        slope = grad @ direction
        alpha = 1.0
        accepted = None
        # a direction that does not descend (possible only by rounding)
        # counts as a failed line search
        for _ in range(_LBFGS_HALVINGS if slope < 0 else 0):
            trial_x = x + alpha * direction
            try:
                trial_w, trial = evaluate(trial_x)
            except FloatingPointError:  # h1 overflowed or I - B singular
                trial = None
            evaluations += 1
            # the strict test matters once c1*alpha*slope is below the
            # rounding of ``total``: a step must still lower the objective
            if (trial is not None and trial[0] < total
                    and trial[0] <= total + _ARMIJO_C1 * alpha * slope):
                accepted = trial
                break
            alpha *= 0.5
        if accepted is None:
            if not pairs:
                return done("no_descent")
            pairs.clear()
            continue
        step = trial_x - x
        new_grad = accepted[1].take(idx)
        change = new_grad - grad
        sy = step @ change
        if sy > 1e-10 * math.sqrt((step @ step) * (change @ change)):
            # a full memory overwrites the oldest pair's rows; below it the
            # slots in use are exactly 0 .. len(pairs) - 1
            slot = pairs.pop(0)[0] if len(pairs) == memory else len(pairs)
            basis[slot] = step
            basis[memory + slot] = change
            pairs.append((slot, 1.0 / sy))
        grad[:] = new_grad
        prev = total
        x, w, current, total = trial_x, trial_w, accepted, accepted[0]
        it += 1
        if prev - total <= ftol * max(abs(prev), abs(total), 1.0):
            return done("ftol")


def _pruned_dag(w: np.ndarray, threshold: float) -> np.ndarray | None:
    """``w`` with every entry ``|w| <= threshold`` zeroed, or None when that
    pruned pattern is cyclic."""
    pruned = np.where(np.abs(w) > threshold, w, 0.0)
    return None if topological_order(pruned) is None else pruned


def _selection_update(w, active, outcome, config, cutoff):
    """Deactivate every active feature whose effect is at most ``cutoff``
    (the fit's ``selection_tolerance * delta_star``); return them smallest
    effect first (ties by index), or ``[]`` when the pruned pattern is cyclic.

    Effects are read off the pruned current iterate so that sub-threshold
    noise edges cannot keep a feature alive.  A feature whose unpruned
    effect exceeds ``max(cutoff, prune_threshold)`` is spared: a borderline
    true edge dipping under the prune threshold for one round must not
    eliminate its source for good (deactivation is monotone).
    """
    pruned = _pruned_dag(w, config.prune_threshold)
    if pruned is None:
        return []
    eye = np.eye(w.shape[0])
    ce = np.abs(_effect_parts(pruned, outcome, config.effect_kind, eye)[0])
    raw = np.abs(_effect_parts(w, outcome, config.effect_kind, eye)[0])
    guard = max(cutoff, config.prune_threshold)
    dropped = sorted((int(i) for i in np.flatnonzero(active) if i != outcome
                      and ce[i] <= cutoff and raw[i] <= guard),
                     key=lambda i: (ce[i], i))
    active[dropped] = False
    return dropped


def _engine(data: Dataset, config: FitConfig, *, relevance: bool,
            init: tuple | None = None) -> FitResult:
    dim = data.dim
    outcome = data.outcome_index
    if data.n < 2 or dim < 2:
        # one row has a zero centered gram: every fit would "converge" empty
        raise ValueError("dataset must have at least 2 rows and 2 columns")
    delta_star_value = config.delta_star if relevance else 0.0
    cutoff = config.selection_tolerance * delta_star_value
    # fit on a unit-free gram: a uniform rescale of the data leaves the
    # constrained minimiser unchanged, while the penalty schedule and the
    # solver tolerances are absolute.  All-constant data (mean variance 0)
    # keep their zero gram and fit to the empty graph.
    data_gram = _centered_gram(data)
    scale = float(np.diag(data_gram).mean())
    gram = data_gram / scale if scale > 0 else data_gram

    if init is None:
        w = np.zeros((dim, dim))
        lam1 = 0.0
        c = _PENALTY_INIT
    else:
        w, lam1, c = init
        w = w.copy()
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

    def select(w):
        """Apply the selection rule to ``w``; mask it if a feature went."""
        dropped = _selection_update(w, active, outcome, config, cutoff)
        return (w * _free_mask(active, outcome) if dropped else w), dropped

    def objective_now():
        return _Objective(gram, outcome, active, t, lam1, c, relevance, lam2,
                          d_pen, config.effect_kind, delta_star_value)

    for step in range(config.max_dual_steps):
        dropped = []
        # a warm start that is already nearly acyclic gets the selection rule
        # before its first solve, so that solve runs only on the survivors;
        # the zero start has no effects to select on
        if (step == 0 and relevance and init is not None
                and _h1(w, t, np.eye(dim))[0] <= SELECTION_H1_GATE):
            w, dropped = select(w)
        objective = objective_now()
        ftol = (_FTOL if relevance
                else max(_FTOL, min(_FTOL_PER_H1, _FTOL_PER_H1 * h1_prev)))
        w, obj_end, inner_iters, stop_reason, solve = _lbfgs_minimize(
            w, objective, _STEP_SIZE, config.max_inner_iter, _GRAD_TOL, ftol)
        h1v, h2v = solve.h1, solve.h2

        late = []  # the drops after this step's solve
        if relevance and h1v <= SELECTION_H1_GATE:
            w, late = select(w)
            if late:
                dropped += late
                objective = objective_now()
                _, _, _, h1v, h2v = objective(w)

        # ``f`` in data units, computed (not rescaled back) so that it equals
        # the public ``least_squares_loss`` at the fit's raw graph
        f_val = _ls(w, data_gram, objective.cols, objective.eye)[0]
        diagnostics.append({
            "step": step, "f": f_val, "h1": h1v, "h2": h2v,
            "lambda1": lam1, "lambda2": lam2, "c": c, "d": d_pen, "t": t,
            "inner_iterations": inner_iters, "stop_reason": stop_reason,
            "evaluations": solve.evaluations,
            "objective_start": solve.objective_start,
            "objective_end": obj_end,
            "n_active": int(active.sum()) - 1, "dropped": tuple(dropped),
        })

        # a baseline solve reports h2 = 0: it is feasible for h2 and leaves
        # lambda2 and d untouched
        ok1 = h1v <= _H1_TOL
        ok2 = abs(h2v) <= _H2_TOL
        # a fit also ends once two steps in a row settle on one pruned DAG
        support = None
        if h1v <= SELECTION_H1_GATE and abs(h2v) <= cutoff and not late:
            pruned = _pruned_dag(w, config.prune_threshold)
            support = None if pruned is None else pruned != 0
        settled = support is not None and np.array_equal(support, support_prev)
        support_prev = support
        if (ok1 and ok2 and not late) or settled:
            converged = True
            break

        lam1 = min(lam1 + 2.0 * c * h1v, cap)
        lam2 = float(np.clip(lam2 + 2.0 * d_pen * h2v, -cap, cap))
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

    w = w * _free_mask(active, outcome)
    raw = WeightedDag(w, data.labels, outcome)
    features = [i for i in range(dim) if i != outcome]
    return FitResult(
        graph=prune(raw, config.prune_threshold),
        raw_graph=raw,
        selected=active[features].copy(),
        diagnostics=tuple(diagnostics),
        delta_star_used=float(delta_star_value),
        converged=converged,
        config=config,
    )


def fit_baseline(data: Dataset, config: FitConfig = FitConfig()) -> FitResult:
    """Selection-free structural fit: the relevance machinery is disabled.

    The fit ends, converged, once two dual steps in a row have ``h1 <=
    SELECTION_H1_GATE`` and one acyclic support ``|w| > prune_threshold``
    (or once ``h1 <= _H1_TOL``): the one stop rule of every fit, with cutoff
    and ``h2`` 0.  So its last ``h1`` may still be above ``_H1_TOL``.
    """
    return _engine(data, config, relevance=False)


def fit(data: Dataset, config: FitConfig = FitConfig(),
        warm_start: FitResult | None = None) -> FitResult:
    """Joint structure learning and feature selection.

    ``warm_start``, a selection-free fit of the same data, sets the starting
    point and multipliers of the constrained run; a fit of data with another
    ``dim``, ``outcome_index`` or ``labels`` is a ``ValueError``.  When the
    warm start is nearly acyclic, the selection rule runs on it before the
    first solve, and its drops are recorded in step 0's ``dropped``.  When
    ``config.delta_star`` is None the reference score is the effect mass of
    that fit's pruned graph, and without ``warm_start`` the fit is computed
    here with ``fit_baseline`` and serves as the warm start.  The score is
    then frozen for the constrained run.  Given ``delta_star`` and no
    ``warm_start``, the run starts from the empty graph, where nothing is
    selected before the first solve.  A reference score of 0, resolved or
    given, is a ``ValueError``: no feature's effect reaches the outcome in
    the reference graph, so there is nothing to select against.  The fit
    stops by ``fit_baseline``'s rule, with ``|h2|`` within the cutoff.
    """
    if warm_start is not None:
        raw = warm_start.raw_graph
        for name, theirs, ours in (
                ("dim", raw.dim, data.dim),
                ("outcome_index", raw.outcome_index, data.outcome_index),
                ("labels", raw.labels, data.labels)):
            if theirs != ours:
                raise ValueError(f"warm_start does not match the data: its "
                                 f"{name} is {theirs!r}, the data's {ours!r}")
    if warm_start is None and config.delta_star is None:
        warm_start = fit_baseline(data, config)
    dstar = config.delta_star
    if dstar is None:
        dstar = _effects.delta_star(data, lambda _: warm_start.graph,
                                    config.effect_kind)
    if dstar == 0:
        raise ValueError("delta_star is 0: no feature's effect reaches the "
                         "outcome in the reference graph, so there is "
                         "nothing to select against")
    init = None
    if warm_start is not None:
        last = warm_start.diagnostics[-1]
        init = (warm_start.raw_graph.weights, last["lambda1"], last["c"])
    resolved = replace(config, delta_star=float(dstar))
    return _engine(data, resolved, relevance=True, init=init)
