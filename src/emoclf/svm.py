"""L2-regularized linear SVMs on sparse rows, trained by dual coordinate descent.

The solver optimizes the dual of

    min_w  0.5 ||w||^2 + C * sum_i loss(1 - y_i w.x_i)

one multiplier at a time: each outer sweep visits the instances in a fresh
seeded permutation, takes the closed-form clipped Newton step on alpha_i, and
updates ``w = sum_i alpha_i y_i x_i`` incrementally.  L1 hinge boxes alpha
into [0, C]; L2 hinge leaves it unbounded above and adds 1/(2C) to the
diagonal.  The sweep stops when the largest projected-gradient violation
falls below ``eps``.  No shrinking heuristic: at this scale it buys little
and every step stays exactly monotone in the dual objective, which the
optional monitor asserts.

The bias is feature augmentation: every row gets a trailing constant-1
component, so ``w``'s last slot is the intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation, DegenerateClass, DimensionError, NumericError
from .features import FeatureMatrix

L1_HINGE = "l1"
L2_HINGE = "l2"

_W_CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class SolverParams:
    eps: float = 0.1
    max_outer_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ContractViolation("eps must be positive and finite")
        if self.max_outer_iters < 1:
            raise ContractViolation("max_outer_iters must be at least 1")


@dataclass
class TrainingMonitor:
    """Optional per-step audit: exact dual-objective bookkeeping.

    ``dual_objective`` tracks the analytic per-step increments, so the final
    value equals the dual objective of the returned multipliers up to
    accumulation error.  ``objective_decreases`` counts steps whose increment
    was negative; a correct solver records zero.
    """

    steps: int = 0
    sweeps: int = 0
    objective_decreases: int = 0
    dual_objective: float = 0.0
    trainings: int = 0
    final_alpha: np.ndarray | None = None   # multipliers of the last training

    def record_step(self, gradient: float, delta: float, qdiag: float) -> None:
        self.steps += 1
        gain = -(gradient * delta + 0.5 * qdiag * delta * delta)
        if gain < 0.0:
            self.objective_decreases += 1
        self.dual_objective += gain


@dataclass(frozen=True, eq=False)
class TrainingProblem:
    """Bias-augmented CSR rows with labels and the cost structure."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    y: np.ndarray                  # +1 / -1
    C: float
    loss: str
    dimension: int                 # includes the bias slot
    pos_cost: float = 1.0          # multiplier on C for positive rows

    @property
    def n_rows(self) -> int:
        return len(self.y)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end], self.data[start:end]

    @classmethod
    def from_matrix(
        cls,
        matrix: FeatureMatrix,
        y: Sequence[int],
        C: float,
        loss: str = L2_HINGE,
        pos_cost: float = 1.0,
    ) -> "TrainingProblem":
        """Append the bias column to every row; y > 0 is the positive class.

        Only ``C`` differs between the problems of one cost grid, so build
        once and vary it with ``dataclasses.replace``.
        """
        n = matrix.n_rows
        if len(y) != n or n < 2:
            raise ContractViolation("need at least two rows with matching labels")
        if loss not in (L1_HINGE, L2_HINGE):
            raise ContractViolation(f"unknown loss {loss!r}")
        if not all(math.isfinite(v) and v > 0 for v in (C, pos_cost)):
            raise ContractViolation("C and pos_cost must be positive and finite")

        signs = np.where(np.asarray(y) > 0, 1.0, -1.0)
        if np.all(signs > 0) or np.all(signs < 0):
            raise DegenerateClass("training labels", "both classes must be present")
        finite = np.isfinite(matrix.data)
        if not np.all(finite):
            row = int(np.searchsorted(matrix.indptr, np.argmin(finite), side="right")) - 1
            raise NumericError(f"row {row} contains non-finite feature values")

        raw_dim = matrix.dimension
        indptr = matrix.indptr + np.arange(n + 1)
        bias = indptr[1:] - 1               # trailing bias feature, value 1
        features = np.ones(indptr[-1], dtype=bool)
        features[bias] = False
        indices = np.empty(indptr[-1], dtype=np.int64)
        data = np.empty(indptr[-1], dtype=np.float64)
        indices[features] = matrix.indices
        data[features] = matrix.data
        indices[bias] = raw_dim
        data[bias] = 1.0
        return cls(
            indptr=indptr,
            indices=indices,
            data=data,
            y=signs,
            C=float(C),
            loss=loss,
            dimension=raw_dim + 1,
            pos_cost=float(pos_cost),
        )


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Dense weights (bias in the last slot) plus training metadata.

    ``sweeps``, ``final_violation`` and ``converged`` describe the solve that
    produced the weights; they are None for a model loaded from a bundle,
    which does not record them.
    """

    w: np.ndarray
    loss: str
    seed: int = 0
    sweeps: int | None = None
    final_violation: float | None = None   # largest projected gradient, last sweep
    converged: bool | None = None          # final_violation < eps


def _bounds_and_diag(problem: TrainingProblem) -> tuple[np.ndarray, np.ndarray]:
    n = problem.n_rows
    costs = problem.C * np.where(problem.y > 0, problem.pos_cost, 1.0)
    if problem.loss == L1_HINGE:
        upper = costs
        dcoef = np.zeros(n)
    else:
        upper = np.full(n, np.inf)
        dcoef = 1.0 / (2.0 * costs)
    return upper, dcoef


def train_dual_cd(
    problem: TrainingProblem,
    params: SolverParams,
    monitor: TrainingMonitor | None = None,
) -> LinearModel:
    """Run dual coordinate descent to the requested tolerance.

    Deterministic: the sweep permutations come from a PRNG seeded with
    ``params.seed``, and identical inputs reproduce ``w`` bit for bit.
    """
    n = problem.n_rows
    indptr, indices, data, y = problem.indptr, problem.indices, problem.data, problem.y
    upper, dcoef = _bounds_and_diag(problem)

    qdiag = np.empty(n)
    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        row = data[start:end]
        qdiag[i] = row @ row + dcoef[i]

    w = np.zeros(problem.dimension)
    alpha = np.zeros(n)
    rng = np.random.RandomState(params.seed & 0xFFFFFFFF)

    if monitor is not None:
        monitor.trainings += 1

    max_violation = 0.0
    for sweeps in range(1, params.max_outer_iters + 1):
        order = rng.permutation(n)
        max_violation = 0.0
        for i in order:
            start, end = indptr[i], indptr[i + 1]
            cols = indices[start:end]
            vals = data[start:end]
            gradient = y[i] * (w[cols] @ vals) - 1.0 + dcoef[i] * alpha[i]

            a = alpha[i]
            if a <= 0.0:
                projected = min(gradient, 0.0)
            elif a >= upper[i]:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            if projected != 0.0:
                new_a = min(max(a - gradient / qdiag[i], 0.0), upper[i])
                delta = new_a - a
                if delta != 0.0:
                    alpha[i] = new_a
                    w[cols] += (delta * y[i]) * vals
                    if monitor is not None:
                        monitor.record_step(gradient, delta, qdiag[i])
                violation = abs(projected)
                if violation > max_violation:
                    max_violation = violation
        if monitor is not None:
            monitor.sweeps += 1
        if max_violation < params.eps:
            break

    _check_weight_consistency(problem, alpha, w)
    if monitor is not None:
        monitor.final_alpha = alpha.copy()
    return LinearModel(
        w=w,
        loss=problem.loss,
        seed=params.seed,
        sweeps=sweeps,
        final_violation=float(max_violation),
        converged=bool(max_violation < params.eps),
    )


def _check_weight_consistency(problem: TrainingProblem, alpha: np.ndarray, w: np.ndarray) -> None:
    if not np.all(np.isfinite(w)):
        raise NumericError("weight vector became non-finite during training")
    reference = weights_from_alpha(problem, alpha)
    drift = float(np.max(np.abs(w - reference), initial=0.0))
    if drift > _W_CONSISTENCY_TOL:
        raise NumericError(
            f"incremental weights drifted {drift:.3e} from sum(alpha_i y_i x_i)"
        )


def weights_from_alpha(problem: TrainingProblem, alpha: Sequence[float]) -> np.ndarray:
    """Recompute ``w = sum_i alpha_i y_i x_i`` from scratch."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != (problem.n_rows,):
        raise DimensionError("alpha length must match the number of rows")
    w = np.zeros(problem.dimension)
    for i in range(problem.n_rows):
        if a[i] != 0.0:
            cols, vals = problem.row(i)
            w[cols] += (a[i] * problem.y[i]) * vals
    return w


def dual_objective(alpha: Sequence[float], problem: TrainingProblem) -> float:
    """sum(alpha) - 0.5 * alpha' Qbar alpha, via the weight-vector identity."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != (problem.n_rows,):
        raise DimensionError("alpha length must match the number of rows")
    w = weights_from_alpha(problem, a)
    _, dcoef = _bounds_and_diag(problem)
    quadratic = float(w @ w) + float(dcoef @ (a * a))
    return float(a.sum()) - 0.5 * quadratic


def decision_values(model: LinearModel, rows: FeatureMatrix) -> np.ndarray:
    """w . [x; 1] for every row x; the bias slot is appended automatically."""
    w = model.w
    if rows.dimension != w.shape[0] - 1:
        raise DimensionError(
            f"row dimension {rows.dimension} does not match model "
            f"dimension {w.shape[0] - 1}"
        )
    # One dot per row: a single sparse product would sum in another order and
    # could flip a decision that sits within rounding of zero.
    bias = float(w[-1])
    indices, data = rows.indices, rows.data
    bounds = rows.indptr.tolist()
    return np.array(
        [float(w[indices[a:b]] @ data[a:b]) + bias for a, b in zip(bounds, bounds[1:])],
        dtype=np.float64,
    )


def predict_rows(model: LinearModel, rows: FeatureMatrix) -> np.ndarray:
    """1 where a row's decision value is strictly positive; ties go negative."""
    return (decision_values(model, rows) > 0.0).astype(np.int64)


def predict(model: LinearModel, x: FeatureMatrix) -> int:
    """The 0/1 prediction for a one-row matrix, such as ``FittedExtractor.vectorize``'s."""
    if x.n_rows != 1:
        raise ContractViolation(f"predict scores one row, got {x.n_rows}")
    return int(predict_rows(model, x)[0])
