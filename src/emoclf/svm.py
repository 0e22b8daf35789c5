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

Cross-validation solves many problems that share rows: each fold at every
cost of a grid.  ``solve_folds`` runs consecutive folds together, one numpy
step per coordinate step for every (fold, cost) pair, and each pair ends
where ``train_dual_cd`` would.  The solver state (padded rows, a weight
matrix and a multiplier matrix) grows with the group, so a group takes
folds only while ``state_bytes`` stays within ``LOCKSTEP_STATE_BYTES``.
Single problems, such as final models, run on ``train_dual_cd``.

Scoring takes one dot product per row.  ``stacked_decision_values`` scores
the stacked rows of several models in one pass; ``decision_values`` is its
one-model case.  It works from a ``ModelStack``, the models' weights laid
side by side and their biases, which a caller scoring many blocks with the
same models builds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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

        ``train_dual_cd`` solves at ``C``; ``solve_folds`` ignores it and
        solves at each cost of its grid instead.
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

    _check_weight_consistency(w, weights_from_alpha(problem, alpha))
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


# --- lockstep: many problems, one step at a time ---------------------------

_LOCKSTEP_CHUNK = 64     # sweep steps whose rows are gathered together


# Folds are solved together, each at every cost, in groups whose solver state
# (``state_bytes``) stays within this many bytes.  Wider groups solve faster
# but raise peak memory; the width follows from the input shapes.
LOCKSTEP_STATE_BYTES = 4 * 2**20


def solve_folds(
    problems: Iterable[tuple[TrainingProblem, int]],
    c_values: Sequence[float],
    eps: float,
    max_outer_iters: int,
    monitor: TrainingMonitor | None = None,
) -> Iterator[tuple[int, int, LinearModel]]:
    """Solve every ``(problem, seed)`` at every cost; yield ``(problem index, cost index, model)``.

    A problem's own ``C`` is ignored.  The costs of one problem share its
    rows and its seed, so one numpy step advances every (problem, cost)
    pair, and problem f at cost c ends where ``train_dual_cd(replace(
    problem_f, C=c), SolverParams(eps, max_outer_iters, seed_f))`` does: the
    same sweeps, and weights equal up to the summation order of the row dot
    products (about 1e-15).  Problems are pulled one at a time and packed
    into groups of consecutive ones, each solved once the next problem would
    take its state past ``LOCKSTEP_STATE_BYTES`` or none is left; a group
    holds at least one.  Each model is yielded as its pair stops, so the
    weight vectors do not pile up beside the state.
    """
    if not c_values or not all(math.isfinite(c) and c > 0 for c in c_values):
        raise ContractViolation("costs must be a non-empty run of positive finite values")
    SolverParams(eps=eps, max_outer_iters=max_outer_iters)     # checks the stopping rule
    c_values = tuple(float(c) for c in c_values)
    group: list[TrainingProblem] = []       # emptied as each group is packed
    seeds: list[int] = []
    first = 0                               # index of the group's first problem
    for index, (problem, seed) in enumerate(problems):
        if group and state_bytes(group + [problem], len(c_values)) > LOCKSTEP_STATE_BYTES:
            yield from _Lockstep(group, c_values).run(first, seeds, eps, max_outer_iters, monitor)
            first, seeds = index, []
        group.append(problem)
        seeds.append(seed)
        del problem     # packing empties the group, so its rows can go
    if group:
        yield from _Lockstep(group, c_values).run(first, seeds, eps, max_outer_iters, monitor)


def state_bytes(problems: Sequence[TrainingProblem], n_costs: int) -> int:
    """Bytes of the lockstep solver state for ``problems`` at ``n_costs`` costs.

    That is the padded rows (an int32 index and a float64 value per slot,
    every row as long as the longest), one weight matrix and one multiplier
    matrix, all padded to the largest problem.
    """
    rows, nnz, dimension = _padded_shape(problems)
    return len(problems) * (rows * nnz * 12 + (dimension + rows) * n_costs * 8)


def _padded_shape(problems: Sequence[TrainingProblem]) -> tuple[int, int, int]:
    """Rows, slots per row and dimension that every problem is padded to."""
    return (max(p.n_rows for p in problems),
            max(int(np.diff(p.indptr).max()) for p in problems),
            max(p.dimension for p in problems))


class _Lockstep:
    """Packed rows and solver state of one ``solve_folds`` group."""

    def __init__(self, problems: list[TrainingProblem], c_values: tuple[float, ...]):
        """Pack ``problems``, then empty the list so their CSR rows can go."""
        folds = len(problems)
        self.loss = problems[0].loss
        if any(p.loss != self.loss for p in problems):
            raise ContractViolation("lockstep problems must share one loss")
        self.n_rows = np.array([p.n_rows for p in problems])
        self.dims = [p.dimension for p in problems]
        n, nnz, d = _padded_shape(problems)
        self.rows_per_fold, self.dim_per_fold = n, d

        # Row f*n + i is row i of fold f; its slots index the weight table,
        # whose row f*d + j is feature j of fold f.  Padded slots point at
        # the table's last row with value 0, so that row stays 0.  Values
        # carry the row's sign y_i.  Padded rows get an infinite norm, so
        # their steps are exactly zero.
        self.cols = np.full((folds * n, nnz), folds * d, dtype=np.int32)
        self.vals = np.zeros((folds * n, nnz))
        self.norms = np.full(folds * n, np.inf)     # ||x_i||^2
        self.scale = np.ones(folds * n)             # row i's multiplier on C
        for f in range(folds):
            self._pack(f, problems[f])
        problems.clear()

        self.costs = np.asarray(c_values)           # of the state's columns
        self.cost_of = np.arange(len(c_values))     # state column -> cost index
        self.w = np.zeros((folds * d + 1, len(c_values)))
        self.alpha = np.zeros((folds * n, 1, len(c_values)))
        self.live = np.ones((folds, len(c_values)), dtype=bool)

    def _pack(self, f: int, p: TrainingProblem) -> None:
        n, d = self.rows_per_fold, self.dim_per_fold
        lengths = np.diff(p.indptr)
        row = np.repeat(np.arange(p.n_rows), lengths)
        slot = np.arange(len(p.indices)) - p.indptr[row]
        self.cols[f * n + row, slot] = p.indices + f * d
        self.vals[f * n + row, slot] = p.y[row] * p.data
        bounds = p.indptr.tolist()
        self.norms[f * n:f * n + p.n_rows] = [p.data[a:b] @ p.data[a:b]
                                              for a, b in zip(bounds, bounds[1:])]
        self.scale[f * n:f * n + p.n_rows] = np.where(p.y > 0, p.pos_cost, 1.0)

    def run(self, first: int, seeds: Sequence[int], eps: float, max_sweeps: int,
            monitor: TrainingMonitor | None):
        folds, costs = self.live.shape
        n = self.rows_per_fold
        rngs = [np.random.RandomState(seed & 0xFFFFFFFF) for seed in seeds]
        if monitor is not None:
            monitor.trainings += folds * costs
        for sweep in range(1, max_sweeps + 1):
            active = np.flatnonzero(self.live.any(axis=1))
            order = np.empty((n, len(active)), dtype=np.intp)   # step x fold -> row
            for j, f in enumerate(active):
                m = self.n_rows[f]
                order[:m, j] = rngs[f].permutation(m)
                order[m:, j] = np.arange(m, n)
            order += active * n
            real = np.arange(n)[:, None] < self.n_rows[active]
            violation = np.zeros((len(active), 1, len(self.costs)))
            for start in range(0, n, _LOCKSTEP_CHUNK):
                chunk = slice(start, start + _LOCKSTEP_CHUNK)
                self._steps(active, order[chunk], real[chunk], violation, monitor)

            alive = self.live[active]
            if monitor is not None:
                monitor.sweeps += int(alive.sum())
            violation = violation[:, 0, :]
            stop = alive & ((violation < eps) | (sweep == max_sweeps))
            for j, col in zip(*np.nonzero(stop)):
                f = int(active[j])
                model = self._finish(f, col, seeds[f], sweep, float(violation[j, col]), eps)
                yield first + f, int(self.cost_of[col]), model
            if not self.live.any():
                break
            self._drop_dead_columns()
        if monitor is not None:
            monitor.final_alpha = self._last_alpha

    def _steps(self, active, rows, real, violation, monitor) -> None:
        """One step per row of ``rows`` (steps x folds), at every cost of the state."""
        cols = self.cols[rows]
        vals = self.vals[rows][:, :, None, :]            # (steps, folds, 1, nnz)
        vals_t = vals.transpose(0, 1, 3, 2)              # (steps, folds, nnz, 1)
        # Bounds and curvature per (step, fold, 1, cost), computed as
        # _bounds_and_diag and train_dual_cd do; stopped pairs get an
        # infinite curvature, so their steps are exactly zero.
        row_costs = self.costs * self.scale[rows][:, :, None, None]
        norms = self.norms[rows][:, :, None, None]
        live = self.live[active][None, :, None, :]
        if self.loss == L1_HINGE:
            upper, dcoef = row_costs, None
            qdiag = np.where(live, norms, np.inf)
        else:
            upper, dcoef = None, 1.0 / (2.0 * row_costs)
            qdiag = np.where(live, norms + dcoef, np.inf)
        before = np.empty_like(qdiag)
        gradient = np.empty_like(qdiag)
        delta = np.empty_like(qdiag)
        w, alpha = self.w, self.alpha
        for t in range(len(rows)):
            r, c = rows[t], cols[t]
            wg = w.take(c, axis=0)                       # (folds, nnz, costs)
            a = alpha.take(r, axis=0, out=before[t])
            g = np.subtract(np.matmul(vals[t], wg), 1.0, out=gradient[t])
            if dcoef is not None:
                g += dcoef[t] * a
            new_a = a - g / qdiag[t]
            np.maximum(new_a, 0.0, out=new_a)
            if upper is not None:
                np.minimum(new_a, upper[t], out=new_a)
            d = np.subtract(new_a, a, out=delta[t])
            alpha[r] = new_a
            wg += vals_t[t] * d
            w[c] = wg

        projected = np.where(before <= 0.0, np.minimum(gradient, 0.0), gradient)
        if upper is not None:
            projected = np.where(before >= upper, np.maximum(projected, 0.0), projected)
        projected = np.abs(projected) * real[:, :, None, None]
        np.maximum(violation, projected.max(axis=0), out=violation)
        if monitor is not None:
            moved = delta != 0.0
            d = delta[moved]
            gain = -(gradient[moved] * d + 0.5 * qdiag[moved] * d * d)
            monitor.steps += int(d.size)
            monitor.objective_decreases += int(np.count_nonzero(gain < 0.0))
            monitor.dual_objective += float(gain.sum())

    def _finish(self, f, col, seed, sweeps, violation, eps) -> LinearModel:
        """Read out and check one stopped (fold, cost) pair, and stop it."""
        n, d, dim = self.rows_per_fold, self.dim_per_fold, self.dims[f]
        rows = slice(f * n, f * n + self.n_rows[f])
        w = self.w[f * d:f * d + dim, col].copy()
        alpha = self._last_alpha = self.alpha[rows, 0, col].copy()
        reference = np.bincount((self.cols[rows] - f * d).ravel(),
                                weights=(alpha[:, None] * self.vals[rows]).ravel(),
                                minlength=dim)[:dim]
        _check_weight_consistency(w, reference)
        self.live[f, col] = False
        return LinearModel(w=w, loss=self.loss, seed=seed, sweeps=sweeps,
                           final_violation=violation, converged=violation < eps)

    def _drop_dead_columns(self) -> None:
        keep = self.live.any(axis=0)
        if keep.all():
            return
        self.live = self.live[:, keep]
        self.costs = self.costs[keep]
        self.cost_of = self.cost_of[keep]
        self.w = _compress_in_place(self.w, keep)
        self.alpha = _compress_in_place(self.alpha, keep)


def _compress_in_place(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``a.compress(keep, axis=-1)``, written over ``a``'s own buffer.

    A copy would briefly hold the weight matrix twice, which shows in peak
    memory.  Row r moves to offset r * kept, never past its old offset
    r * width, so a block of rows can be copied out and written back in
    order without touching rows not yet read.  The result is C-contiguous,
    as ``take`` needs to gather rows without copying the whole array.
    """
    rows = a.reshape(-1, a.shape[-1])
    kept = int(np.count_nonzero(keep))
    flat = a.reshape(-1)
    block = 1024
    for start in range(0, len(rows), block):
        part = rows[start:start + block].compress(keep, axis=1)
        flat[start * kept:start * kept + part.size] = part.ravel()
    return flat[:len(rows) * kept].reshape(a.shape[:-1] + (kept,))


def _check_weight_consistency(w: np.ndarray, reference: np.ndarray) -> None:
    """``w`` is finite and within tolerance of ``reference``, its value recomputed from alpha."""
    if not np.all(np.isfinite(w)):
        raise NumericError("weight vector became non-finite during training")
    drift = float(np.max(np.abs(w - reference), initial=0.0))
    if drift > _W_CONSISTENCY_TOL:
        raise NumericError(
            f"incremental weights drifted {drift:.3e} from sum(alpha_i y_i x_i)"
        )


def weights_from_alpha(problem: TrainingProblem, alpha: Sequence[float]) -> np.ndarray:
    """Recompute ``w = sum_i alpha_i y_i x_i`` from scratch.

    One ``bincount`` over the CSR entries; it adds them in row order, as a
    loop over the rows would.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != (problem.n_rows,):
        raise DimensionError("alpha length must match the number of rows")
    scale = np.repeat(a * problem.y, np.diff(problem.indptr))
    return np.bincount(problem.indices, weights=scale * problem.data,
                       minlength=problem.dimension)


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
    """w . [x; 1] for every row x; the bias slot is appended automatically.

    This is the one-model case of ``stacked_decision_values``.
    """
    return stacked_decision_values([model], rows)


class ModelStack:
    """What ``stacked_decision_values`` needs of a sequence of models, worked out once.

    ``weights`` are the models' weights without their bias slots, laid side
    by side as ``features.ExtractorStack`` lays out their feature spaces;
    ``biases`` are the bias slots as Python floats.
    """

    def __init__(self, models: Sequence[LinearModel]):
        if not models:
            raise ContractViolation("scoring needs at least one model")
        self.weights = np.concatenate([model.w[:-1] for model in models])
        self.biases = [float(model.w[-1]) for model in models]

    def __len__(self) -> int:
        return len(self.biases)


def stacked_decision_values(
    models: Sequence[LinearModel] | ModelStack, rows: FeatureMatrix
) -> np.ndarray:
    """Each model's ``w . [x; 1]`` for its own share of stacked rows.

    ``rows`` are ``len(models)`` equal runs of rows, model-major, over the
    models' feature spaces laid side by side, as ``features.stacked_transform``
    builds them: model m scores rows ``m * n`` to ``(m + 1) * n - 1``, whose
    columns start at the sum of the earlier models' dimensions.  A caller
    that scores many blocks with the same models passes their ``ModelStack``,
    built once; a plain sequence is stacked for this call.
    """
    if not models or rows.n_rows % len(models):
        raise ContractViolation(f"{rows.n_rows} rows do not split among {len(models)} models")
    stack = models if isinstance(models, ModelStack) else ModelStack(models)
    weights = stack.weights
    if rows.dimension != weights.shape[0]:
        raise DimensionError(
            f"row dimension {rows.dimension} does not match model "
            f"dimension {weights.shape[0]}"
        )
    n = rows.n_rows // len(stack)
    # One dot per row: a single sparse product would sum in another order and
    # could flip a decision that sits within rounding of zero.
    row_weights = weights[rows.indices]
    data = rows.data
    bounds = rows.indptr.tolist()
    values = []
    for m, bias in enumerate(stack.biases):
        run = bounds[m * n:(m + 1) * n + 1]
        values.extend(float(row_weights[a:b] @ data[a:b]) + bias for a, b in zip(run, run[1:]))
    return np.array(values, dtype=np.float64)


def predict_rows(model: LinearModel, rows: FeatureMatrix) -> np.ndarray:
    """1 where a row's decision value is strictly positive; ties go negative."""
    return (decision_values(model, rows) > 0.0).astype(np.int64)


def predict(model: LinearModel, x: FeatureMatrix) -> int:
    """The 0/1 prediction for a one-row matrix, such as ``FittedExtractor.vectorize``'s."""
    if x.n_rows != 1:
        raise ContractViolation(f"predict scores one row, got {x.n_rows}")
    return int(predict_rows(model, x)[0])
