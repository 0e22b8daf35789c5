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
where ``train_dual_cd`` would.  The solver state (each row's real
entries, a weight matrix and a multiplier matrix) grows with the group, so
a group takes folds only while ``state_bytes`` stays within
``LOCKSTEP_STATE_BYTES``.  The steps of a sweep run in chunks, each
gathering its rows as wide as its own widest row and ending before (steps x
widest row) would pass a fixed slot count, so a long row takes a short chunk
instead of widening every step of its group.
Single problems, such as final models, run on ``train_dual_cd``, which
does its per-row scalar arithmetic on Python floats.  C is a
setting of the solve, not of the problem: ``SolverParams.C`` or a cost of
the grid.  Both solvers take each row's squared norm and multiplier on C
from its ``TrainingProblem``, where they are worked out once, and bounds
and curvature from ``_bounds_and_diag``.  Solvers sum a row's products
only through ``_row_dot``, in the order BLAS adds them.

The models it returns, and scoring them, live in ``linear``, which
classifying imports without this module; the names ``linear`` defines
(``LinearModel``, ``predict`` and the rest) are served here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractViolation, DegenerateClass, DimensionError, NumericError
from .features import FeatureMatrix
from .linear import (  # noqa: F401  (served here too)
    L1_HINGE,
    L2_HINGE,
    LinearModel,
    ModelStack,
    decision_values,
    predict,
    predict_rows,
    stacked_decision_values,
)

_W_CONSISTENCY_TOL = 1e-8
# Every solver sum of a row's products: ``a @ b``, for two rows or stacks of them.
_row_dot = np.matmul


@dataclass(frozen=True)
class SolverParams:
    eps: float = 0.1
    max_outer_iters: int = 1000
    seed: int = 0
    C: float = field(kw_only=True)

    def __post_init__(self):
        if not (math.isfinite(self.C) and self.C > 0):
            raise ContractViolation(f"costs must be positive and finite, not C={self.C!r}")
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
    final_alpha: np.ndarray | None = None   # multipliers of the last train_dual_cd solve

    def record_step(self, gradient: float, delta: float, qdiag: float) -> None:
        self.steps += 1
        gain = -(gradient * delta + 0.5 * qdiag * delta * delta)
        if gain < 0.0:
            self.objective_decreases += 1
        self.dual_objective += gain


@dataclass(frozen=True, eq=False)
class TrainingProblem:
    """Bias-augmented CSR rows, labels, loss and class weight; the cost C is the solve's."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    y: np.ndarray                  # +1 / -1
    loss: str
    dimension: int                 # includes the bias slot
    pos_cost: float = 1.0          # multiplier on C for positive rows

    @property
    def n_rows(self) -> int:
        return len(self.y)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end], self.data[start:end]

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """||x_i||^2 of every row, bias included."""
        data, bounds = self.data, self.indptr.tolist()
        return np.array([_row_dot(data[a:b], data[a:b]) for a, b in zip(bounds, bounds[1:])])

    @cached_property
    def cost_scale(self) -> np.ndarray:
        """Each row's multiplier on C: ``pos_cost`` for a positive row, else 1."""
        return np.where(self.y > 0, self.pos_cost, 1.0)

    @classmethod
    def from_matrix(
        cls,
        matrix: FeatureMatrix,
        y: Sequence[int],
        loss: str = L2_HINGE,
        pos_cost: float = 1.0,
    ) -> "TrainingProblem":
        """Append the bias column to every row; y > 0 is the positive class."""
        n = matrix.n_rows
        if len(y) != n or n < 2:
            raise ContractViolation("need at least two rows with matching labels")
        if loss not in (L1_HINGE, L2_HINGE):
            raise ContractViolation(f"unknown loss {loss!r}")
        if not (math.isfinite(pos_cost) and pos_cost > 0):
            raise ContractViolation("pos_cost must be positive and finite")

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
            loss=loss,
            dimension=raw_dim + 1,
            pos_cost=float(pos_cost),
        )


def _bounds_and_diag(loss: str, row_costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's upper bound on alpha and diagonal shift under ``loss``, from its cost."""
    if loss == L1_HINGE:
        return row_costs, np.zeros_like(row_costs)
    return np.full_like(row_costs, np.inf), 1.0 / (2.0 * row_costs)


def train_dual_cd(
    problem: TrainingProblem,
    params: SolverParams,
    monitor: TrainingMonitor | None = None,
) -> LinearModel:
    """Run dual coordinate descent at cost ``params.C`` to the requested tolerance.

    Deterministic: the sweep permutations come from a PRNG seeded with
    ``params.seed``, and identical inputs reproduce ``w`` bit for bit.  The
    per-row scalars (labels, bounds, curvature, multipliers, gradients) are
    Python floats, read once from the problem's arrays, and each row's
    index and value views are sliced once; every step is the same IEEE
    double operation, in the same order, as on numpy scalars.  Only ``w``
    and the rows stay arrays, and ``_row_dot`` sums each row's products.
    """
    n = problem.n_rows
    upper, dcoef = _bounds_and_diag(problem.loss, params.C * problem.cost_scale)
    qdiag = (problem.squared_norms + dcoef).tolist()
    upper, dcoef, y = upper.tolist(), dcoef.tolist(), problem.y.tolist()
    bounds = problem.indptr.tolist()
    rows = [(problem.indices[a:b], problem.data[a:b]) for a, b in zip(bounds, bounds[1:])]
    row_dot = _row_dot

    w = np.zeros(problem.dimension)
    alpha = [0.0] * n
    rng = np.random.RandomState(params.seed & 0xFFFFFFFF)

    if monitor is not None:
        monitor.trainings += 1

    max_violation = 0.0
    for sweeps in range(1, params.max_outer_iters + 1):
        max_violation = 0.0
        for i in rng.permutation(n).tolist():
            cols, vals = rows[i]
            a = alpha[i]
            gradient = y[i] * float(row_dot(w[cols], vals)) - 1.0 + dcoef[i] * a
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

    alpha = np.array(alpha)
    _check_weight_consistency(w, weights_from_alpha(problem, alpha))
    if monitor is not None:
        monitor.final_alpha = alpha
    return LinearModel(
        w=w,
        loss=problem.loss,
        seed=params.seed,
        sweeps=sweeps,
        final_violation=float(max_violation),
        converged=bool(max_violation < params.eps),
    )


# --- lockstep: many problems, one step at a time ---------------------------

# A chunk of sweep steps has its rows gathered together, each as wide as the
# chunk's widest row, so a chunk takes steps only while (steps x widest row)
# stays within this many slots; a row wider than that gets a chunk of its own.
_CHUNK_SLOTS = 64 * 64


# Folds are solved together, each at every cost, in groups whose solver state
# (``state_bytes``) stays within this many bytes.  Wider groups solve faster
# but raise peak memory; the width follows from the input shapes.
LOCKSTEP_STATE_BYTES = 8 * 2**20


def solve_folds(
    problems: Iterable[tuple[TrainingProblem, int]],
    c_values: Sequence[float],
    eps: float,
    max_outer_iters: int,
    monitor: TrainingMonitor | None = None,
) -> Iterator[tuple[int, int, LinearModel]]:
    """Solve every ``(problem, seed)`` at every cost; yield ``(problem index, cost index, model)``.

    The costs of one problem share its rows and its seed, so one numpy step
    advances every (problem, cost) pair, and problem f at cost c ends where
    ``train_dual_cd(problem_f, SolverParams(C=c, eps=eps, max_outer_iters=
    max_outer_iters, seed=seed_f))`` does: the same sweeps, and weights equal
    up to the order in which ``_row_dot`` sums a row (about 1e-15); a
    ``_row_dot`` that sums left to right makes them equal bit for bit.
    Problems are pulled one at a time and packed into groups of consecutive
    ones, each solved once the next problem would take its state past
    ``LOCKSTEP_STATE_BYTES`` or none is left; a group holds at least one.  A
    problem's rows are packed into its group as it arrives, so the problems
    do not pile up before the solve, and each model is yielded as its pair
    stops, so the weight vectors do not either.
    """
    if not c_values:
        raise ContractViolation("solve_folds needs a non-empty run of costs")
    for c in c_values:      # checks each cost and the stopping rule
        SolverParams(C=c, eps=eps, max_outer_iters=max_outer_iters)
    c_values = tuple(float(c) for c in c_values)
    group: _Lockstep | None = None
    for index, (problem, seed) in enumerate(problems):
        size = state_bytes([problem], len(c_values))
        if group is not None and group.state_bytes + size > LOCKSTEP_STATE_BYTES:
            yield from group.run(eps, max_outer_iters, monitor)
            group = None
        if group is None:
            group = _Lockstep(index, problem.loss, c_values)
        group.add(problem, seed, size)
        del problem     # packed, so its CSR rows can go
    if group is not None:
        yield from group.run(eps, max_outer_iters, monitor)


def state_bytes(problems: Sequence[TrainingProblem], n_costs: int) -> int:
    """Bytes of the lockstep solver state for ``problems`` at ``n_costs`` costs.

    That is each row's entries (an int32 column and a float64 value), and a
    weight per feature and a multiplier per row at every cost.
    """
    return sum(len(p.indices) * 12 + (p.dimension + p.n_rows) * n_costs * 8
               for p in problems)


class _Lockstep:
    """Compact rows and solver state of one ``solve_folds`` group.

    Row ``row_start[f] + i`` is row i of fold f; its entries are one run of
    the flat ``cols`` and ``vals``, from ``starts[r]`` for ``lengths[r]``
    entries.  Its columns index the weight table, whose row
    ``weight_start[f] + j`` is feature j of fold f.  Values carry the row's
    sign y_i.  The last row is a zero-length sink with an infinite norm: a
    fold steps on it past its own last row, and those steps are exactly
    zero.  A chunk reads each row as the window of the flat runs at its
    start, as wide as the chunk's widest row, and turns the slots past the
    row's end into padding: column the weight table's last row, value 0, so
    that row stays 0.
    """

    def __init__(self, first: int, loss: str, c_values: tuple[float, ...]):
        self.first = first                  # index of the group's first problem
        self.loss = loss
        self.c_values = c_values
        self.state_bytes = 0
        self.seeds: list[int] = []
        self.n_rows: list[int] = []
        self.dims: list[int] = []
        self._parts: list[tuple[np.ndarray, ...]] = []   # per fold, until ``run`` joins them

    def add(self, p: TrainingProblem, seed: int, size: int) -> None:
        """Pack ``p``'s rows as the group's next fold; ``size`` is its ``state_bytes``."""
        if p.loss != self.loss:
            raise ContractViolation("lockstep problems must share one loss")
        lengths = np.diff(p.indptr)
        self._parts.append((
            (p.indices + sum(self.dims)).astype(np.int32),
            np.repeat(p.y, lengths) * p.data,
            lengths,
            p.squared_norms,
            p.cost_scale,
        ))
        self.seeds.append(seed)
        self.n_rows.append(p.n_rows)
        self.dims.append(p.dimension)
        self.state_bytes += size

    def _join(self) -> None:
        """Join the folds' rows into the group's, and make the solver state."""
        # Each kind of fold part goes as soon as it is joined, so the rows
        # are held twice over one kind at a time.
        cols, vals, lengths, norms, scale = (list(part) for part in zip(*self._parts))
        self._parts.clear()
        self.lengths = np.concatenate(lengths + [[0]])
        # The flat runs end in one longest row of zeros, so that every row's
        # window fits; pad_windows[longest - n] marks the slots past a row
        # of n entries.
        longest = self.longest = int(self.lengths.max())
        self.cols = np.concatenate(cols + [np.zeros(longest, np.int32)])
        del cols
        self.vals = np.concatenate(vals + [np.zeros(longest)])
        del vals
        self.col_windows = sliding_window_view(self.cols, longest)
        self.val_windows = sliding_window_view(self.vals, longest)
        self.pad_windows = sliding_window_view(np.arange(2 * longest) >= longest, longest)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.norms = np.concatenate(norms + [[np.inf]])      # ||x_i||^2
        self.scale = np.concatenate(scale + [[1.0]])
        self.row_start = np.concatenate([[0], np.cumsum(self.n_rows)])
        self.weight_start = np.concatenate([[0], np.cumsum(self.dims)])
        self.sink = len(self.lengths) - 1

        costs = len(self.c_values)
        self.costs = np.asarray(self.c_values)      # of the state's columns
        self.cost_of = np.arange(costs)             # state column -> cost index
        self.w = np.zeros((self.weight_start[-1] + 1, costs))
        self.alpha = np.zeros((len(self.lengths), 1, costs))
        self.live = np.ones((len(self.n_rows), costs), dtype=bool)

    def run(self, eps: float, max_sweeps: int, monitor: TrainingMonitor | None):
        self._join()
        folds, costs = self.live.shape
        n_rows = np.array(self.n_rows)
        rngs = [np.random.RandomState(seed & 0xFFFFFFFF) for seed in self.seeds]
        if monitor is not None:
            monitor.trainings += folds * costs
        for sweep in range(1, max_sweeps + 1):
            active = np.flatnonzero(self.live.any(axis=1))
            n = int(n_rows[active].max())
            order = np.full((n, len(active)), self.sink)    # step x fold -> row
            for j, f in enumerate(active):
                order[:n_rows[f], j] = rngs[f].permutation(n_rows[f]) + self.row_start[f]
            widths = self.lengths[order].max(axis=1)
            violation = np.zeros((len(active), 1, len(self.costs)))
            start = 0
            while start < n:
                widest = np.maximum.accumulate(widths[start:start + _CHUNK_SLOTS])
                fits = widest * np.arange(1, len(widest) + 1) <= _CHUNK_SLOTS
                steps = max(1, int(np.count_nonzero(fits)))
                rows = order[start:start + steps]
                self._steps(active, rows, int(widest[steps - 1]), violation, monitor)
                start += steps

            alive = self.live[active]
            if monitor is not None:
                monitor.sweeps += int(alive.sum())
            violation = violation[:, 0, :]
            stop = alive & ((violation < eps) | (sweep == max_sweeps))
            for j, col in zip(*np.nonzero(stop)):
                f = int(active[j])
                model = self._finish(f, col, sweep, float(violation[j, col]), eps)
                yield self.first + f, int(self.cost_of[col]), model
            if not self.live.any():
                break
            self._drop_dead_columns()

    def _steps(self, active, rows, width, violation, monitor) -> None:
        """One step per row of ``rows`` (steps x folds), at every cost of the state."""
        starts = self.starts[rows]
        pad = self.pad_windows[self.longest - self.lengths[rows], :width]
        cols = self.col_windows[starts, :width].astype(np.intp)
        cols[pad] = len(self.w) - 1
        vals = self.val_windows[starts, :width]
        vals[pad] = 0.0
        del pad
        vals = vals[:, :, None, :]                       # (steps, folds, 1, width)
        vals_t = vals.transpose(0, 1, 3, 2)              # (steps, folds, width, 1)
        # Bounds and curvature per (step, fold, 1, cost), as train_dual_cd
        # has them; stopped pairs get an infinite curvature, so their steps
        # are exactly zero.
        upper, dcoef = _bounds_and_diag(
            self.loss, self.costs * self.scale[rows][:, :, None, None])
        qdiag = np.where(self.live[active][None, :, None, :],
                         self.norms[rows][:, :, None, None] + dcoef, np.inf)
        before = np.empty_like(qdiag)
        gradient = np.empty_like(qdiag)
        delta = np.empty_like(qdiag)
        w, alpha, row_dot = self.w, self.alpha, _row_dot
        # L1 hinge has no diagonal shift and L2 hinge no upper bound; each
        # step skips the term that would leave its values as they are.
        bounded = self.loss == L1_HINGE
        for t in range(len(rows)):
            r, c = rows[t], cols[t]
            wg = w.take(c, axis=0)                       # (folds, width, costs)
            a = alpha.take(r, axis=0, out=before[t])
            g = np.subtract(row_dot(vals[t], wg), 1.0, out=gradient[t])
            if not bounded:
                g += dcoef[t] * a
            new_a = a - g / qdiag[t]
            np.maximum(new_a, 0.0, out=new_a)
            if bounded:
                np.minimum(new_a, upper[t], out=new_a)
            d = np.subtract(new_a, a, out=delta[t])
            alpha[r] = new_a
            wg += vals_t[t] * d
            w[c] = wg

        projected = np.where(before <= 0.0, np.minimum(gradient, 0.0), gradient)
        projected = np.where(before >= upper, np.maximum(projected, 0.0), projected)
        projected = np.abs(projected) * (rows != self.sink)[:, :, None, None]
        np.maximum(violation, projected.max(axis=0), out=violation)
        if monitor is not None:
            moved = delta != 0.0
            d = delta[moved]
            gain = -(gradient[moved] * d + 0.5 * qdiag[moved] * d * d)
            monitor.steps += int(d.size)
            monitor.objective_decreases += int(np.count_nonzero(gain < 0.0))
            monitor.dual_objective += float(gain.sum())

    def _finish(self, f, col, sweeps, violation, eps) -> LinearModel:
        """Read out and check one stopped (fold, cost) pair, and stop it."""
        first, last = self.row_start[f], self.row_start[f + 1]
        entries = slice(self.starts[first], self.starts[last])
        offset, dim = self.weight_start[f], self.dims[f]
        w = self.w[offset:offset + dim, col].copy()
        alpha = self.alpha[first:last, 0, col].copy()
        reference = np.bincount(self.cols[entries] - offset,
                                weights=np.repeat(alpha, self.lengths[first:last])
                                * self.vals[entries],
                                minlength=dim)
        _check_weight_consistency(w, reference)
        self.live[f, col] = False
        return LinearModel(w=w, loss=self.loss, seed=self.seeds[f], sweeps=sweeps,
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


def dual_objective(alpha: Sequence[float], problem: TrainingProblem, C: float) -> float:
    """sum(alpha) - 0.5 * alpha' Qbar alpha at cost ``C``, via the weight-vector identity."""
    w = weights_from_alpha(problem, alpha)     # checks alpha's length
    a = np.asarray(alpha, dtype=np.float64)
    _, dcoef = _bounds_and_diag(problem.loss, C * problem.cost_scale)
    quadratic = float(w @ w) + float(dcoef @ (a * a))
    return float(a.sum()) - 0.5 * quadratic
