"""Reference for ``svm.train_dual_cd``: its loop on numpy scalars.

``train_dual_cd`` now reads its per-row scalars into Python floats and
slices each row once; this is the loop it replaced, kept as written,
indexing the problem's arrays at every step.  Both do the same IEEE double
operations in the same order, so the tests require them to agree bit for
bit: weights, multipliers, sweeps, the final violation and the monitor's
counters.
"""

import numpy as np

from emoclf import svm
from emoclf.svm import (
    LinearModel,
    SolverParams,
    TrainingMonitor,
    TrainingProblem,
    _bounds_and_diag,
    _check_weight_consistency,
    weights_from_alpha,
)


def numpy_scalar_dual_cd(
    problem: TrainingProblem,
    params: SolverParams,
    monitor: TrainingMonitor | None = None,
) -> LinearModel:
    """``svm.train_dual_cd`` as it was, with every per-row scalar a numpy scalar."""
    n = problem.n_rows
    indptr, indices, data, y = problem.indptr, problem.indices, problem.data, problem.y
    upper, dcoef = _bounds_and_diag(problem.loss, params.C * problem.cost_scale)
    qdiag = problem.squared_norms + dcoef
    row_dot = svm._row_dot     # read at call time, as train_dual_cd reads it

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
            gradient = y[i] * row_dot(w[cols], vals) - 1.0 + dcoef[i] * alpha[i]

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

