"""Independent slow reference solver for the SVM dual.

Plain projected gradient ascent on the boxed dual, dense matrices throughout,
with step halving whenever a step would lose ground, run until the objective
stalls.  Deliberately shares no code path with the package solver.
"""

import numpy as np


def dense_dual(X, y, C, loss, pos_cost=1.0, neg_cost=1.0):
    """Qbar, the upper bounds, and the objective callable, all dense.

    ``X`` must already carry the bias column.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    costs = np.where(y > 0, C * pos_cost, C * neg_cost)
    Xy = X * y[:, None]
    Qbar = Xy @ Xy.T
    if loss == "l1":
        upper = costs.copy()
    else:
        upper = np.full(n, np.inf)
        Qbar = Qbar + np.diag(1.0 / (2.0 * costs))

    def objective(alpha):
        return float(alpha.sum() - 0.5 * alpha @ Qbar @ alpha)

    return Qbar, upper, objective


def solve_dual_reference(
    X,
    y,
    C,
    loss,
    pos_cost=1.0,
    neg_cost=1.0,
    max_iters=200_000,
    stall_window=500,
):
    """Returns (alpha, objective) at the projected-gradient stall point."""
    Qbar, upper, objective = dense_dual(X, y, C, loss, pos_cost, neg_cost)
    n = Qbar.shape[0]
    lipschitz = max(float(np.linalg.eigvalsh(Qbar).max()), 1e-12)
    eta = 1.0 / lipschitz
    alpha = np.zeros(n)
    best = objective(alpha)
    flat_iters = 0
    for _ in range(max_iters):
        gradient = Qbar @ alpha - 1.0
        candidate = np.clip(alpha - eta * gradient, 0.0, upper)
        value = objective(candidate)
        if value < best - 1e-15 * max(1.0, abs(best)):
            eta *= 0.5
            if eta < 1e-18:
                break
            continue
        alpha = candidate
        if value > best + 1e-14 * max(1.0, abs(best)):
            best = value
            flat_iters = 0
        else:
            best = max(best, value)
            flat_iters += 1
            if flat_iters >= stall_window:
                break
    return alpha, best


def augmented_dense(rows, raw_dim):
    """Dense matrix with the trailing bias column the trainer appends."""
    X = np.zeros((rows.n_rows, raw_dim + 1))
    for i in range(rows.n_rows):
        start, end = rows.indptr[i], rows.indptr[i + 1]
        X[i, rows.indices[start:end]] = rows.data[start:end]
        X[i, raw_dim] = 1.0
    return X
