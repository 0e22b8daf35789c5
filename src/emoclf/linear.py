"""Linear models and scoring: what classifying with a trained model needs.

A ``LinearModel`` holds dense weights with the bias in the last slot.
Scoring adds each CSR row's products left to right, with
``features.row_sums`` (and so ``features.slot_sums``, the kernel that
prediction's padded grids are added with too), so a decision value does not
depend on the BLAS kernel, on the row's place in its block or on whether
it was scored from a grid.  ``stacked_decision_values`` scores the stacked
rows of several models in one pass; ``decision_values`` is its one-model
case.
It takes a prepared ``ModelStack``, the models' weights laid side by side
and their biases, which a caller scoring many blocks with the same models
builds once.

The solver that trains these models is ``svm``, which re-exports every
name here; loading and classifying import this module alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation, DimensionError
from .features import FeatureMatrix, row_sums

L1_HINGE = "l1"
L2_HINGE = "l2"


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


def decision_values(model: LinearModel, rows: FeatureMatrix) -> np.ndarray:
    """w . [x; 1] for every row x; the bias slot is appended automatically.

    This is the one-model case of ``stacked_decision_values``.
    """
    return stacked_decision_values(ModelStack([model]), rows)


class ModelStack:
    """What ``stacked_decision_values`` needs of a sequence of models, worked out once.

    ``weights`` are the models' weights without their bias slots, laid side
    by side as ``features.ExtractorStack`` lays out their feature spaces;
    ``biases`` are the bias slots.
    """

    def __init__(self, models: Sequence[LinearModel]):
        if not models:
            raise ContractViolation("scoring needs at least one model")
        self.weights = np.concatenate([model.w[:-1] for model in models])
        self.biases = np.array([model.w[-1] for model in models])

    def __len__(self) -> int:
        return len(self.biases)


def stacked_decision_values(stack: ModelStack, rows: FeatureMatrix) -> np.ndarray:
    """Each stacked model's ``w . [x; 1]`` for its own share of stacked rows.

    ``rows`` are ``len(stack)`` equal runs of rows, model-major, over the
    models' feature spaces laid side by side, as ``features.stacked_transform``
    builds them: model m scores rows ``m * n`` to ``(m + 1) * n - 1``, whose
    columns start at the sum of the earlier models' dimensions.  A caller
    that scores many blocks with the same models builds their ``ModelStack``
    once.
    """
    if rows.n_rows % len(stack):
        raise ContractViolation(f"{rows.n_rows} rows do not split among {len(stack)} models")
    weights = stack.weights
    if rows.dimension != weights.shape[0]:
        raise DimensionError(
            f"row dimension {rows.dimension} does not match model "
            f"dimension {weights.shape[0]}"
        )
    # Each row's products added left to right, whatever the row's place in
    # the block: a sum in another order could flip a decision that sits
    # within rounding of zero.
    sums = row_sums(rows.indptr, weights[rows.indices] * rows.data)
    return sums + np.repeat(stack.biases, rows.n_rows // len(stack))


def predict_rows(model: LinearModel, rows: FeatureMatrix) -> np.ndarray:
    """1 where a row's decision value is strictly positive; ties go negative."""
    return (decision_values(model, rows) > 0.0).astype(np.int64)


def predict(model: LinearModel, x: FeatureMatrix) -> int:
    """The 0/1 prediction for a one-row matrix.

    ``predict(model, extractor.vectorize(text))`` scores one text on its own;
    ``pipeline.classify`` gives the same bit for it in a batch.
    """
    if x.n_rows != 1:
        raise ContractViolation(f"predict scores one row, got {x.n_rows}")
    return int(predict_rows(model, x)[0])
