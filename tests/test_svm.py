import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dual_oracle import augmented_dense, solve_dual_reference
from emoclf.errors import (
    ContractViolation,
    DegenerateClass,
    DimensionError,
    NumericError,
)
from emoclf.features import FeatureMatrix
from emoclf.svm import (
    L1_HINGE,
    L2_HINGE,
    SolverParams,
    TrainingMonitor,
    TrainingProblem,
    decision_values,
    dual_objective,
    predict,
    predict_rows,
    train_dual_cd,
    weights_from_alpha,
)


def dense_rows(X):
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    return FeatureMatrix.from_pairs(
        [[(j, X[i, j]) for j in range(d)] for i in range(X.shape[0])], d
    )


def two_point_problem(C=1.0, loss=L2_HINGE):
    rows = dense_rows([[1.0], [-1.0]])
    return TrainingProblem.from_matrix(rows, [1, -1], C=C, loss=loss)


def random_problem(rng, n=None, d=None, loss=None, C=None):
    n = n or int(rng.randint(2, 21))
    d = d or int(rng.randint(1, 6))
    X = rng.randn(n, d)
    y = np.ones(n, dtype=int)
    y[rng.permutation(n)[: max(1, n // 2)]] = -1
    loss = loss or (L1_HINGE if rng.rand() < 0.5 else L2_HINGE)
    C = C or float(10 ** rng.uniform(-2, 1))
    return dense_rows(X), y, C, loss


class TestTwoPointAnalyticCase:
    def test_weights(self):
        model = train_dual_cd(two_point_problem(), SolverParams(eps=1e-10, seed=3))
        assert model.w == pytest.approx([0.8, 0.0], abs=1e-9)

    def test_alpha(self):
        monitor = TrainingMonitor()
        train_dual_cd(two_point_problem(), SolverParams(eps=1e-10, seed=3), monitor)
        assert monitor.final_alpha == pytest.approx([0.4, 0.4], abs=1e-9)

    def test_dual_objective_value(self):
        assert dual_objective([0.4, 0.4], two_point_problem()) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_dual_objective_at_zero(self):
        assert dual_objective([0.0, 0.0], two_point_problem()) == 0.0

    def test_decision_value(self):
        model = train_dual_cd(two_point_problem(), SolverParams(eps=1e-10, seed=3))
        x = FeatureMatrix.from_pairs([[(0, 1.0)]], 1)
        assert decision_values(model, x)[0] == pytest.approx(0.8, abs=1e-9)

    def test_predictions(self):
        model = train_dual_cd(two_point_problem(), SolverParams(eps=1e-10, seed=3))
        assert predict(model, FeatureMatrix.from_pairs([[(0, 1.0)]], 1)) == 1
        assert predict(model, FeatureMatrix.from_pairs([[(0, -1.0)]], 1)) == 0

    @pytest.mark.parametrize("n_rows", [0, 2])
    def test_predict_takes_exactly_one_row(self, n_rows):
        model = train_dual_cd(two_point_problem(), SolverParams(eps=1e-10, seed=3))
        with pytest.raises(ContractViolation, match="one row"):
            predict(model, FeatureMatrix.from_pairs([[(0, 1.0)]] * n_rows, 1))


class TestPredictEdges:
    def test_zero_weights_score_zero_and_predict_negative(self):
        from emoclf.svm import LinearModel

        model = LinearModel(w=np.zeros(3), loss=L2_HINGE)
        x = FeatureMatrix.from_pairs([[(0, 5.0)]], 2)
        assert decision_values(model, x)[0] == 0.0
        assert predict(model, x) == 0  # exact ties go to absent

    def test_dimension_mismatch(self):
        model = train_dual_cd(two_point_problem(), SolverParams(seed=0))
        with pytest.raises(DimensionError):
            predict(model, FeatureMatrix.from_pairs([[(0, 1.0)]], 4))


class TestConvergenceReport:
    def test_default_solve_converges(self):
        model = train_dual_cd(two_point_problem(), SolverParams(seed=3))
        assert model.converged is True
        assert 1 <= model.sweeps < SolverParams().max_outer_iters
        assert model.final_violation < SolverParams().eps

    def test_running_out_of_sweeps_is_reported(self):
        rng = np.random.RandomState(4)
        rows, y, C, loss = random_problem(rng, n=20, d=5, loss=L1_HINGE, C=8.0)
        problem = TrainingProblem.from_matrix(rows, y, C=C, loss=loss)
        model = train_dual_cd(problem, SolverParams(eps=1e-9, max_outer_iters=2, seed=1))
        assert model.converged is False
        assert model.sweeps == 2
        assert model.final_violation >= 1e-9

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0])
    def test_tolerance_must_be_positive_and_finite(self, eps):
        with pytest.raises(ContractViolation, match="eps"):
            SolverParams(eps=eps)


class TestBatchDecisions:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_rows_score_exactly_like_single_vectors(self, seed):
        # Each row is one dot of its own entries plus the bias, summed in
        # index order: the order every stored bundle was scored in.
        rng = np.random.RandomState(seed)
        rows, y, C, loss = random_problem(rng)
        model = train_dual_cd(TrainingProblem.from_matrix(rows, y, C=C, loss=loss),
                              SolverParams(seed=seed))
        d = rows.dimension
        sparse = FeatureMatrix.from_pairs(
            [[(j, v) for j, v in enumerate(rng.randn(d)) if rng.rand() < 0.6]
             for _ in range(8)], d,
        )
        w = model.w
        for matrix in (rows, sparse):
            bounds = matrix.indptr.tolist()
            expected = [
                float(w[matrix.indices[a:b]] @ matrix.data[a:b]) + w[-1]
                for a, b in zip(bounds, bounds[1:])
            ]
            assert decision_values(model, matrix).tolist() == expected
            assert predict_rows(model, matrix).tolist() == [int(v > 0.0) for v in expected]

    def test_dimension_mismatch(self):
        model = train_dual_cd(two_point_problem(), SolverParams(seed=0))
        with pytest.raises(DimensionError):
            decision_values(model, FeatureMatrix.from_pairs([[]], 4))


class TestProblemValidation:
    def test_single_class_rejected(self):
        rows = dense_rows([[1.0], [2.0]])
        with pytest.raises(DegenerateClass):
            TrainingProblem.from_matrix(rows, [1, 1], C=1.0)

    def test_non_finite_rejected(self):
        rows = FeatureMatrix.from_pairs([[(0, float("nan"))], [(0, 1.0)]], 1)
        with pytest.raises(NumericError):
            TrainingProblem.from_matrix(rows, [1, -1], C=1.0)

    def test_nonpositive_c_rejected(self):
        rows = dense_rows([[1.0], [-1.0]])
        with pytest.raises(ContractViolation):
            TrainingProblem.from_matrix(rows, [1, -1], C=0.0)

    def test_matrix_build_appends_the_bias_column(self):
        matrix = FeatureMatrix.from_pairs([[(2, -1.0), (0, 1.5)], [], [(1, 2.0)]], 3)
        problem = TrainingProblem.from_matrix(matrix, [1, -1, 1], C=2.0, loss=L1_HINGE)
        assert problem.indptr.tolist() == [0, 3, 4, 6]
        assert problem.indices.tolist() == [0, 2, 3, 3, 1, 3]
        assert problem.data.tolist() == [1.5, -1.0, 1.0, 1.0, 2.0, 1.0]
        assert problem.y.tolist() == [1.0, -1.0, 1.0]
        assert (problem.C, problem.loss, problem.dimension) == (2.0, L1_HINGE, 4)

    def test_matrix_build_names_the_non_finite_row(self):
        rows = FeatureMatrix.from_pairs([[(0, 1.0)], [], [(1, float("inf"))]], 2)
        with pytest.raises(NumericError, match="row 2"):
            TrainingProblem.from_matrix(rows, [1, -1, 1], C=1.0)

    @pytest.mark.parametrize("costs", [
        {"C": float("nan")}, {"C": float("inf")},
        {"pos_cost": float("nan")},
    ])
    def test_matrix_build_rejects_non_finite_costs(self, costs):
        matrix = dense_rows([[1.0], [-1.0]])
        with pytest.raises(ContractViolation, match="finite"):
            TrainingProblem.from_matrix(matrix, [1, -1], **{"C": 1.0, **costs})

    def test_matrix_build_needs_one_label_per_row(self):
        matrix = dense_rows([[1.0], [-1.0]])
        with pytest.raises(ContractViolation):
            TrainingProblem.from_matrix(matrix, [1, -1, 1], C=1.0)

    def test_bias_is_augmented(self):
        problem = two_point_problem()
        assert problem.dimension == 2
        cols, vals = problem.row(0)
        assert cols[-1] == 1 and vals[-1] == 1.0


class TestSolverProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_feasible_and_consistent(self, seed):
        rng = np.random.RandomState(seed)
        rows, y, C, loss = random_problem(rng)
        problem = TrainingProblem.from_matrix(rows, y, C=C, loss=loss)
        monitor = TrainingMonitor()
        model = train_dual_cd(
            problem, SolverParams(eps=1e-6, max_outer_iters=5000, seed=seed), monitor
        )
        assert monitor.objective_decreases == 0
        alpha = monitor.final_alpha
        assert np.all(alpha >= 0.0)
        if loss == L1_HINGE:
            assert np.all(alpha <= C + 1e-15)
        rebuilt = weights_from_alpha(problem, alpha)
        assert np.max(np.abs(model.w - rebuilt)) <= 1e-8
        # The monitor's incremental objective tracks the recomputed one.
        assert monitor.dual_objective == pytest.approx(
            dual_objective(alpha, problem), rel=1e-9, abs=1e-9
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_given_seed(self, seed):
        rng = np.random.RandomState(seed)
        rows, y, C, loss = random_problem(rng)
        problem = TrainingProblem.from_matrix(rows, y, C=C, loss=loss)
        params = SolverParams(eps=1e-6, max_outer_iters=5000, seed=seed // 2)
        w1 = train_dual_cd(problem, params).w
        w2 = train_dual_cd(problem, params).w
        assert np.array_equal(w1, w2)

    def test_separable_data_perfectly_fit_at_large_cost(self):
        rng = np.random.RandomState(0)
        X = np.vstack([rng.randn(20, 3) + 4.0, rng.randn(20, 3) - 4.0])
        y = np.array([1] * 20 + [-1] * 20)
        rows = dense_rows(X)
        problem = TrainingProblem.from_matrix(rows, y, C=8.0, loss=L2_HINGE)
        model = train_dual_cd(problem, SolverParams(eps=1e-6, seed=1))
        hits = sum(p == (1 if label > 0 else 0) for p, label in zip(predict_rows(model, rows), y))
        assert hits == len(y)

    def test_duplicated_rows_with_halved_cost_same_weights(self):
        rng = np.random.RandomState(5)
        rows, y, _, _ = random_problem(rng, n=12, d=4, loss=L1_HINGE)
        doubled = rows.take(np.tile(np.arange(rows.n_rows), 2))
        y2 = np.concatenate([y, y])
        problem_a = TrainingProblem.from_matrix(rows, y, C=1.0, loss=L1_HINGE)
        problem_b = TrainingProblem.from_matrix(doubled, y2, C=0.5, loss=L1_HINGE)
        params = SolverParams(eps=1e-10, max_outer_iters=100_000, seed=9)
        w_a = train_dual_cd(problem_a, params).w
        w_b = train_dual_cd(problem_b, params).w
        assert w_a == pytest.approx(w_b, abs=1e-5)


class TestOracleEquivalence:
    @pytest.mark.parametrize("loss", [L1_HINGE, L2_HINGE])
    def test_small_batch_matches_reference(self, loss):
        rng = np.random.RandomState(77)
        for trial in range(20):
            rows, y, C, _ = random_problem(rng, loss=loss)
            problem = TrainingProblem.from_matrix(rows, y, C=C, loss=loss)
            monitor = TrainingMonitor()
            train_dual_cd(
                problem,
                SolverParams(eps=1e-8, max_outer_iters=50_000, seed=trial),
                monitor,
            )
            ours = dual_objective(monitor.final_alpha, problem)
            raw_dim = rows.dimension
            _, reference = solve_dual_reference(
                augmented_dense(rows, raw_dim), y, C, loss
            )
            assert ours == pytest.approx(reference, rel=1e-4, abs=1e-8)


class TestDualObjective:
    def test_alpha_length_checked(self):
        with pytest.raises(DimensionError):
            dual_objective([0.1], two_point_problem())

    def test_matches_dense_formula(self):
        rng = np.random.RandomState(3)
        rows, y, C, loss = random_problem(rng, n=8, d=3)
        problem = TrainingProblem.from_matrix(rows, y, C=C, loss=loss)
        alpha = rng.rand(8)
        X = augmented_dense(rows, 3)
        Xy = X * np.asarray(y, float)[:, None]
        Q = Xy @ Xy.T
        if loss == L2_HINGE:
            Q = Q + np.eye(8) / (2 * C)
        expected = alpha.sum() - 0.5 * alpha @ Q @ alpha
        assert dual_objective(alpha, problem) == pytest.approx(expected, rel=1e-12)
