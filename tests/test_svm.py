from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dual_oracle import augmented_dense, solve_dual_reference
from reference_features import matrix_from_pairs
from reference_solver import numpy_scalar_dual_cd
from emoclf import svm
from emoclf.errors import (
    ContractViolation,
    DegenerateClass,
    DimensionError,
    NumericError,
)
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
    _compress_in_place,
    solve_folds,
    state_bytes,
    train_dual_cd,
    weights_from_alpha,
)


def dense_rows(X):
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    return matrix_from_pairs(
        [[(j, X[i, j]) for j in range(d)] for i in range(X.shape[0])], d
    )


def two_point_problem(loss=L2_HINGE):
    rows = dense_rows([[1.0], [-1.0]])
    return TrainingProblem.from_matrix(rows, [1, -1], loss=loss)


def random_problem(rng, n=None, d=None, loss=None, C=None):
    n = n or int(rng.randint(2, 21))
    d = d or int(rng.randint(1, 6))
    X = rng.randn(n, d)
    y = np.ones(n, dtype=int)
    y[rng.permutation(n)[: max(1, n // 2)]] = -1
    loss = loss or (L1_HINGE if rng.rand() < 0.5 else L2_HINGE)
    C = C or float(10 ** rng.uniform(-2, 1))
    return dense_rows(X), y, C, loss


def sparse_problem(rng, n, d, loss, pos_cost=1.0):
    """A problem whose rows differ in length: each entry is kept with probability 0.6."""
    X = rng.randn(n, d) * (rng.rand(n, d) < 0.6)
    rows = matrix_from_pairs([[(j, X[i, j]) for j in range(d)] for i in range(n)], d)
    y = np.ones(n, dtype=int)
    y[rng.permutation(n)[: max(1, n // 2)]] = -1
    return TrainingProblem.from_matrix(rows, y, loss=loss, pos_cost=pos_cost), rows, y


def ragged_problem(rng, n, d, wide, loss, pos_cost=1.0):
    """``sparse_problem``'s rows, then one row over ``wide`` more features and two bias-only rows."""
    X = np.zeros((n + 3, d + wide))
    X[:n, :d] = rng.randn(n, d) * (rng.rand(n, d) < 0.6)
    X[n] = rng.randn(d + wide)
    rows = matrix_from_pairs([[(j, v) for j, v in enumerate(row)] for row in X], d + wide)
    y = np.ones(n + 3, dtype=int)
    y[rng.permutation(n + 3)[: (n + 3) // 2]] = -1
    return TrainingProblem.from_matrix(rows, y, loss=loss, pos_cost=pos_cost)


def lockstep_models(problems, c_values, params, monitor=None):
    """{(problem index, cost index): model} from one ``solve_folds`` call.

    ``params`` share eps and max_outer_iters and give each problem its seed.
    """
    solved = solve_folds([(problem, p.seed) for problem, p in zip(problems, params)], c_values,
                         params[0].eps, params[0].max_outer_iters, monitor)
    return {(index, cost): model for index, cost, model in solved}


def primal_objective(w, X, y, C, loss, pos_cost):
    """0.5 ||w||^2 + sum_i cost_i * loss_i, dense; X carries the bias column."""
    slack = np.maximum(0.0, 1.0 - np.asarray(y, float) * (X @ w))
    costs = C * np.where(np.asarray(y) > 0, pos_cost, 1.0)
    return 0.5 * w @ w + costs @ (slack if loss == L1_HINGE else slack * slack)


def left_to_right_dot(a, b):
    """``np.matmul(a, b)`` with every sum of products added from the first term to the last.

    Two rows sum in Python floats; stacks of (m, k) @ (k, n) add the k
    products of all their entries in order, one term at a time.
    """
    if a.ndim == 1 and b.ndim == 1:
        total = 0.0
        for x, y in zip(a.tolist(), b.tolist()):
            total += x * y
        return np.float64(total)
    total = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                     + (a.shape[-2], b.shape[-1]))
    for k in range(a.shape[-1]):
        total += a[..., k:k + 1] * b[..., k:k + 1, :]
    return total


class TestTwoPointAnalyticCase:
    def test_weights(self):
        model = train_dual_cd(two_point_problem(), SolverParams(C=1.0, eps=1e-10, seed=3))
        assert model.w == pytest.approx([0.8, 0.0], abs=1e-9)

    def test_alpha(self):
        monitor = TrainingMonitor()
        train_dual_cd(two_point_problem(), SolverParams(C=1.0, eps=1e-10, seed=3), monitor)
        assert monitor.final_alpha == pytest.approx([0.4, 0.4], abs=1e-9)

    def test_dual_objective_value(self):
        assert dual_objective([0.4, 0.4], two_point_problem(), 1.0) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_dual_objective_at_zero(self):
        assert dual_objective([0.0, 0.0], two_point_problem(), 1.0) == 0.0

    def test_decision_value(self):
        model = train_dual_cd(two_point_problem(), SolverParams(C=1.0, eps=1e-10, seed=3))
        x = matrix_from_pairs([[(0, 1.0)]], 1)
        assert decision_values(model, x)[0] == pytest.approx(0.8, abs=1e-9)

    def test_predictions(self):
        model = train_dual_cd(two_point_problem(), SolverParams(C=1.0, eps=1e-10, seed=3))
        assert predict(model, matrix_from_pairs([[(0, 1.0)]], 1)) == 1
        assert predict(model, matrix_from_pairs([[(0, -1.0)]], 1)) == 0

    @pytest.mark.parametrize("n_rows", [0, 2])
    def test_predict_takes_exactly_one_row(self, n_rows):
        model = train_dual_cd(two_point_problem(), SolverParams(C=1.0, eps=1e-10, seed=3))
        with pytest.raises(ContractViolation, match="one row"):
            predict(model, matrix_from_pairs([[(0, 1.0)]] * n_rows, 1))


class TestPredictEdges:
    def test_zero_weights_score_zero_and_predict_negative(self):
        from emoclf.svm import LinearModel

        model = LinearModel(w=np.zeros(3), loss=L2_HINGE)
        x = matrix_from_pairs([[(0, 5.0)]], 2)
        assert decision_values(model, x)[0] == 0.0
        assert predict(model, x) == 0  # exact ties go to absent

    def test_dimension_mismatch(self):
        model = train_dual_cd(two_point_problem(), SolverParams(C=1.0, seed=0))
        with pytest.raises(DimensionError):
            predict(model, matrix_from_pairs([[(0, 1.0)]], 4))


class TestConvergenceReport:
    def test_default_solve_converges(self):
        params = SolverParams(C=1.0, seed=3)
        model = train_dual_cd(two_point_problem(), params)
        assert model.converged is True
        assert 1 <= model.sweeps < params.max_outer_iters
        assert model.final_violation < params.eps

    def test_running_out_of_sweeps_is_reported(self):
        rng = np.random.RandomState(4)
        rows, y, C, loss = random_problem(rng, n=20, d=5, loss=L1_HINGE, C=8.0)
        problem = TrainingProblem.from_matrix(rows, y, loss=loss)
        model = train_dual_cd(problem, SolverParams(C=C, eps=1e-9, max_outer_iters=2, seed=1))
        assert model.converged is False
        assert model.sweeps == 2
        assert model.final_violation >= 1e-9

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0])
    def test_tolerance_must_be_positive_and_finite(self, eps):
        with pytest.raises(ContractViolation, match="eps"):
            SolverParams(C=1.0, eps=eps)

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_cost_must_be_positive_and_finite(self, C):
        with pytest.raises(ContractViolation, match="C") as alone:
            SolverParams(C=C)
        with pytest.raises(ContractViolation) as in_grid:
            next(solve_folds([(two_point_problem(), 0)], (1.0, C), 0.1, 1000))
        assert str(in_grid.value) == str(alone.value)

    def test_cost_is_required_by_keyword(self):
        # A call written for (eps, max_outer_iters, seed) must not read eps as C.
        with pytest.raises(TypeError):
            SolverParams(0.1, 1000, 3)
        assert SolverParams(0.1, 1000, 3, C=2.0).C == 2.0


class TestBatchDecisions:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_rows_score_exactly_like_single_vectors(self, seed):
        # Each row is its own entries' products added left to right, in
        # index order, plus the bias, wherever the row sits in the matrix.
        rng = np.random.RandomState(seed)
        rows, y, C, loss = random_problem(rng)
        model = train_dual_cd(TrainingProblem.from_matrix(rows, y, loss=loss),
                              SolverParams(C=C, seed=seed))
        d = rows.dimension
        sparse = matrix_from_pairs(
            [[(j, v) for j, v in enumerate(rng.randn(d)) if rng.rand() < 0.6]
             for _ in range(8)], d,
        )
        w = model.w
        for matrix in (rows, sparse):
            bounds = matrix.indptr.tolist()
            expected = [
                float(left_to_right_dot(w[matrix.indices[a:b]], matrix.data[a:b])) + w[-1]
                for a, b in zip(bounds, bounds[1:])
            ]
            assert decision_values(model, matrix).tolist() == expected
            assert predict_rows(model, matrix).tolist() == [int(v > 0.0) for v in expected]

    def test_dimension_mismatch(self):
        model = train_dual_cd(two_point_problem(), SolverParams(C=1.0, seed=0))
        with pytest.raises(DimensionError):
            decision_values(model, matrix_from_pairs([[]], 4))


class TestProblemValidation:
    def test_single_class_rejected(self):
        rows = dense_rows([[1.0], [2.0]])
        with pytest.raises(DegenerateClass):
            TrainingProblem.from_matrix(rows, [1, 1])

    def test_non_finite_rejected(self):
        rows = matrix_from_pairs([[(0, float("nan"))], [(0, 1.0)]], 1)
        with pytest.raises(NumericError):
            TrainingProblem.from_matrix(rows, [1, -1])

    def test_matrix_build_appends_the_bias_column(self):
        matrix = matrix_from_pairs([[(2, -1.0), (0, 1.5)], [], [(1, 2.0)]], 3)
        problem = TrainingProblem.from_matrix(matrix, [1, -1, 1], loss=L1_HINGE)
        assert problem.indptr.tolist() == [0, 3, 4, 6]
        assert problem.indices.tolist() == [0, 2, 3, 3, 1, 3]
        assert problem.data.tolist() == [1.5, -1.0, 1.0, 1.0, 2.0, 1.0]
        assert problem.y.tolist() == [1.0, -1.0, 1.0]
        assert (problem.loss, problem.dimension) == (L1_HINGE, 4)
        assert not hasattr(problem, "C")        # the cost is the solve's

    def test_matrix_build_names_the_non_finite_row(self):
        rows = matrix_from_pairs([[(0, 1.0)], [], [(1, float("inf"))]], 2)
        with pytest.raises(NumericError, match="row 2"):
            TrainingProblem.from_matrix(rows, [1, -1, 1])

    def test_matrix_build_rejects_a_non_finite_class_weight(self):
        matrix = dense_rows([[1.0], [-1.0]])
        with pytest.raises(ContractViolation, match="finite"):
            TrainingProblem.from_matrix(matrix, [1, -1], pos_cost=float("nan"))

    def test_matrix_build_needs_one_label_per_row(self):
        matrix = dense_rows([[1.0], [-1.0]])
        with pytest.raises(ContractViolation):
            TrainingProblem.from_matrix(matrix, [1, -1, 1])

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
        problem = TrainingProblem.from_matrix(rows, y, loss=loss)
        monitor = TrainingMonitor()
        model = train_dual_cd(
            problem, SolverParams(C=C, eps=1e-6, max_outer_iters=5000, seed=seed), monitor
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
            dual_objective(alpha, problem, C), rel=1e-9, abs=1e-9
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_given_seed(self, seed):
        rng = np.random.RandomState(seed)
        rows, y, C, loss = random_problem(rng)
        problem = TrainingProblem.from_matrix(rows, y, loss=loss)
        params = SolverParams(C=C, eps=1e-6, max_outer_iters=5000, seed=seed // 2)
        w1 = train_dual_cd(problem, params).w
        w2 = train_dual_cd(problem, params).w
        assert np.array_equal(w1, w2)

    def test_separable_data_perfectly_fit_at_large_cost(self):
        rng = np.random.RandomState(0)
        X = np.vstack([rng.randn(20, 3) + 4.0, rng.randn(20, 3) - 4.0])
        y = np.array([1] * 20 + [-1] * 20)
        rows = dense_rows(X)
        problem = TrainingProblem.from_matrix(rows, y, loss=L2_HINGE)
        model = train_dual_cd(problem, SolverParams(C=8.0, eps=1e-6, seed=1))
        hits = sum(p == (1 if label > 0 else 0) for p, label in zip(predict_rows(model, rows), y))
        assert hits == len(y)

    def test_duplicated_rows_with_halved_cost_same_weights(self):
        rng = np.random.RandomState(5)
        rows, y, _, _ = random_problem(rng, n=12, d=4, loss=L1_HINGE)
        doubled = rows.take(np.tile(np.arange(rows.n_rows), 2))
        y2 = np.concatenate([y, y])
        problem_a = TrainingProblem.from_matrix(rows, y, loss=L1_HINGE)
        problem_b = TrainingProblem.from_matrix(doubled, y2, loss=L1_HINGE)
        params = SolverParams(C=1.0, eps=1e-10, max_outer_iters=100_000, seed=9)
        w_a = train_dual_cd(problem_a, params).w
        w_b = train_dual_cd(problem_b, replace(params, C=0.5)).w
        assert w_a == pytest.approx(w_b, abs=1e-5)


class TestNumpyScalarReference:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.sampled_from([L1_HINGE, L2_HINGE]),
        pos_cost=st.sampled_from([1.0, 0.4, 2.5]),
        max_outer_iters=st.sampled_from([1, 2, 1000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_python_floats_give_the_numpy_scalar_solve_bit_for_bit(
            self, seed, loss, pos_cost, max_outer_iters):
        rng = np.random.RandomState(seed)
        n, d = int(rng.randint(2, 30)), int(rng.randint(1, 8))
        if rng.rand() < 0.5:
            problem = sparse_problem(rng, n, d, loss, pos_cost)[0]
        else:
            problem = ragged_problem(rng, n, d, int(rng.randint(5, 60)), loss, pos_cost)
        params = SolverParams(C=float(10 ** rng.uniform(-2, 1)), eps=1e-3,
                              max_outer_iters=max_outer_iters, seed=int(rng.randint(2**31)))
        monitor, reference_monitor = TrainingMonitor(), TrainingMonitor()
        model = train_dual_cd(problem, params, monitor)
        reference = numpy_scalar_dual_cd(problem, params, reference_monitor)
        assert model.w.tobytes() == reference.w.tobytes()
        assert monitor.final_alpha.tobytes() == reference_monitor.final_alpha.tobytes()
        assert (model.sweeps, model.converged, model.loss, model.seed) == (
            reference.sweeps, reference.converged, reference.loss, reference.seed)
        assert model.sweeps <= max_outer_iters
        assert model.final_violation.hex() == reference.final_violation.hex()
        for counter in ("trainings", "sweeps", "steps", "objective_decreases"):
            assert getattr(monitor, counter) == getattr(reference_monitor, counter), counter
        assert float(monitor.dual_objective).hex() == float(reference_monitor.dual_objective).hex()

    def test_a_solve_cut_short_is_the_reference_solve_cut_short(self):
        problem = sparse_problem(np.random.RandomState(7), 40, 6, L1_HINGE, 2.5)[0]
        params = SolverParams(C=4.0, eps=1e-12, max_outer_iters=3, seed=11)
        model, reference = train_dual_cd(problem, params), numpy_scalar_dual_cd(problem, params)
        assert (model.sweeps, model.converged) == (reference.sweeps, reference.converged) == (
            3, False)
        assert model.w.tobytes() == reference.w.tobytes()
        assert model.final_violation == reference.final_violation


class TestOracleEquivalence:
    @pytest.mark.parametrize("loss", [L1_HINGE, L2_HINGE])
    def test_small_batch_matches_reference(self, loss):
        rng = np.random.RandomState(77)
        for trial in range(20):
            rows, y, C, _ = random_problem(rng, loss=loss)
            problem = TrainingProblem.from_matrix(rows, y, loss=loss)
            monitor = TrainingMonitor()
            train_dual_cd(
                problem,
                SolverParams(C=C, eps=1e-8, max_outer_iters=50_000, seed=trial),
                monitor,
            )
            ours = dual_objective(monitor.final_alpha, problem, C)
            raw_dim = rows.dimension
            _, reference = solve_dual_reference(
                augmented_dense(rows, raw_dim), y, C, loss
            )
            assert ours == pytest.approx(reference, rel=1e-4, abs=1e-8)


class TestDualObjective:
    def test_alpha_length_checked(self):
        with pytest.raises(DimensionError):
            dual_objective([0.1], two_point_problem(), 1.0)

    def test_matches_dense_formula(self):
        rng = np.random.RandomState(3)
        rows, y, C, loss = random_problem(rng, n=8, d=3)
        problem = TrainingProblem.from_matrix(rows, y, loss=loss)
        alpha = rng.rand(8)
        X = augmented_dense(rows, 3)
        Xy = X * np.asarray(y, float)[:, None]
        Q = Xy @ Xy.T
        if loss == L2_HINGE:
            Q = Q + np.eye(8) / (2 * C)
        expected = alpha.sum() - 0.5 * alpha @ Q @ alpha
        assert dual_objective(alpha, problem, C) == pytest.approx(expected, rel=1e-12)


class TestWeightsFromAlpha:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_equals_the_row_by_row_sum(self, seed):
        rng = np.random.RandomState(seed)
        problem, _, _ = sparse_problem(rng, int(rng.randint(2, 30)), int(rng.randint(1, 8)),
                                       L2_HINGE)
        alpha = rng.rand(problem.n_rows) * (rng.rand(problem.n_rows) < 0.7)
        expected = np.zeros(problem.dimension)
        for i in range(problem.n_rows):
            if alpha[i] != 0.0:
                cols, vals = problem.row(i)
                expected[cols] += (alpha[i] * problem.y[i]) * vals
        assert np.max(np.abs(weights_from_alpha(problem, alpha) - expected)) <= 1e-12


class TestSharedSetup:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.sampled_from([L1_HINGE, L2_HINGE]),
        pos_cost=st.sampled_from([1.0, 2.5]),
    )
    @settings(max_examples=30, deadline=None)
    def test_norms_costs_and_bounds_match_the_per_row_formulas(self, seed, loss, pos_cost):
        rng = np.random.RandomState(seed)
        problem = ragged_problem(rng, int(rng.randint(2, 16)), int(rng.randint(1, 6)),
                                 int(rng.randint(1, 60)), loss, pos_cost)
        C = float(10 ** rng.uniform(-2, 1))
        rows = [problem.row(i)[1] for i in range(problem.n_rows)]
        scale = [pos_cost if label > 0 else 1.0 for label in problem.y]
        assert problem.squared_norms.tobytes() == np.array([v @ v for v in rows]).tobytes()
        assert problem.cost_scale.tobytes() == np.array(scale).tobytes()
        upper, dcoef = svm._bounds_and_diag(loss, C * problem.cost_scale)
        if loss == L1_HINGE:
            expected = [(C * m, 0.0) for m in scale]
        else:
            expected = [(np.inf, 1.0 / (2.0 * (C * m))) for m in scale]
        assert np.array([upper, dcoef]).T.tobytes() == np.array(expected).tobytes()


class TestLockstep:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.sampled_from([L1_HINGE, L2_HINGE]),
        pos_cost=st.sampled_from([1.0, 2.5]),
        max_outer_iters=st.sampled_from([1, 1000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_pair_matches_the_scalar_solver(self, seed, loss, pos_cost, max_outer_iters):
        rng = np.random.RandomState(seed)
        # Folds differ in row count and dimension, and one has a row far
        # longer than the rest and bias-only rows, so chunks differ in width.
        problems = [
            sparse_problem(rng, int(rng.randint(2, 16)), int(rng.randint(1, 6)), loss, pos_cost)[0]
            for _ in range(rng.randint(0, 3))
        ]
        problems.insert(rng.randint(len(problems) + 1), ragged_problem(
            rng, int(rng.randint(2, 16)), int(rng.randint(1, 6)), int(rng.randint(30, 300)),
            loss, pos_cost))
        c_values = tuple(sorted({round(float(c), 4) for c in 10 ** rng.uniform(-2, 1, 3)}))
        params = [SolverParams(C=1.0, eps=1e-3, max_outer_iters=max_outer_iters,
                               seed=int(rng.randint(2**31))) for _ in problems]
        scalar = TrainingMonitor()
        references = {(f, g): train_dual_cd(problems[f], replace(params[f], C=c_values[g]), scalar)
                      for f in range(len(problems)) for g in range(len(c_values))}
        # Every step its own chunk, the default, and one chunk per sweep.
        for slots in (1, svm._CHUNK_SLOTS, 10**9):
            monitor = TrainingMonitor()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(svm, "_CHUNK_SLOTS", slots)
                models = lockstep_models(problems, c_values, params, monitor)
            assert sorted(models) == sorted(references)
            for (f, g), model in sorted(models.items()):
                reference = references[f, g]
                assert (model.sweeps, model.converged) == (reference.sweeps, reference.converged)
                assert np.max(np.abs(model.w - reference.w)) <= 1e-9
                assert model.final_violation == pytest.approx(
                    reference.final_violation, rel=1e-9, abs=1e-12)
                assert (model.loss, model.seed) == (loss, params[f].seed)
            # Steps are not compared: a step of about 1e-16 can round to zero on
            # one path and not the other, since the row dots sum in another order.
            assert (monitor.trainings, monitor.sweeps) == (scalar.trainings, scalar.sweeps)
            assert monitor.objective_decreases == 0
            assert monitor.dual_objective == pytest.approx(
                scalar.dual_objective, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("loss, pos_cost", [(L1_HINGE, 1.0), (L2_HINGE, 2.5)])
    def test_left_to_right_sums_make_each_pair_the_scalar_solve_bit_for_bit(
            self, monkeypatch, seed, loss, pos_cost):
        # Padded slots add exact zeros after a row's real products, so once
        # both solvers add each row left to right, nothing is left to differ:
        # not the chunking of a sweep, nor which folds share a group.
        monkeypatch.setattr(svm, "_row_dot", left_to_right_dot)
        rng = np.random.RandomState(seed)
        problems = [sparse_problem(rng, int(rng.randint(2, 16)), int(rng.randint(1, 6)),
                                   loss, pos_cost)[0] for _ in range(3)]
        problems.insert(1, ragged_problem(rng, 12, 4, 60, loss, pos_cost))
        c_values = (0.05, 0.5, 2.0)
        params = [SolverParams(C=1.0, eps=1e-2, seed=int(rng.randint(2**31))) for _ in problems]
        scalar = TrainingMonitor()
        references = {(f, g): train_dual_cd(problems[f], replace(params[f], C=c_values[g]), scalar)
                      for f in range(len(problems)) for g in range(len(c_values))}
        # Every fold alone, groups within the first two folds' state, and one group.
        budgets = (0, state_bytes(problems[:2], len(c_values)), svm.LOCKSTEP_STATE_BYTES)
        for slots in (1, svm._CHUNK_SLOTS, 10**9):
            for budget in budgets:
                monkeypatch.setattr(svm, "_CHUNK_SLOTS", slots)
                monkeypatch.setattr(svm, "LOCKSTEP_STATE_BYTES", budget)
                monitor = TrainingMonitor()
                models = lockstep_models(problems, c_values, params, monitor)
                assert sorted(models) == sorted(references)
                for key, model in models.items():
                    reference = references[key]
                    assert model.w.tobytes() == reference.w.tobytes()
                    assert (model.sweeps, model.final_violation, model.converged) == (
                        reference.sweeps, reference.final_violation, reference.converged)
                assert (monitor.trainings, monitor.sweeps, monitor.steps) == (
                    scalar.trainings, scalar.sweeps, scalar.steps)

    @pytest.mark.parametrize("loss", [L1_HINGE, L2_HINGE])
    def test_objectives_match_the_reference_solver(self, loss):
        rng = np.random.RandomState(11)
        built = [sparse_problem(rng, n, d, loss, pos_cost=2.0) for n, d in ((9, 3), (14, 5), (6, 2))]
        c_values = (0.1, 1.0, 5.0)
        params = [SolverParams(C=1.0, eps=1e-8, max_outer_iters=50_000, seed=f) for f in range(3)]
        monitor = TrainingMonitor()
        models = lockstep_models([problem for problem, _, _ in built], c_values, params, monitor)
        total = 0.0
        for (f, g), model in models.items():
            _, rows, y = built[f]
            X = augmented_dense(rows, rows.dimension)
            _, reference = solve_dual_reference(X, y, c_values[g], loss, pos_cost=2.0)
            assert model.converged
            # Strong duality: the primal objective at w is the dual optimum.
            assert primal_objective(model.w, X, y, c_values[g], loss, 2.0) == pytest.approx(
                reference, rel=1e-4, abs=1e-8)
            total += reference
        assert monitor.dual_objective == pytest.approx(total, rel=1e-4, abs=1e-8)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_dropping_stopped_costs_in_place_equals_compress(self, seed):
        rng = np.random.RandomState(seed)
        a = rng.randn(int(rng.randint(1, 3000)), 1, int(rng.randint(1, 6)))  # > 1 block
        keep = rng.rand(a.shape[-1]) < 0.6
        expected = a.compress(keep, axis=-1)
        got = _compress_in_place(a.copy(), keep)
        assert np.array_equal(got, expected)
        assert got.flags.c_contiguous

    def test_state_bytes_counts_real_entries_weights_and_multipliers(self):
        rng = np.random.RandomState(2)
        small = TrainingProblem.from_matrix(dense_rows(rng.randn(4, 2)), [1, -1, 1, -1])
        large = TrainingProblem.from_matrix(dense_rows(rng.randn(6, 5)), [1, -1] * 3)
        # 4 rows of 3 entries (2 features + bias) in dimension 3; 6 rows of 6 in dimension 6.
        assert state_bytes([small], 3) == 4 * 3 * 12 + (3 + 4) * 3 * 8
        assert state_bytes([small, large], 3) == (4 * 3 * 12 + (3 + 4) * 3 * 8
                                                  + 6 * 6 * 12 + (6 + 6) * 3 * 8)
        # Lengthening one row by 35 entries adds those entries only.
        pairs = [[(j, 1.0) for j in range(5)] for _ in range(6)]
        short = TrainingProblem.from_matrix(matrix_from_pairs(pairs, 40), [1, -1] * 3)
        pairs[0] = [(j, 1.0) for j in range(40)]
        long = TrainingProblem.from_matrix(matrix_from_pairs(pairs, 40), [1, -1] * 3)
        assert state_bytes([long], 3) == state_bytes([short], 3) + 35 * 12

    def test_final_alpha_is_the_last_scalar_solve(self):
        monitor = TrainingMonitor()
        list(solve_folds([(two_point_problem(), 3)], (0.5, 1.0), 1e-10, 1000, monitor))
        assert monitor.final_alpha is None
        problem = two_point_problem()
        model = train_dual_cd(problem, SolverParams(C=1.0, eps=1e-10, seed=3), monitor)
        assert monitor.final_alpha == pytest.approx([0.4, 0.4], abs=1e-9)
        assert np.max(np.abs(weights_from_alpha(problem, monitor.final_alpha) - model.w)) <= 1e-12
        list(solve_folds([(two_point_problem(), 3)], (0.5,), 1e-10, 1000, monitor))
        assert monitor.final_alpha == pytest.approx([0.4, 0.4], abs=1e-9)

    def test_solves_one_problem_and_nothing_for_none(self):
        models = list(solve_folds([(two_point_problem(), 3)], (1.0,), 1e-10, 1000))
        assert [(index, cost) for index, cost, _ in models] == [(0, 0)]
        assert models[0][2].w == pytest.approx([0.8, 0.0], abs=1e-6)
        assert list(solve_folds([], (1.0,), 0.1, 1000)) == []

    @pytest.mark.parametrize("budget_in_problems, pulls", [
        (0, [2, 3, 4, 5, 6]),       # below one problem's state: a group still holds one
        (2.5, [3, 3, 5, 5, 6]),
        (100, [6, 6, 6, 6, 6]),
    ])
    def test_pulls_at_most_one_problem_past_the_group(self, monkeypatch, budget_in_problems,
                                                      pulls):
        rng = np.random.RandomState(5)
        # Dense rows of one shape: every problem's state is the same size.
        problems = [TrainingProblem.from_matrix(dense_rows(rng.randn(8, 4)), [1, -1] * 4)
                    for _ in range(5)]
        monkeypatch.setattr(svm, "LOCKSTEP_STATE_BYTES",
                            budget_in_problems * state_bytes(problems[:1], 2))
        pulled = 0

        def counted():
            nonlocal pulled
            for seed, problem in enumerate(problems):
                pulled += 1
                yield problem, seed
            pulled += 1     # the pull that finds no problem left

        first_seen = {}
        for index, _, _ in solve_folds(counted(), (0.5, 2.0), 0.1, 1000):
            first_seen.setdefault(index, pulled)
        assert [first_seen[i] for i in range(5)] == pulls

    def test_problems_must_share_one_loss(self):
        problems = [(two_point_problem(loss=L2_HINGE), 0), (two_point_problem(loss=L1_HINGE), 1)]
        with pytest.raises(ContractViolation, match="loss"):
            list(solve_folds(problems, (1.0,), 0.1, 1000))

    @pytest.mark.parametrize("c_values, eps, max_outer_iters, message", [
        ((), 0.1, 1000, "costs"),
        ((0.0,), 0.1, 1000, "costs"),
        ((float("nan"),), 0.1, 1000, "costs"),
        ((1.0,), 0.0, 1000, "eps"),
        ((1.0,), 0.1, 0, "max_outer_iters"),
    ])
    def test_rejects_bad_costs_and_stopping_rule(self, c_values, eps, max_outer_iters, message):
        with pytest.raises(ContractViolation, match=message):
            next(solve_folds([(two_point_problem(), 0)], c_values, eps, max_outer_iters))
