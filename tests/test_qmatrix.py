"""Tests for the reduced LS-SVM system (Eq. 13/14/16)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import kernel_matrix
from repro.core.qmatrix import (
    EXPLICIT_LIMIT,
    ExplicitQMatrix,
    ImplicitQMatrix,
    build_reduced_system,
    recover_bias_and_alpha,
    reduced_rhs,
)
from repro.data.synthetic import make_planes
from repro.exceptions import DataError, InvalidParameterError
from repro.membudget import memory_budget
from repro.parameter import Parameter


def _reference_qtilde(X, y, param):
    """Direct construction of Q_tilde from Eq. 16, element by element."""
    param = param.with_gamma_for(X.shape[1])
    kw = param.kernel_kwargs()
    m = X.shape[0]
    K = kernel_matrix(X, X, param.kernel, **kw)
    n = m - 1
    Q = np.empty((n, n))
    inv_c = 1.0 / param.cost
    for i in range(n):
        for j in range(n):
            Q[i, j] = (
                K[i, j]
                + (inv_c if i == j else 0.0)
                - K[m - 1, j]
                - K[i, m - 1]
                + K[m - 1, m - 1]
                + inv_c
            )
    return Q


@pytest.fixture(params=["linear", "polynomial", "rbf"])
def kernel_param(request):
    if request.param == "linear":
        return Parameter(kernel="linear", cost=2.0)
    if request.param == "polynomial":
        return Parameter(kernel="polynomial", cost=2.0, gamma=0.1, degree=2, coef0=1.0)
    return Parameter(kernel="rbf", cost=2.0, gamma=0.2)


class TestConstruction:
    def test_explicit_matches_eq16(self, planes_small, kernel_param):
        X, y = planes_small
        X, y = X[:20], y[:20]
        q = ExplicitQMatrix(X, y, kernel_param)
        assert np.allclose(q.to_dense(), _reference_qtilde(X, y, kernel_param))

    def test_implicit_matches_explicit(self, planes_small, kernel_param):
        X, y = planes_small
        X, y = X[:24], y[:24]
        explicit = ExplicitQMatrix(X, y, kernel_param)
        implicit = ImplicitQMatrix(X, y, kernel_param, tile_rows=5)
        v = np.linspace(-1, 1, X.shape[0] - 1)
        assert np.allclose(explicit.matvec(v), implicit.matvec(v), atol=1e-9)

    def test_qtilde_is_spd(self, planes_small, kernel_param):
        X, y = planes_small
        X, y = X[:30], y[:30]
        Q = ExplicitQMatrix(X, y, kernel_param).to_dense()
        assert np.allclose(Q, Q.T, atol=1e-9)
        assert np.linalg.eigvalsh(Q).min() > 0

    def test_shape_is_m_minus_one(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        assert q.shape == (X.shape[0] - 1, X.shape[0] - 1)

    def test_matvec_counts(self, planes_small, linear_param):
        X, y = planes_small
        q = ImplicitQMatrix(X, y, linear_param)
        v = np.ones(q.shape[0])
        q.matvec(v)
        q.matvec(v)
        assert q.num_matvecs == 2


class TestRhs:
    def test_reduced_rhs(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.allclose(reduced_rhs(y), [2.0, 0.0, 2.0])

    def test_rhs_from_matrix(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        assert np.allclose(q.rhs(), y[:-1] - y[-1])


class TestValidation:
    def test_rejects_mismatched_lengths(self, linear_param):
        with pytest.raises(DataError):
            ExplicitQMatrix(np.ones((4, 2)), np.ones(3), linear_param)

    def test_rejects_single_point(self, linear_param):
        with pytest.raises(DataError):
            ExplicitQMatrix(np.ones((1, 2)), np.array([1.0]), linear_param)

    def test_rejects_non_binary_labels(self, linear_param):
        with pytest.raises(DataError):
            ExplicitQMatrix(np.ones((3, 2)), np.array([1.0, 2.0, -1.0]), linear_param)

    def test_rejects_single_class(self, linear_param):
        with pytest.raises(DataError):
            ExplicitQMatrix(np.ones((3, 2)), np.array([1.0, 1.0, 1.0]), linear_param)

    def test_rejects_nan_features(self, linear_param):
        X = np.ones((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(DataError):
            ExplicitQMatrix(X, np.array([1.0, -1.0, 1.0, -1.0]), linear_param)

    def test_rejects_wrong_vector_length(self, planes_small, linear_param):
        X, y = planes_small
        q = ImplicitQMatrix(X, y, linear_param)
        with pytest.raises(DataError):
            q.matvec(np.ones(q.shape[0] + 1))

    def test_rejects_bad_tile_rows(self, planes_small, linear_param):
        X, y = planes_small
        with pytest.raises(DataError):
            ImplicitQMatrix(X, y, linear_param, tile_rows=0)


class TestBuildReducedSystem:
    def test_auto_matrix_free_for_every_kernel(self, planes_small):
        X, y = planes_small
        for kernel in ("linear", "polynomial", "rbf", "sigmoid"):
            q, rhs = build_reduced_system(X, y, Parameter(kernel=kernel))
            assert isinstance(q, ImplicitQMatrix), kernel
            assert q.operator_name == "implicit"
            assert rhs.shape == (X.shape[0] - 1,)

    def test_explicit_on_request_and_refused_past_budget(
        self, planes_small, linear_param
    ):
        X, y = planes_small
        q, _ = build_reduced_system(X, y, linear_param, implicit=False)
        assert isinstance(q, ExplicitQMatrix)
        assert q.operator_name == "explicit"
        # The dense (m-1)^2 system of 128 points needs ~126 KiB.
        with memory_budget(0.01):
            with pytest.raises(InvalidParameterError, match="memory budget"):
                build_reduced_system(X, y, linear_param, implicit=False)
            q, _ = build_reduced_system(X, y, linear_param)
            assert isinstance(q, ImplicitQMatrix)

    def test_ridge_and_regression_targets_pass_through(self, planes_small, rbf_param):
        X, y = planes_small
        ridge = np.linspace(0.5, 2.0, X.shape[0])
        targets = X[:, 0] * 3.0  # real-valued: would fail the +/-1 check
        ops = []
        for implicit in (None, False):
            q, rhs = build_reduced_system(
                X, targets, rbf_param, implicit=implicit, ridge=ridge,
                binary_labels=False,
            )
            np.testing.assert_allclose(q.ridge_bar, ridge[:-1])
            np.testing.assert_allclose(rhs, targets[:-1] - targets[-1])
            ops.append(q)
        matrix_free, dense = ops
        assert isinstance(matrix_free, ImplicitQMatrix)
        assert isinstance(dense, ExplicitQMatrix)
        np.testing.assert_allclose(
            matrix_free.to_dense(), dense.to_dense(), atol=1e-12
        )

    def test_auto_threshold_respected(self):
        assert EXPLICIT_LIMIT >= 1024  # sanity: dense solve stays feasible

    def test_forced_implicit(self, planes_small, linear_param):
        X, y = planes_small
        q, _ = build_reduced_system(X, y, linear_param, implicit=True)
        assert isinstance(q, ImplicitQMatrix)


class TestSolutionRecovery:
    def test_full_system_solution_satisfies_eq11(self, linear_param):
        """Solve the reduced system exactly and verify it satisfies Eq. 11."""
        X, y = make_planes(24, 4, rng=3)
        param = linear_param
        q = ExplicitQMatrix(X, y, param)
        alpha_bar = np.linalg.solve(q.to_dense(), q.rhs())
        alpha, bias = recover_bias_and_alpha(q, alpha_bar)

        # Eq. 11: [Q 1; 1^T 0] [alpha; b] = [y; 0] with Q = K + I/C.
        m = X.shape[0]
        K = kernel_matrix(X, X, param.kernel) + np.eye(m) / param.cost
        residual_rows = K @ alpha + bias - y
        assert np.allclose(residual_rows, 0.0, atol=1e-8)
        assert alpha.sum() == pytest.approx(0.0, abs=1e-9)

    def test_alpha_m_closes_constraint(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        alpha_bar = np.linspace(-1, 1, q.shape[0])
        alpha, _ = recover_bias_and_alpha(q, alpha_bar)
        assert alpha.shape[0] == X.shape[0]
        assert alpha.sum() == pytest.approx(0.0, abs=1e-10)

    def test_rejects_wrong_alpha_length(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        with pytest.raises(DataError):
            recover_bias_and_alpha(q, np.ones(q.shape[0] + 2))


class TestProperties:
    @given(
        n=st.integers(4, 16),
        d=st.integers(1, 4),
        cost=st.floats(0.1, 100.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_implicit_equals_explicit_linear(self, n, d, cost, seed):
        X, y = make_planes(n, d, rng=seed)
        param = Parameter(kernel="linear", cost=cost)
        explicit = ExplicitQMatrix(X, y, param)
        implicit = ImplicitQMatrix(X, y, param, tile_rows=3)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n - 1)
        a, b = explicit.matvec(v), implicit.matvec(v)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)

    @given(n=st.integers(4, 14), cost=st.floats(0.1, 50.0), seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_spd_property(self, n, cost, seed):
        X, y = make_planes(n, 3, rng=seed)
        param = Parameter(kernel="rbf", cost=cost, gamma=0.5)
        Q = ExplicitQMatrix(X, y, param).to_dense()
        v = np.random.default_rng(seed).standard_normal(n - 1)
        assert float(v @ Q @ v) > 0
