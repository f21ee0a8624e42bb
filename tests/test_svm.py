import numpy as np
import pytest

from pedcascade.svm import SvmConfig, svm_objective, train_svm

scipy_optimize = pytest.importorskip("scipy.optimize")


def make_problem(rng, n=60, d=4, sep=2.0):
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = rng.normal(size=(n, d))
    X[:, 0] += sep * y
    return X, y


class TestConfig:
    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            SvmConfig(C=0.0)


class TestObjective:
    def test_closed_form_value(self):
        w = np.array([1.0, -2.0])
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, -1.0])
        # margins: 1*(1+0.5)=1.5 (no hinge), -1*(-2+0.5)=1.5 (no hinge)
        assert svm_objective(w, 0.5, X, y, C=3.0) == pytest.approx(2.5)
        # shift bias so at least one margin falls below 1
        got = svm_objective(w, -1.0, X, y, C=1.0)
        m1 = 1.0 * (1.0 - 1.0)
        m2 = -1.0 * (-2.0 - 1.0)
        hinge = max(0.0, 1.0 - m1) + max(0.0, 1.0 - m2)
        assert got == pytest.approx(2.5 + hinge)


class TestTraining:
    def test_rejects_single_class(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError):
            train_svm(X, np.ones(5), SvmConfig())

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError):
            train_svm(np.ones((5, 2)), np.ones(4), SvmConfig())

    def test_separable_data_classified(self):
        rng = np.random.default_rng(0)
        X, y = make_problem(rng, sep=3.0)
        w, b = train_svm(X, y, SvmConfig(C=1.0, iterations=2000))
        pred = np.sign(X @ w + b)
        assert np.mean(pred == y) >= 0.95

    def test_objective_near_reference_optimum(self):
        """The subgradient solution should come within 1e-3 (relative) of a
        general-purpose solver's optimum on small dense problems."""
        rng = np.random.default_rng(1)
        for C in (1e-3, 1e-1, 1.0):
            X, y = make_problem(rng, n=40, d=3, sep=1.0)

            def obj(p):
                return svm_objective(p[:-1], p[-1], X, y, C)

            best = min(
                scipy_optimize.minimize(obj, np.zeros(4), method="Nelder-Mead",
                                        options={"xatol": 1e-8, "fatol": 1e-10,
                                                 "maxiter": 20000}).fun
                for _ in range(1)
            )
            w, b = train_svm(X, y, SvmConfig(C=C, iterations=6000))
            got = svm_objective(w, b, X, y, C)
            assert got <= best * (1 + 1e-3) + 1e-9, (C, got, best)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X, y = make_problem(rng)
        cfg = SvmConfig(C=0.01)
        w1, b1 = train_svm(X, y, cfg)
        w2, b2 = train_svm(X, y, cfg)
        assert np.array_equal(w1, w2) and b1 == b2

    def test_small_c_shrinks_weights(self):
        rng = np.random.default_rng(3)
        X, y = make_problem(rng)
        w_small, _ = train_svm(X, y, SvmConfig(C=1e-4))
        w_big, _ = train_svm(X, y, SvmConfig(C=1.0))
        assert np.linalg.norm(w_small) < np.linalg.norm(w_big)
