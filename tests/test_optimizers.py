import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tweet2traffic.errors import NotConverged
from tweet2traffic.features.assemble import FeatureMatrix
from tweet2traffic.learn.optimizers import (
    LinearModel,
    fit_l1_logistic,
    fit_lasso,
    lasso_kkt_violation,
    sigmoid,
    soft_threshold,
)
from tweet2traffic.learn.selection import (
    _alive_columns,
    _cv_losses,
    _destandardize,
    _log_loss,
    _squared_loss,
    _standardize,
    contiguous_folds,
    fit_l1_logistic_cv,
    fit_lasso_cv,
    penalty_grid,
)


def random_instance(rng, n, p, noise=0.5):
    X = rng.normal(size=(n, p))
    w_true = np.zeros(p)
    k = max(1, p // 5)
    w_true[rng.choice(p, size=k, replace=False)] = rng.normal(size=k) * 2
    y = X @ w_true + 1.5 + noise * rng.normal(size=n)
    return X, y


def standardized(fit, X, y, penalty, **kw):
    """`fit` on X's z-scored columns, its weights mapped back to X's frame."""
    Xs, *frame = _standardize(X)
    model = fit(Xs, y, penalty, **kw)
    w, b = _destandardize(model.weights, model.bias, *frame)
    return replace(model, weights=w, bias=b)


class TestLasso:
    def test_alpha_zero_matches_least_squares(self):
        rng = np.random.default_rng(0)
        X, y = random_instance(rng, 80, 10)
        model = fit_lasso(X, y, alpha=0.0)
        A = np.column_stack([X, np.ones(len(y))])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert np.abs(model.weights - coef[:-1]).max() < 1e-6
        assert abs(model.bias - coef[-1]) < 1e-6

    def test_orthonormal_soft_threshold(self):
        # single unit-norm column, no bias: coefficient = soft(x.y, alpha/2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        x /= np.linalg.norm(x)
        y = 2.0 * x
        model = fit_lasso(x[:, None], y, alpha=1.0, fit_bias=False)
        assert model.weights[0] == pytest.approx(1.5, abs=1e-8)

    def test_orthonormal_multicolumn(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.normal(size=(60, 5)))
        ols = np.array([3.0, -1.2, 0.3, 0.0, -0.6])
        y = Q @ ols
        alpha = 1.0
        model = fit_lasso(Q, y, alpha=alpha, fit_bias=False)
        want = np.sign(ols) * np.maximum(np.abs(ols) - alpha / 2.0, 0.0)
        assert np.abs(model.weights - want).max() < 1e-8

    def test_critical_alpha_all_zero(self):
        rng = np.random.default_rng(3)
        X, y = random_instance(rng, 60, 8)
        alpha_max = 2.0 * np.abs(X.T @ (y - y.mean())).max()
        model = fit_lasso(X, y, alpha=alpha_max * 1.001)
        assert np.all(model.weights == 0.0)
        assert model.bias == pytest.approx(y.mean())

    def test_kkt_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(20, 200))
            p = int(rng.integers(2, 50))
            X, y = random_instance(rng, n, p)
            alpha = float(rng.uniform(0.1, 20.0))
            model = fit_lasso(X, y, alpha=alpha)
            assert lasso_kkt_violation(X, y, model) < 1e-6

    def test_warm_start_same_solution(self):
        rng = np.random.default_rng(5)
        X, y = random_instance(rng, 50, 12)
        cold = fit_lasso(X, y, alpha=5.0)
        first = fit_lasso(X, y, alpha=20.0)
        warm = fit_lasso(X, y, alpha=5.0, warm_start=(first.weights, first.bias))
        assert np.abs(cold.weights - warm.weights).max() < 1e-6

    def test_zero_variance_column_zero_coef(self):
        rng = np.random.default_rng(6)
        X, y = random_instance(rng, 40, 5)
        X[:, 2] = 3.14
        model = standardized(fit_lasso, X, y, 1.0)
        assert model.weights[2] == 0.0


class TestL1Logistic:
    def test_objective_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = rng.normal(size=(60, 8))
            y = (rng.random(60) < sigmoid(X[:, 0] - 0.5)).astype(float)
            model = standardized(fit_l1_logistic, X, y, 1.0)
            path = model.objective_path
            assert all(a >= b - 1e-9 for a, b in zip(path, path[1:]))

    def test_huge_lambda_intercept_only(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 6))
        y = (rng.random(200) < 0.3).astype(float)
        model = standardized(fit_l1_logistic, X, y, 1e6, tol=1e-10)
        pbar = y.mean()
        assert np.all(model.weights == 0.0)
        assert model.bias == pytest.approx(np.log(pbar / (1 - pbar)), abs=1e-3)

    def test_mirror_symmetry_zero_weight(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=50)
        y = (rng.random(50) < 0.5).astype(float)
        X = np.concatenate([x, -x])[:, None]
        yy = np.concatenate([y, y])
        model = fit_l1_logistic(X, yy, lam=0.5)
        assert abs(model.weights[0]) < 1e-8

    def test_separable_data_finite_weights(self):
        X = np.linspace(-2, 2, 40)[:, None]
        y = (X[:, 0] > 0).astype(float)
        model = standardized(fit_l1_logistic, X, y, 0.5)
        assert np.all(np.isfinite(model.weights))
        assert np.isfinite(model.bias)

    def test_recovers_signal_direction(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(400, 5))
        logits = 2.0 * X[:, 1] - 1.5 * X[:, 3]
        y = (rng.random(400) < sigmoid(logits)).astype(float)
        model = standardized(fit_l1_logistic, X, y, 2.0)
        assert model.weights[1] > 0.1
        assert model.weights[3] < -0.1
        assert abs(model.weights[0]) < abs(model.weights[1])

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 4))
        y = (rng.random(30) < 0.5).astype(float)
        model = standardized(fit_l1_logistic, X, y, 0.1)
        proba = model.predict_proba(X)
        assert np.all((proba > 0) & (proba < 1))



def _the_warning(fit, *args, **kw):
    """The fitted model and the one NotConverged message of `fit(*args, **kw)`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit(*args, **kw)
    messages = [str(w.message) for w in caught if issubclass(w.category, NotConverged)]
    assert len(messages) == 1, messages
    return model, messages[0]


class TestNotConvergedNamesItsCap:
    def test_lasso_working_set_rounds(self):
        # a rank-3 design plus noise at a small penalty: the KKT check keeps
        # re-admitting a violator until the rounds run out, far below max_iter
        rng = np.random.default_rng(52)
        n, p = int(rng.integers(8, 30)), int(rng.integers(20, 80))
        X = rng.normal(size=(n, 3)) @ rng.normal(size=(3, p)) + 0.05 * rng.normal(size=(n, p))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = X[:, 0] - X[:, 1] + 0.3 * rng.normal(size=n)
        yc = y - y.mean()
        critical = 2.0 * np.abs(X.T @ yc).max()
        model, message = _the_warning(fit_lasso, X, y, 0.01 * critical,
                                      tol=1e-6 * float(yc @ yc))
        assert (n, p, model.converged, model.n_iter) == (29, 56, False, 548)
        assert message == ("lasso did not converge: 100 working-set rounds ran out "
                           "after 548 of max_iter=10000 sweeps")

    def test_lasso_sweep_cap(self):
        X, y = random_instance(np.random.default_rng(3), 40, 10)
        model, message = _the_warning(fit_lasso, X, y, 1.0, tol=0.0, max_iter=3)
        assert not model.converged and model.n_iter == 3
        assert message == "lasso did not converge: max_iter=3 sweeps ran out"

    def test_logistic_iteration_cap(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 8))
        y = (rng.random(60) < sigmoid(X[:, 0] - 0.5)).astype(float)
        model, message = _the_warning(fit_l1_logistic, X, y, 1.0, tol=0.0, max_iter=2)
        assert not model.converged and model.n_iter == 2
        assert message == "l1 logistic did not converge: max_iter=2 iterations ran out"

    def test_logistic_line_search(self):
        # an objective above 2**14 has a unit in the last place above 2e-12, so
        # with tol=0 the first rounding increase trips the no-increase guard
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40000, 8))
        y = (rng.random(40000) < sigmoid(X[:, 0] - 0.5)).astype(float)
        model, message = _the_warning(fit_l1_logistic, X, y, 1.0, tol=0.0)
        assert model.objective_path[-1] > 2 ** 14 and not model.converged
        assert message == ("l1 logistic did not converge: the line search found no "
                           f"decrease at iteration {model.n_iter}")
        assert model.n_iter < 10000

def _feature_view(values, keep):
    """`values` as `keep` sees it through a FeatureMatrix of mixed groups."""
    groups = ["tweet_sleep", "weather", "time", "tweet_period"]
    p = values.shape[1]
    fm = FeatureMatrix([f"x{j}" for j in range(p)], [groups[j % 4] for j in range(p)],
                       [float(j % 7) for j in range(p)], list(range(len(values))), values)
    return keep(fm).values


BATCH_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "drop_groups": lambda v: _feature_view(v, lambda fm: fm.drop_groups({"weather"})),
    "before_cutoff": lambda v: _feature_view(v, lambda fm: fm.before_cutoff(3.0)),
}


@pytest.mark.parametrize("layout", sorted(BATCH_LAYOUTS))
def test_linear_model_gives_each_row_the_same_bits_in_any_batch(layout):
    """decision and predict_proba give a row the same bits alone, in four
    stacked copies and in a batch with rows appended, whatever the layout of
    the batch; the cluster scales and served rows depend on it."""
    make = BATCH_LAYOUTS[layout]
    rng = np.random.default_rng(20)
    for trial in range(12):
        n, extra = int(rng.integers(20, 120)), int(rng.integers(1, 30))
        full = rng.normal(size=(n + extra, int(rng.integers(50, 260))))
        X, appended = make(full[:n]), make(full)
        model = LinearModel(rng.normal(size=X.shape[1]), float(rng.normal()),
                            [], 0.0, "LOGISTIC")
        for evaluate in (model.decision, model.predict_proba):
            batch = evaluate(X)
            assert np.array_equal(evaluate(appended)[:n], batch), (trial, evaluate)
            for i in range(n):
                alone = make(full[i:i + 1])
                assert evaluate(alone)[0] == batch[i], (trial, i)
                assert np.array_equal(evaluate(make(np.repeat(full[i:i + 1], 4, axis=0))),
                                      np.repeat(batch[i], 4)), (trial, i)


def test_soft_threshold():
    assert soft_threshold(np.array([2.0, -2.0, 0.3]), 0.5).tolist() == [1.5, -1.5, 0.0]


def test_sigmoid_extremes_stable():
    z = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(z)
    assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0


# --------------------------------------------------------------------------
# Bit-for-bit guard: the BLAS sweep in fit_lasso and selection's per-design
# standardization in the CV loops must reproduce the scalar solver exactly.
# --------------------------------------------------------------------------

def _reference_standardize(X):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    alive = scale > 1e-12
    scale_safe = np.where(alive, scale, 1.0)
    return np.where(alive, (X - mean) / scale_safe, 0.0), mean, scale_safe, alive


def _reference_destandardize(w_std, b_std, mean, scale, alive):
    w = np.where(alive, w_std / scale, 0.0)
    return w, b_std - float(mean @ w)


def reference_fit_lasso(X, y, alpha, tol=1e-8, max_iter=10000, standardize=True,
                        fit_bias=True, warm_start=None):
    """The scalar coordinate-descent sweep fit_lasso was first written with."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if standardize:
        Xs, mean, scale, alive = _reference_standardize(X)
    else:
        Xs, mean, scale, alive = X, np.zeros(p), np.ones(p), np.ones(p, bool)
    if warm_start is not None:
        w = warm_start[0].copy()
        b = float(warm_start[1])
    else:
        w = np.zeros(p)
        b = float(y.mean()) if fit_bias else 0.0
    col_sq = (Xs ** 2).sum(axis=0)
    cols = np.ascontiguousarray(Xs.T)
    resid = y - Xs @ w - b
    thresh = alpha / 2.0
    inv_n = 1.0 / max(n, 1)

    def objective():
        return float(resid @ resid) + alpha * float(np.abs(w).sum())

    def sweep(indices):
        nonlocal b
        max_move = 0.0
        for j in indices:
            cj = col_sq[j]
            if cj <= 0:
                continue
            wj = w[j]
            xj = cols[j]
            rho = float(xj @ resid) + cj * wj
            if rho > thresh:
                new = (rho - thresh) / cj
            elif rho < -thresh:
                new = (rho + thresh) / cj
            else:
                new = 0.0
            if new != wj:
                np.add(resid, (wj - new) * xj, out=resid)
                w[j] = new
                delta = new - wj
                if delta < 0:
                    delta = -delta
                if delta > max_move:
                    max_move = delta
        if fit_bias:
            shift = float(resid.sum()) * inv_n
            b += shift
            np.subtract(resid, shift, out=resid)
            max_move = max(max_move, abs(shift))
        return max_move

    path = [objective()]
    converged = False
    sweeps = 0
    grad = Xs.T @ resid
    in_set = (np.abs(2.0 * grad) > alpha) | (w != 0.0)
    kkt_slack = 1e-9 * max(1.0, alpha)
    for _round in range(100):
        working = np.flatnonzero(in_set)
        obj = objective()
        inner_ok = False
        n_inner = 0
        while sweeps < max_iter:
            sweeps += 1
            n_inner += 1
            sweep(working)
            if n_inner == 3:
                working = np.flatnonzero(w != 0.0)
            new_obj = objective()
            if obj - new_obj < tol:
                inner_ok = True
                break
            obj = new_obj
        if inner_ok and tol <= 1e-7:
            w_scale = max(1.0, float(np.abs(w).max(initial=0.0)))
            for _ in range(200):
                sweeps += 1
                if sweep(working) <= 1e-13 * w_scale:
                    break
        resid = y - Xs @ w - b
        path.append(objective())
        grad = Xs.T @ resid
        violators = (w == 0.0) & (np.abs(2.0 * grad) > alpha + kkt_slack)
        if not violators.any():
            converged = inner_ok
            break
        in_set = (w != 0.0) | violators
    w_out, b_out = _reference_destandardize(w, b, mean, scale, alive)
    return SimpleNamespace(weights=w_out, bias=b_out, n_iter=sweeps, converged=converged,
                           objective_path=path, std_state=(w, b))


def assert_same_fit(model, ref):
    assert model.weights.tobytes() == ref.weights.tobytes()
    assert repr(model.bias) == repr(ref.bias)
    assert model.n_iter == ref.n_iter
    assert model.converged == ref.converged
    assert model.objective_path == ref.objective_path
    assert model.std_state[0].tobytes() == ref.std_state[0].tobytes()


def solver_fit(X, y, alpha, standardize=True, **kw):
    """fit_lasso in the reference's form: on X's z-scored columns when
    `standardize`, with `std_state` the solver's own (weights, bias)."""
    if standardize:
        Xs, *frame = _standardize(X)
    else:
        Xs, frame = X, (np.zeros(X.shape[1]), np.ones(X.shape[1]), True)
    model = fit_lasso(Xs, y, alpha, **kw)
    w, b = _destandardize(model.weights, model.bias, *frame)
    return SimpleNamespace(weights=w, bias=b, n_iter=model.n_iter, converged=model.converged,
                           objective_path=model.objective_path,
                           std_state=(model.weights, model.bias))


def both_fits(X, y, alpha, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        return solver_fit(X, y, alpha, **kw), reference_fit_lasso(X, y, alpha, **kw)


class TestLassoMatchesScalarSweep:
    def test_random_instances_p_greater_than_n(self):
        rng = np.random.default_rng(12)
        for trial in range(12):
            n = int(rng.integers(6, 40))
            p = int(rng.integers(n + 1, 3 * n + 2))
            X, y = random_instance(rng, n, p)
            critical = 2.0 * np.abs(X.T @ (y - y.mean())).max()
            alpha = critical * float(rng.choice([0.01, 0.03, 0.1, 0.3]))
            standardize = bool(trial % 2)
            model, ref = both_fits(X, y, alpha, standardize=standardize)
            assert_same_fit(model, ref)
            assert np.count_nonzero(model.weights) > 0

    def test_warm_start_path(self):
        rng = np.random.default_rng(13)
        X, y = random_instance(rng, 30, 60)
        critical = 2.0 * np.abs(X.T @ (y - y.mean())).max()
        warm = ref_warm = None
        for m in (0.3, 0.1, 0.03, 0.01):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NotConverged)
                model = solver_fit(X, y, m * critical, standardize=False, tol=1e-4,
                                   max_iter=200, warm_start=warm)
                ref = reference_fit_lasso(X, y, m * critical, standardize=False,
                                          tol=1e-4, max_iter=200, warm_start=ref_warm)
            assert_same_fit(model, ref)
            warm, ref_warm = model.std_state, ref.std_state

    def test_zero_variance_columns(self):
        rng = np.random.default_rng(14)
        X, y = random_instance(rng, 25, 40)
        X[:, [3, 17, 30]] = 2.5
        model, ref = both_fits(X, y, 1.0)
        assert_same_fit(model, ref)
        assert np.all(model.weights[[3, 17, 30]] == 0.0)

    def test_no_bias(self):
        rng = np.random.default_rng(15)
        X, y = random_instance(rng, 20, 45)
        model, ref = both_fits(X, y, 2.0, standardize=False, fit_bias=False)
        assert_same_fit(model, ref)
        assert model.bias == 0.0

    def test_iteration_cap(self):
        # near-duplicate columns and tol=0 keep coordinate descent crawling
        rng = np.random.default_rng(16)
        base = rng.normal(size=(30, 1))
        X = np.hstack([base + 1e-3 * rng.normal(size=(30, 1)) for _ in range(40)])
        y = X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=30)
        model, ref = both_fits(X, y, 1e-3, tol=0.0, max_iter=200)
        assert_same_fit(model, ref)
        assert not model.converged and model.n_iter == 200


def _reference_critical(X, y):
    """The smallest logistic lambda that zeroes every standardized coefficient."""
    return float(np.abs(_reference_standardize(X)[0].T @ (y - y.mean())).max())


def _reference_lasso_cv(X, y, multipliers, n_folds=4, tol=1e-8, cv_tol=1e-4):
    """fit_lasso_cv's loop as first written: the scalar solver standardizes
    every fold's rows again for every penalty."""
    alive = _alive_columns(X)
    Xa = X[:, alive]
    n = len(y)
    scale = max(1.0, float(((y - y.mean()) ** 2).sum()))
    grid = penalty_grid(2.0 * _reference_critical(Xa, y), multipliers)
    scores = np.zeros(len(grid))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        for fold in contiguous_folds(n, n_folds):
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            warm = None
            for gi, alpha in enumerate(grid):
                ref = reference_fit_lasso(Xa[mask], y[mask], alpha, tol=cv_tol * scale,
                                          max_iter=200, warm_start=warm)
                warm = ref.std_state
                resid = y[fold] - (Xa[fold] @ ref.weights + ref.bias)
                scores[gi] += float(resid @ resid)
        best = int(np.argmin(scores))
        warm = None
        for cand in grid[:best]:
            warm = reference_fit_lasso(Xa, y, cand, tol=cv_tol * scale, max_iter=200,
                                       warm_start=warm).std_state
        ref = reference_fit_lasso(Xa, y, grid[best], tol=tol * scale, warm_start=warm)
    weights = np.zeros(X.shape[1])
    weights[alive] = ref.weights
    return scores, grid[best], weights, ref.bias


def _reference_logistic_cv(X, y, multipliers, n_folds=4, tol=1e-6, cv_tol=1e-4):
    """fit_l1_logistic_cv's loop as first written: every fold's rows are
    standardized again for every penalty."""
    alive = _alive_columns(X)
    Xa = X[:, alive]
    n = len(y)
    grid = penalty_grid(_reference_critical(Xa, y), multipliers)
    scores = np.zeros(len(grid))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        for fold in contiguous_folds(n, n_folds):
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            if len(set(y[mask])) < 2:
                continue
            warm = None
            for gi, lam in enumerate(grid):
                Xs, *frame = _reference_standardize(Xa[mask])
                model = fit_l1_logistic(Xs, y[mask], lam, tol=cv_tol * n,
                                        max_iter=200, warm_start=warm)
                warm = (model.weights, model.bias)
                w, b = _reference_destandardize(*warm, *frame)
                p = np.clip(sigmoid(Xa[fold] @ w + b), 1e-12, 1 - 1e-12)
                scores[gi] += float(-(y[fold] * np.log(p)
                                      + (1 - y[fold]) * np.log(1 - p)).sum())
        best = int(np.argmin(scores))
        warm = None
        for cand in grid[:best]:
            model = fit_l1_logistic(_reference_standardize(Xa)[0], y, cand, tol=cv_tol * n,
                                    max_iter=200, warm_start=warm)
            warm = (model.weights, model.bias)
        Xs, *frame = _reference_standardize(Xa)
        model = fit_l1_logistic(Xs, y, grid[best], tol=tol * n, warm_start=warm)
        w, b = _reference_destandardize(model.weights, model.bias, *frame)
    weights = np.zeros(X.shape[1])
    weights[alive] = w
    return scores, grid[best], weights, b


MULTIPLIERS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)


def test_lasso_cv_matches_reference_loop():
    rng = np.random.default_rng(17)
    X, y = random_instance(rng, 48, 70)
    X[:, 5] = 1.0                      # dead on every row
    X[:36, 9] = 0.0                    # dead in the last fold's training rows
    X[36:, 9] = rng.normal(size=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        model = fit_lasso_cv(X, y, MULTIPLIERS)
        Xa = X[:, _alive_columns(X)]
        scale = max(1.0, float(((y - y.mean()) ** 2).sum()))
        scores = _cv_losses(fit_lasso, _squared_loss, Xa, y,
                            penalty_grid(2.0 * _reference_critical(Xa, y), MULTIPLIERS),
                            contiguous_folds(len(y), 4), 1e-4 * scale,
                            [f"x{j}" for j in range(Xa.shape[1])])
    ref_scores, alpha, weights, bias = _reference_lasso_cv(X, y, MULTIPLIERS)
    assert scores.tobytes() == ref_scores.tobytes()
    assert model.l1_strength == alpha
    assert model.weights.tobytes() == weights.tobytes()
    assert repr(model.bias) == repr(bias)
    assert np.count_nonzero(weights) > 0


def test_logistic_cv_matches_reference_loop():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(60, 25))
    X[:, 4] = -2.0
    y = (rng.random(60) < sigmoid(1.5 * X[:, 0] - X[:, 7])).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        model = fit_l1_logistic_cv(X, y, MULTIPLIERS)
        Xa = X[:, _alive_columns(X)]
        scores = _cv_losses(fit_l1_logistic, _log_loss, Xa, y,
                            penalty_grid(_reference_critical(Xa, y), MULTIPLIERS),
                            contiguous_folds(len(y), 4), 1e-4 * len(y),
                            [f"x{j}" for j in range(Xa.shape[1])])
    ref_scores, lam, weights, bias = _reference_logistic_cv(X, y, MULTIPLIERS)
    assert scores.tobytes() == ref_scores.tobytes()
    assert model.l1_strength == lam
    assert model.weights.tobytes() == weights.tobytes()
    assert repr(model.bias) == repr(bias)
    assert np.count_nonzero(weights) > 0


def test_cv_fits_warn_only_for_the_final_fit():
    # the warm paths' capped fits are silenced (cv_tol=0 caps many of them);
    # the final fit's cap is not
    rng = np.random.default_rng(17)
    X, y = random_instance(rng, 48, 12)
    for fit_cv, target in ((fit_lasso_cv, y), (fit_l1_logistic_cv, (y > np.median(y)) * 1.0)):
        for kw, expected in (({"max_iter": 1}, 1), ({}, 0), ({"cv_tol": 0.0}, 0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit_cv(X, target, MULTIPLIERS, **kw)
            assert sum(issubclass(w.category, NotConverged) for w in caught) == expected
