"""From-scratch L1-penalized solvers used by every model in the stack.

Both objectives are the literal sums (no 1/n factor):

  logistic:      -sum_i [y_i log p_i + (1-y_i) log(1-p_i)] + lam * ||w||_1
  least squares:  sum_i (y_i - x_i.w - b)^2               + alpha * ||w||_1

with an unpenalized bias. Each solver fits the design it is given and returns
weights in that design's frame; `selection` alone standardizes. The logistic
solver is proximal gradient (ISTA with a backtracking line search, so the
objective is nonincreasing by construction); the Lasso solver is cyclic
coordinate descent with exact soft-threshold updates, run over a working set
that a full-gradient KKT check keeps honest.
"""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import NotConverged

log = logging.getLogger(__name__)


def sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    feature_names: list[str]
    l1_strength: float
    task: str                      # "LOGISTIC" | "LEAST_SQUARES"
    converged: bool = True
    n_iter: int = 0
    objective_path: list[float] = field(default_factory=list)

    def decision(self, X) -> np.ndarray:
        """X.w + b, row by row: each row's sum is the same bits alone or in
        any batch, which a BLAS product does not promise. The copy to C order
        makes every row one contiguous reduction, whatever the layout of X."""
        return (np.ascontiguousarray(X, dtype=float) * self.weights).sum(axis=1) + self.bias

    def predict_proba(self, X) -> np.ndarray:
        if self.task != "LOGISTIC":
            raise ValueError("predict_proba is for logistic models")
        return sigmoid(self.decision(X))

    def coef_map(self) -> dict[str, float]:
        return {n: float(w) for n, w in zip(self.feature_names, self.weights)}


def _logistic_objective(Xw_b, y, w, lam):
    # -sum[y log p + (1-y) log(1-p)] computed stably from the margin
    z = Xw_b
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return loss + lam * float(np.abs(w).sum())


def fit_l1_logistic(X, y, lam: float, tol: float = 1e-6, max_iter: int = 10000,
                    feature_names=None, warm_start: tuple | None = None) -> LinearModel:
    """ISTA with backtracking line search on logistic loss + lam*||w||_1.

    `warm_start` is a (weights, bias) pair in X's frame, such as a previous
    fit's.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(p)]
    if warm_start is not None:
        w = warm_start[0].copy()
        b = float(warm_start[1])
    else:
        w = np.zeros(p)
        b = 0.0
    step = 1.0
    z = X @ w + b
    obj = _logistic_objective(z, y, w, lam)
    path = [obj]
    converged = stalled = False
    it = 0
    for it in range(1, max_iter + 1):
        prob = sigmoid(z)
        resid = prob - y
        grad_w = X.T @ resid
        grad_b = float(resid.sum())
        smooth = obj - lam * float(np.abs(w).sum())
        step = min(step * 2.0, 1e6)   # allow recovery after conservative steps
        while True:
            w_new = soft_threshold(w - step * grad_w, step * lam)
            b_new = b - step * grad_b
            z_new = X @ w_new + b_new
            dw = w_new - w
            db = b_new - b
            smooth_new = float(np.sum(np.logaddexp(0.0, z_new) - y * z_new))
            quad = (smooth + float(grad_w @ dw) + grad_b * db
                    + (float(dw @ dw) + db * db) / (2.0 * step))
            if smooth_new <= quad + 1e-12:
                break
            step *= 0.5
            if step < 1e-16:
                break
        new_obj = smooth_new + lam * float(np.abs(w_new).sum())
        if new_obj > obj + 1e-12:      # safeguard: never accept an increase
            stalled = True
            break
        w, b, z, prev_obj, obj = w_new, b_new, z_new, obj, new_obj
        path.append(obj)
        if prev_obj - obj < tol:
            converged = True
            break
    if stalled:
        warnings.warn(f"l1 logistic did not converge: the line search found no decrease "
                      f"at iteration {it}", NotConverged)
    elif not converged:
        warnings.warn(f"l1 logistic did not converge: max_iter={max_iter} iterations ran out",
                      NotConverged)
    return LinearModel(w, b, names, lam, "LOGISTIC", converged=converged,
                       n_iter=it, objective_path=path)


def fit_lasso(X, y, alpha: float, tol: float = 1e-8, max_iter: int = 10000,
              feature_names=None, fit_bias: bool = True,
              warm_start: tuple | None = None) -> LinearModel:
    """Cyclic coordinate descent with exact soft-threshold updates.

    Minimizes sum (y - Xw - b)^2 + alpha*||w||_1; the bias is refreshed to the
    mean residual after every sweep. After each full sweep, converged inner
    sweeps iterate over the active set only (classic speedup), with a final
    full sweep verifying the fixpoint. `warm_start` is a (weights, bias) pair
    in X's frame, such as a previous fit's.
    """
    # loaded here so that a predict or a baseline-only run never loads scipy
    from scipy.linalg.blas import daxpy, dcopy, ddot, dscal

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(p)]

    if warm_start is not None:
        w = warm_start[0].copy()
        b = float(warm_start[1])
    else:
        w = np.zeros(p)
        b = float(y.mean()) if fit_bias else 0.0
    w_list = w.tolist()

    # The sweep is the hot loop, so it reads Python scalars and contiguous row
    # views and calls BLAS directly on the float64 buffers it updates in place.
    # The residual update keeps two roundings, d*x_j into `step` and then the
    # add (daxpy's default a=1 makes it an exact add): a fused r += d*x_j
    # would change the fitted models.
    col_sq = (X ** 2).sum(axis=0).tolist()
    cols = list(np.ascontiguousarray(X.T))   # contiguous per-coordinate rows
    resid = y - X @ w - b
    step = np.empty(n)
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
            wj = w_list[j]
            xj = cols[j]
            rho = ddot(xj, resid) + cj * wj
            if rho > thresh:
                new = (rho - thresh) / cj
            elif rho < -thresh:
                new = (rho + thresh) / cj
            else:
                new = 0.0
            if new != wj:
                dcopy(xj, step)
                dscal(wj - new, step)
                daxpy(step, resid)
                w[j] = w_list[j] = new
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

    # working-set strategy: converge CD on the candidate coordinates, then
    # verify KKT on all coordinates with one full gradient and admit any
    # violators; the returned point therefore satisfies global KKT.
    path = [objective()]
    converged = False
    sweeps = 0
    grad = X.T @ resid
    in_set = (np.abs(2.0 * grad) > alpha) | (w != 0.0)
    kkt_slack = 1e-9 * max(1.0, alpha)
    max_rounds = 100
    for _round in range(max_rounds):
        working = np.flatnonzero(in_set).tolist()
        obj = objective()
        inner_ok = False
        round_sweeps = 0
        while sweeps < max_iter:
            sweeps += 1
            round_sweeps += 1
            sweep(working)
            if round_sweeps == 3:
                # shrink to the surviving support; dropped coordinates are
                # re-admitted by the full KKT verification below if needed
                working = np.flatnonzero(w != 0.0).tolist()
            new_obj = objective()
            if obj - new_obj < tol:
                inner_ok = True
                break
            obj = new_obj
        if inner_ok and tol <= 1e-7:
            # polish: a sweep that moves nothing is an exact fixpoint on the set
            w_scale = max(1.0, float(np.abs(w).max(initial=0.0)))
            for _ in range(200):
                sweeps += 1
                if sweep(working) <= 1e-13 * w_scale:
                    break
        resid = y - X @ w - b   # cancel accumulated float drift
        path.append(objective())
        grad = X.T @ resid
        violators = (w == 0.0) & (np.abs(2.0 * grad) > alpha + kkt_slack)
        if not violators.any():
            converged = inner_ok
            break
        if sweeps >= max_iter:      # a further round could sweep no more
            break
        in_set = (w != 0.0) | violators
    if not converged and sweeps >= max_iter:
        warnings.warn(f"lasso did not converge: max_iter={max_iter} sweeps ran out",
                      NotConverged)
    elif not converged:
        warnings.warn(f"lasso did not converge: {max_rounds} working-set rounds ran out "
                      f"after {sweeps} of max_iter={max_iter} sweeps", NotConverged)
    return LinearModel(w, b, names, alpha, "LEAST_SQUARES", converged=converged,
                       n_iter=sweeps, objective_path=path)


def lasso_kkt_violation(X, y, model: LinearModel) -> float:
    """Max KKT residual of sum-squares lasso at the model's solution.

    With r = Xw + b - y: zero coords need |2 x_j.r| <= alpha, nonzero coords
    need 2 x_j.r + alpha*sign(w_j) = 0. Returns the largest violation.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    r = model.decision(X) - y
    g = 2.0 * (X.T @ r)
    worst = 0.0
    for j, wj in enumerate(model.weights):
        if wj == 0.0:
            worst = max(worst, abs(g[j]) - model.l1_strength)
        else:
            worst = max(worst, abs(g[j] + model.l1_strength * np.sign(wj)))
    return max(worst, 0.0)
